"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; this guards the names it needs for the Hadamard layers of tau and xi."""
import importlib.util
import os

from monsterrep import mm_rep as mr, modp_core
from monsterrep.mm_rep import GeneratorAtom as A

TRACER_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_butterflies_under_tau_and_xi():
    tracer = _load_tracer()
    butterfly = modp_core.butterfly_words
    v = mr.rand(7, 5)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.active = True
        mr.apply_atom(v, A("t", 1))
        mr.apply_atom(v, A("l", 1))
        tr.active = False
    finally:
        tr.uninstall()
    assert modp_core.butterfly_words is butterfly
    under = set()
    for i, name in enumerate(tr.names):
        if name == "modp_core.butterfly_words":
            under |= set(tr.ancestors(i))
    assert {"mm_rep.apply_tau", "mm_rep.apply_xi"} <= under
    stages = tracer.layer_metrics(tr)
    assert stages["mm_rep.t_butterfly_s"] > 0 and stages["mm_rep.had16_s"] > 0
