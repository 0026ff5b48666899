"""The benchmark (perfbench/) reaches into the package by name: its tracer
wraps functions and reads ``_MONO_CACHE``, and its worker calls
``mm_rep.layout`` and records ``_kernels.jit_enabled``/``HAVE_NUMBA``.
These tests run every such name under the installed tracer.  Some of the
names (``layout``, ``jit_enabled``, ``HAVE_NUMBA``,
``GatherTable.dst_word``, ``modp_core.halve_words``) stay in the package
only because perfbench/ names them; removing them waits for a change to
the benchmark."""
import importlib.util
import os

from monsterrep import _kernels, aut_pl, mm_cli, mm_rep as mr, modp_core
from monsterrep._rng import CounterRng
from monsterrep.mm_rep import GeneratorAtom as A

TRACER_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced(tracer, fn):
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.active = True
        fn()
        tr.active = False
    finally:
        tr.uninstall()
    return tr


def test_tracer_sees_butterflies_under_tau_and_xi():
    tracer = _load_tracer()
    butterfly = modp_core.butterfly_words
    v = mr.rand(7, 5)
    tr = _traced(tracer, lambda: (mr.apply_atom(v, A("t", 1)), mr.apply_atom(v, A("l", 1))))
    assert modp_core.butterfly_words is butterfly
    under = set()
    for i, name in enumerate(tr.names):
        if name == "modp_core.butterfly_words":
            under |= set(tr.ancestors(i))
    assert {"mm_rep.apply_tau", "mm_rep.apply_xi"} <= under
    stages = tracer.layer_metrics(tr)
    assert stages["mm_rep.t_butterfly_s"] > 0 and stages["mm_rep.had16_s"] > 0


def test_tracer_meters_the_monomial_cache():
    tracer = _load_tracer()
    mr._MONO_CACHE.clear()
    v = mr.rand(3, 6)
    atoms = (A("x", 0x1a3), A("p", aut_pl.random_automorphism(CounterRng(6))),
             A("d", 0x29c))
    tr = _traced(tracer, lambda: [mr.apply_atom(v, at) for at in atoms * 2])
    assert set(tr.names) >= {"mm_rep.apply_atom:x", "mm_rep.apply_atom:p",
                             "mm_rep.apply_atom:d", "mm_rep._monomial_gather"}
    assert all((3, at.key()) in mr._MONO_CACHE for at in atoms)
    stages = tracer.layer_metrics(tr)
    assert stages["mm_rep.mono_cache.hits"] == stages["mm_rep.mono_cache.misses"] == 3


def test_tracer_sees_a_warm_fused_word_under_xi():
    """A y x_pi x nu_delta xi word seen twice before runs its three
    gathers under apply_xi, and finds its fused tables in one cache hit."""
    tracer = _load_tracer()
    mr._MONO_CACHE.clear()
    v = mr.rand(255, 9)
    word = [A("y", 0x7b1), A("p", aut_pl.random_automorphism(CounterRng(9))),
            A("x", 0x1a3), A("d", 0x29c), A("l", 2)]
    mr.apply_word(v, word)
    mr.apply_word(v, word)
    tr = _traced(tracer, lambda: mr.apply_word(v, word))
    gathers = [i for i, name in enumerate(tr.names) if name == "kernels.gather_signed"]
    assert len(gathers) == 3
    assert all("mm_rep.apply_xi" in tr.ancestors(i) for i in gathers)
    stages = tracer.layer_metrics(tr)
    assert stages["mm_rep.lane_gather_s"] == 0 and stages["mm_rep.xi_gather_s"] > 0
    assert stages["mm_rep.mono_cache.hits"] == 1
    assert stages["mm_rep.mono_cache.misses"] == 0


def test_tracer_sees_the_cli_apply_path(tmp_path):
    tracer = _load_tracer()
    src, dst = str(tmp_path / "in.mmv"), str(tmp_path / "out.mmv")
    mr.write_vector(mr.rand(7, 8), src)
    rcs = []
    tr = _traced(tracer, lambda: rcs.append(mm_cli.main(
        ["apply", "--in", src, "--word", "x1a3*t1*l2", "--out", dst])))
    assert rcs == [0]
    assert set(tr.names) >= {"mm_cli.parse_word", "mm_rep.read_vector",
                             "mm_rep.write_vector", "mm_rep.from_coords",
                             "mm_rep.Layout.extract", "mm_rep.Layout.inject"}
    stages = tracer.layer_metrics(tr)
    assert stages["mm_cli.parse_word.calls"] == 1
    assert stages["mm_rep.read_vector.calls"] == stages["mm_rep.write_vector.calls"] == 1


def test_names_the_benchmark_reads():
    assert isinstance(mr.layout(3), mr.Layout)
    assert _kernels.jit_enabled() in (False, True)
    assert _kernels.HAVE_NUMBA in (False, True)
    assert isinstance(_kernels.GatherTable.dst_word, property)
