"""Tests of the benchmark itself (workload generators, checker, tracer,
result format).  Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from monsterrep import mm_rep  # noqa: E402

import run  # noqa: E402
from checker import Checker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MONOMIAL_TAGS, WORKLOADS, FreshWord, TauXi  # noqa: E402


def _inputs(wl, n):
    return [(w.p, [at.key() for at in w.atoms], w.check_at, w.text)
            for w in (wl.word(i) for i in range(n))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a, b = WORKLOADS[name](7), WORKLOADS[name](7)
    assert a.base_seeds == b.base_seeds
    assert [(w.p, w.text, [at.key() for at in w.atoms]) for w in a.warm_words()] \
        == [(w.p, w.text, [at.key() for at in w.atoms]) for w in b.warm_words()]
    assert _inputs(a, 30) == _inputs(b, 30)
    assert _inputs(WORKLOADS[name](8), 30) != _inputs(WORKLOADS[name](7), 30)


def test_tau_xi_words_are_reduced():
    wl = TauXi(3)
    for i in range(300):
        tags = [at.tag for at in wl.word(i).atoms]
        assert set(tags) == {"t", "l"}
        assert all(a != b for a, b in zip(tags, tags[1:]))


def test_fresh_word_never_repeats_a_monomial_payload():
    wl = FreshWord(3)
    keys = []
    for i in range(60):                 # more words than a 20-second run applies
        w = wl.word(i)
        assert len(w.atoms) == 20
        assert set(at.tag for at in w.atoms) == set("xyzdptl")
        keys += [at.key() for at in w.atoms if at.tag in MONOMIAL_TAGS]
    assert len(keys) == len(set(keys))


def _corrupt(v, block):
    """v with one zero coordinate of the given logical range set to 1,
    which also changes the norm form by 1."""
    c = v.unpack()
    k = block.start + int(np.flatnonzero(c[block] == 0)[0])
    c[k] = 1
    return mm_rep.from_coords(v.p, c)


@pytest.mark.parametrize("tag,payload,block", [
    ("x", 0x1a3, slice(49428, 98580)),       # X block, seen by the conjugation check
    ("t", 1, slice(852, 49428)),             # T block, seen by scalar_ref
])
def test_checker_counts_a_corrupted_vector(tag, payload, block):
    v = mm_rep.rand(7, 11)
    at = mm_rep.GeneratorAtom(tag, payload)
    w = mm_rep.apply_atom(v, at)
    chk = Checker()
    assert chk.atom(0, v, at, w)
    assert chk.norm(0, w, mm_rep.norm_form(v))
    assert chk.failed_words() == 0
    bad = _corrupt(w, block)
    assert not chk.atom(1, v, at, bad)
    assert not chk.norm(2, bad, mm_rep.norm_form(v))
    assert chk.failed_words() == 2


def test_checker_compares_files_byte_for_byte():
    tmp = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        v = mm_rep.rand(3, 5)
        for name, vec in (("a", v), ("b", v), ("c", _corrupt(v, slice(300, 576)))):
            mm_rep.write_vector(vec, os.path.join(tmp, name))
        chk = Checker()
        assert chk.same_bytes(0, os.path.join(tmp, "a"), os.path.join(tmp, "b"))
        assert not chk.same_bytes(1, os.path.join(tmp, "a"), os.path.join(tmp, "c"))
        assert chk.failed_words() == 1
    finally:
        shutil.rmtree(tmp)


def test_tracer_self_time_and_restore():
    import types
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        mod.inner()
        time.sleep(0.01)

    mod.inner, mod.outer = inner, outer
    tr = Tracer()
    tr._set(mod, "inner", tr.wrap("inner", inner))
    tr._set(mod, "outer", tr.wrap("outer", outer))
    tr.active = True
    tr.run("word", mod.outer)
    tr.active = False
    mod.outer()                          # inactive: no spans
    tr.uninstall()
    assert (mod.inner, mod.outer) == (inner, outer)
    assert tr.names == ["word", "outer", "inner"]
    assert tr.parent == [-1, 0, 1]
    dur, own = tr.self_times()
    assert own[2] == pytest.approx(dur[2]) and dur[2] >= 0.02
    assert own[1] == pytest.approx(dur[1] - dur[2]) and own[1] >= 0.01
    assert own[0] == pytest.approx(dur[0] - dur[1])


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    return res


def test_traced_run_cache_hit_ratio():
    hot = _result(_bench("--workload", "gx0_xi", "--seed", "1", "--seconds", "2",
                         "--trace", "1"))
    cold = _result(_bench("--workload", "fresh_word", "--seed", "1", "--seconds", "2",
                          "--trace", "1"))
    for res in (hot, cold):
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert hot["metrics"]["mm_rep.mono_cache.hit_ratio"]["value"] > 0.99
    assert cold["metrics"]["mm_rep.mono_cache.hit_ratio"]["value"] == 0
    assert cold["metrics"]["mm_rep.mono_cache.misses"]["value"] > 0


def test_untraced_run_prints_every_end_to_end_metric():
    res = _result(_bench("--workload", "tau_xi", "--seed", "2", "--seconds", "1"))
    assert res["correct"] and res["attempted"] >= 6
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_package_source():
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "gx0_xi", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
