"""Acceptance criteria, one test per criterion, at full stated sizes.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they go).  Sampled checks use the package's counter-based stream
so a failure reproduces from the printed seed.
"""

import time

import numpy as np
import pytest

from monsterrep import (aut_pl, golay, mm_rep, modp_core, parker_loop as pl,
                        qx_leech as qx, scalar_ref, verify)
from monsterrep._rng import CounterRng
from monsterrep.golay import EXPAND
from monsterrep.mm_rep import GeneratorAtom as A

SEED = 1


def _line(n, ok, text):
    print(f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"criterion {n}: {text}"


def test_criterion_01_golay_weight_distribution():
    t0 = time.perf_counter()
    hist = np.bincount(np.bitwise_count(EXPAND), minlength=25)
    ok = (hist[[0, 8, 12, 16, 24]].tolist() == [1, 759, 2576, 759, 1]
          and hist.sum() == 4096)
    dt = time.perf_counter() - t0
    _line(1, ok and dt < 1.0,
          f"code weight distribution 0^1 8^759 12^2576 16^759 24^1 ({dt:.3f}s)")


def test_criterion_02_cocode_weight_distribution():
    t0 = time.perf_counter()
    hist = np.bincount(golay.COCODE_WEIGHT, minlength=5)
    ok = hist.tolist() == [1, 24, 276, 2024, 1771]
    dt = time.perf_counter() - t0
    _line(2, ok and dt < 1.0,
          f"cocode min-weight distribution 0^1 1^24 2^276 3^2024 4^1771 ({dt:.3f}s)")


def test_criterion_03_cocycle():
    rep = verify.cocycle_suite(seed=SEED, samples=10**6)
    _line(3, rep.ok, "cocycle: squaring/commutator clauses exhaustive over 2^24 "
          "pairs, associator clause on 10^6 triples, grey/coloured clauses "
          "exhaustive, row-0 pattern strings")


def test_criterion_04_parker_loop():
    rep = verify.loop_suite(seed=SEED, samples=10**6)
    _line(4, rep.ok, "Parker loop: squares exhaustive over 8192 elements, "
          "commutator/associator identities on 10^6 samples")


def test_criterion_05_automorphisms():
    rep = verify.autpl_suite(seed=SEED, samples=1000)
    _line(5, rep.ok, "standard automorphisms: compose/apply operator equality "
          "on all 8192 loop elements for 1000 random pairs, multiplication "
          "formula consistent with the brute-force oracle")


def test_criterion_06_qx_leech():
    rep = verify.leech_suite(seed=SEED, samples=10**6)
    _line(6, rep.ok, "extraspecial group / Leech: commutator and squaring "
          "contracts on 10^6 pairs with exact integer representatives, "
          "exhaustive 2^24 scan finds exactly 98280 short vectors, "
          "short index bijective both signs")


def test_criterion_07_xi_consistency():
    t0 = time.perf_counter()
    ok_exh = True
    for lo in range(0, 1 << 25, 1 << 21):
        v = np.arange(lo, lo + (1 << 21), dtype=np.int64)
        w = qx.conj_by_xi_vec(qx.conj_by_xi_vec(qx.conj_by_xi_vec(v, 1), 1), 1)
        if not np.array_equal(v, w):
            ok_exh = False
            break
    dt = time.perf_counter() - t0

    rng = CounterRng(SEED)
    num = qx.xi24_matrix_num(1)
    n = 10**5
    vals = rng.ints(n, 1 << 25)
    ok_compat = True
    for i in range(n):
        u = qx.leech_rep(qx.leech_image(qx.QxElement(int(vals[i]))))
        w = u @ num
        if (w % 2).any() or qx.classify_leech(w // 2).value != \
                qx.leech_image(qx.conj_by_xi(qx.QxElement(int(vals[i])), 1)).value:
            ok_compat = False
            break

    M1 = qx.xi24_matrix(1)
    ok_mat = (np.allclose(M1 @ M1.T, np.eye(24))
              and np.allclose(np.linalg.matrix_power(M1, 3), np.eye(24)))
    ok_lam = all(not ((np.asarray(u) @ num) % 2).any()
                 and qx.is_leech_vector((np.asarray(u) @ num) // 2)
                 for u in qx.lambda_e_generators()
                 + [qx.LAM_CODE[1], qx.LAM_COCODE[golay.syndrome_mask(1)]])
    _line(7, ok_exh and dt < 10.0 and ok_compat and ok_mat and ok_lam,
          f"xi: conjugation has order 3 on all 2^25 elements ({dt:.2f}s), "
          "matches xi_24 mod 2Lambda on 10^5 samples, xi_24 orthogonal of "
          "order 3 and Lambda-invariant on the generator set")


def test_criterion_08_representation_relations():
    rep = verify.rep_relations_suite(seed=SEED, samples=100)
    _line(8, rep.ok, "representation relations (tau^3, xi^3, x_d y_d z_d, "
          "x_d tau = tau y_d, [x_d, nu_delta], x_d x_e twist) exact on 100 "
          "random vectors for every p in {3,7,15,31,127,255}")


def test_criterion_09_intertwining():
    rep = verify.rep_intertwine_suite(seed=SEED, samples=100)
    ok = rep.checks[0].ok
    _line(9, ok, "intertwining: operator action on the 98280 block equals the "
          "signed permutation from conjugation, 100 random atoms, all "
          "coordinates exact")


def test_criterion_10_norm_invariance():
    rep = verify.rep_norm_suite(seed=SEED, samples=100)
    _line(10, rep.ok, "weighted norm form invariant under every atom class, "
          "100 random vectors per modulus, all six moduli")


def test_criterion_11_triality_dictionary():
    rep = verify.rep_intertwine_suite(seed=SEED, samples=1)
    ok = all(c.ok for c in rep.checks[1:])
    _line(11, ok, "triality dictionary: tau image of each (ij)_1 equals "
          "X_ij - X+_ij exactly, all 276 pairs")


def test_criterion_12_performance():
    rng = CounterRng(SEED)
    results = []
    worst = 0.0
    for p in modp_core.ALLOWED_P:
        v = mm_rep.rand(p, 7)
        for at in (A("x", 0x1a3), A("y", 0x1b57), A("z", 0xfff), A("d", 0x29c),
                   A("p", aut_pl.random_automorphism(rng)),
                   A("t", 1), A("t", 2), A("l", 1), A("l", 2)):
            mm_rep.apply_atom(v, at)              # warm up
            ms, _ = verify.time_ms(lambda: mm_rep.apply_atom(v, at), 3)
            worst = max(worst, ms)
            results.append((p, at.tag, ms))
    soft_ok = worst <= 100.0

    v3 = mm_rep.rand(3, 7)
    coords = v3.unpack().tolist()
    scalar_ms, _ = verify.time_ms(lambda: scalar_ref.apply_tau(coords, 3), 1)
    kernel_ms, _ = verify.time_ms(lambda: mm_rep.apply_tau(v3, 1), 5)
    speedup = scalar_ms / kernel_ms

    print(f"    reference platform figures: 0.73 ms (p=3) and 1.35 ms (p=255) "
          f"per G_x0-element-times-xi-power application")
    print(f"    worst atom time here: {worst:.2f} ms "
          f"({'within' if soft_ok else 'over'} the 100 ms soft bound)")
    print(f"    kernels vs scalar reference at p=3: {kernel_ms:.2f} ms vs "
          f"{scalar_ms:.1f} ms = {speedup:.0f}x")
    if not soft_ok:
        print("    (soft bound exceeded; not failing on slow hardware)")
    _line(12, speedup >= 4.0,
          f"performance: the kernels beat the scalar reference by "
          f"{speedup:.0f}x (>= 4x required); worst atom {worst:.2f} ms")
