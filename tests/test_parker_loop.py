import numpy as np
import pytest

from monsterrep import golay, parker_loop as pl
from monsterrep.golay import EXPAND, CocodeElement, GolayCodeword
from monsterrep.parker_loop import (MINUS_ONE, OMEGA_LOOP, ONE,
                                    ParkerLoopElement, amap, cmap, inv, mul,
                                    pmap, theta, theta_of)


def test_identity_and_center():
    a = ParkerLoopElement(0x1a3)
    assert mul(a, ONE) == a
    assert mul(a, MINUS_ONE) == -a
    assert mul(OMEGA_LOOP, OMEGA_LOOP) == ONE      # |Omega| = 24, P = 0
    assert inv(OMEGA_LOOP) == OMEGA_LOOP


def test_squares_exhaustive():
    allv = np.arange(8192, dtype=np.int64)
    sq = pl.mul_value_vec(allv, allv)
    want = pl.PMAP_TABLE[allv & 0xFFF].astype(np.int64) << 12
    assert np.array_equal(sq, want)


def test_square_sign_by_weight():
    octad = golay.octad_from_index(0)
    a = pl.loop(octad)
    assert mul(a, a) == ONE                         # octads square to +1
    dodecad = next(GolayCodeword(c) for c in range(4096)
                   if int(np.bitwise_count(EXPAND[c])) == 12)
    b = pl.loop(dodecad)
    assert mul(b, b) == MINUS_ONE                   # dodecads square to -1
    assert inv(b) == -b


def test_commutator_sampled(rng):
    d = rng.ints(10**5, 8192)
    e = rng.ints(10**5, 8192)
    de = pl.mul_value_vec(d, e)
    ed = pl.mul_value_vec(e, d)
    comm = pl.mul_value_vec(de, pl.inv_value_vec(ed))
    cbit = ((np.bitwise_count(EXPAND[d & 0xFFF] & EXPAND[e & 0xFFF]) >> 1) & 1)
    assert np.array_equal(comm, cbit.astype(np.int64) << 12)


def test_associator_sampled(rng):
    d, e, f = (rng.ints(10**5, 8192) for _ in range(3))
    lhs = pl.mul_value_vec(d, pl.mul_value_vec(e, f))
    rhs = pl.mul_value_vec(pl.mul_value_vec(d, e), f)
    diff = pl.mul_value_vec(lhs, pl.inv_value_vec(rhs))
    abit = np.bitwise_count(EXPAND[d & 0xFFF] & EXPAND[e & 0xFFF]
                            & EXPAND[f & 0xFFF]) & 1
    assert np.array_equal(diff, abit.astype(np.int64) << 12)


def test_pca_maps():
    d = ParkerLoopElement(golay.OCTAD_COORDS[0])
    assert pmap(d) == 0 or pmap(d) == 1
    # A(d,d) pairs to zero against everything
    add = amap(d, d)
    assert all(golay.scalar(GolayCodeword(f), add) == 0 for f in range(0, 4096, 37))
    # P(d+e) = P(d)+P(e)+C(d,e) on samples
    for dv, ev in [(0x123, 0x456), (0xfff, 0x0f0), (0x800, 0x801)]:
        a, b = ParkerLoopElement(dv), ParkerLoopElement(ev)
        s = ParkerLoopElement(dv ^ ev)
        assert pmap(s) == (pmap(a) + pmap(b) + cmap(a, b)) % 2


def test_theta_construction():
    assert all(int(pl.THETA[1 << i]) == 0 for i in range(6))
    assert int(pl.THETA[0x3F]) == 0
    assert np.array_equal(pl.THETA, pl.THETA[np.arange(4096) ^ 0x3F])
    # theta(d,d) = P(d), theta(d,e)+theta(e,d) = C(d,e), sampled
    for dv in range(0, 4096, 53):
        assert pl.theta_bits(dv, dv) == int(pl.PMAP_TABLE[dv])
        for ev in range(0, 4096, 101):
            c = (bin(int(EXPAND[dv]) & int(EXPAND[ev])).count("1") >> 1) & 1
            assert (pl.theta_bits(dv, ev) ^ pl.theta_bits(ev, dv)) == c


def test_theta_grey_coloured():
    for e in range(64):
        for h in range(64):
            assert pl.theta_bits(e, h << 6) == 0
            gam = golay.gamma(int(EXPAND[h << 6]))
            assert pl.theta_bits(h << 6, e) == golay.scalar(GolayCodeword(e), gam)


def test_row0_patterns():
    """The five published row-0 strings appear on the nested grey sums of
    one to five basis vectors."""
    pats = {}
    for bits in range(64):
        mask = sum(1 << (4 * n) for n in range(6) if bits >> n & 1)
        pats[golay.syndrome_mask(mask)] = "".join(str(bits >> n & 1) for n in range(6))
    got = [pats[int(pl.THETA[(1 << m) - 1])] for m in range(1, 6)]
    assert got == ["000000", "001111", "111111", "111100", "000000"]


def test_diassociativity_smoke(rng):
    def all_brackets(word):
        if len(word) == 1:
            yield word[0]
            return
        for cut in range(1, len(word)):
            for lv in all_brackets(word[:cut]):
                for rv in all_brackets(word[cut:]):
                    yield pl.mul_value(lv, rv)

    for _ in range(100):
        a, b = rng.int(8192), rng.int(8192)
        for word in ((a, b, a), (b, a, b), (a, b, a, b), (a, a, b, b)):
            assert len(set(all_brackets(word))) == 1


def test_cocycle_table_interface():
    assert theta(GolayCodeword(0x40), GolayCodeword(3)) in (0, 1)
    assert theta_of(GolayCodeword(0)).coords == 0


def test_theta_equals_lowest_bit_loop():
    """THETA equals theta(c) = theta(c - b_k) + theta(b_k) + A(c - b_k, b_k)
    over the lowest set bit k of c, one code word at a time, with theta(b_i)
    holding P(b_i) at bit i and C(b_i, b_j) at bits j < i."""
    B = golay.BASIS
    basis = [sum((pl.pmap_mask(B[i]) if i == j else pl.cmap_mask(B[i], B[j])) << j
                 for j in range(i + 1)) for i in range(12)]
    theta = np.zeros(4096, dtype=np.uint16)
    for c in range(1, 4096):
        k = (c & -c).bit_length() - 1
        rest = c ^ (1 << k)
        theta[c] = (theta[rest] ^ basis[k]
                    ^ golay.syndrome_mask(int(EXPAND[rest]) & golay.BASIS[k]))
    assert np.array_equal(pl.THETA, theta) and pl.THETA.dtype == theta.dtype
