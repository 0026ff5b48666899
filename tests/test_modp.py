import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monsterrep import mm_rep as mr, modp_core as mc

ALL_P = mc.ALLOWED_P


def _u16(vals):
    return np.asarray(vals, dtype=np.uint16)


def _butterfly(a, b):
    """butterfly_words on int16 copies of a and b into fresh outputs."""
    a, b = np.asarray(a).astype(np.int16), np.asarray(b).astype(np.int16)
    s, d = np.empty_like(a), np.empty_like(a)
    out = mc.butterfly_words(a, b, s, d)
    assert out[0] is s and out[1] is d
    return s, d


def _res(a, p):
    """Residues 0..p-1 of values 0..p (the alias p reads as 0)."""
    a = np.asarray(a)
    assert a.min() >= 0 and a.max() <= p        # no op leaves 0..p
    return a.astype(np.int64) % p


@pytest.mark.parametrize("p", ALL_P)
def test_modulus_geometry(p):
    m = mc.modulus(p)
    assert m.p == (1 << m.k) - 1
    assert m.k == p.bit_length()


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        mc.modulus(63)
    with pytest.raises(ValueError):
        mc.Modulus(5)
    for p in (3.0, 3.5, "7", None):
        with pytest.raises(ValueError, match=re.escape(f"got {p!r}")):
            mc.Modulus(p)
    for p in (np.int64(3), np.uint8(255)):
        m = mc.Modulus(p)
        assert type(m.p) is int and m == mc.modulus(p)
    with pytest.raises(TypeError):          # k follows from p
        mc.Modulus(3, 5)
    for p in (3.0, 3.5, np.float64(7.0), "7", None):       # not truncated
        with pytest.raises(ValueError, match=re.escape(f"got {p!r}")):
            mc.modulus(p)
    assert mc.modulus(np.uint8(255)) is mc.modulus(255)


@pytest.mark.parametrize("p", ALL_P)
def test_pack_roundtrip_and_range(p):
    """Coordinates 0..p-1 are stored one per byte and read back; the
    stored alias p reads back as 0; p and -1 are rejected on input."""
    vals = np.resize(np.arange(p), mr.DIM)
    v = mr.from_coords(p, vals)
    assert v.buf.dtype == np.uint8 and np.array_equal(v.unpack(), vals)
    v.buf[:3] = p
    assert v.unpack()[:3].tolist() == [0, 0, 0]
    for bad in (p, -1):
        vals[7] = bad
        with pytest.raises(ValueError):
            mr.from_coords(p, vals)


def test_pack_examples():
    def one(p, x):
        vals = np.zeros(mr.DIM, dtype=np.int64)
        vals[5] = x
        return int(mr.from_coords(p, vals).unpack()[5])
    assert one(3, 0) == 0
    assert one(7, 5) == 5
    with pytest.raises(ValueError):
        one(7, 7)


@pytest.mark.parametrize("p", ALL_P)
def test_lane_ops_exhaustive(p):
    """Every operation agrees with scalar arithmetic on all pairs of values
    0..p, the alias p included on both inputs."""
    m = mc.modulus(p)
    a = _u16(np.repeat(np.arange(p + 1), p + 1))
    b = _u16(np.tile(np.arange(p + 1), p + 1))
    ia, ib = a.astype(np.int64), b.astype(np.int64)
    assert np.array_equal(_res(mc.add_words(a, b, m), p), (ia + ib) % p)
    assert np.array_equal(_res(mc.neg_words(a, m), p), (-ia) % p)
    half = (p + 1) // 2
    assert np.array_equal(_res(mc.halve_words(a, m), p), ia * half % p)
    s, d = _butterfly(a, b)
    assert np.array_equal(s, ia + ib) and np.array_equal(d, ia - ib)
    assert np.array_equal(s % p, (ia + ib) % p)
    assert np.array_equal(d % p, (ia - ib) % p)


def test_add_examples():
    m3, m7, m255 = mc.modulus(3), mc.modulus(7), mc.modulus(255)
    assert _res(mc.add_words(_u16([2]), _u16([2]), m3), 3).tolist() == [1]
    assert _res(mc.add_words(_u16([6]), _u16([1]), m7), 7).tolist() == [0]
    assert _res(mc.add_words(_u16([200]), _u16([100]), m255), 255).tolist() == [45]
    # a = b = 255 at p = 255: the sum needs 9 bits
    assert _res(mc.add_words(_u16([255]), _u16([255]), m255), 255).tolist() == [0]


def test_neg_halve_examples():
    assert _res(mc.neg_words(_u16([5]), mc.modulus(15)), 15).tolist() == [10]
    assert _res(mc.halve_words(_u16([1]), mc.modulus(7)), 7).tolist() == [4]
    assert _res(mc.halve_words(_u16([6]), mc.modulus(7)), 7).tolist() == [3]


def test_butterfly_examples():
    s, d = _butterfly(_u16([3]), _u16([5]))
    assert (s.tolist(), d.tolist()) == ([8], [-2])
    assert ((s % 7).tolist(), (d % 7).tolist()) == ([1], [5])
    # a = b = 255 at p = 255: the exact sum needs 9 bits, the difference 0
    s, d = _butterfly(_u16([255, 0]), _u16([255, 255]))
    assert (s.tolist(), d.tolist()) == ([510, 255], [0, -255])


@pytest.mark.parametrize("p", ALL_P)
def test_involutions_and_inverses(p, rng):
    m = mc.modulus(p)
    f = _u16(rng.ints(1000, p + 1))
    assert np.array_equal(mc.neg_words(mc.neg_words(f, m), m), f)
    h = mc.halve_words(f, m)
    assert np.array_equal(_res(mc.add_words(h, h, m), p), _res(f, p))
    g = _u16(rng.ints(1000, p + 1))
    s2, d2 = _butterfly(*_butterfly(f, g))
    assert np.array_equal(s2, 2 * f.astype(np.int64))
    assert np.array_equal(d2, 2 * g.astype(np.int64))


def test_modulus_mismatch():
    with pytest.raises(ValueError):
        mr.new_zero(3) + mr.new_zero(7)
    m3 = mc.modulus(3)
    with pytest.raises(ValueError):
        mc.add_words(_u16([1, 2]), _u16([1, 2, 0]), m3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_P), st.integers(0, 2**63), st.integers(1, 200))
def test_lane_isolation(p, seed, n):
    """Element-wise ops on arrays holding the alias p: each result depends
    only on its own inputs."""
    m = mc.modulus(p)
    rng = np.random.default_rng(seed)
    a = _u16(rng.integers(0, p + 1, n))
    b = _u16(rng.integers(0, p + 1, n))
    a[rng.integers(0, n)] = p
    got = _res(mc.add_words(a, b, m), p)
    assert np.array_equal(got, (a.astype(np.int64) + b) % p)
    # a change of one element must not affect the others
    j = int(rng.integers(0, n))
    a2 = a.copy()
    a2[j] = (a2[j] + 1) % (p + 1)
    got2 = _res(mc.add_words(a2, b, m), p)
    diff = np.nonzero(got2 != got)[0]
    assert set(diff.tolist()) <= {j}


@pytest.mark.parametrize("p", ALL_P)
def test_pads_stay_aliased(p, rng):
    """An op chain on values that include the alias p keeps every value in
    0..p and reads back as the residues of the chain."""
    m = mc.modulus(p)
    f = _u16(rng.ints(64, p + 1))
    f[::5] = p
    g = mc.neg_words(mc.halve_words(mc.add_words(f, f, m), m), m)
    assert g.dtype == np.uint16 and g.max() <= p
    assert np.array_equal(_res(g, p), (-(f.astype(np.int64) % p)) % p)


@pytest.mark.parametrize("p", ALL_P)
def test_hadamard_words_matches_sylvester(p):
    """hadamard_words is H_64 / 8 mod p along axis 0, element-wise, with
    the alias p read as 0 and a trailing axis carried along, at the edge
    of its int16 headroom too; applied twice it gives back the input."""
    m = mc.modulus(p)
    rng = np.random.default_rng(p)
    idx = np.arange(64)
    H = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.int64)
    vals = rng.integers(0, p + 1, size=(64, 5, 2), dtype=np.uint16)
    vals[:, 0, 0] = p           # a whole alias column: 64p in row 0 before reduction
    # (p - 1) times rows of H_64: H_64 takes each to 64(p - 1) in that row
    vals[:, 1:4, 1] = (p - 1) * H[[0, 21, 63]].T % p
    # p where row 63 of H_64 is -1: -32p in row 63 before the division
    vals[:, 4, 1] = np.where(H[63] < 0, p, 0)
    x = vals.astype(np.int64) % p
    assert mc.hadamard_words(vals, m) is vals
    want = np.tensordot(H, x, axes=(1, 0)) * pow(8, -1, p) % p
    assert np.array_equal(_res(vals, p), want)
    mc.hadamard_words(vals, m)
    assert np.array_equal(_res(vals, p), x)


def test_hadamard_words_rejects_bad_arrays():
    m = mc.modulus(7)
    a = np.zeros((64, 4), dtype=np.uint16)
    for bad in (a[:, ::2], a.T.copy().T, a[:32], a.astype(np.int64), a.astype(np.uint8)):
        with pytest.raises(ValueError):
            mc.hadamard_words(bad, m)
