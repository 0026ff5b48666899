import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monsterrep import modp_core as mc

ALL_P = mc.ALLOWED_P


@pytest.mark.parametrize("p", ALL_P)
def test_modulus_geometry(p):
    m = mc.modulus(p)
    assert m.p == (1 << m.k) - 1
    assert m.lanes == 64 // m.k
    assert m.words_for(m.lanes) == 1
    assert m.words_for(m.lanes + 1) == 2


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        mc.modulus(63)
    with pytest.raises(ValueError):
        mc.Modulus(5)


@pytest.mark.parametrize("p", ALL_P)
def test_pack_roundtrip_and_range(p):
    m = mc.modulus(p)
    vals = np.arange(p)
    f = mc.pack(vals, m)
    assert np.array_equal(mc.unpack(f), vals)
    with pytest.raises(ValueError):
        mc.pack([p], m)          # the alias value must be passed as 0
    with pytest.raises(ValueError):
        mc.pack([-1], m)


def test_pack_examples():
    assert mc.unpack(mc.pack([0], mc.modulus(3))).tolist() == [0]
    assert mc.unpack(mc.pack([5], mc.modulus(7))).tolist() == [5]
    with pytest.raises(ValueError):
        mc.pack([7], mc.modulus(7))


@pytest.mark.parametrize("p", ALL_P)
def test_lane_ops_exhaustive(p):
    """Every lane operation agrees with scalar arithmetic, all lane pairs."""
    m = mc.modulus(p)
    a = np.repeat(np.arange(p), p)
    b = np.tile(np.arange(p), p)
    fa, fb = mc.pack(a, m), mc.pack(b, m)
    assert np.array_equal(mc.unpack(mc.add_packed(fa, fb)), (a + b) % p)
    assert np.array_equal(mc.unpack(mc.neg_packed(fa)), (-a) % p)
    half = (p + 1) // 2
    assert np.array_equal(mc.unpack(mc.halve_packed(fa)), a * half % p)
    s, d = mc.butterfly_packed(fa, fb)
    assert np.array_equal(mc.unpack(s), (a + b) % p)
    assert np.array_equal(mc.unpack(d), (a - b) % p)
    s, d = mc.butterfly_packed(fa, fb, scale_half=True)
    assert np.array_equal(mc.unpack(s), (a + b) * half % p)
    assert np.array_equal(mc.unpack(d), (a - b) * half % p)


def test_add_examples():
    assert mc.unpack(mc.add_packed(mc.pack([2], mc.modulus(3)),
                                   mc.pack([2], mc.modulus(3)))).tolist() == [1]
    assert mc.unpack(mc.add_packed(mc.pack([6], mc.modulus(7)),
                                   mc.pack([1], mc.modulus(7)))).tolist() == [0]
    assert mc.unpack(mc.add_packed(mc.pack([200], mc.modulus(255)),
                                   mc.pack([100], mc.modulus(255)))).tolist() == [45]


def test_neg_halve_examples():
    assert mc.unpack(mc.neg_packed(mc.pack([5], mc.modulus(15)))).tolist() == [10]
    assert mc.unpack(mc.halve_packed(mc.pack([1], mc.modulus(7)))).tolist() == [4]
    assert mc.unpack(mc.halve_packed(mc.pack([6], mc.modulus(7)))).tolist() == [3]


def test_butterfly_examples():
    m7 = mc.modulus(7)
    s, d = mc.butterfly_packed(mc.pack([3], m7), mc.pack([5], m7))
    assert (mc.unpack(s).tolist(), mc.unpack(d).tolist()) == ([1], [5])
    m3 = mc.modulus(3)
    s, d = mc.butterfly_packed(mc.pack([1], m3), mc.pack([1], m3), scale_half=True)
    assert (mc.unpack(s).tolist(), mc.unpack(d).tolist()) == ([1], [0])


@pytest.mark.parametrize("p", ALL_P)
def test_involutions_and_inverses(p, rng):
    m = mc.modulus(p)
    vals = rng.ints(1000, p)
    f = mc.pack(vals, m)
    assert mc.neg_packed(mc.neg_packed(f)) == f
    assert mc.double_packed(mc.halve_packed(f)) == f
    s, d = mc.butterfly_packed(f, mc.pack(rng.ints(1000, p), m), scale_half=True)
    s2, d2 = mc.butterfly_packed(s, d)
    assert s2 == f


def test_modulus_mismatch():
    with pytest.raises(ValueError):
        mc.add_packed(mc.pack([1], mc.modulus(3)), mc.pack([1], mc.modulus(7)))
    with pytest.raises(ValueError):
        mc.add_packed(mc.pack([1, 2], mc.modulus(3)), mc.pack([1], mc.modulus(3)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_P), st.integers(0, 2**63), st.integers(1, 200))
def test_lane_isolation(p, seed, n):
    """Word-level ops never leak between lanes."""
    m = mc.modulus(p)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, n)
    b = rng.integers(0, p, n)
    fa, fb = mc.pack(a, m), mc.pack(b, m)
    got = mc.unpack(mc.add_packed(fa, fb))
    assert np.array_equal(got, (a + b) % p)
    # single-lane change must not affect other lanes
    j = int(rng.integers(0, n))
    a2 = a.copy()
    a2[j] = (a2[j] + 1) % p
    got2 = mc.unpack(mc.add_packed(mc.pack(a2, m), fb))
    diff = np.nonzero(got2 != got)[0]
    assert set(diff.tolist()) <= {j}


@pytest.mark.parametrize("p", ALL_P)
def test_pads_stay_aliased(p, rng):
    """Lanes past the count read back as zero after any op chain."""
    m = mc.modulus(p)
    n = m.lanes + 3
    f = mc.pack(rng.ints(n, p), m)
    g = mc.neg_packed(mc.halve_packed(mc.add_packed(f, f)))
    assert len(mc.unpack(g)) == n


@pytest.mark.parametrize("p", ALL_P)
def test_hadamard_words_matches_sylvester(p):
    """hadamard_words is H_64 / 8 mod p along axis 0, lane by lane, with
    the alias p read as 0 and a trailing axis carried along."""
    m = mc.modulus(p)
    rng = np.random.default_rng(p)
    vals = rng.integers(0, p + 1, size=(64, 3, 2, m.lanes), dtype=np.uint64)
    vals[:, 0, 0, 0] = p                        # a whole alias column
    words = np.zeros((64, 3, 2), dtype=np.uint64)
    for s in range(m.lanes):
        words |= vals[..., s] << np.uint64(s * m.k)
    assert mc.hadamard_words(words, m) is words
    idx = np.arange(64)
    H = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.int64)
    x = vals.astype(np.int64) % p
    want = np.tensordot(H, x, axes=(1, 0)) * pow(8, -1, p) % p
    got = np.stack([(words >> np.uint64(s * m.k)) & np.uint64(p)
                    for s in range(m.lanes)], axis=-1).astype(np.int64) % p
    assert np.array_equal(got, want)


def test_hadamard_words_rejects_bad_arrays():
    m = mc.modulus(7)
    a = np.zeros((64, 4), dtype=np.uint64)
    for bad in (a[:, ::2], a.T.copy().T, a[:32], a.astype(np.int64)):
        with pytest.raises(ValueError):
            mc.hadamard_words(bad, m)
