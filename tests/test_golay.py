from itertools import combinations

import numpy as np
import pytest

from monsterrep import golay
from monsterrep.golay import (CocodeElement, GolayCodeword, EXPAND, OMEGA,
                              ROW0, compress, expand, gamma, is_codeword,
                              lightest_rep, octad_index, scalar,
                              suboctad_index, syndrome, w, w2)


def test_weight_distribution():
    hist = np.bincount(np.bitwise_count(EXPAND), minlength=25)
    assert hist[0] == 1 and hist[8] == 759 and hist[12] == 2576
    assert hist[16] == 759 and hist[24] == 1
    assert hist.sum() == 4096


def test_cocode_weight_distribution():
    hist = np.bincount(golay.COCODE_WEIGHT, minlength=5)
    assert hist.tolist() == [1, 24, 276, 2024, 1771]


def test_is_codeword_basics():
    assert is_codeword(0)
    assert is_codeword(OMEGA)
    # the odd grey word: row 0 = 011111, column 0 rows 1-3 all set
    g0 = golay.G_BASIS[0]
    assert is_codeword(g0)
    assert g0 == (ROW0 ^ 0xF)
    assert not is_codeword(1)
    assert not is_codeword(0x7F)       # weight 7, below the minimum weight
    assert is_codeword(0xFF)           # two full columns form a grey octad


def test_expand_compress_roundtrip():
    for c in range(0, 4096, 7):
        assert compress(int(EXPAND[c])).coords == c
    assert expand(GolayCodeword(1)) == golay.G_BASIS[0]
    assert expand(GolayCodeword(0x3F)) == OMEGA
    with pytest.raises(ValueError):
        compress(1)


def test_syndrome_kernel_and_lightest():
    assert all(syndrome(int(EXPAND[c])).coords == 0 for c in range(0, 4096, 17))
    # lightest representative of omega is a single MOG column (weight 4)
    omega = CocodeElement(golay.OMEGA_COCODE)
    rep = lightest_rep(omega)
    assert bin(rep).count("1") == 4
    assert rep in [golay.COLUMN[n] for n in range(6)]
    # smallest-set-bit tie break picks column 0
    assert rep == golay.COLUMN[0]
    # syndrome of a representative gives back the element
    for coords in range(0, 4096, 13):
        assert syndrome(int(golay.LIGHTEST[coords])).coords == coords


def test_scalar_pairing():
    for m in range(6):
        for n in range(6):
            assert scalar(GolayCodeword(1 << m),
                          gamma(int(EXPAND[1 << n]))) == (0 if m == n else 1)
    omega_word = GolayCodeword(0x3F)
    for i in range(24):
        assert scalar(omega_word, syndrome(1 << i)) == 1
    assert all(scalar(GolayCodeword(c), CocodeElement(0)) == 0
               for c in range(0, 4096, 97))


def test_grey_split():
    g, h = golay.grey_split(GolayCodeword(1))
    assert (g, h) == (1, 0)
    g, h = golay.grey_split(GolayCodeword(1 << 7))
    assert (g, h) == (0, 2)
    g, h = golay.grey_split(GolayCodeword(0x3F))
    assert (g, h) == (0x3F, 0)
    # parts recombine
    for c in range(0, 4096, 11):
        g, h = golay.grey_split(GolayCodeword(c))
        assert (EXPAND[g] ^ EXPAND[h << 6]) == EXPAND[c]


def test_gamma():
    for i in range(6):
        got = gamma(int(EXPAND[1 << i]))
        assert got.coords == golay.grey_cocode_coords(1 << i)
        # gamma(omega_i) = gamma_i as well
        assert gamma(int(golay.COLUMN[i])).coords == got.coords
    assert gamma(0).coords == 0


def test_w_and_w2():
    assert w(GolayCodeword(0x3F)) == 6 and w2(GolayCodeword(0x3F)) == 1
    for t in range(64):
        cw = GolayCodeword(t)
        assert bin(int(EXPAND[t])).count("1") == golay.GREY_CODE_SIZE[w(cw)]
        assert w2(cw) == [0, 0, 1, 1, 0, 0, 1][w(cw)]
    with pytest.raises(ValueError):
        w(GolayCodeword(1 << 6))


def test_bilinear_grey():
    for m in range(6):
        for n in range(6):
            assert golay.bilinear_grey(GolayCodeword(1 << m),
                                       GolayCodeword(1 << n)) == (0 if m == n else 1)
    for t in range(64):
        assert golay.bilinear_grey(GolayCodeword(t), GolayCodeword(t)) == 0
    # polarization identity, exhaustive over the grey code
    for a in range(64):
        for b in range(64):
            pol = (golay.W2_TABLE[bin(a).count("1")]
                   ^ golay.W2_TABLE[bin(b).count("1")]
                   ^ golay.W2_TABLE[bin(a ^ b).count("1")])
            assert golay.bilinear_grey_bits(a, b) == pol


def test_octads_and_suboctads():
    assert len(golay.OCTAD_MASKS) == 759
    assert golay.SUB_SYND.size == 759 * 64
    d = golay.octad_from_index(0)
    assert octad_index(d) == 0
    assert suboctad_index(d, CocodeElement(0)) == 0
    with pytest.raises(ValueError):
        octad_index(GolayCodeword(0x3F))
    # suboctad indices biject with representable even cocode elements
    o = golay.octad_from_index(123)
    seen = set()
    for t in range(64):
        sy = int(golay.SUB_SYND[123, t])
        assert suboctad_index(o, CocodeElement(sy)) == t
        seen.add(sy)
    assert len(seen) == 64
    with pytest.raises(ValueError):
        suboctad_index(o, syndrome(1 << 23) if int(golay.OCTAD_MASKS[123]) >> 23 & 1 == 0
                       else syndrome(1))


def test_even_iff_omega_pairing():
    evens = (np.bitwise_count(EXPAND & np.uint32(ROW0)) & 1) == 0
    pairs = golay.pair_bits(np.arange(4096), golay.OMEGA_COCODE) == 0
    assert np.array_equal(evens, pairs)


def test_hexacode_membership():
    assert golay.HexacodeWord((1, 0, 0, 1, 3, 2)).is_in_hexacode()
    assert not golay.HexacodeWord((1, 0, 0, 0, 0, 0)).is_in_hexacode()
    with pytest.raises(ValueError):
        golay.HexacodeWord((4, 0, 0, 0, 0, 0))


def test_lightest_equals_subset_loop():
    """LIGHTEST and COCODE_WEIGHT equal the first subset of least weight
    per syndrome, found by a loop over the subsets in combinations order."""
    rep = np.zeros(4096, dtype=np.uint32)
    wt = np.full(4096, -1, dtype=np.int8)
    wt[0] = 0
    for weight in (1, 2, 3, 4):
        for pts in combinations(range(24), weight):
            mask = sum(1 << i for i in pts)
            s = golay.syndrome_mask(mask)
            if wt[s] < 0:
                wt[s], rep[s] = weight, mask
    assert np.array_equal(golay.LIGHTEST, rep) and golay.LIGHTEST.dtype == rep.dtype
    assert np.array_equal(golay.COCODE_WEIGHT, wt) and golay.COCODE_WEIGHT.dtype == wt.dtype
