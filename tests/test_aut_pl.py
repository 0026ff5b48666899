import numpy as np
import pytest

from monsterrep import aut_pl, golay, parker_loop as pl
from monsterrep.aut_pl import (IDENTITY_AUT, IDENTITY_PERM, NotInM24Error,
                               Perm24, StdAutomorphism, apply, compose,
                               diag_automorphism, from_perm, parity)
from monsterrep.golay import CocodeElement, GolayCodeword
from monsterrep.parker_loop import ParkerLoopElement


def test_identity():
    pi = from_perm(IDENTITY_PERM)
    assert all(aut_pl.apply_value(pi, v) == v for v in range(0, 8192, 61))
    assert parity(pi) == 0
    assert not pi.qform.any()


def test_transposition_rejected():
    images = list(range(24))
    images[0], images[1] = 1, 0
    with pytest.raises(NotInM24Error):
        from_perm(Perm24(tuple(images)))


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        Perm24(tuple([0] * 24))


def test_sample_perms_equal_table_filter():
    """sample_perms keeps the candidates that _perm_tables accepts, in
    candidate order."""
    kept = []
    for images in aut_pl._candidate_images():
        try:
            aut_pl._perm_tables(images)
            kept.append(images)
        except NotInM24Error:
            pass
    assert [p.images for p in aut_pl.sample_perms()] == kept
    assert len(kept) == 35


def test_lift_fixes_basis():
    for p in aut_pl.sample_perms()[:6]:
        pi = from_perm(p)
        for j in range(12):
            img = apply(pi, ParkerLoopElement(1 << j))
            assert img.sign == 0
            assert int(golay.EXPAND[img.coords]) == golay.permute_mask(
                golay.BASIS[j], p.images)


def test_diagonal_action(rng):
    delta = CocodeElement(0x155)
    pi = diag_automorphism(delta)
    v = np.asarray(rng.ints(500, 8192))
    got = aut_pl.apply_value_vec(pi, v)
    want = v ^ (golay.pair_bits(v & 0xFFF, delta.coords).astype(np.int64) << 12)
    assert np.array_equal(got, want)
    assert parity(diag_automorphism(golay.syndrome(1))) == 1
    assert parity(diag_automorphism(golay.syndrome(3))) == 0


def test_fixes_center(rng):
    for _ in range(10):
        pi = aut_pl.random_automorphism(rng)
        assert apply(pi, ParkerLoopElement(0x1000)) == ParkerLoopElement(0x1000)
        img = aut_pl.apply_value(pi, golay.OMEGA_COORDS)
        assert img & 0xFFF == golay.OMEGA_COORDS


def test_homomorphism_property(rng):
    for _ in range(30):
        pi = aut_pl.random_automorphism(rng)
        a = np.asarray(rng.ints(2000, 8192))
        b = np.asarray(rng.ints(2000, 8192))
        lhs = aut_pl.apply_value_vec(pi, pl.mul_value_vec(a, b))
        rhs = pl.mul_value_vec(aut_pl.apply_value_vec(pi, a),
                               aut_pl.apply_value_vec(pi, b))
        assert np.array_equal(lhs, rhs)


def test_compose_operator_equality(rng):
    allv = np.arange(8192, dtype=np.int64)
    for _ in range(25):
        p1 = aut_pl.random_automorphism(rng)
        p2 = aut_pl.random_automorphism(rng)
        lhs = aut_pl.apply_value_vec(compose(p1, p2), allv)
        rhs = aut_pl.apply_value_vec(p2, aut_pl.apply_value_vec(p1, allv))
        assert np.array_equal(lhs, rhs)


def test_compose_diagonals():
    d1, d2 = CocodeElement(0x155), CocodeElement(0xa3c)
    got = compose(diag_automorphism(d1), diag_automorphism(d2))
    assert got.diag.coords == 0x155 ^ 0xa3c
    assert got.perm.is_identity()


def test_compose_with_identity(rng):
    pi = aut_pl.random_automorphism(rng)
    allv = np.arange(8192, dtype=np.int64)
    for c in (compose(pi, IDENTITY_AUT), compose(IDENTITY_AUT, pi)):
        assert np.array_equal(aut_pl.apply_value_vec(c, allv),
                              aut_pl.apply_value_vec(pi, allv))


def test_parity_homomorphism(rng):
    for _ in range(50):
        p1 = aut_pl.random_automorphism(rng)
        p2 = aut_pl.random_automorphism(rng)
        assert parity(compose(p1, p2)) == parity(p1) ^ parity(p2)


def test_4096_lifts_distinct(rng):
    base = from_perm(aut_pl.sample_perms()[2])
    probe = np.asarray(rng.ints(48, 8192))
    seen = set()
    for d in range(4096):
        pi = StdAutomorphism(CocodeElement(d), base.perm)
        seen.add(aut_pl.apply_value_vec(pi, probe).tobytes())
    assert len(seen) == 4096


def test_composition_law_with_lift_corrections(rng):
    """(d,l)^{[p][p']} = (d^{pp'}, l + q_p(d) + q_{p'}(d^p))."""
    for _ in range(10):
        q1 = from_perm(aut_pl.random_perm(rng))
        q2 = from_perm(aut_pl.random_perm(rng))
        both = compose(q1, q2)
        for dv in rng.ints(200, 4096):
            c1 = aut_pl.apply_value(q1, int(dv))
            expect_sign = (int(q1.qform[int(dv)])
                           ^ int(q2.qform[c1 & 0xFFF]))
            got = aut_pl.apply_value(both, int(dv))
            assert got >> 12 == expect_sign


def _qform_per_codeword(code_img):
    """q built one codeword at a time, splitting off the lowest bit."""
    q = np.zeros(4096, dtype=np.uint8)
    for c in range(1, 4096):
        bk = c & -c
        rest = c ^ bk
        beta = (bin(int(pl.THETA[int(code_img[rest])]) & int(code_img[bk])).count("1")
                ^ bin(int(pl.THETA[rest]) & bk).count("1")) & 1
        q[c] = q[rest] ^ q[bk] ^ beta
    return q


def test_qform_oracle(rng):
    """q vanishes on the basis, its polarization is theta(c^pi, b^pi) +
    theta(c, b) for every c and basis vector b, and it equals the
    per-codeword construction."""
    odd = StdAutomorphism(golay.syndrome(1), aut_pl.random_perm(rng))
    assert parity(odd) == 1
    auts = [IDENTITY_AUT, odd] + [from_perm(aut_pl.random_perm(rng)) for _ in range(20)]
    c = np.arange(4096)
    for pi in auts:
        code_img, _, q = pi.tables()
        assert q[0] == 0 and not q[1 << np.arange(12)].any()
        for j in range(12):
            b = 1 << j
            pol = (golay.pair_bits(pl.THETA[code_img[c]], code_img[b])
                   ^ golay.pair_bits(pl.THETA[c], b))
            assert np.array_equal(q[c ^ b] ^ q[c] ^ q[b], pol), (pi.perm, j)
        assert np.array_equal(q, _qform_per_codeword(code_img))


def test_cocode_table_equals_scalar_image(rng):
    """The doubled cocode image table equals the syndrome of the permuted
    lightest representative, for every cocode element."""
    odd = StdAutomorphism(golay.syndrome(1), aut_pl.random_perm(rng))
    assert parity(odd) == 1
    perms = [IDENTITY_PERM, odd.perm] + [aut_pl.random_perm(rng) for _ in range(10)]
    for perm in perms:
        images = perm.images
        table = aut_pl._perm_tables(images)[1]
        want = [golay.syndrome_mask(golay.permute_mask(int(golay.LIGHTEST[c]), images))
                for c in range(4096)]
        assert table.tolist() == want, images
