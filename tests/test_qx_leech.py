import numpy as np
import pytest

from monsterrep import aut_pl, golay, parker_loop as pl, qx_leech as qx
from monsterrep.golay import CocodeElement, GolayCodeword, HexacodeWord
from monsterrep.mm_rep import Basis4096Index
from monsterrep.parker_loop import ParkerLoopElement
from monsterrep.qx_leech import (QX_ONE, QxElement, ShortVectorIndex,
                                 conj_by_gen, conj_by_xi, from_short_index,
                                 from_xd_xdelta, leech_image, qx_mul,
                                 short_index, to_xd_xdelta, type_mod2)


def test_group_identity_and_inverse(rng):
    for v in rng.ints(200, 1 << 25):
        a = QxElement(int(v))
        assert (a * a.inverse()).value == 0
        assert qx_mul(QX_ONE, a) == a


def test_xtilde_products_signless():
    grey = [QxElement(t << 12) for t in range(64)]
    for a in range(64):
        for b in range(64):
            assert (grey[a] * grey[b]).value == (a ^ b) << 12


def test_commutator_via_coordinates(rng):
    a = rng.ints(10**5, 1 << 25)
    b = rng.ints(10**5, 1 << 25)
    comm = qx.qx_mul_value_vec(
        qx.qx_mul_value_vec(
            np.vectorize(qx.qx_inv_value)(a), np.vectorize(qx.qx_inv_value)(b)),
        qx.qx_mul_value_vec(a, b))
    want = (golay.pair_bits((a >> 12) & 0xFFF, b & 0xFFF)
            ^ golay.pair_bits((b >> 12) & 0xFFF, a & 0xFFF)).astype(np.int64) << 24
    assert np.array_equal(comm, want)


def test_from_to_xd_roundtrip(rng):
    for v in rng.ints(500, 1 << 25):
        a = QxElement(int(v))
        d, delta = to_xd_xdelta(a)
        assert from_xd_xdelta(d, delta) == a
    assert from_xd_xdelta(ParkerLoopElement(0), CocodeElement(0)) == QX_ONE


def test_xd_squares_exhaustive():
    for dv in range(8192):
        d = ParkerLoopElement(dv)
        a = from_xd_xdelta(d, CocodeElement(0))
        assert (a * a).value == pl.pmap(d) << 24


def test_xd_product_relation(rng):
    for _ in range(2000):
        dv, ev = rng.int(8192), rng.int(8192)
        lhs = from_xd_xdelta(ParkerLoopElement(dv), CocodeElement(0)) \
            * from_xd_xdelta(ParkerLoopElement(ev), CocodeElement(0))
        de = pl.mul_value(dv, ev)
        am = pl.amap_mask(int(golay.EXPAND[dv & 0xFFF]), int(golay.EXPAND[ev & 0xFFF]))
        rhs = from_xd_xdelta(ParkerLoopElement(de), CocodeElement(am))
        assert lhs == rhs


def test_leech_isomorphism_contract(rng):
    """Commutator sign = pairing of exact representatives; square = type."""
    n = 50000
    a = rng.ints(n, 1 << 25)
    b = rng.ints(n, 1 << 25)
    ca, fa = (a >> 12) & 0xFFF, a & 0xFFF
    cb, fb = (b >> 12) & 0xFFF, b & 0xFFF
    ua = qx.LAM_CODE[ca] + qx.LAM_COCODE[pl.THETA[ca].astype(np.int64) ^ fa]
    ub = qx.LAM_CODE[cb] + qx.LAM_COCODE[pl.THETA[cb].astype(np.int64) ^ fb]
    pair = ((ua.astype(np.int64) * ub.astype(np.int64)).sum(axis=1) // 8) & 1
    csign = golay.pair_bits(ca, fb) ^ golay.pair_bits(cb, fa)
    assert np.array_equal(pair, csign.astype(np.int64))
    ty = ((ua.astype(np.int64) ** 2).sum(axis=1) // 16) & 1
    sq = qx.qx_mul_value_vec(a, a) >> 24
    assert np.array_equal(ty, sq)


def test_generator_images():
    # image of a grey basis involution: 2 on its support
    lam = qx.leech_rep(leech_image(QxElement(1 << 12)))
    mask = golay.G_BASIS[0]
    assert all(lam[i] == (2 if mask >> i & 1 else 0) for i in range(24))
    # image of a point: -3 there, 1 elsewhere
    lam = qx.LAM_COCODE[golay.syndrome_mask(1)]
    assert lam[0] == -3 and all(lam[i] == 1 for i in range(1, 24))


def test_type_mod2(rng):
    for v in rng.ints(300, 1 << 25):
        a = QxElement(int(v))
        lam = leech_image(a)
        assert type_mod2(lam) == ((a * a).value >> 24)
        assert qx.rep_type(qx.leech_rep(lam)) % 2 == type_mod2(lam)


def test_short_count_by_scan():
    total = 0
    for lo in range(0, 1 << 24, 1 << 20):
        _, _, ok = qx.short_index_vec(np.arange(lo, lo + (1 << 20), dtype=np.int64))
        total += int(ok.sum())
    assert total == 98280


def test_short_index_bijection_both_signs():
    idx, sgn, ok = qx.short_index_vec(qx.SHORT_VALUES)
    assert ok.all() and (sgn == 0).all()
    assert np.array_equal(idx, np.arange(98280))
    idx, sgn, ok = qx.short_index_vec(qx.SHORT_VALUES ^ (1 << 24))
    assert ok.all() and (sgn == 1).all()
    assert np.array_equal(idx, np.arange(98280))


def test_short_index_kinds():
    b = from_short_index(ShortVectorIndex("B", 0, 1))
    u = qx.leech_rep(leech_image(b))
    assert qx.rep_type(u) % 2 == 0                  # class parity is even
    # (4, -4) pair shape for kind B is the type-2 member of the class
    sv = qx.shape_vector(ShortVectorIndex("B", 0, 1))
    assert qx.rep_type(sv) == 2
    assert sv[0] == 4 and sv[1] == -4 and not sv[2:].any()
    idx, sign = short_index(b)
    assert (idx.kind, idx.a, idx.b, sign) == ("B", 0, 1, 0)
    with pytest.raises(ValueError):
        short_index(QX_ONE)


def test_shape_classification(rng):
    for flat in rng.ints(400, 98280):
        si = qx.index_from_flat(int(flat))
        u = qx.shape_vector(si)
        assert qx.rep_type(u) == 2
        assert qx.is_leech_vector(u)
        assert qx.classify_leech(u).value == int(qx.SHORT_VALUES[int(flat)]) & 0xFFFFFF


def test_conj_by_gen_is_automorphism(rng):
    for tag in ("x", "y", "z", "p"):
        payload = rng.int(8192) if tag != "p" else aut_pl.random_automorphism(rng)
        a = rng.ints(5000, 1 << 25)
        b = rng.ints(5000, 1 << 25)
        lhs = qx.conj_by_gen_vec(qx.qx_mul_value_vec(a, b), tag, payload)
        rhs = qx.qx_mul_value_vec(qx.conj_by_gen_vec(a, tag, payload),
                                  qx.conj_by_gen_vec(b, tag, payload))
        assert np.array_equal(lhs, rhs)


def test_conj_table_rows():
    # x_e fixes x_delta up to (-1)^{<e,delta>}
    e, delta = 0x1a3, 0x155
    got = conj_by_gen(QxElement(delta), "x", e)
    assert got.value == delta | (bin(e & delta).count("1") & 1) << 24
    # x_pi relabels
    pi = aut_pl.from_perm(aut_pl.sample_perms()[3])
    a = QxElement(5 << 12)
    got = conj_by_gen(a, "p", pi)
    w = aut_pl.apply_value(pi, 5)
    assert ((got.value >> 12) & 0xFFF) == (w & 0xFFF)


def test_conj_preserves_shortness(rng):
    some = qx.SHORT_VALUES[::31]
    for tag in ("x", "y", "z"):
        _, _, ok = qx.short_index_vec(qx.conj_by_gen_vec(some, tag, rng.int(8192)))
        assert ok.all()
    _, _, ok = qx.short_index_vec(qx.conj_by_xi_vec(some, 1))
    assert ok.all()


def test_conj_by_xi_order_three_sampled(rng):
    v = rng.ints(10**5, 1 << 25)
    w = qx.conj_by_xi_vec(qx.conj_by_xi_vec(qx.conj_by_xi_vec(v, 1), 1), 1)
    assert np.array_equal(v, w)
    assert np.array_equal(qx.conj_by_xi_vec(v, 2),
                          qx.conj_by_xi_vec(qx.conj_by_xi_vec(v, 1), 1))
    with pytest.raises(ValueError):
        conj_by_xi(QX_ONE, 3)
    for e in (1.0, 0, 3):
        with pytest.raises(ValueError, match="integer" if e == 1.0 else "1 or 2"):
            conj_by_xi(QX_ONE, e)
        with pytest.raises(ValueError, match="integer" if e == 1.0 else "1 or 2"):
            qx.conj_by_xi_vec(v, e)
    assert np.array_equal(qx.conj_by_xi_vec(v, np.int64(2)), qx.conj_by_xi_vec(v, 2))


def test_xi_three_cycle_on_grey_frame():
    for i in range(6):
        a = QxElement((1 << i) << 12)
        b = conj_by_xi(a, 1)
        assert b.value == golay.grey_cocode_coords(1 << i)
        c = conj_by_xi(b, 1)
        d = conj_by_xi(c, 1)
        assert d == a


def test_xi_fixes_paired_coloured():
    # purely coloured x_h x_gamma(h) is fixed
    for h6 in range(1, 64):
        c = h6 << 6
        gam = golay.gamma(int(golay.EXPAND[c]))
        a = from_xd_xdelta(ParkerLoopElement(c), gam)
        assert conj_by_xi(a, 1) == a


def test_xi24_matrix():
    M1 = qx.xi24_matrix(1)
    M2 = qx.xi24_matrix(2)
    assert np.allclose(M1 @ M1.T, np.eye(24))
    assert np.allclose(np.linalg.matrix_power(M1, 3), np.eye(24))
    assert np.allclose(M1 @ M1, M2)
    assert np.allclose(M1[0, :4], [-0.5] * 4)
    for e in (0, 3, 1.0):
        for f in (qx.xi24_matrix, qx.xi24_matrix_num):
            with pytest.raises(ValueError, match="integer" if e == 1.0 else "1 or 2"):
                f(e)


def test_xi24_grey_frame_cycle():
    """lambda_{gamma_i} -> lambda_{g_i} - lambda_{gamma_i} -> -lambda_{g_i}."""
    num = qx.xi24_matrix_num(1)
    for i in range(6):
        lg = qx.LAM_CODE[1 << i]
        lgam = qx.LAM_COCODE[golay.grey_cocode_coords(1 << i)]
        step1 = lgam @ num
        assert not (step1 % 2).any()
        assert qx.classify_leech(step1 // 2).value \
            == qx.classify_leech(lg - lgam).value
        step2 = (step1 // 2) @ num
        assert qx.classify_leech(step2 // 2).value == qx.classify_leech(-lg).value


def test_xi24_conj_compatibility(rng):
    num = qx.xi24_matrix_num(1)
    for v in rng.ints(2000, 1 << 25):
        a = QxElement(int(v))
        u = qx.leech_rep(leech_image(a))
        w = u @ num
        assert not (w % 2).any()
        assert qx.classify_leech(w // 2).value == leech_image(conj_by_xi(a, 1)).value


def test_lambda_invariance():
    num = qx.xi24_matrix_num(1)
    gens = qx.lambda_e_generators()
    for u in gens[::37]:
        w = np.asarray(u) @ num
        assert not (w % 2).any() and qx.is_leech_vector(w // 2)


def test_qx_text_format():
    from monsterrep.mm_cli import format_qx, parse_qx
    for val in (0, 0x1a3, 1 << 24 | 0x7ff << 12 | 0x155):
        a = QxElement(val)
        assert parse_qx(format_qx(a)) == a


def test_min_type(rng):
    assert qx.min_type(qx.LeechMod2(0)) == 0
    # short class
    lam = leech_image(from_short_index(ShortVectorIndex("B", 0, 1)))
    assert qx.min_type(lam) == 2
    # odd classes have minimal type 3, even non-short classes type 4
    counts = {0: 0, 2: 0, 3: 0, 4: 0}
    for v in rng.ints(3000, 1 << 24):
        counts[qx.min_type(qx.LeechMod2(int(v)))] += 1
    assert counts[3] > 0 and counts[4] > 0
    # parities agree
    for v in rng.ints(300, 1 << 24):
        lam = qx.LeechMod2(int(v))
        assert qx.min_type(lam) % 2 == qx.type_mod2(lam)


@pytest.mark.parametrize("cls, args", [
    (ParkerLoopElement, (1.5,)),
    (ParkerLoopElement, (8192,)),
    (GolayCodeword, (2.0,)),
    (CocodeElement, (3.5,)),
    (QxElement, (1.5,)),
    (aut_pl.Perm24, (tuple(float(i) for i in range(24)),)),
    (HexacodeWord, ((0, 0, 0, 0, 0, 2.0),)),
    (Basis4096Index, (0, 0, 1.5, 0)),
    (Basis4096Index, (0, 2, 0, 0)),
    (ShortVectorIndex, ("T", 759, 0)),
    (ShortVectorIndex, ("T", 0, 64)),
    (ShortVectorIndex, ("B", 5, 5)),
    (ShortVectorIndex, ("C", 3, 3)),
    (ShortVectorIndex, ("B", 0, 24)),
    (ShortVectorIndex, ("X", 2048, 0)),
    (ShortVectorIndex, ("X", 0, 24)),
    (ShortVectorIndex, ("X", -1, 0)),
    (ShortVectorIndex, ("X", 0, 1.0)),
    (ShortVectorIndex, ("Q", 0, 1)),
    (ShortVectorIndex, (None, 0, 1)),
    (from_short_index, (1.5,)),
    (from_short_index, (-1,)),
    (from_short_index, (qx.N_SHORT,)),
    (qx.index_from_flat, (-1,)),
    (qx.index_from_flat, (qx.N_SHORT,)),
    (qx.LeechMod2, (-1,)),
    (qx.LeechMod2, (1 << 24,)),
    (qx.LeechMod2, (1.5,)),
])
def test_value_types_reject_what_they_cannot_hold(cls, args):
    """Integer fields are read exactly and checked against their range,
    so a bad field fails at construction, not later in a lookup."""
    with pytest.raises(ValueError):
        cls(*args)


def test_value_types_read_numpy_integers_as_int():
    i = np.int64(5)
    for x, field in ((ParkerLoopElement(i), "value"), (GolayCodeword(i), "coords"),
                     (CocodeElement(i), "coords"), (QxElement(i), "value"),
                     (ShortVectorIndex("B", np.uint8(1), i), "b"),
                     (Basis4096Index(0, 1, np.int8(3), i), "h"), (qx.LeechMod2(i), "value")):
        assert type(getattr(x, field)) is int
    perm = aut_pl.Perm24(tuple(np.arange(24)))
    assert perm == aut_pl.IDENTITY_PERM and perm.is_identity()
    assert HexacodeWord(list(np.array(golay.HEXACODE_GENS[0]))).is_in_hexacode()
    assert from_short_index(ShortVectorIndex("B", 1, 0)) == from_short_index(ShortVectorIndex("B", 0, 1))
    assert from_short_index(np.int64(1)) == from_short_index(1)
    assert qx.index_from_flat(np.uint32(1000)) == qx.index_from_flat(1000)
