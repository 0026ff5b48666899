import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monsterrep import aut_pl, golay, mm_rep as mr, parker_loop as pl, qx_leech as qx
from monsterrep import modp_core, scalar_ref
from monsterrep._kernels import GatherTable, gather_signed
from monsterrep._rng import CounterRng
from monsterrep.mm_rep import GeneratorAtom as A

ALL_P = modp_core.ALLOWED_P


@pytest.mark.parametrize("p", ALL_P)
def test_vector_basics(p, rng):
    v = mr.rand(p, 100 + p)
    assert mr.rand(p, 100 + p) == v                 # deterministic per seed
    assert v + mr.new_zero(p) == v
    assert mr.scale(v, p - 1) == -v
    assert mr.scale(v, 0) == mr.new_zero(p)
    c = v.unpack()
    assert c.shape == (mr.DIM,)
    assert mr.from_coords(p, c) == v
    with pytest.raises(TypeError):
        v + 1


def test_from_coords_validation():
    with pytest.raises(ValueError):
        mr.from_coords(3, np.full(mr.DIM, 3))
    with pytest.raises(ValueError):
        mr.from_coords(3, np.zeros(10))
    for vals in (np.full(mr.DIM, 1.5), np.full(mr.DIM, "1")):   # not truncated
        with pytest.raises(ValueError, match="integers"):
            mr.from_coords(3, vals)
    assert mr.from_coords(3, np.ones(mr.DIM, dtype=bool)) == \
        mr.from_coords(3, np.ones(mr.DIM, dtype=np.uint16))
    for p in (3.5, 3.0, "3"):                                   # not truncated
        with pytest.raises(ValueError, match=re.escape(f"got {p!r}")):
            mr.from_coords(p, np.zeros(mr.DIM, dtype=np.uint8))
        with pytest.raises(ValueError, match=re.escape(f"got {p!r}")):
            mr.new_zero(p)
        with pytest.raises(ValueError, match=re.escape(f"got {p!r}")):
            mr.rand(p, 1)
    assert mr.from_coords(np.int64(3), np.ones(mr.DIM, dtype=np.uint8)).mod == modp_core.modulus(3)


def test_norm_form_weights():
    assert mr.norm_form(mr.new_zero(7)) == 0
    assert mr.norm_form(mr.basis_vector(7, 3)) == 1         # diagonal entry
    assert mr.norm_form(mr.basis_vector(7, 30)) == 2        # pair entry
    assert mr.norm_form(mr.basis_vector(7, 1000)) == 1      # T entry


def test_file_roundtrip(tmp_path):
    v = mr.rand(31, 9)
    path = tmp_path / "v.mmv"
    mr.write_vector(v, path)
    w = mr.read_vector(path)
    assert w == v
    mr.write_vector(w, tmp_path / "w.mmv")
    assert (tmp_path / "v.mmv").read_bytes() == (tmp_path / "w.mmv").read_bytes()
    # the alias p is written as byte 0 and reads back equal
    alias = v.copy()
    alias.buf[np.flatnonzero(v.buf == 0)[::2]] = 31
    mr.write_vector(alias, tmp_path / "a.mmv")
    assert (tmp_path / "a.mmv").read_bytes() == (tmp_path / "v.mmv").read_bytes()
    assert mr.read_vector(tmp_path / "a.mmv") == alias
    with pytest.raises(ValueError):
        (tmp_path / "bad.mmv").write_bytes(b"NOPE")
        mr.read_vector(tmp_path / "bad.mmv")


@pytest.mark.parametrize("p", ALL_P)
def test_alias_io_and_equality(p, tmp_path):
    """A vector holding the alias p in a third of its coordinates writes
    the MMV1 bytes of its residues and reads back equal; equality agrees
    with comparing unpack(), for alias against 0 and for one changed
    coordinate."""
    v = mr.rand(p, 200 + p)
    v.buf[::3] = p
    path = tmp_path / "v.mmv"
    mr.write_vector(v, path)
    assert path.read_bytes() == (mr.MAGIC + bytes([p]) + mr.DIM.to_bytes(4, "little")
                                 + v.unpack().astype(np.uint8).tobytes())
    back = mr.read_vector(path)
    assert back == v and back.buf.max() < p
    one = back.copy()
    one.buf[3] = 1                                    # v holds the alias there
    other = back.copy()
    other.buf[100000] = (other.buf[100000] + 1) % p
    for a, b in ((v, back), (v, one), (v, other), (back, other), (one, one)):
        assert (a == b) == np.array_equal(a.unpack(), b.unpack())
    assert v == back and v != one and v != other


def test_read_vector_rejects_oversized_file_unread(tmp_path):
    """A valid file padded to 40 MB is rejected by its size, before any
    more than one vector's bytes are read."""
    path = tmp_path / "big.mmv"
    mr.write_vector(mr.rand(7, 1), path)
    with open(path, "r+b") as fh:
        fh.truncate(40 * 2**20)                       # sparse padding
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{40 * 2**20} bytes"):
            mr.read_vector(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_scale_and_basis_vector_take_exact_integers():
    """scale takes an integer factor (numpy integers too); basis_vector
    rejects indices outside 0..DIM-1 and indices that are not integers,
    naming them."""
    v = mr.rand(7, 3)
    with pytest.raises(TypeError):
        mr.scale(v, 2.5)
    assert mr.scale(v, np.int64(3)) == mr.scale(v, 3)
    for i in (-1, mr.DIM):
        with pytest.raises(ValueError, match="outside"):
            mr.basis_vector(7, i)
    for i in (1.5, np.float64(2.0), "3"):
        with pytest.raises(ValueError, match=re.escape(f"coordinate {i!r} is not an integer")):
            mr.basis_vector(7, i)
    assert mr.basis_vector(7, mr.DIM - 1).buf[-1] == 1
    assert mr.basis_vector(7, np.int16(5)) == mr.basis_vector(7, 5)


def test_identity_atoms():
    v = mr.rand(7, 4)
    assert mr.apply_atom(v, A("x", 0)) == v
    assert mr.apply_atom(v, A("d", 0)) == v
    assert mr.apply_pi(v, aut_pl.IDENTITY_AUT) == v


def test_central_element():
    p = 7
    v = mr.rand(p, 4)
    w = mr.apply_atom(v, A("x", 0x1000))
    cv, cw = v.unpack(), w.unpack()
    zy = 300 + 276 + 276 + 48576 + 49152
    assert np.array_equal(cv[:zy], cw[:zy])
    assert np.array_equal((p - cv[zy:]) % p, cw[zy:])


def test_atom_validation():
    with pytest.raises(ValueError):
        A("x", 8192)
    with pytest.raises(ValueError):
        A("t", 3)
    with pytest.raises(ValueError):
        A("q", 1)
    with pytest.raises(ValueError):
        A("p", 5)
    for tag, payload in (("x", 1.5), ("y", 2.0), ("z", "3"), ("d", 0.5), ("t", 1.0),
                         ("l", None)):
        with pytest.raises(ValueError, match="integer"):
            A(tag, payload)
    v = mr.rand(7, 3)
    for payload in (np.int64(0x1a3), np.uint16(0x1a3)):
        assert mr.apply_atom(v, A("x", payload)) == mr.apply_atom(v, A("x", 0x1a3))
    assert mr.apply_atom(v, A("l", np.int8(1))) == mr.apply_xi(v, 1)
    for apply in (mr.apply_tau, mr.apply_xi):
        for e in (1.0, 1.5, "1", None):
            with pytest.raises(ValueError, match="integer"):
                apply(v, e)
        with pytest.raises(ValueError, match="1 or 2"):
            apply(v, 3)
        assert apply(v, np.int64(2)) == apply(v, 2)


@pytest.mark.parametrize("p", [3, 255])
def test_monomial_relations(p, rng):
    v = mr.rand(p, 50)
    for _ in range(6):
        d, e, delta = rng.int(8192), rng.int(8192), rng.int(4096)
        assert mr.apply_atom(mr.apply_atom(mr.apply_atom(
            v, A("x", d)), A("y", d)), A("z", d)) == v
        lhs = mr.apply_atom(mr.apply_atom(v, A("x", d)), A("d", delta))
        rhs = mr.apply_atom(mr.apply_atom(v, A("d", delta)), A("x", d))
        if bin(d & 0xFFF & delta).count("1") & 1:
            rhs = mr.apply_atom(rhs, A("x", 0x1000))
        assert lhs == rhs
        de = pl.mul_value(d, e)
        am = pl.amap_mask(int(golay.EXPAND[d & 0xFFF]), int(golay.EXPAND[e & 0xFFF]))
        assert mr.apply_atom(mr.apply_atom(v, A("x", d)), A("x", e)) \
            == mr.apply_atom(mr.apply_atom(v, A("x", de)), A("d", am))


@pytest.mark.parametrize("p", [3, 31])
def test_triality_relations(p, rng):
    v = mr.rand(p, 51)
    assert mr.apply_tau(mr.apply_tau(mr.apply_tau(v, 1), 1), 1) == v
    assert mr.apply_tau(v, 2) == mr.apply_tau(mr.apply_tau(v, 1), 1)
    assert mr.apply_tau(mr.apply_tau(v, 1), 2) == v
    for _ in range(4):
        d = rng.int(8192)
        assert mr.apply_tau(mr.apply_atom(v, A("x", d)), 1) \
            == mr.apply_atom(mr.apply_tau(v, 1), A("y", d))
        assert mr.apply_tau(mr.apply_atom(v, A("x", d)), 2) \
            == mr.apply_atom(mr.apply_tau(v, 2), A("z", d))


@pytest.mark.parametrize("p", [3, 127])
def test_xi_relations(p, rng):
    v = mr.rand(p, 52)
    assert mr.apply_xi(mr.apply_xi(mr.apply_xi(v, 1), 1), 1) == v
    assert mr.apply_xi(v, 2) == mr.apply_xi(mr.apply_xi(v, 1), 1)
    assert mr.apply_xi(mr.apply_xi(v, 1), 2) == v


def test_pi_tau_parity_relation(rng):
    v = mr.rand(7, 53)
    for _ in range(6):
        pi = aut_pl.random_automorphism(rng)
        par = aut_pl.parity(pi)
        lhs = mr.apply_tau(mr.apply_pi(v, pi), 1)
        rhs = mr.apply_pi(mr.apply_tau(v, 2 if par else 1), pi)
        assert lhs == rhs


def test_pi_operator_composition(rng):
    v = mr.rand(7, 54)
    for _ in range(6):
        p1 = aut_pl.random_automorphism(rng)
        p2 = aut_pl.random_automorphism(rng)
        assert mr.apply_pi(mr.apply_pi(v, p1), p2) \
            == mr.apply_pi(v, aut_pl.compose(p1, p2))


def test_apply_word(rng):
    v = mr.rand(7, 55)
    assert mr.apply_word(v, []) == v
    word = [A("t", 1), A("t", 2)]
    assert mr.apply_word(v, word) == v
    word = [A("l", 1), A("l", 1), A("l", 1)]
    assert mr.apply_word(v, word) == v
    d = rng.int(8192)
    word = [A("x", d), A("y", d), A("z", d)]
    assert mr.apply_word(v, word) == v


@pytest.mark.parametrize("p", ALL_P)
def test_norm_invariance(p, rng):
    v = mr.rand(p, 60 + p)
    n0 = mr.norm_form(v)
    atoms = [A("x", rng.int(8192)), A("y", rng.int(8192)), A("z", rng.int(8192)),
             A("d", rng.int(4096)), A("p", aut_pl.random_automorphism(rng)),
             A("t", 1), A("t", 2), A("l", 1), A("l", 2)]
    for at in atoms:
        assert mr.norm_form(mr.apply_atom(v, at)) == n0


def test_triality_dictionary():
    p = 7
    for n in (0, 1, 100, 275):
        b = mr.basis_vector(p, 24 + n)
        c = mr.apply_tau(b, 1).unpack()
        expect = np.zeros(mr.DIM, dtype=np.int64)
        expect[300 + n] = 1
        expect[576 + n] = p - 1
        assert np.array_equal(c, expect)
    assert mr.apply_tau(mr.basis_vector(p, 5), 1) == mr.basis_vector(p, 5)


def test_xi_monomial_on_short_basis(rng):
    """Every short basis vector maps to exactly one coordinate, at the
    index predicted by conjugation."""
    p = 3
    for flat in [0, 300, 600, 50000, 98279]:
        b = mr.basis_vector(p, 300 + flat)
        w = mr.apply_xi(b, 1).unpack()
        img = qx.conj_by_xi(qx.QxElement(int(qx.SHORT_VALUES[flat])), 1)
        idx, sign = qx.short_index(img)
        expect = np.zeros(mr.DIM, dtype=np.int64)
        expect[300 + idx.flat] = (p - 1) if sign else 1
        assert np.array_equal(w, expect)


def test_intertwining_sampled(rng):
    p = 7
    v = mr.rand(p, 70)
    sv = v.unpack()[300:300 + 98280]
    for tag, payload in (("x", rng.int(8192)), ("y", rng.int(8192)),
                         ("z", rng.int(8192)),
                         ("p", aut_pl.random_automorphism(rng))):
        w = mr.apply_atom(v, A(tag, payload))
        sw = w.unpack()[300:300 + 98280]
        img = qx.conj_by_gen_vec(qx.SHORT_VALUES, tag, payload)
        idx, sgn, ok = qx.short_index_vec(img)
        assert ok.all()
        pred = np.zeros(98280, dtype=np.int64)
        pred[idx] = np.where(sgn == 1, (p - sv) % p, sv)
        assert np.array_equal(pred, sw)


@pytest.mark.parametrize("p", ALL_P)
def test_lane_purity_scalar_reference(p):
    """The kernels match the per-coordinate scalar implementation."""
    v = mr.rand(p, 80 + p)
    c = v.unpack().tolist()
    tau = scalar_ref.apply_tau(c, p)
    assert mr.apply_tau(v, 1).unpack().tolist() == tau
    assert mr.apply_tau(v, 2).unpack().tolist() == scalar_ref.apply_tau(tau, p)
    for e in (1, 2):
        w = mr.apply_xi(v, e)
        mr.check_vector(w)              # coordinates may hold the alias p, never more
        assert w.unpack().tolist() == scalar_ref.apply_xi(c, p, e)


def test_basis4096_index_roundtrip():
    """Every (group, dG, i, h) entry of xi's forward Z/Y table pulls the
    coordinate and sign that basis4096_to_storage names, and together the
    entries pull every Z/Y coordinate once.  The grey-frame tensor is
    (64, 1536): row dG * 4 + i % 4, column (group, i // 4, h)."""
    p = 7
    zy = 300 + 98280
    i = np.arange(24)
    for e in (1, 2):
        _, fwd, _ = mr._xi_tables(p, e)
        pre = mr._xi_zy_steps(e)[0]
        assert np.array_equal(np.sort(fwd.src), np.arange(zy, mr.DIM))
        src = np.asarray(fwd.src).reshape(16, 4, 4, 6, 64)     # (dG, i%4, group, i//4, h)
        neg = fwd.neg.reshape(16, 4, 4, 6, 64)
        for g in range(4):
            for dg in range(16):
                for h in range(64):
                    sector, chi, sign = mr.basis4096_to_storage(
                        mr.Basis4096Index(g >> 1, g & 1, dg, h))
                    want = zy + 49152 * sector + 24 * chi + i
                    assert np.array_equal(src[dg, i % 4, g, i // 4, h], want)
                    want_neg = (sign ^ pre[dg * 4 + i % 4]) * p
                    assert np.array_equal(neg[dg, i % 4, g, i // 4, h], want_neg)


def test_xi_tables_share_indices_across_moduli(monkeypatch):
    """xi's maps are free of the modulus: building the tables of all six
    moduli conjugates the short vectors once per e, every modulus shares
    one index array per (e, part), and each sign is the p = 3 sign bit
    times p."""
    calls = []
    conj = qx.conj_by_xi_vec
    monkeypatch.setattr(qx, "conj_by_xi_vec", lambda vals, e: calls.append(e) or conj(vals, e))
    mr._xi_maps.cache_clear()
    mr._xi_tables.cache_clear()
    for e in (1, 2):
        base = mr._xi_tables(3, e)
        for p in ALL_P:
            tables = mr._xi_tables(p, e)
            assert len(tables) == len(base) == 3
            for part, ref in zip(tables, base):
                assert part.src is ref.src
                assert np.array_equal(part.neg, ref.neg // 3 * p)
    assert calls == [1, 2]


def test_basis4096_index_bijection():
    """Storage rows biject with the grey-frame basis labels, both ways."""
    seen = set()
    for sector in (0, 1):
        for chi in range(2048):
            idx, sign = mr.basis4096_from_storage(sector, chi)
            assert sign in (0, 1)
            s2, chi2, sign2 = mr.basis4096_to_storage(idx)
            assert (s2, chi2, sign2) == (sector, chi, sign)
            seen.add((idx.sigma, idx.kappa, idx.d, idx.h))
    assert len(seen) == 4096
    with pytest.raises(ValueError):
        mr.Basis4096Index(2, 0, 0, 0)


def test_tau_on_x_basis_vector():
    """tau sends an X basis vector to the minus tensor block with the
    pairing sign."""
    p = 7
    for chi, i in ((0, 0), (5, 17), (2047, 23)):
        flat_x = 300 + 276 + 276 + 48576 + chi * 24 + i
        b = mr.basis_vector(p, flat_x)
        c = mr.apply_tau(b, 1).unpack()
        c0 = int(qx.class_to_coords(chi))
        sign = (int(golay.EXPAND[c0]) >> i) & 1
        expect = np.zeros(mr.DIM, dtype=np.int64)
        flat_y = 300 + 276 + 276 + 48576 + 2 * 49152 + chi * 24 + i
        expect[flat_y] = (p - 1) if sign else 1
        assert np.array_equal(c, expect)


def test_apply_xyz_signature():
    v = mr.rand(7, 3)
    d = pl.ParkerLoopElement(0x1b57)
    assert mr.apply_xyz(v, "x", d) == mr.apply_atom(v, A("x", 0x1b57))


def test_even_diagonal_on_blocks():
    """An even diagonal acts on the plus tensor block by the pairing sign
    and trivially on the matrix block."""
    p = 7
    delta = golay.syndrome_mask(0b11)      # weight-2, even
    v = mr.rand(p, 91)
    w = mr.apply_atom(v, A("d", delta))
    cv, cw = v.unpack(), w.unpack()
    assert np.array_equal(cv[:300], cw[:300])
    z0 = 300 + 98280 + 49152
    for chi in (0, 3, 77, 2047):
        c0 = int(qx.class_to_coords(chi))
        sign = golay.pair_bits(c0, delta)
        for i in (0, 11):
            a = cv[z0 + chi * 24 + i]
            b = cw[z0 + chi * 24 + i]
            assert b == ((p - a) % p if sign else a)


def test_ye_on_T_basis_labels(rng):
    """Label-level check of the octad-block action: a T basis vector at
    (o, t) moves to (o, t xor t_A) with sign given by the pairing of the
    payload with the suboctad representative."""
    p = 7
    for _ in range(40):
        o = rng.int(759)
        t = rng.int(64)
        e = rng.int(8192)
        emask = int(golay.EXPAND[e & 0xFFF])
        flat = 276 + 276 + 64 * o + t
        b = mr.basis_vector(p, 300 + flat)
        c = mr.apply_atom(b, A("y", e)).unpack()
        t_a = golay.suboctad_of_mask(o, int(golay.OCTAD_MASKS[o]) & emask)
        sign = bin(int(golay.SUB_REP[o, t]) & emask).count("1") & 1
        expect = np.zeros(mr.DIM, dtype=np.int64)
        expect[300 + 276 + 276 + 64 * o + (t ^ t_a)] = (p - 1) if sign else 1
        assert np.array_equal(c, expect)


def test_ze_xe_on_T_basis_labels(rng):
    p = 7
    for _ in range(30):
        o, t, e = rng.int(759), rng.int(64), rng.int(8192)
        emask = int(golay.EXPAND[e & 0xFFF])
        base = 300 + 276 + 276
        b = mr.basis_vector(p, base + 64 * o + t)
        # x_e: diagonal with sign C(o,e) + <e, delta>
        c = mr.apply_atom(b, A("x", e)).unpack()
        sign = ((bin(int(golay.OCTAD_MASKS[o]) & emask).count("1") >> 1) & 1) \
            ^ (bin(int(golay.SUB_REP[o, t]) & emask).count("1") & 1)
        assert c[base + 64 * o + t] == ((p - 1) if sign else 1)
        # z_e: sign C(o,e), suboctad shifted
        c = mr.apply_atom(b, A("z", e)).unpack()
        t_a = golay.suboctad_of_mask(o, int(golay.OCTAD_MASKS[o]) & emask)
        sign = (bin(int(golay.OCTAD_MASKS[o]) & emask).count("1") >> 1) & 1
        assert c[base + 64 * o + (t ^ t_a)] == ((p - 1) if sign else 1)


def _atom_inverse(at):
    if at.tag in ("x", "y", "z"):
        return A(at.tag, pl.inv_value(at.payload))
    if at.tag == "d":
        return at
    if at.tag == "p":
        q = aut_pl.from_perm(at.payload.perm.inverse())
        # compose(pi, q) is diagonal, and a diagonal automorphism is an
        # involution, so pi^-1 = q * compose(pi, q)
        return A("p", aut_pl.compose(q, aut_pl.compose(at.payload, q)))
    return A(at.tag, 3 - at.payload)


def _random_atom(rng, tags):
    tag = tags[rng.int(len(tags))]
    if tag in "xyz":
        return A(tag, rng.int(8192))
    if tag == "d":
        return A("d", rng.int(4096))
    if tag == "p":
        return A("p", aut_pl.random_automorphism(rng))
    return A(tag, 1 + rng.int(2))


def _apply_checked(v, word):
    """apply_word, checking the storage invariants after every atom."""
    for at in word:
        v = mr.apply_atom(v, at)
        mr.check_vector(v)
    return v


def test_random_word_inversion(rng):
    p = 15
    v = mr.rand(p, 77)
    for _ in range(5):
        word = [_random_atom(rng, "xyzdtl") for _ in range(6)]
        inverse = [_atom_inverse(at) for at in reversed(word)]
        assert _apply_checked(_apply_checked(v, word), inverse) == v


@pytest.mark.parametrize("p", ALL_P)
def test_random_word_invariants(p, rng):
    """Every atom keeps every coordinate in 0..p, at every modulus, and
    the inverse word undoes the word."""
    v = mr.rand(p, 78 + p)
    mr.check_vector(v)
    word = [_random_atom(rng, "xyzdptl") for _ in range(8)]
    inverse = [_atom_inverse(at) for at in reversed(word)]
    assert _apply_checked(_apply_checked(v, word), inverse) == v


def test_check_vector_rejects():
    p = 7
    v = mr.rand(p, 79)
    mr.check_vector(v)
    v.buf[:5] = p                                       # the alias of 0
    mr.check_vector(v)
    bad = v.copy()
    bad.buf[1234] = p + 1
    with pytest.raises(ValueError, match="coordinate 1234 is 8"):
        mr.check_vector(bad)
    with pytest.raises(ValueError, match="uint8 coordinates"):
        mr.check_vector(mr.MmVector(v.mod, v.buf[:-1]))
    with pytest.raises(ValueError, match="uint8 coordinates"):
        mr.check_vector(mr.MmVector(v.mod, v.buf.astype(np.uint64)))


# a run of 1-6 monomial atoms, then tau or xi; the word may end in a run
_RUN = st.lists(st.sampled_from("xyzdp"), min_size=1, max_size=6).map("".join)
_WORD_TAGS = st.tuples(st.lists(st.tuples(_RUN, st.sampled_from("tl")), max_size=3),
                       st.one_of(st.just(""), _RUN))


@pytest.mark.parametrize("p", ALL_P)
@settings(max_examples=4, deadline=None)
@given(tags=_WORD_TAGS, seed=st.integers(0, 2**32))
def test_compiled_runs_equal_atoms(p, tags, seed):
    """apply_word, which applies each maximal run of monomial atoms as one
    composed signed permutation, equals applying the atoms one by one."""
    pieces, tail = tags
    rng = CounterRng(seed)
    word = [_random_atom(rng, tag) for tag in "".join(r + s for r, s in pieces) + tail]
    v = mr.rand(p, seed % 1000)
    w = mr.apply_word(v, word)
    mr.check_vector(w)
    assert w == _apply_checked(v, word)


# runs of 0-6 monomial atoms, each followed by tau or xi with its
# exponent, then a run that may be empty; so a word may start with xi,
# hold xi xi, and end in a run
_FUSE_WORD_TAGS = st.tuples(
    st.lists(st.tuples(st.lists(st.sampled_from("xyzdp"), max_size=6).map("".join),
                       st.sampled_from(["t1", "t2", "l1", "l2"])), min_size=1, max_size=4),
    st.one_of(st.just(""), _RUN))


@pytest.mark.parametrize("p", ALL_P)
@settings(max_examples=5, deadline=None)
@given(tags=_FUSE_WORD_TAGS, seed=st.integers(0, 2**32))
@example(tags=([("", "l1"), ("", "l2"), ("xyzdpx", "l1"), ("p", "l2"), ("dy", "t1"),
                ("zyxpd", "l2")], "yx"), seed=12)
def test_fused_runs_equal_atoms(p, tags, seed):
    """A word applied three times, with its runs before xi first applied
    on their own, then fused into xi's tables on the second sight and
    read from the cache on the third, equals its atoms applied one by
    one each time."""
    mr._MONO_CACHE.clear()
    rng = CounterRng(seed)
    word, fused = [], []
    for run, gen in tags[0]:
        atoms = tuple(_random_atom(rng, tag) for tag in run)
        word += [*atoms, A(gen[0], int(gen[1]))]
        if atoms and gen[0] == "l":
            fused.append((p, mr.MonomialRun(atoms, int(gen[1])).key()))
    word += [_random_atom(rng, tag) for tag in tags[1]]
    v = mr.rand(p, seed % 1000)
    outs = []
    for _ in range(3):
        outs.append(mr.apply_word(v, word))
        assert [key in mr._MONO_CACHE for key in fused] == [len(outs) > 1] * len(fused)
    want = _apply_checked(v, word)
    for w in outs:
        mr.check_vector(w)
        assert w == want


def test_monomial_cache_keys(rng):
    """A word with a 3-atom run adds one table, keyed (p, run key); a
    single atom keys (p, atom key), as does a run of one atom; a run
    fused with xi^e keys (p, run key + (("l", e),)), a run of one atom
    too."""
    mr._MONO_CACHE.clear()
    v = mr.rand(7, 90)
    run = (A("y", 0x7b1), A("p", aut_pl.random_automorphism(rng)), A("d", 0x29c))
    mr.apply_word(v, [A("t", 1), *run, A("l", 1)])
    assert list(mr._MONO_CACHE) == [(7, tuple(at.key() for at in run))]
    assert mr.MonomialRun(run).key() == tuple(at.key() for at in run)
    mr.apply_atom(v, run[0])
    assert list(mr._MONO_CACHE)[1:] == [(7, run[0].key())]
    assert mr.MonomialRun(run[:1]).key() == run[0].key()
    mr.apply_word(v, [A("l", 1), run[0], A("t", 1)])
    assert len(mr._MONO_CACHE) == 2
    assert mr.MonomialRun(run, 1).key() == tuple(at.key() for at in run) + (("l", 1),)
    assert mr.MonomialRun(run[:1], 2).key() == (run[0].key(), ("l", 2))
    mr.apply_word(v, [run[0], A("l", 2)])
    assert list(mr._MONO_CACHE)[1:] == [(7, (run[0].key(), ("l", 2)))]


def test_fused_table_replaces_run_table(rng):
    """A run before xi adds its own table when first seen; the second
    time, the fused table takes its place, so the cache holds one entry."""
    mr._MONO_CACHE.clear()
    v = mr.rand(31, 91)
    run = (A("x", 0x155), A("p", aut_pl.random_automorphism(rng)), A("z", 0x1e2))
    word = [*run, A("l", 1)]
    mr.apply_word(v, word)
    assert list(mr._MONO_CACHE) == [(31, mr.MonomialRun(run).key())]
    mr.apply_word(v, word)
    assert list(mr._MONO_CACHE) == [(31, mr.MonomialRun(run, 1).key())]


def _mono_table(p, maps):
    """Oracle: the pull table mod p of a monomial map over the whole
    vector, an int32 source index and a sign mask per destination.  The
    head is one scatter; X/Z/Y inverts the row and column images, the
    source index is an outer sum over (row, column), and the sign the
    source sign bits reordered to destination order."""
    (img, sgn), (row, col, row_sgn) = maps
    src = np.empty(mr.DIM, dtype=np.int32)
    bits = np.empty(mr.DIM, dtype=np.uint8)
    src[img] = np.arange(mr._X)
    bits[img] = sgn
    rinv, cinv = np.empty(6144, dtype=np.int64), np.empty(24, dtype=np.int64)
    rinv[row], cinv[col] = np.arange(6144), np.arange(24)
    np.add((mr._X + 24 * rinv)[:, None], cinv, out=src[mr._X:].reshape(6144, 24))
    bits[mr._X:] = row_sgn.take(rinv, axis=0).take(cinv, axis=1).ravel()
    bits *= np.uint8(p)
    return GatherTable(src, bits)


def _table_read_through(g, t):
    """Oracle: one pull table for the pull table g followed by t, which
    reads g's output."""
    neg = g.neg.take(t.src, mode="clip")
    neg ^= t.neg
    return GatherTable(g.src.take(t.src, mode="clip"), neg)


def _as_table(f):
    """The pull table of the pull form f: its full source index, and its
    mask read at those sources."""
    rows = mr._X + 24 * f.rows[:, None] + f.cols
    src = np.concatenate((f.head, rows.ravel())).astype(np.int32)
    return GatherTable(src, f.mask.take(src))


def _check_maps(maps):
    """The head image maps A, B + C and T each onto itself; the rows part
    permutes the 6144 rows and the 24 columns; every sign is a bit."""
    (img, sgn), (row, col, row_sgn) = maps
    assert img.dtype == np.int32 and img.shape == (mr._X,)
    for lo, hi in ((0, mr._B), (mr._B, mr._T), (mr._T, mr._X)):
        assert np.array_equal(np.sort(img[lo:hi]), np.arange(lo, hi))
    assert np.array_equal(np.sort(row), np.arange(6144))
    assert np.array_equal(np.sort(col), np.arange(24))
    assert sgn.shape == (mr._X,) and row_sgn.shape == (6144, 24)
    for bits in (sgn, row_sgn):
        assert bits.dtype == np.uint8 and bits.max() <= 1


@pytest.mark.parametrize("p", [3, 255])
def test_monomial_tables_are_signed_permutations(p, rng):
    """The maps and the pull table of every monomial tag, and of a
    composed run of all of them, are signed permutations: the table of
    all coordinates, with a sign mask of 0 or p.  The run's tables fused
    with xi^e read the sources of xi's A, B/C/T/X and Z/Y forward tables
    in some order, with such a mask."""
    atoms = [_random_atom(rng, tag) for tag in "xyzdp" for _ in range(2)]
    for at in atoms:
        _check_maps(mr._atom_maps(at))
    _check_maps(reduce(mr._compose, map(mr._atom_maps, atoms)))
    for at in atoms + [mr.MonomialRun(tuple(atoms))]:
        tab = _as_table(mr._monomial_gather(p, at))
        assert np.array_equal(np.sort(tab.src), np.arange(mr.DIM))
        assert set(np.unique(tab.neg).tolist()) <= {0, p}
    for e in (1, 2):
        fused = mr._monomial_gather(p, mr.MonomialRun(tuple(atoms), e))
        for tab, xi_tab in zip(fused, mr._xi_reads(p, e), strict=True):
            assert np.array_equal(np.sort(tab.src), np.sort(xi_tab.src))
            assert set(np.unique(tab.neg).tolist()) <= {0, p}


@pytest.mark.parametrize("p", ALL_P)
@settings(max_examples=15, deadline=None)
@given(tags=st.text("xyzdp", min_size=2, max_size=2), seed=st.integers(0, 2**32 - 1))
def test_composed_maps_table_reads_through_both(p, tags, seed):
    """The pull table of f followed by g, composed as maps, is the table
    of f read through the table of g, byte for byte."""
    rng = CounterRng(seed)
    f, g = (mr._atom_maps(_random_atom(rng, tag)) for tag in tags)
    want = _table_read_through(_mono_table(p, f), _mono_table(p, g))
    got = _mono_table(p, mr._compose(f, g))
    for a, b in ((got.src, want.src), (got.neg, want.neg)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", ALL_P)
@settings(max_examples=6, deadline=None)
@given(tags=_RUN, seed=st.integers(0, 2**32 - 1))
def test_pull_form_equals_table_oracle(p, tags, seed):
    """A run of monomial atoms applied in pull form, on input holding the
    alias p in a third of its coordinates, is byte-equal to the oracle
    table's signed gather; its tables fused with xi^e equal the oracle's
    table read through xi's reads, in dtype, shape and bytes."""
    rng = CounterRng(seed)
    run = tuple(_random_atom(rng, tag) for tag in tags)
    table = _mono_table(p, reduce(mr._compose, map(mr._atom_maps, run)))
    v = mr.rand(p, seed % 1000)
    v.buf[rng.ints(mr.DIM, 3) == 0] = p
    want = np.empty_like(v.buf)
    gather_signed(want, v.buf, table)
    mr._MONO_CACHE.clear()
    assert mr._apply_monomial(v, mr.MonomialRun(run)).buf.tobytes() == want.tobytes()
    for e in (1, 2):
        fused = mr._monomial_gather(p, mr.MonomialRun(run, e))
        for got, t in zip(fused, mr._xi_reads(p, e), strict=True):
            oracle = _table_read_through(table, t)
            for a, b in ((got.src, oracle.src), (got.neg, oracle.neg)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _small_blocks(c, at, p):
    """Closed-form action of a monomial atom on A/B/C, on the logical
    coordinates 0:852.  x/y/z negate the pairs split by the payload's
    codeword in B and C, y/z also swap B and C on them (y with a sign) and
    conjugate A by the payload's sign diagonal; p/d permute A, B and C by
    the coordinate permutation and negate C when the automorphism is odd."""
    PI, PJ = qx._PAIR_I.astype(np.int64), qx._PAIR_J.astype(np.int64)
    A = np.zeros((24, 24), dtype=np.int64)
    A[np.arange(24), np.arange(24)] = c[:24]
    A[PI, PJ] = A[PJ, PI] = c[24:300]
    B, C = c[300:576], c[576:852]
    if at.tag in "xyz":
        sgn24 = (int(golay.EXPAND[at.payload & 0xFFF]) >> np.arange(24)) & 1
        flip = (sgn24[PI] ^ sgn24[PJ]).astype(bool)
        if at.tag != "x":
            s = 1 - 2 * sgn24
            A = s[:, None] * A * s[None, :] % p
        if at.tag == "x":
            B, C = np.where(flip, -B % p, B), np.where(flip, -C % p, C)
        elif at.tag == "y":
            B, C = np.where(flip, -C % p, B), np.where(flip, -B % p, C)
        else:
            B, C = np.where(flip, C, B), np.where(flip, B, C)
    else:
        pi = at.payload if at.tag == "p" else aut_pl.StdAutomorphism(
            golay.CocodeElement(at.payload), aut_pl.IDENTITY_PERM)
        img = np.array(pi.perm.images, dtype=np.int64)
        pair_img = qx._PAIR_IDX[img[PI], img[PJ]]
        A2, B2, C2 = np.zeros_like(A), np.zeros_like(B), np.zeros_like(C)
        A2[img[:, None], img[None, :]] = A
        B2[pair_img] = B
        C2[pair_img] = -C % p if aut_pl.parity(pi) else C
        A, B, C = A2, B2, C2
    return np.concatenate((np.diag(A), A[PI, PJ], B, C))


@pytest.mark.parametrize("p", [3, 7, 255])
def test_small_blocks_closed_form(p, rng):
    """Monomial atoms act on A/B/C as the closed-form sign/swap rules."""
    v = mr.rand(p, 81 + p)
    c = v.unpack()
    for tag in "xyzdp":
        for _ in range(3):
            at = _random_atom(rng, tag)
            got = mr.apply_atom(v, at).unpack()[:852]
            assert np.array_equal(got, _small_blocks(c, at, p)), at


def _suboctad_of_mask_vec(o, rep_mask):
    """Suboctad index of the even subset rep_mask of each octad o, bit by
    bit over the eight points of the octad."""
    pts = golay.OCTAD_POINTS[o]                                    # (n, 8)
    m8 = np.zeros(len(o), dtype=np.uint32)
    for j in range(8):
        m8 |= ((rep_mask >> pts[:, j]) & 1).astype(np.uint32) << np.uint32(j)
    m8 = np.where(m8 & 0x80, m8 ^ 0xFF, m8)
    return ((m8 >> 1) & 0x3F).astype(np.int64)


def test_yz_suboctad_images_all_codewords(rng):
    """y_e and z_e send suboctad t of octad o to t ^ s, where s is the
    suboctad of o intersected with e, for all 4096 code words e; the
    maps build s by linearity, the oracle bit by bit."""
    octads = np.arange(759)
    t = np.arange(64)
    for ce in range(4096):
        s = _suboctad_of_mask_vec(octads, golay.OCTAD_MASKS.astype(np.int64) & int(golay.EXPAND[ce]))
        want = (64 * octads[:, None] + (t ^ s[:, None])).ravel()
        for tag in "yz":
            e13 = ce | rng.int(2) << 12
            assert np.array_equal(mr._xyz_maps(tag, e13).head[0][mr._T:] - mr._T, want), (tag, ce)


def test_pi_suboctad_images(rng):
    """The T image of (o, t) is the suboctad of the permuted
    representative of (o, t) in the image octad, for all 64 t on sampled
    octads of even and odd automorphisms."""
    odd = golay.syndrome(1).coords
    for k in range(6):
        pi = aut_pl.random_automorphism(rng)
        if aut_pl.parity(pi) != k % 2:
            pi = aut_pl.StdAutomorphism(golay.CocodeElement(pi.diag.coords ^ odd), pi.perm)
        assert aut_pl.parity(pi) == k % 2
        images = pi.perm.images
        img = (mr._pi_maps(pi).head[0][mr._T:] - mr._T).reshape(759, 64)
        oct_img, t_img = img[:, 0] // 64, img % 64
        for o in rng.ints(50, 759):
            o, o_img = int(o), int(oct_img[o])
            assert golay.OCTAD_MASKS[o_img] == golay.permute_mask(int(golay.OCTAD_MASKS[o]), images)
            for t in range(64):
                rep = golay.permute_mask(int(golay.SUB_REP[o, t]), images)
                assert t_img[o, t] == golay.suboctad_of_mask(o_img, rep), (k, o, t)


def _closed_form_delta_maps(delta):
    """Maps of nu_delta written out directly, independent of the
    automorphism builder: no coordinate moves, loop element d is negated
    by <d, delta>, and an odd delta also negates C, swaps Z and Y and signs
    X coordinate (d, i) by P(d) + <d, i>."""
    par = int(golay.pair_bits(golay.OMEGA_COORDS, delta))
    id24, chi_id = np.arange(24, dtype=np.int64), np.arange(2048)
    classes = qx.class_to_coords(np.arange(2048))
    ws = golay.pair_bits(classes, delta)[:, None]
    p_di = ((pl.PMAP_TABLE[classes] & 1)[:, None]
            ^ (golay.EXPAND[classes][:, None] >> np.arange(24)) & 1).astype(np.uint8)
    zy_dst = {"Z": "Z", "Y": "Y"} if par == 0 else {"Z": "Y", "Y": "Z"}
    xzy = {blk: (dst, chi_id, id24, np.broadcast_to(ws, (2048, 24)))
           for blk, dst in zy_dst.items()}
    xzy["X"] = ("X", chi_id, id24, ws ^ p_di * np.uint8(par))
    oct_sign = golay.pair_bits(golay.OCTAD_COORDS, delta)[:, None]
    t_sgn = oct_sign ^ golay.SUB_NBIT[0] * np.uint8(par)
    row0 = {"X": 0, "Z": 2048, "Y": 4096}
    rows = [(row0[xzy[blk][0]] + xzy[blk][1], xzy[blk][3]) for blk in "XZY"]
    return mr._Maps(
        head=(np.arange(mr._X, dtype=np.int32),
              np.concatenate((np.zeros(mr._C, dtype=np.uint8),
                              np.repeat(np.uint8(par), 276), t_sgn.ravel()))),
        rows=(np.concatenate([r for r, _ in rows]), id24,
              np.concatenate([s for _, s in rows]).astype(np.uint8)),
    )


@pytest.mark.parametrize("p", ALL_P)
def test_delta_tables_equal_closed_form(p, rng):
    """The pull table of a d atom is byte-identical to the table of the
    closed-form maps of nu_delta, for sampled even and odd delta."""
    deltas = [0, golay.syndrome(1).coords] + [int(d) for d in rng.ints(6, 4096)]
    assert {golay.CocodeElement(d).weight % 2 for d in deltas} == {0, 1}
    for d in deltas:
        got = _as_table(mr._monomial_gather(p, A("d", d)))
        want = _mono_table(p, _closed_form_delta_maps(d))
        for a, b in ((got.src, want.src), (got.neg, want.neg)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), d
