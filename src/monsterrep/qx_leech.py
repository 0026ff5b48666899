"""The extraspecial group 2^(1+24), its Leech-lattice-mod-2 quotient,
short vectors, and conjugation by the group generators.

Elements are kept in polarized coordinates: a 25-bit value holding a
sign bit s, 12 code coordinates c and 12 cocode coordinates f encodes
(-1)^s xt_c x_f, where xt_c is the cocycle-corrected involution attached
to the codeword c.  In these coordinates multiplication needs no cocycle
lookup:

    (s,c,f) * (s',c',f') = (s + s' + <c',f>, c + c', f + f').

Dropping the sign gives the isomorphism onto the Leech lattice mod 2;
types are computed from exact integer representatives scaled so that
type(u) = sum(u_i^2) / 16.

The 98280 short vectors fall into four shapes, indexed here in the block
order used by the representation: B (pairs, 276), C (pairs + Omega,
276), T (octad x suboctad, 759*64) and X (code mod Omega x point,
2048*24).
"""

from dataclasses import dataclass

import numpy as np

from . import golay
from .aut_pl import StdAutomorphism, apply_value
from .golay import CocodeElement, GolayCodeword, COCODE_WEIGHT, EXPAND, LIGHTEST
from .parker_loop import PMAP_TABLE, THETA, ParkerLoopElement

_POPC24 = np.bitwise_count(EXPAND).astype(np.int16)
OMEGA_C = 0x3F                       # code coordinates of the all-ones word

POINT_SYND = np.array([golay.syndrome_mask(1 << i) for i in range(24)],
                      dtype=np.uint16)


@dataclass(frozen=True)
class QxElement:
    """25-bit value: sign<<24 | code<<12 | cocode."""
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", golay.exact_int(self.value, "element"))
        if not 0 <= self.value < 1 << 25:
            raise ValueError("element must fit in 25 bits")

    @property
    def sign(self) -> int:
        return self.value >> 24

    @property
    def code(self) -> GolayCodeword:
        return GolayCodeword((self.value >> 12) & 0xFFF)

    @property
    def cocode(self) -> CocodeElement:
        return CocodeElement(self.value & 0xFFF)

    def __mul__(self, other):
        return QxElement(qx_mul_value(self.value, other.value))

    def inverse(self):
        return QxElement(qx_inv_value(self.value))

    def __neg__(self):
        return QxElement(self.value ^ 1 << 24)


QX_ONE = QxElement(0)
QX_X = QxElement(1 << 24)            # the central involution


def _pair_bits(a, b):
    return bin(a & b).count("1") & 1


def qx_mul_value(a: int, b: int) -> int:
    s = ((a ^ b) >> 24) ^ _pair_bits((b >> 12) & 0xFFF, a & 0xFFF)
    return ((a ^ b) & 0xFFFFFF) | s << 24


def qx_mul_value_vec(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    s = (((a ^ b) >> 24) & 1).astype(np.uint8) ^ golay.pair_bits((b >> 12) & 0xFFF, a & 0xFFF)
    return ((a ^ b) & 0xFFFFFF) | s.astype(np.int64) << 24


def qx_inv_value(a: int) -> int:
    return a ^ _pair_bits((a >> 12) & 0xFFF, a & 0xFFF) << 24


def qx_mul(a: QxElement, b: QxElement) -> QxElement:
    return a * b


def from_xd_xdelta(d: ParkerLoopElement, delta: CocodeElement) -> QxElement:
    """x_d x_delta in polarized coordinates."""
    c = d.coords
    return QxElement(d.sign << 24 | c << 12 | (int(THETA[c]) ^ delta.coords))


def to_xd_xdelta(a: QxElement):
    c = (a.value >> 12) & 0xFFF
    return (ParkerLoopElement(c | (a.value >> 24) << 12),
            CocodeElement(int(THETA[c]) ^ (a.value & 0xFFF)))


# ---------------------------------------------------------------------------
# Leech lattice mod 2

@dataclass(frozen=True)
class LeechMod2:
    """24-bit value: code<<12 | cocode (polarized class of an element)."""
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", golay.exact_int(self.value, "Leech vector mod 2"))
        if not 0 <= self.value < 1 << 24:
            raise ValueError("Leech vector mod 2 must fit in 24 bits")

    @property
    def code(self) -> int:
        return self.value >> 12

    @property
    def cocode(self) -> int:
        return self.value & 0xFFF


def leech_image(a: QxElement) -> LeechMod2:
    return LeechMod2(a.value & 0xFFFFFF)


def _build_lam_code():
    lam = np.zeros((4096, 24), dtype=np.int32)
    bits = ((EXPAND[:, None] >> np.arange(24)[None, :]) & 1).astype(np.int32)
    mod8 = _POPC24 % 8
    lam[mod8 == 0] = 2 * bits[mod8 == 0]
    lam[mod8 == 4] = 2 * (1 - bits[mod8 == 4])
    return lam


def _build_lam_cocode():
    bits = ((LIGHTEST[:, None] >> np.arange(24)[None, :]) & 1).astype(np.int32)
    return COCODE_WEIGHT[:, None].astype(np.int32) - 4 * bits


LAM_CODE = _build_lam_code()          # integer vector of x_{(c,0)}
LAM_COCODE = _build_lam_cocode()      # integer vector of x_f (lightest rep)


def leech_rep(lam: LeechMod2) -> np.ndarray:
    """An exact integer representative (coordinates scaled by sqrt(8))."""
    c = lam.code
    psi = int(THETA[c]) ^ lam.cocode
    return LAM_CODE[c] + LAM_COCODE[psi]


def rep_type(u: np.ndarray) -> int:
    """Exact type of an integer representative: sum(u_i^2)/16."""
    q = int(u.astype(np.int64) @ u.astype(np.int64))
    assert q % 16 == 0
    return q // 16


def type_mod2(lam: LeechMod2) -> int:
    """Squaring parity of any preimage: <code, cocode>."""
    return _pair_bits(lam.code, lam.cocode)


def min_type(lam: LeechMod2) -> int:
    """Smallest type in the class: 0, 2 (short), 3 or 4."""
    if lam.value == 0:
        return 0
    if type_mod2(lam):
        return 3
    return 2 if is_short_value(lam.value) else 4


def is_leech_vector(u) -> bool:
    u = np.asarray(u, dtype=np.int64)
    m = int(u[0]) & 1
    if np.any((u & 1) != m):
        return False
    dbits = ((u - m) >> 1) & 1
    mask = int((dbits << np.arange(24)).sum())
    if not golay.is_codeword(mask):
        return False
    return int(u.sum()) % 8 == 4 * m % 8


def classify_leech(u) -> LeechMod2:
    """The class mod 2*Lambda of an integer Leech vector, by pairing with
    the images of the code basis and the reciprocal cocode basis."""
    u = np.asarray(u, dtype=np.int64)
    c = 0
    for j in range(12):
        c |= ((int(u @ LAM_COCODE[1 << j]) // 8) & 1) << j
    phi = 0
    for j in range(12):
        pj = (int(u @ LAM_CODE[1 << j]) // 8) & 1
        phi |= (pj ^ (bin(c & int(THETA[1 << j])).count("1") & 1)) << j
    return LeechMod2(c << 12 | phi)


# ---------------------------------------------------------------------------
# Shortness and the short-vector index

N_B, N_C, N_T, N_X = 276, 276, 759 * 64, 2048 * 24
OFF_B, OFF_C, OFF_T, OFF_X = 0, 276, 552, 552 + N_T
N_SHORT = OFF_X + N_X
assert N_SHORT == 98280

_PAIR_I = np.zeros(276, dtype=np.uint8)
_PAIR_J = np.zeros(276, dtype=np.uint8)
_PAIR_IDX = np.zeros((24, 24), dtype=np.int32)
_n = 0
for _i in range(24):
    for _j in range(_i + 1, 24):
        _PAIR_I[_n], _PAIR_J[_n] = _i, _j
        _PAIR_IDX[_i, _j] = _PAIR_IDX[_j, _i] = _n
        _n += 1


def class_to_coords(chi):
    """11-bit code-mod-Omega index -> canonical 12-bit coordinates (bit 5 clear)."""
    chi = np.asarray(chi) if not np.isscalar(chi) else chi
    return (chi & 31) | ((chi >> 5) << 6)


def coords_to_class(c):
    return (c & 31) | ((c >> 6) << 5)


def canonical_code(c):
    """Representative with bit 5 clear of {c, c + Omega}."""
    return c ^ (((c >> 5) & 1) * OMEGA_C)


# kind -> (bound of a, bound of b) of a short-vector label; B and C
# label a pair of distinct points a, b, T an octad and a suboctad, X a
# code class and a point
_SHORT_BOUNDS = {"B": (24, 24), "C": (24, 24), "T": (759, 64), "X": (2048, 24)}


@dataclass(frozen=True)
class ShortVectorIndex:
    kind: str                       # 'B', 'C', 'T', 'X'
    a: int
    b: int

    def __post_init__(self):
        a = golay.exact_int(self.a, "short vector label")
        b = golay.exact_int(self.b, "short vector label")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.kind not in ("B", "C", "T", "X"):
            raise ValueError(f"short vector kind must be B, C, T or X, not {self.kind!r}")
        na, nb = _SHORT_BOUNDS[self.kind]
        if not (0 <= a < na and 0 <= b < nb) or (self.kind in "BC" and a == b):
            raise ValueError(f"no short vector {self.kind!r} {a}, {b}")

    @property
    def flat(self) -> int:
        if self.kind == "B":
            return OFF_B + int(_PAIR_IDX[self.a, self.b])
        if self.kind == "C":
            return OFF_C + int(_PAIR_IDX[self.a, self.b])
        if self.kind == "T":
            return OFF_T + 64 * self.a + self.b
        return OFF_X + 24 * self.a + self.b


def _exact_flat(flat) -> int:
    """A flat short vector index read exactly and checked: 0..N_SHORT-1."""
    flat = golay.exact_int(flat, "short vector index")
    if not 0 <= flat < N_SHORT:
        raise ValueError(f"no short vector {flat}")
    return flat


def index_from_flat(flat: int) -> ShortVectorIndex:
    flat = _exact_flat(flat)
    if flat < OFF_C:
        return ShortVectorIndex("B", int(_PAIR_I[flat]), int(_PAIR_J[flat]))
    if flat < OFF_T:
        return ShortVectorIndex("C", int(_PAIR_I[flat - OFF_C]), int(_PAIR_J[flat - OFF_C]))
    if flat < OFF_X:
        return ShortVectorIndex("T", (flat - OFF_T) // 64, (flat - OFF_T) % 64)
    return ShortVectorIndex("X", (flat - OFF_X) // 24, (flat - OFF_X) % 24)


def _build_canonical_shorts():
    vals = np.zeros(N_SHORT, dtype=np.int64)
    pair_synd = golay.syndrome_mask_vec(
        (np.uint32(1) << _PAIR_I.astype(np.uint32))
        | (np.uint32(1) << _PAIR_J.astype(np.uint32))).astype(np.int64)
    vals[OFF_B:OFF_C] = pair_synd
    vals[OFF_C:OFF_T] = (OMEGA_C << 12) | pair_synd

    o = np.repeat(np.arange(759), 64)
    t = np.tile(np.arange(64), 759)
    oc = golay.OCTAD_COORDS.astype(np.int64)[o]
    code = oc ^ (golay.SUB_NBIT[o, t].astype(np.int64) * OMEGA_C)
    coc = THETA[oc].astype(np.int64) ^ golay.SUB_SYND[o, t].astype(np.int64)
    vals[OFF_T:OFF_X] = code << 12 | coc

    chi = np.repeat(np.arange(2048), 24)
    i = np.tile(np.arange(24), 2048)
    c0 = class_to_coords(chi).astype(np.int64)
    m = PMAP_TABLE[c0].astype(np.int64) ^ golay.pair_bits(c0, POINT_SYND[i]).astype(np.int64)
    code = c0 ^ m * OMEGA_C
    coc = THETA[c0].astype(np.int64) ^ POINT_SYND[i].astype(np.int64)
    vals[OFF_X:] = code << 12 | coc
    return vals


SHORT_VALUES = _build_canonical_shorts()      # canonical (sign 0) elements


def from_short_index(idx) -> QxElement:
    flat = idx.flat if isinstance(idx, ShortVectorIndex) else _exact_flat(idx)
    return QxElement(int(SHORT_VALUES[flat]))


def short_index_vec(vals):
    """(flat index, sign, ok) for an array of 25-bit element values."""
    v = np.asarray(vals, dtype=np.int64)
    c = (v >> 12) & 0xFFF
    f = v & 0xFFF
    sign = ((v >> 24) & 1).astype(np.uint8)
    psi = THETA[c].astype(np.int64) ^ f
    wpsi = COCODE_WEIGHT[psi].astype(np.int64)
    pc = _POPC24[c].astype(np.int64)
    idx = np.zeros(len(v), dtype=np.int64)
    ok = np.zeros(len(v), dtype=bool)

    odd = (wpsi == 1)
    if odd.any():
        good = (PMAP_TABLE[c[odd]].astype(np.int64)
                ^ golay.pair_bits(c[odd], psi[odd]).astype(np.int64)) == 0
        i = np.bitwise_count(LIGHTEST[psi[odd]] - 1)          # its one bit
        chi = coords_to_class(canonical_code(c[odd]))
        idx[odd] = OFF_X + 24 * chi + i
        ok[odd] = good

    bc = (wpsi == 2) & ((c == 0) | (c == OMEGA_C))
    if bc.any():
        rep = LIGHTEST[psi[bc]].astype(np.int64)
        low = rep & -rep                                      # the lower bit
        pidx = _PAIR_IDX[np.bitwise_count(low - 1), np.bitwise_count((rep ^ low) - 1)]
        idx[bc] = np.where(c[bc] == 0, OFF_B, OFF_C) + pidx
        ok[bc] = True

    toct = (~odd) & (wpsi % 2 == 0) & ((pc == 8) | (pc == 16)) & ~bc
    if toct.any():
        ct = c[toct]
        nc = (pc[toct] == 16).astype(np.int64)
        ocoord = np.where(nc == 1, ct ^ OMEGA_C, ct)
        oidx = golay.OCTAD_INDEX_OF_COORD[ocoord].astype(np.int64)
        t, found = golay.suboctad_find_vec(oidx, psi[toct])
        good = found & (golay.SUB_NBIT[oidx, t].astype(np.int64) == nc)
        idx[toct] = OFF_T + 64 * oidx + t
        ok[toct] = good

    return idx, sign, ok


def short_index(a: QxElement):
    """(ShortVectorIndex, sign) of a short element."""
    idx, sign, ok = short_index_vec(np.array([a.value]))
    if not ok[0]:
        raise ValueError("element is not short")
    return index_from_flat(int(idx[0])), int(sign[0])


def is_short_value(v: int) -> bool:
    _, _, ok = short_index_vec(np.array([v]))
    return bool(ok[0])


def shape_vector(idx: ShortVectorIndex) -> np.ndarray:
    """The defining type-2 integer representative of a short index."""
    u = np.zeros(24, dtype=np.int32)
    if idx.kind == "B":
        u[idx.a], u[idx.b] = 4, -4
    elif idx.kind == "C":
        u[idx.a], u[idx.b] = 4, 4
    elif idx.kind == "T":
        omask = int(golay.OCTAD_MASKS[idx.a])
        rep = int(golay.SUB_REP[idx.a, idx.b])
        for i in range(24):
            if omask >> i & 1:
                u[i] = -2 if rep >> i & 1 else 2
    else:
        c0 = int(class_to_coords(idx.a))
        dmask = int(EXPAND[c0])
        u[:] = 1
        u[idx.b] = -3
        for i in range(24):
            if dmask >> i & 1:
                u[i] = -u[i]
    return u


# ---------------------------------------------------------------------------
# Conjugation by the monomial generators (tau does not normalize the group)
#
# A generator image table pair (TC, TF) holds the conjugates of the 4096
# involutions xt_c and of the 4096 cocode elements x_f.  Both families
# are internally commutative and multiply without signs, so the tables
# extend a choice of images on the 12+12 basis elements by a doubling
# pass, and conjugation of (-1)^s xt_c x_f is one multiplication.

_XOMEGA = OMEGA_C << 12
_XMINUS_OMEGA = 1 << 24 | OMEGA_C << 12


def _xd_value(c: int) -> int:
    """x_{(c,0)} in polarized coordinates."""
    return c << 12 | int(THETA[c])


def _conj_cocode_yz(f: int, ce: int, tag: str) -> int:
    """Image of x_f under conjugation by y_e or z_e (Table 4 rows)."""
    w_even, w_odd = (_XMINUS_OMEGA, _XOMEGA) if tag == "y" else (_XOMEGA, _XMINUS_OMEGA)
    if COCODE_WEIGHT[f] & 1:
        rep = int(LIGHTEST[f])
        i = (rep & -rep).bit_length() - 1
        fi = int(POINT_SYND[i])
        n = int(PMAP_TABLE[ce]) ^ _pair_bits(ce, fi)
        out = qx_mul_value(w_odd * n, _xd_value(ce))
        out = qx_mul_value(out, fi)
        return qx_mul_value(out, _conj_cocode_yz(f ^ fi, ce, tag))
    return qx_mul_value(w_even * _pair_bits(ce, f), f)


def _generator_images(tag: str, payload):
    imgc = np.zeros(12, dtype=np.int64)
    imgf = np.zeros(12, dtype=np.int64)
    if tag == "x":
        ce = payload & 0xFFF
        for j in range(12):
            imgc[j] = (1 << j) << 12 | theta_sign(ce, 1 << j) << 24
            imgf[j] = (1 << j) | _pair_bits(ce, 1 << j) << 24
    elif tag in ("y", "z"):
        ce = payload & 0xFFF
        se = (payload >> 12) & 1
        w = _XOMEGA if tag == "y" else _XMINUS_OMEGA
        emask = int(EXPAND[ce])
        for j in range(12):
            bj = 1 << j
            cde = (bin(int(EXPAND[bj]) & emask).count("1") >> 1) & 1
            amap = golay.syndrome_mask(int(EXPAND[bj]) & emask)
            code_part = qx_mul_value(qx_mul_value(w * cde, _xd_value(bj)), amap)
            imgc[j] = qx_mul_value(code_part, _conj_cocode_yz(int(THETA[bj]), ce, tag))
            imgf[j] = _conj_cocode_yz(bj, ce, tag)
            if se:
                # conjugation by the central letter negates the odd part
                imgc[j] ^= (int(COCODE_WEIGHT[THETA[bj]]) & 1) << 24
                imgf[j] ^= (int(COCODE_WEIGHT[bj]) & 1) << 24
    elif tag == "p":
        pi: StdAutomorphism = payload
        cimg = pi.tables()[1]
        for j in range(12):
            wv = apply_value(pi, 1 << j)
            imgc[j] = (qx_mul_value(_xd_value(wv & 0xFFF), int(cimg[int(THETA[1 << j])]))
                       ^ (wv >> 12) << 24)
            imgf[j] = int(cimg[1 << j])
    else:
        raise ValueError(f"unsupported conjugation atom {tag!r}")
    return imgc, imgf


def theta_sign(ce: int, c: int) -> int:
    return bin(int(THETA[ce]) & c).count("1") & 1


def conj_by_gen_vec(vals, tag: str, payload) -> np.ndarray:
    imgc, imgf = _generator_images(tag, payload)
    tc = np.zeros(4096, dtype=np.int64)
    tf = np.zeros(4096, dtype=np.int64)
    for j in range(12):
        step = 1 << j
        tc[step:2 * step] = qx_mul_value_vec(tc[:step], imgc[j])
        tf[step:2 * step] = qx_mul_value_vec(tf[:step], imgf[j])
    v = np.asarray(vals, dtype=np.int64)
    out = qx_mul_value_vec(tc[(v >> 12) & 0xFFF], tf[v & 0xFFF])
    return out ^ (v & 1 << 24)


def conj_by_gen(a: QxElement, tag: str, payload) -> QxElement:
    return QxElement(int(conj_by_gen_vec(np.array([a.value]), tag, payload)[0]))


# ---------------------------------------------------------------------------
# Conjugation by the non-monomial generator

def _grey_t(bits6: int) -> int:
    """gamma-coordinates of the grey cocode part with coordinates bits6."""
    return bits6 ^ (0x3F if bin(bits6).count("1") & 1 else 0)


def conj_by_xi_value(v: int, e: int) -> int:
    s = (v >> 24) & 1
    c = (v >> 12) & 0xFFF
    f = v & 0xFFF
    d6 = c & 0x3F
    te = _grey_t(f & 0x3F)
    bip = (bin(d6).count("1") * bin(te).count("1") + bin(d6 & te).count("1")) & 1
    if e == 1:
        s ^= golay.W2_TABLE[bin(te).count("1")] ^ bip
        ng, nt = te, d6 ^ te
    else:
        s ^= golay.W2_TABLE[bin(d6).count("1")] ^ bip
        ng, nt = d6 ^ te, d6
    ncoc = nt ^ (0x3F if bin(nt).count("1") & 1 else 0)
    return s << 24 | ((c & 0xFC0) | ng) << 12 | ((f & 0xFC0) | ncoc)


def exponent(e) -> int:
    """The exponent e of tau or xi, read exactly: 1 or 2."""
    e = golay.exact_int(e, "exponent")
    if e not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
    return e


def conj_by_xi(a: QxElement, e: int) -> QxElement:
    return QxElement(conj_by_xi_value(a.value, exponent(e)))


def conj_by_xi_vec(vals, e: int) -> np.ndarray:
    e = exponent(e)
    v = np.asarray(vals, dtype=np.int64)
    c = (v >> 12) & 0xFFF
    f = v & 0xFFF
    d6 = c & 0x3F
    f6 = f & 0x3F
    te = f6 ^ (golay.pair_bits(f6, 0x3F).astype(np.int64) * 0x3F)
    pc_d = np.bitwise_count(d6.astype(np.uint64)).astype(np.int64)
    pc_e = np.bitwise_count(te.astype(np.uint64)).astype(np.int64)
    bip = (pc_d * pc_e + np.bitwise_count((d6 & te).astype(np.uint64)).astype(np.int64)) & 1
    w2t = np.asarray(golay.W2_TABLE, dtype=np.int64)
    if e == 1:
        ds = w2t[pc_e] ^ bip
        ng, nt = te, d6 ^ te
    else:
        ds = w2t[pc_d] ^ bip
        ng, nt = d6 ^ te, d6
    ncoc = nt ^ (golay.pair_bits(nt, 0x3F).astype(np.int64) * 0x3F)
    keep = 0x1FFFFFF ^ (0x3F << 12) ^ 0x3F        # sign, coloured parts
    return ((v ^ (ds << 24)) & keep) | (ng << 12) | ncoc


XI4_NUM = (
    np.array([[-1, -1, -1, -1],
              [1, 1, -1, -1],
              [1, -1, 1, -1],
              [1, -1, -1, 1]], dtype=np.int64),
    np.array([[-1, 1, 1, 1],
              [-1, 1, -1, -1],
              [-1, -1, 1, -1],
              [-1, -1, -1, 1]], dtype=np.int64),
)


def xi24_matrix_num(e: int) -> np.ndarray:
    """Twice the 24x24 matrix (integer entries; block diagonal)."""
    return np.kron(np.eye(6, dtype=np.int64), XI4_NUM[exponent(e) - 1])


def xi24_matrix(e: int) -> np.ndarray:
    """The orthogonal order-3 matrix acting on 24 coordinates
    (coordinate rows transform as c -> c @ M)."""
    return xi24_matrix_num(e) / 2.0


def lambda_e_generators():
    """Integer generators of the index-4 sublattice fixed by the grey frame:
    all (4, +-4) pairs plus doubled codewords orthogonal to omega."""
    gens = []
    for i in range(24):
        for j in range(i + 1, 24):
            u = np.zeros(24, dtype=np.int64)
            u[i], u[j] = 4, 4
            gens.append(u.copy())
            u[j] = -4
            gens.append(u)
    for ccoords in range(4096):
        if _pair_bits(ccoords, golay.OMEGA_COCODE) == 0:
            bits = [(int(EXPAND[ccoords]) >> i) & 1 for i in range(24)]
            gens.append(2 * np.array(bits, dtype=np.int64))
    return gens
