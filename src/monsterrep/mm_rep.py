"""The 196884-dimensional representation modulo p = 2^k - 1.

A vector splits into seven blocks,

    A  24x24 symmetric matrix part (300 free coordinates),
    B  276   pair coordinates,
    C  276   pair-plus-Omega coordinates,
    T  759 octads x 64 suboctads,
    X  2048 code classes x 24 points   (monomial short-vector part),
    Z  2048 x 24   'plus' tensor part,
    Y  2048 x 24   'minus' tensor part,

packed into one uint64 buffer per vector.  The in-memory lane order is
chosen so the non-monomial kernels run on whole words: T is stored as 64
suboctad planes of 759 lanes, X/Z/Y as 24 point planes of 2048 lanes
(each plane word aligned).  The logical coordinate order (used by the
MMV1 file format, ``unpack`` and the norm form) is the block order above
with A as diagonal-then-pairs, T octad-major and X/Z/Y class-major.

Generator words act through four kernel families:

* monomial atoms (x_e / y_e / z_e and automorphism atoms) become one
  signed lane permutation of the whole vector, A taken as 576 lanes,
  held as a pull table (``_kernels.GatherTable``) that is built from the
  block structure and applied by one gather;
* the triality generator mixes (A_ij, B_ij, C_ij) by a 3x3 matrix with
  halving, rotates X -> Y -> Z -> X with sign masks, and applies H_64 / 8
  (``modp_core.hadamard_words``: six butterfly layers, three halved) to
  the 64 suboctad planes of T;
* the extra generator acts monomially on B/C/T/X through conjugation in
  the extraspecial group, by 4x4 column blocks on A, and on Z/Y by
  H_16 (x) H_4 = H_64 / 8, the same kernel, between two signed row
  permutations of a grey-frame tensor;
* everything else is composition.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _rng, aut_pl, golay, modp_core, qx_leech
from ._kernels import GatherTable, gather_signed, pull_table
from .aut_pl import StdAutomorphism
from .golay import CocodeElement, EXPAND
from .modp_core import Modulus, modulus
from .parker_loop import PMAP_TABLE, THETA, ParkerLoopElement
from .qx_leech import (N_SHORT, OFF_C, OFF_T, OFF_X, SHORT_VALUES,
                       class_to_coords, coords_to_class)

DIM = 196884

_CLASS_COORDS = class_to_coords(np.arange(2048)).astype(np.int64)
_CLASS_MASKS = EXPAND[_CLASS_COORDS].astype(np.int64)
_CLASS_P = PMAP_TABLE[_CLASS_COORDS].astype(np.int64)

_PAIR_I = qx_leech._PAIR_I.astype(np.int64)
_PAIR_J = qx_leech._PAIR_J.astype(np.int64)

# n(t): half the size of the canonical suboctad representative, mod 2.
_SUB_N64 = golay.SUB_NBIT[0].astype(np.int64)
_SUB_PAR = (np.bitwise_count(np.arange(64, dtype=np.uint64)) & 1).astype(np.int64)


def _canon(codes):
    b = (codes >> 5) & 1
    return codes ^ b * 0x3F, b


# ---------------------------------------------------------------------------
# Packed layout

class Layout:
    """Word offsets and lane addressing for one modulus."""

    def __init__(self, m: Modulus):
        self.m = m
        L = m.lanes
        self.wA = 0
        self.nA = m.words_for(576)
        self.wB = self.nA
        self.nB = m.words_for(276)
        self.wC = self.wB + self.nB
        self.wT = self.wC + self.nB
        self.WT = m.words_for(759)
        self.wX = self.wT + 64 * self.WT
        self.WX = m.words_for(2048)
        self.wZ = self.wX + 24 * self.WX
        self.wY = self.wZ + 24 * self.WX
        self.n_words = self.wY + 24 * self.WX

        o = np.arange(759)
        t = np.arange(64)
        self.lane_T = (self.wT + t[None, :] * self.WT) * L + o[:, None]
        chi = np.arange(2048)
        i24 = np.arange(24)
        self.lane_X = (self.wX + i24[None, :] * self.WX) * L + chi[:, None]
        self.lane_Z = (self.wZ + i24[None, :] * self.WX) * L + chi[:, None]
        self.lane_Y = (self.wY + i24[None, :] * self.WX) * L + chi[:, None]
        self.lane_A = np.arange(576)
        self.lane_B = self.wB * L + np.arange(276)
        self.lane_C = self.wC * L + np.arange(276)

        # logical (file-order) coordinate -> lane
        log = np.empty(DIM, dtype=np.int64)
        log[0:24] = 25 * np.arange(24)
        log[24:300] = 24 * _PAIR_I + _PAIR_J
        self._mirror = 24 * _PAIR_J + _PAIR_I
        log[300:576] = self.lane_B
        log[576:852] = self.lane_C
        log[852:852 + 48576] = self.lane_T.ravel()
        log[852 + 48576:852 + 48576 + 49152] = self.lane_X.ravel()
        base = 852 + 48576 + 49152
        log[base:base + 49152] = self.lane_Z.ravel()
        log[base + 49152:] = self.lane_Y.ravel()
        self.log_lane = log

        # flat short-vector index -> lane (same block order as qx_leech)
        sv = np.empty(N_SHORT, dtype=np.int64)
        sv[:OFF_C] = self.lane_B
        sv[OFF_C:OFF_T] = self.lane_C
        sv[OFF_T:OFF_X] = self.lane_T.ravel()
        sv[OFF_X:] = self.lane_X.ravel()
        self.short_lane = sv

        # grey-frame tensor of xi, indexed (group, dG, i, h); its rows are
        # stored in the order (dG, i % 4, group, i // 4), so that axis 0 of
        # a (64, ...) view is dG * 4 + i % 4
        self.WH = m.words_for(64)
        self.tmp_words = 4 * 16 * 24 * self.WH
        g4 = np.arange(4)[:, None, None, None]
        d16 = np.arange(16)[None, :, None, None]
        i4 = i24[None, None, :, None]
        row = ((d16 * 4 + i4 % 4) * 4 + g4) * 6 + i4 // 4
        self.lane_TMP = row * self.WH * L + np.arange(64)

        self.word_of = log // L
        self.shift_of = ((log % L) * m.k).astype(np.uint64)

        used = np.zeros(self.n_words * L, dtype=bool)
        used[log] = used[self._mirror] = True
        self.pad_lane = np.flatnonzero(~used)

    def extract(self, buf, lanes):
        L, k = self.m.lanes, self.m.k
        lanes = np.asarray(lanes)
        vals = ((buf[lanes // L] >> ((lanes % L) * k).astype(np.uint64))
                & np.uint64(self.m.p)).astype(np.int64)
        vals[vals == self.m.p] = 0
        return vals

    def inject(self, buf, lanes, vals):
        """Write values into lanes (lanes must currently be zero)."""
        word, slot = np.divmod(np.asarray(lanes).ravel(), self.m.lanes)
        np.bitwise_or.at(buf, word, np.asarray(vals, dtype=np.uint64).ravel()
                         << (slot * self.m.k).astype(np.uint64))


@lru_cache(maxsize=8)
def layout(p: int) -> Layout:
    return Layout(modulus(p))


# ---------------------------------------------------------------------------
# Vectors

class MmVector:
    __slots__ = ("mod", "buf")

    def __init__(self, mod: Modulus, buf: np.ndarray):
        self.mod = mod
        self.buf = buf

    @property
    def p(self) -> int:
        return self.mod.p

    def layout(self) -> Layout:
        return layout(self.mod.p)

    def copy(self) -> "MmVector":
        return MmVector(self.mod, self.buf.copy())

    def unpack(self) -> np.ndarray:
        lay = self.layout()
        vals = ((self.buf[lay.word_of] >> lay.shift_of)
                & np.uint64(self.mod.p)).astype(np.int64)
        vals[vals == self.mod.p] = 0
        return vals

    def __eq__(self, other):
        if not isinstance(other, MmVector):
            return NotImplemented
        return self.mod.p == other.mod.p and bool(
            np.array_equal(self.unpack(), other.unpack()))

    def __add__(self, other):
        if self.mod.p != other.mod.p:
            raise ValueError("modulus mismatch")
        return MmVector(self.mod, modp_core.add_words(self.buf, other.buf, self.mod))

    def __neg__(self):
        return MmVector(self.mod, modp_core.neg_words(self.buf, self.mod))

    def __repr__(self):
        return f"MmVector(p={self.mod.p})"


def _as_p(p) -> int:
    return p.p if isinstance(p, Modulus) else int(p)


def new_zero(p) -> MmVector:
    lay = layout(_as_p(p))
    return MmVector(lay.m, np.zeros(lay.n_words, dtype=np.uint64))


def from_coords(p, vals) -> MmVector:
    p = _as_p(p)
    vals = np.asarray(vals, dtype=np.int64)
    if vals.shape != (DIM,):
        raise ValueError(f"expected {DIM} coordinates")
    lay = layout(p)
    if vals.min() < 0 or vals.max() >= p:
        bad = np.flatnonzero((vals < 0) | (vals >= p))[0]
        raise ValueError(f"coordinate {bad} is {vals[bad]}; "
                         f"coordinates must lie in 0..{p - 1}")
    v = new_zero(p)
    lay.inject(v.buf, lay.log_lane, vals)
    lay.inject(v.buf, lay._mirror, vals[24:300])
    return v


def rand(p, seed: int) -> MmVector:
    p = _as_p(p)
    return from_coords(p, _rng.rand_ints(seed, 0, DIM, p))


def add(a: MmVector, b: MmVector) -> MmVector:
    return a + b


def basis_vector(p, logical_index: int) -> MmVector:
    p = _as_p(p)
    vals = np.zeros(DIM, dtype=np.int64)
    vals[logical_index] = 1
    return from_coords(p, vals)


def scale(v: MmVector, s: int) -> MmVector:
    return from_coords(v.p, (v.unpack() * (s % v.p)) % v.p)


def equal(a: MmVector, b: MmVector) -> bool:
    return a == b


def check_vector(v: MmVector) -> None:
    """Raise ValueError unless v satisfies the storage invariants: a valid
    modulus and buffer size, a symmetric A block, pad lanes holding 0 or
    the alias p, and no bits set above the last lane of a word."""
    m = modulus(v.mod.p)
    lay = layout(m.p)
    if v.mod != m or v.buf.dtype != np.uint64 or v.buf.shape != (lay.n_words,):
        raise ValueError(f"a p={m.p} vector is {lay.n_words} uint64 words")
    A = lay.extract(v.buf, lay.lane_A).reshape(24, 24)
    if not np.array_equal(A, A.T):
        raise ValueError("A block is not symmetric")
    pl = lay.pad_lane
    pad = (v.buf[pl // m.lanes] >> (pl % m.lanes * m.k).astype(np.uint64)) & np.uint64(m.p)
    if np.any((pad != 0) & (pad != m.p)):
        raise ValueError(f"pad lane {pl[(pad != 0) & (pad != m.p)][0]} is not 0 or {m.p}")
    if np.any(v.buf & np.uint64(~m.all_lanes & (2**64 - 1))):
        raise ValueError("bits above the last lane of a word are set")


NORM_WEIGHT = np.ones(DIM, dtype=np.int64)
NORM_WEIGHT[24:300] = 2


def norm_form(v: MmVector) -> int:
    """Weighted squared norm mod p: weight 2 on the pair part of A."""
    c = v.unpack()
    return int((NORM_WEIGHT * c % v.p * c).sum() % v.p)


# MMV1 file format ----------------------------------------------------------

MAGIC = b"MMV1"


def write_vector(v: MmVector, path):
    data = MAGIC + bytes([v.p]) + DIM.to_bytes(4, "little") \
        + v.unpack().astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(data)


def read_vector(path) -> MmVector:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError("not an MMV1 vector file")
    if len(data) != 9 + DIM or int.from_bytes(data[5:9], "little") != DIM:
        raise ValueError(f"corrupt MMV1 file: {len(data)} bytes, expected {9 + DIM}")
    return from_coords(data[4], np.frombuffer(data[9:], dtype=np.uint8).astype(np.int64))


# ---------------------------------------------------------------------------
# Small-block (A/B/C) access

def _get_smalls(v: MmVector):
    lay = v.layout()
    A = lay.extract(v.buf, lay.lane_A).reshape(24, 24)
    B = lay.extract(v.buf, lay.lane_B)
    C = lay.extract(v.buf, lay.lane_C)
    return A, B, C


# ---------------------------------------------------------------------------
# Generator atoms

@dataclass(frozen=True)
class GeneratorAtom:
    """tag in {x,y,z,p,d,t,l}; payload is a 13-bit loop value (x/y/z),
    an automorphism (p), a 12-bit cocode value (d) or an exponent (t/l)."""
    tag: str
    payload: object

    def __post_init__(self):
        if self.tag in ("x", "y", "z"):
            if not 0 <= self.payload < 8192:
                raise ValueError("loop payload must fit in 13 bits")
        elif self.tag == "d":
            if not 0 <= self.payload < 4096:
                raise ValueError("cocode payload must fit in 12 bits")
        elif self.tag in ("t", "l"):
            if self.payload not in (1, 2):
                raise ValueError("exponent must be 1 or 2")
        elif self.tag == "p":
            if not isinstance(self.payload, StdAutomorphism):
                raise ValueError("p atom needs a standard automorphism")
        else:
            raise ValueError(f"unknown atom tag {self.tag!r}")

    def key(self):
        if self.tag == "p":
            return ("p", self.payload.perm.images, self.payload.diag.coords)
        return (self.tag, self.payload)


def atom(tag: str, payload) -> GeneratorAtom:
    return GeneratorAtom(tag, payload)


# ---------------------------------------------------------------------------
# Monomial atoms: logical signed-permutation maps
#
# Maps are built in source order: lane src -> sign * lane img.

def _theta_vec(dc, ec):
    return golay.pair_bits(THETA[np.asarray(dc, dtype=np.int64)], ec).astype(np.int64)


def _xyz_maps(tag: str, e13: int):
    ce = e13 & 0xFFF
    se = e13 >> 12
    emask = int(EXPAND[ce])

    # T part
    o = np.arange(759)[:, None]
    t = np.arange(64)[None, :]
    pair_e = (np.bitwise_count((golay.SUB_REP & np.uint32(emask)).astype(np.uint32))
              & 1).astype(np.int64)
    c_oe = ((np.bitwise_count(golay.OCTAD_MASKS & np.uint32(emask)) >> 1) & 1).astype(np.int64)
    if tag == "x":
        t_img_t, t_sgn = t, c_oe[:, None] ^ pair_e
    else:
        to = golay.suboctad_of_mask_vec(
            np.arange(759), golay.OCTAD_MASKS.astype(np.int64) & emask)
        t_img_t = t ^ to[:, None]
        t_sgn = pair_e if tag == "y" else c_oe[:, None]

    # row maps on the 2048 code classes
    c0 = _CLASS_COORDS
    th_c0_ce = _theta_vec(c0, ce)
    th_ce_c0 = golay.pair_bits(int(THETA[ce]), c0).astype(np.int64)
    cls_xor, bflip = _canon(c0 ^ ce)
    chi_xor = coords_to_class(cls_xor)
    chi_id = np.arange(2048)
    pe = int(PMAP_TABLE[ce])
    c_ce_c0 = ((np.bitwise_count((_CLASS_MASKS & emask).astype(np.uint64)) >> 1) & 1).astype(np.int64)

    colsel = ((emask >> np.arange(24)) & 1).astype(np.int64)
    zero24 = np.zeros(24, dtype=np.int64)

    # B/C (index n of B, 276 + n of C): x_e negates the pairs split by e;
    # y_e and z_e also swap B and C on those pairs, y_e with a sign
    flip = colsel[_PAIR_I] ^ colsel[_PAIR_J]
    n = np.arange(276)
    bc_img = (np.arange(552) if tag == "x"
              else np.concatenate((n + 276 * flip, n + 276 * (1 - flip))))
    bc_sgn = np.tile(flip * (tag != "z"), 2)

    if tag == "x":
        xmap = (chi_id, c_ce_c0, colsel)                        # X
        zmap = ("Z", chi_xor, se ^ pe ^ th_ce_c0, zero24)       # Z <- (e^-1 d)
        ymap = ("Y", chi_xor, se ^ pe ^ th_ce_c0 ^ bflip, zero24)
    elif tag == "y":
        xmap = (chi_xor, se ^ th_c0_ce, zero24)                 # X: d -> d e
        zmap = ("Z", chi_xor, se ^ th_c0_ce, colsel)            # (d e)^+
        ymap = ("Y", chi_id, c_ce_c0, colsel)                   # (e^-1 d e)^-
    else:
        xmap = (chi_xor, se ^ pe ^ th_ce_c0, colsel)            # X: d -> e^-1 d
        zmap = ("Z", chi_id, c_ce_c0, colsel)                   # (e^-1 d e)^+
        ymap = ("Y", chi_xor, se ^ th_c0_ce ^ bflip, colsel)    # (d e)^-

    return dict(
        t_img_o=o, t_img_t=t_img_t, t_sgn=t_sgn,              # broadcast to 759 x 64
        x_row=(xmap[0], xmap[1]), x_col=(np.arange(24), xmap[2]),
        z_dst=zmap[0], z_row=(zmap[1], zmap[2]), z_col=(np.arange(24), zmap[3]),
        y_dst=ymap[0], y_row=(ymap[1], ymap[2]), y_col=(np.arange(24), ymap[3]),
        a=(np.arange(24), zero24 if tag == "x" else colsel),    # A -> s A s
        bc=(bc_img, bc_sgn), x_par=0,
    )


def _pi_maps(pi: StdAutomorphism):
    par = aut_pl.parity(pi)
    images = pi.perm.images
    img24 = np.array(images, dtype=np.int64)

    oct_img_masks = golay.permute_mask_vec(golay.OCTAD_MASKS, images)
    oct_img = golay.OCTAD_INDEX_OF_COORD[
        golay.compress_vec(oct_img_masks).astype(np.int64)].astype(np.int64)
    # t -> SUB_REP[o, t] (an XOR of pairs {pt0, pt_j}), the point map and
    # suboctad_of_mask are GF(2)-linear: map 6 basis t, fill 64 by doubling.
    rep_img = golay.permute_mask_vec(golay.SUB_REP[:, [1, 2, 4, 8, 16, 32]].ravel(), images)
    basis_img = golay.suboctad_of_mask_vec(
        np.repeat(oct_img, 6), rep_img.astype(np.int64)).reshape(759, 6)
    t_img_t = np.zeros((759, 64), dtype=np.int64)
    for j in range(6):
        b = 1 << j
        t_img_t[:, b:2 * b] = t_img_t[:, :b] ^ basis_img[:, j:j + 1]
    oct_sign = (aut_pl.apply_value_vec(pi, golay.OCTAD_COORDS.astype(np.int64)) >> 12) & 1
    # the suboctad label carries Omega^{|delta|/2}, and Omega -> -Omega when
    # the automorphism is odd
    t_sgn = oct_sign[:, None] ^ (par * _SUB_N64)[None, :]

    w = aut_pl.apply_value_vec(pi, _CLASS_COORDS)
    wc, ws = w & 0xFFF, (w >> 12) & 1
    wc0, bflip = _canon(wc)
    chi_img = coords_to_class(wc0)

    pair_img = qx_leech._PAIR_IDX[img24[_PAIR_I], img24[_PAIR_J]].astype(np.int64)
    zero24 = np.zeros(24, dtype=np.int64)

    maps = dict(
        t_img_o=oct_img[:, None], t_img_t=t_img_t, t_sgn=t_sgn,
        x_row=(chi_img, ws), x_col=(img24, zero24),
        # odd automorphisms also sign X lane (d, i) by P(d) + <d, i>
        x_par=par,
        a=(img24, zero24),
        bc=(np.concatenate((pair_img, 276 + pair_img)),
            np.repeat([0, par], 276)),                  # C negated when odd
    )
    if par == 0:
        maps["z_dst"], maps["z_row"] = "Z", (chi_img, ws)
        maps["y_dst"], maps["y_row"] = "Y", (chi_img, ws ^ bflip)
    else:
        maps["z_dst"], maps["z_row"] = "Y", (chi_img, ws ^ bflip)
        maps["y_dst"], maps["y_row"] = "Z", (chi_img, ws)
    maps["z_col"] = maps["y_col"] = (img24, zero24)
    return maps


def _mono_table(lay: Layout, maps) -> GatherTable:
    """Pull table of a monomial atom over the whole vector."""
    L, k, p, n = lay.m.lanes, lay.m.k, lay.m.p, lay.n_words
    sw = np.empty((L, n), dtype=np.int64)
    sh = np.empty((L, n), dtype=np.uint8)
    ng = np.zeros((L, n), dtype=np.uint8)

    # A/B/C/T: start from the identity, so pad lanes pull from themselves,
    # then scatter each source (word, slot) to the slot-major position
    # slot * n + word of its image.  Octad o sits in slot o % L of word
    # o // L of every suboctad plane.
    sw[:, :lay.wX] = np.arange(lay.wX)
    sh[:, :lay.wX] = (np.arange(L) * k)[:, None]
    (a_img, a_sgn), (bc_img, bc_sgn) = maps["a"], maps["bc"]
    bc = np.concatenate((lay.lane_B, lay.lane_C))
    oq, osl = np.divmod(np.arange(759), L)
    o_img, plane = maps["t_img_o"], lay.wT + np.arange(64) * lay.WT
    for (dw, ds), (w, s), sg in (
            (np.divmod(24 * a_img[:, None] + a_img, L), np.divmod(lay.lane_A.reshape(24, 24), L),
             a_sgn[:, None] ^ a_sgn),
            (np.divmod(bc[bc_img], L), np.divmod(bc, L), bc_sgn),
            ((plane[maps["t_img_t"]] + oq[o_img], osl[o_img]), (plane + oq[:, None], osl[:, None]),
             maps["t_sgn"])):
        pos = ds * n + dw
        sw.ravel()[pos] = w
        sh.ravel()[pos] = s * k
        ng.ravel()[pos] = (sg & 1) * p

    # X/Z/Y: invert the row and column maps; the source word, shift and
    # sign are outer sums over (slot, point, word in the plane).  Row chi
    # of a plane sits in slot chi % L of word chi // L; pad rows pull from
    # themselves with sign 0.
    WX = lay.WX
    chi = np.arange(WX * L).reshape(WX, L).T
    real = chi < 2048
    base = {"X": lay.wX, "Z": lay.wZ, "Y": lay.wY}
    for blk, dname, (rimg, rsgn), (cimg, csgn) in (
            ("X", "X", maps["x_row"], maps["x_col"]),
            ("Z", maps["z_dst"], maps["z_row"], maps["z_col"]),
            ("Y", maps["y_dst"], maps["y_row"], maps["y_col"])):
        rinv, cinv = np.empty(2048, dtype=np.int64), np.empty(24, dtype=np.int64)
        rinv[rimg], cinv[cimg] = np.arange(2048), np.arange(24)
        rr = rinv[chi * real]
        word, slot = np.divmod(np.where(real, rr, chi), L)
        view = np.s_[:, base[dname]:base[dname] + 24 * WX]
        np.add((base[blk] + cinv * WX)[:, None], word[:, None, :],
               out=sw[view].reshape(L, 24, WX))
        sh[view].reshape(L, 24, WX)[...] = (slot * k).astype(np.uint8)[:, None, :]
        neg = ng[view].reshape(L, 24, WX)
        np.bitwise_xor(((rsgn[rr] & real) * p).astype(np.uint8)[:, None, :],
                       ((csgn[cinv] & 1) * p).astype(np.uint8)[:, None], out=neg)
        if blk == "X" and maps["x_par"]:
            # odd automorphisms also sign X lane (d, i) by P(d) + <d, i>
            neg ^= ((_CLASS_P[rr][:, None, :] ^ (_CLASS_MASKS[rr][:, None, :] >> cinv[:, None]))
                    & 1).astype(np.uint8) * np.uint8(p)
        neg &= (real * p).astype(np.uint8)[:, None, :]
    return GatherTable(sw.ravel(), sh.ravel(), ng.ravel(), L)


_MONO_CACHE = {}


def _monomial_gather(p: int, at: GeneratorAtom) -> GatherTable:
    key = (p, at.key())
    hit = _MONO_CACHE.get(key)
    if hit is not None:
        return hit
    if at.tag in ("x", "y", "z"):
        maps = _xyz_maps(at.tag, at.payload)
    elif at.tag == "p":
        maps = _pi_maps(at.payload)
    else:
        maps = _pi_maps(StdAutomorphism(CocodeElement(at.payload),
                                        aut_pl.IDENTITY_PERM))
    table = _mono_table(layout(p), maps)
    if len(_MONO_CACHE) > 128:
        _MONO_CACHE.clear()
    _MONO_CACHE[key] = table
    return table


def _apply_monomial(v: MmVector, at: GeneratorAtom) -> MmVector:
    out = MmVector(v.mod, np.empty_like(v.buf))
    gather_signed(out.buf, v.buf, _monomial_gather(v.p, at), v.mod.p, v.mod.k)
    return out


# ---------------------------------------------------------------------------
# Triality kernel

@lru_cache(maxsize=8)
def _tau_masks(p: int):
    lay = layout(p)
    m = lay.m
    # (-1)^{<d,i>} per (class, point) lane of an X/Z/Y block
    di = np.zeros((24, lay.WX * m.lanes), dtype=np.int64)
    pp = np.zeros((24, lay.WX * m.lanes), dtype=np.int64)
    bits_p = _CLASS_P
    for i in range(24):
        di[i, :2048] = (_CLASS_MASKS >> i) & 1
        pp[i, :2048] = bits_p
    def to_words(bits):
        return modp_core.pack_words((bits * p).ravel(), m).reshape(24, lay.WX)
    mask_di = to_words(di)
    mask_p = to_words(pp)
    # x_tau plane signs and the parity reindex of the suboctad planes
    n_t = ((_SUB_N64 != 0))
    plane_reindex = np.where(_SUB_PAR == 1, np.arange(64) ^ 63, np.arange(64))
    return mask_di, mask_p, n_t, plane_reindex


def _tau_once(v: MmVector) -> MmVector:
    p, m, lay = v.p, v.mod, v.layout()
    mask_di, mask_p, n_t, reindex = _tau_masks(p)
    out = new_zero(p)

    # small blocks: diag fixed, (a, b, c) -> ((b+c)/2, a+(b-c)/2, -a+(b-c)/2)
    A, B, C = _get_smalls(v)
    half = (p + 1) // 2
    a = A[_PAIR_I, _PAIR_J]
    s = (B + C) * half % p
    d = (B - C) * half % p
    A2 = A.copy()
    A2[_PAIR_I, _PAIR_J] = A2[_PAIR_J, _PAIR_I] = s
    B2 = (a + d) % p
    C2 = (-a + d) % p
    for lanes, vals in ((lay.lane_A, A2), (lay.lane_B, B2), (lay.lane_C, C2)):
        lay.inject(out.buf, lanes, vals)

    # T: y_tau (H_64 / 8 on the suboctad planes, parity reindex), then x_tau
    W = modp_core.hadamard_words(v.buf[lay.wT:lay.wX].reshape(64, lay.WT).copy(), m)[reindex]
    W[n_t] = modp_core.neg_words(W[n_t], m)
    out.buf[lay.wT:lay.wX] = W.ravel()

    # X -> Y -> Z -> X with sign masks
    Xb = v.buf[lay.wX:lay.wZ]
    Zb = v.buf[lay.wZ:lay.wY]
    Yb = v.buf[lay.wY:]
    out.buf[lay.wY:] = Xb ^ mask_di.ravel()
    out.buf[lay.wZ:lay.wY] = Yb ^ mask_di.ravel() ^ mask_p.ravel()
    out.buf[lay.wX:lay.wZ] = Zb ^ mask_p.ravel()
    return out


def apply_tau(v: MmVector, e: int) -> MmVector:
    if e not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
    out = _tau_once(v)
    return _tau_once(out) if e == 2 else out


# ---------------------------------------------------------------------------
# Kernel for the non-monomial generator

@dataclass(frozen=True)
class Basis4096Index:
    """Grey-frame basis label of a tensor-block row: sector sign, g_0
    exponent, 4-bit index into the even grey products, coloured index."""
    sigma: int
    kappa: int
    d: int
    h: int

    def __post_init__(self):
        if not (self.sigma in (0, 1) and self.kappa in (0, 1)
                and 0 <= self.d < 16 and 0 <= self.h < 64):
            raise ValueError("index out of range")


def basis4096_from_storage(sector: int, chi: int):
    """(Basis4096Index, sign) of storage row chi in the plus (0) or
    minus (1) tensor block."""
    c0 = int(class_to_coords(chi))
    g6 = c0 & 0x3F
    if bin(g6 & 0x3E).count("1") % 2 == 0:
        kappa, dpat, flip = g6 & 1, (g6 >> 1) & 0x1F, 0
    else:
        kappa, dpat, flip = (g6 & 1) ^ 1, ((g6 >> 1) & 0x1F) ^ 0x1F, 1
    return Basis4096Index(sector, kappa, dpat & 0xF, c0 >> 6), sector * flip


def basis4096_to_storage(idx: Basis4096Index):
    """(sector, chi, sign) holding the given basis vector."""
    dpat = idx.d | ((bin(idx.d).count("1") & 1) << 4)
    cu = idx.kappa | dpat << 1 | idx.h << 6
    flip = (cu >> 5) & 1
    chi = int(coords_to_class(cu ^ flip * 0x3F))
    return idx.sigma, chi, idx.sigma * flip


_D16_PAT = np.arange(16, dtype=np.int64)
_D16_PAT = _D16_PAT | ((np.bitwise_count(_D16_PAT.astype(np.uint64)).astype(np.int64) & 1) << 4)
_W2_5 = np.array([golay.W2_TABLE[int(b)] for b in
                  np.bitwise_count(_D16_PAT.astype(np.uint64))], dtype=np.int64)


# The 16-point kernel factors through a plain Walsh-Hadamard transform:
# the pairing of even 5-bit grey patterns in 4 free coordinates is
# <m, m'> + par(m) par(m'), i.e. the form I+J, and (I+J)^2 = I, so the
# sign-twisted transform is H_16 / 4 then the involutive reindex
# m -> m ^ (par(m) * 15) plus row sign twists.  The 24-point part is
# c -> c @ (M / 2) on each group of four points, M = XI4_NUM[e - 1], and
# XI4_NUM = (D P H_4, H_4 P D) with D = diag(-1, 1, 1, 1) and P the swap
# of indices 1 and 2, which commutes with H_4.  So xi^e on Z/Y is
# H_16 (x) H_4 = H_64 on axis (dG, i % 4) between signed row permutations.
_PAR4 = (np.bitwise_count(np.arange(16, dtype=np.uint64)) & 1).astype(np.int64)
_REIDX16 = np.arange(16) ^ (_PAR4 * 15)
_SWAP12 = np.array([0, 2, 1, 3])


def _xi_group_map(e: int):
    out = np.zeros(4, dtype=np.int64)
    for g in range(4):
        sig, kap = g >> 1, g & 1
        if e == 1:
            sig2, kap2 = (kap ^ sig ^ 1), sig
        else:
            sig2, kap2 = kap, (kap ^ sig ^ 1)
        out[g] = sig2 << 1 | kap2
    return out


@lru_cache(maxsize=8)
def _xi_98280_tables(p: int):
    lay = layout(p)
    out = []
    for e in (1, 2):
        img = qx_leech.conj_by_xi_vec(SHORT_VALUES, e)
        idx, sgn, ok = qx_leech.short_index_vec(img)
        assert ok.all()
        out.append(pull_table(lay.short_lane[idx], lay.short_lane, sgn, lay.m,
                              lay.wB, lay.wZ))
    return out


@lru_cache(maxsize=8)
def _xi_4096_gather(p: int):
    """Lane correspondence between Z/Y storage and the grey-frame basis
    tensor (group, dG, point, coloured index), forward and backward."""
    lay = layout(p)
    g = np.arange(4)[:, None, None, None]
    i = np.arange(24)[None, None, :, None]
    h = np.arange(64)[None, None, None, :]
    sig, kap = g >> 1, g & 1
    cu = kap | (_D16_PAT[None, :, None, None] << 1) | (h << 6)
    c0, b = _canon(cu)
    chi = coords_to_class(c0)
    lane_vec = np.where(sig == 0,
                        lay.lane_Z[chi, i + 0 * g],
                        lay.lane_Y[chi, i + 0 * g]).ravel()
    sign = np.broadcast_to((sig * b) & 1, (4, 16, 24, 64)).ravel()
    tmp = lay.lane_TMP.ravel()
    # L divides 64 exactly when it divides 2048, so the tensor rows and the
    # Z/Y planes have pad lanes together; pads pull from a pad of the other
    # side (lane 2048 of Z plane 0, lane 64 of tensor row 0), which is 0 or p
    return (pull_table(tmp, lane_vec, sign, lay.m, 0, lay.tmp_words,
                       fill=lay.wZ * lay.m.lanes + 2048),
            pull_table(lane_vec, tmp, sign, lay.m, lay.wZ, lay.n_words, fill=64))


@lru_cache(maxsize=16)
def _xi_zy_steps(p: int, e: int):
    """Sign masks before and after the H_64 / 8 of xi^e on the grey-frame
    tensor, for its (64, ...) view with axis 0 = dG * 4 + i % 4, and the
    row permutation in between, for its (256, ...) view with axis 0 =
    (dG, i % 4, group)."""
    neg = np.uint64(modulus(p).all_lanes)
    dg, j = np.divmod(np.arange(64), 4)
    if e == 1:      # D first; then (-1)^(w2(dG) + 1)
        pre, post = j == 0, _W2_5[dg] == 0
    else:           # (-1)^w2(dG) first; then -D
        pre, post = _W2_5[dg] == 1, j != 0
    perm = (_REIDX16[:, None, None] * 16 + _SWAP12[:, None] * 4
            + np.argsort(_xi_group_map(e))).ravel()
    return (np.where(pre, neg, 0).astype(np.uint64)[:, None], perm,
            np.where(post, neg, 0).astype(np.uint64)[:, None])


def apply_xi(v: MmVector, e: int) -> MmVector:
    if e not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
    p, m, lay = v.p, v.mod, v.layout()
    out = new_zero(p)

    # A: congruence with the block-diagonal 24x24 matrix, exact integers
    A, _, _ = _get_smalls(v)
    M = qx_leech.xi24_matrix_num(e)
    inv4 = pow(4, -1, p)
    A2 = (M.T @ A @ M) * inv4 % p
    lay.inject(out.buf, lay.lane_A, A2.ravel())

    # B/C/T/X: signed permutation from conjugation in the extraspecial group
    table = _xi_98280_tables(p)[e - 1]
    gather_signed(out.buf, v.buf, table, p, m.k)

    # Z/Y: into the grey-frame tensor, H_64 / 8 between signed row
    # permutations, and back
    fwd, back = _xi_4096_gather(p)
    pre, perm, post = _xi_zy_steps(p, e)
    tmp = np.empty((64, 24 * lay.WH), dtype=np.uint64)
    gather_signed(tmp.reshape(-1), v.buf, fwd, p, m.k)
    tmp ^= pre
    modp_core.hadamard_words(tmp, m)
    tout = tmp.reshape(256, -1)[perm].reshape(64, -1)
    tout ^= post
    gather_signed(out.buf, tout.ravel(), back, p, m.k)
    return out


# ---------------------------------------------------------------------------
# Dispatch

def apply_atom(v: MmVector, at: GeneratorAtom) -> MmVector:
    if at.tag in ("x", "y", "z", "p", "d"):
        return _apply_monomial(v, at)
    if at.tag == "t":
        return apply_tau(v, at.payload)
    return apply_xi(v, at.payload)


def apply_xyz(v: MmVector, tag: str, d: ParkerLoopElement) -> MmVector:
    return apply_atom(v, GeneratorAtom(tag, d.value))


def apply_pi(v: MmVector, pi: StdAutomorphism) -> MmVector:
    return apply_atom(v, GeneratorAtom("p", pi))


def apply_word(v: MmVector, word) -> MmVector:
    for at in word:
        v = apply_atom(v, at)
    return v
