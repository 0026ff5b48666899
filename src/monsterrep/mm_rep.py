"""The 196884-dimensional representation modulo p = 2^k - 1.

A vector splits into seven blocks,

    A  24x24 symmetric matrix part (300 free coordinates),
    B  276   pair coordinates,
    C  276   pair-plus-Omega coordinates,
    T  759 octads x 64 suboctads,
    X  2048 code classes x 24 points   (monomial short-vector part),
    Z  2048 x 24   'plus' tensor part,
    Y  2048 x 24   'minus' tensor part,

stored as one uint8 per coordinate in the MMV1 file order: the blocks in
the order above, A as its 24 diagonal entries then the 276 pairs, T
octad-major and X/Z/Y class-major.  Short vector n of ``qx_leech`` is
coordinate 300 + n.  A coordinate holds 0..p, and p is an alias of 0 (see
``modp_core``) that only ``residues`` reads.  Input must be exact:
non-integer coordinates, factors or payloads raise, as do out-of-range ones.

Generator words act through four kernel families:

* monomial atoms (x_e / y_e / z_e and automorphism atoms) are signed
  permutations built from the block structure; x_pi and nu_delta are
  both standard automorphisms diag * [perm] and share one builder,
  which caches the part of the maps that depends on the permutation
  (read from ``aut_pl``'s code image table) and adds the signs of the
  quadratic form and the diagonal part per atom; ``apply_word`` composes
  each maximal run of them into one signed permutation of the whole
  vector, cached on the run in pull form (head, row and column sources
  and a sign mask in source order) and applied as one XOR and three
  takes; a run followed by the extra generator that ``apply_word`` has
  seen before is instead read through that generator's tables, composed
  with the run's into one fused cache entry, so y x_pi x nu_delta xi^e
  takes three gathers;
* the triality generator mixes (A_ij, B_ij, C_ij) by a 3x3 matrix with
  halving, rotates X -> Y -> Z -> X with sign masks, and applies H_64 / 8
  (``modp_core.hadamard_words``: a division by 8, six exact int16
  butterfly layers and one reduction mod p) to the 64 suboctads of each
  octad of T;
* the extra generator acts monomially on B/C/T/X through conjugation in
  the extraspecial group, by 4x4 column blocks on A, and on Z/Y by
  H_16 (x) H_4 = H_64 / 8, the same kernel, between two signed gathers
  into and out of a grey-frame tensor; its tables share intp source
  indices across the moduli;
* everything else is composition.
"""

import operator
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from . import _rng, aut_pl, golay, modp_core, qx_leech
from ._kernels import GatherTable, gather_signed, pull_map
from .aut_pl import StdAutomorphism
from .golay import EXPAND
from .modp_core import Modulus, modulus
from .parker_loop import PMAP_TABLE, THETA, ParkerLoopElement
from .qx_leech import SHORT_VALUES, class_to_coords, coords_to_class

DIM = 196884

# first coordinate of the blocks B, C, T, X, Z, Y (A starts at 0)
_B, _C, _T, _X, _Z, _Y = 300, 576, 852, 49428, 98580, 147732

_CLASS_COORDS = class_to_coords(np.arange(2048)).astype(np.int64)
_CLASS_MASKS = EXPAND[_CLASS_COORDS].astype(np.int64)
_CLASS_P = PMAP_TABLE[_CLASS_COORDS].astype(np.int64)

_PAIR_I = qx_leech._PAIR_I.astype(np.int64)
_PAIR_J = qx_leech._PAIR_J.astype(np.int64)

# coordinate of the A entry (i, j): i on the diagonal, else 24 + pair index
_A_IDX = 24 + qx_leech._PAIR_IDX.astype(np.int64)
_A_IDX[np.arange(24), np.arange(24)] = np.arange(24)

# n(t): half the size of the canonical suboctad representative, mod 2.
_SUB_N64 = golay.SUB_NBIT[0].astype(np.int64)
_SUB_PAR = (np.bitwise_count(np.arange(64, dtype=np.uint64)) & 1).astype(np.int64)


def _canon(codes):
    b = (codes >> 5) & 1
    return codes ^ b * 0x3F, b


# ---------------------------------------------------------------------------
# Coordinate access

def residues(buf, p: int) -> np.ndarray:
    """The uint8 coordinates buf as residues 0..p-1: the one reader of the alias p."""
    return buf * (buf != p)


class Layout:
    """Coordinate access for one modulus, named by the benchmark's tracer."""

    def __init__(self, m: Modulus):
        self.m = m

    def extract(self, buf, idx):
        """The coordinates idx of buf as integers 0..p-1."""
        return residues(buf[idx], self.m.p).astype(np.int64)

    def inject(self, buf, idx, vals):
        """Write integers 0..p-1 into the coordinates idx of buf."""
        buf[idx] = vals


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

    def copy(self) -> "MmVector":
        return MmVector(self.mod, self.buf.copy())

    def unpack(self) -> np.ndarray:
        return residues(self.buf, self.mod.p).astype(np.int64)

    def __eq__(self, other):
        if not isinstance(other, MmVector):
            return NotImplemented
        return self.mod.p == other.mod.p and bool(np.array_equal(
            residues(self.buf, self.mod.p), residues(other.buf, self.mod.p)))

    def __add__(self, other):
        if not isinstance(other, MmVector):
            return NotImplemented
        if self.mod.p != other.mod.p:
            raise ValueError("modulus mismatch")
        s = modp_core.add_words(self.buf.astype(np.uint16), other.buf, self.mod)
        return MmVector(self.mod, s.astype(np.uint8))

    def __neg__(self):
        return MmVector(self.mod, modp_core.neg_words(self.buf, self.mod))

    def __repr__(self):
        return f"MmVector(p={self.mod.p})"


def _modulus(p) -> Modulus:
    return modulus(p.p if isinstance(p, Modulus) else p)


def new_zero(p) -> MmVector:
    return MmVector(_modulus(p), np.zeros(DIM, dtype=np.uint8))


def from_coords(p, vals) -> MmVector:
    m = _modulus(p)
    vals = np.asarray(vals)
    if vals.shape != (DIM,):
        raise ValueError(f"expected {DIM} coordinates")
    if vals.dtype.kind not in "biu":
        raise ValueError(f"coordinates must be integers, not {vals.dtype}")
    if vals.min() < 0 or vals.max() >= m.p:
        bad = np.flatnonzero((vals < 0) | (vals >= m.p))[0]
        raise ValueError(f"coordinate {bad} is {vals[bad]}; "
                         f"coordinates must lie in 0..{m.p - 1}")
    return MmVector(m, vals.astype(np.uint8))


def rand(p, seed: int) -> MmVector:
    m = _modulus(p)
    return from_coords(m, _rng.rand_ints(seed, 0, DIM, m.p))


def add(a: MmVector, b: MmVector) -> MmVector:
    return a + b


def basis_vector(p, logical_index: int) -> MmVector:
    try:
        logical_index = operator.index(logical_index)
    except TypeError:
        raise ValueError(f"coordinate {logical_index!r} is not an integer") from None
    if not 0 <= logical_index < DIM:
        raise ValueError(f"coordinate {logical_index} outside 0..{DIM - 1}")
    v = new_zero(p)
    v.buf[logical_index] = 1
    return v


def scale(v: MmVector, s: int) -> MmVector:
    return from_coords(v.p, v.unpack() * (operator.index(s) % v.p) % v.p)


def check_vector(v: MmVector) -> None:
    """Raise ValueError unless v satisfies the storage invariants: a valid
    modulus and 196884 uint8 coordinates, each 0..p (p reads as 0)."""
    m = modulus(v.mod.p)
    if v.mod != m or v.buf.dtype != np.uint8 or v.buf.shape != (DIM,):
        raise ValueError(f"a p={m.p} vector is {DIM} uint8 coordinates")
    if v.buf.max() > m.p:
        bad = int(np.argmax(v.buf > m.p))
        raise ValueError(f"coordinate {bad} is {v.buf[bad]}, above p={m.p}")


NORM_WEIGHT = np.ones(DIM, dtype=np.int64)
NORM_WEIGHT[24:300] = 2


def norm_form(v: MmVector) -> int:
    """Weighted squared norm mod p: weight 2 on the pair part of A."""
    c = v.unpack()
    return int((NORM_WEIGHT * c % v.p * c).sum() % v.p)


# MMV1 file format ----------------------------------------------------------

MAGIC = b"MMV1"


def write_vector(v: MmVector, path):
    with open(path, "wb") as fh:
        fh.write(MAGIC + bytes([v.p]) + DIM.to_bytes(4, "little"))
        fh.write(residues(v.buf, v.p))


def read_vector(path) -> MmVector:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(9 + DIM)
    if data[:4] != MAGIC:
        raise ValueError("not an MMV1 vector file")
    count = int.from_bytes(data[5:9], "little")
    if (size, count) != (9 + DIM, DIM):
        raise ValueError(f"corrupt MMV1 file: {size} bytes, count {count}; expected {9 + DIM}, {DIM}")
    return from_coords(data[4], np.frombuffer(data, dtype=np.uint8, offset=9))


# ---------------------------------------------------------------------------
# Generator atoms

@dataclass(frozen=True)
class GeneratorAtom:
    """tag in {x,y,z,p,d,t,l}; payload is a 13-bit loop value (x/y/z),
    an automorphism (p), a 12-bit cocode value (d) or an exponent (t/l)."""
    tag: str
    payload: object

    def __post_init__(self):
        if self.tag != "p" and not isinstance(self.payload, (int, np.integer)):
            raise ValueError(f"{self.tag} atom needs an integer, not {self.payload!r}")
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
# Monomial atoms and runs: signed-permutation maps
#
# A monomial map is held in push form, source coordinate c -> +-coordinate
# img(c), in two parts:
#
#   head  an int32 image and uint8 sign bits of the 49428 coordinates below
#         X (A, B, C and T); A entry (i, j) of an automorphism goes to
#         entry (img i, img j);
#   rows  X, Z and Y stacked as one 6144 x 24 block: a 6144-row image, one
#         24-column image that all rows share, and (6144, 24) sign bits in
#         source coordinates.
#
# An element of N_x0 permutes the code classes of X, Z and Y and applies
# one point map to the columns of all three, so the rows part needs no
# block names: the swap of Z and Y by an odd automorphism is a row offset.
# The form is closed under composition (``_compose``), so a run of
# monomial atoms becomes one map.  It acts in pull form (``_Pull``), with
# the signs still in source order: a run negates its input, then moves
# the head by one take and X/Z/Y by a row take and a column take.

_MONOMIAL_TAGS = frozenset("xyzpd")

# the bit <d, i> per (class, point) of X/Z/Y, the bit P(d) per class, and
# the sign bit P(d) + <d, i> of an odd automorphism on X
_CLASS_DI = ((_CLASS_MASKS[:, None] >> np.arange(24)) & 1).astype(np.uint8)
_CLASS_PBIT = (_CLASS_P & 1).astype(np.uint8)
_CLASS_PDI = _CLASS_PBIT[:, None] ^ _CLASS_DI


class _Maps(NamedTuple):
    head: tuple     # (image, sign bits) of the coordinates below X
    rows: tuple     # (row image, column image, sign bits) of X/Z/Y


class _Pull(NamedTuple):
    head: np.ndarray    # int32 source of each coordinate below X
    rows: np.ndarray    # source of each of the 6144 rows of X/Z/Y
    cols: np.ndarray    # source of each of the 24 columns
    mask: np.ndarray    # 0 or p per coordinate, in source order


def _bits(s):
    return (np.asarray(s) & 1).astype(np.uint8)


def _theta_vec(dc, ec):
    return golay.pair_bits(THETA[np.asarray(dc, dtype=np.int64)], ec).astype(np.int64)


def _xyz_maps(tag: str, e13: int) -> _Maps:
    ce = e13 & 0xFFF
    se = e13 >> 12
    emask = int(EXPAND[ce])

    # T part
    t = np.arange(64, dtype=np.int32)[None, :]
    pair_e = np.bitwise_count(golay.SUB_REP & np.uint32(emask)) & 1
    c_oe = (np.bitwise_count(golay.OCTAD_MASKS & np.uint32(emask)) >> 1) & 1
    if tag == "x":
        t_img_t, t_sgn = t, c_oe[:, None] ^ pair_e
    else:
        t_img_t = t ^ golay.suboctads_of_code(ce).astype(np.int32)[:, None]
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

    colsel = (emask >> np.arange(24)) & 1

    # A/B/C: x_e negates the B and C pairs split by e; y_e and z_e also
    # swap B and C on those pairs, y_e with a sign, and map A -> s A s
    # with the sign diagonal s of e, which negates the same pairs of A
    flip = colsel[_PAIR_I] ^ colsel[_PAIR_J]
    img = np.arange(_X, dtype=np.int32)
    sgn = np.zeros(_X, dtype=np.uint8)
    if tag != "x":
        img[_B:_C] += 276 * flip
        img[_C:_T] -= 276 * flip
        sgn[24:_B] = flip
    sgn[_B:_T] = np.tile(flip * (tag != "z"), 2)
    img[_T:] = (_T + 64 * np.arange(759, dtype=np.int32)[:, None] + t_img_t).ravel()
    sgn[_T:].reshape(759, 64)[...] = t_sgn

    # per block X, Z, Y: the row image, the row sign bits, and whether the
    # columns of e are negated
    if tag == "x":          # X; Z and Y <- (e^-1 d)
        rimg = (chi_id, chi_xor, chi_xor)
        rsgn = (c_ce_c0, se ^ pe ^ th_ce_c0, se ^ pe ^ th_ce_c0 ^ bflip)
        csel = (1, 0, 0)
    elif tag == "y":        # X: d -> d e; Z: (d e)^+; Y: (e^-1 d e)^-
        rimg = (chi_xor, chi_xor, chi_id)
        rsgn = (se ^ th_c0_ce, se ^ th_c0_ce, c_ce_c0)
        csel = (0, 1, 1)
    else:                   # X: d -> e^-1 d; Z: (e^-1 d e)^+; Y: (d e)^-
        rimg = (chi_xor, chi_id, chi_xor)
        rsgn = (se ^ pe ^ th_ce_c0, c_ce_c0, se ^ th_c0_ce ^ bflip)
        csel = (1, 1, 1)
    row_sgn = _bits(rsgn)[:, :, None] ^ np.outer(csel, colsel).astype(np.uint8)[:, None, :]
    return _Maps(head=(img, sgn),
                 rows=((2048 * np.arange(3)[:, None] + rimg).ravel(), np.arange(24),
                       row_sgn.reshape(6144, 24)))


# position of each point inside each octad (entries of other points unused)
_OCTAD_POS = np.zeros((759, 24), dtype=np.uint8)
_OCTAD_POS[np.arange(759)[:, None], golay.OCTAD_POINTS] = np.arange(8)


class _PermMaps(NamedTuple):
    img24: np.ndarray       # point images
    head: np.ndarray        # int32 image of the coordinates below X
    chi_img: np.ndarray     # class images
    bflip: np.ndarray       # canonical-representative bit of the image class


@lru_cache(maxsize=8)
def _perm_maps(images: tuple) -> _PermMaps:
    """The part of an automorphism's maps that depends on its permutation
    alone, read from the code image table of ``aut_pl``."""
    code_img = aut_pl._perm_tables(images)[0]
    img24 = np.array(images, dtype=np.int64)
    oct_img = golay.OCTAD_INDEX_OF_COORD[code_img[golay.OCTAD_COORDS]]
    # basis suboctad 1 << j of octad o is the pair of its points 0 and j + 1;
    # its image is the pair at the positions of the two image points in the
    # image octad, as a suboctad index modulo the complement (bit 7)
    pos = _OCTAD_POS[oct_img[:, None], img24[golay.OCTAD_POINTS[:, :7]]]
    m8 = (1 << pos[:, :1]) | (1 << pos[:, 1:])
    sub_img = (np.where(m8 & 0x80, m8 ^ 0xFF, m8) >> 1) & 0x3F
    # t -> SUB_REP[o, t] (an XOR of pairs {pt0, pt_j}), the point map and
    # the suboctad index are GF(2)-linear: fill 64 t by doubling
    t_img = np.empty((759, 64), dtype=np.int32)
    t_img[:, 0] = 64 * oct_img.astype(np.int32)
    for j in range(6):
        b = 1 << j
        t_img[:, b:2 * b] = t_img[:, :b] ^ sub_img[:, j:j + 1]
    # A entry (i, j) goes to (img i, img j), and B and C pair n alike
    pair_img = qx_leech._PAIR_IDX[img24[_PAIR_I], img24[_PAIR_J]]
    head = np.concatenate((img24, 24 + pair_img, _B + pair_img, _C + pair_img,
                           _T + t_img.ravel()), dtype=np.int32)
    wc0, bflip = _canon(code_img[_CLASS_COORDS])
    maps = _PermMaps(img24, head, coords_to_class(wc0), bflip)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def _pi_maps(pi: StdAutomorphism) -> _Maps:
    """Maps of the automorphism diag * [perm] (x_pi, or nu_delta for the
    identity permutation): the cached permutation part, and the signs
    q(c) + <c, delta> of octads and classes, and the parity."""
    pm = _perm_maps(pi.perm.images)
    q, delta, par = pi.qform, pi.diag.coords, aut_pl.parity(pi)

    sgn = np.zeros(_X, dtype=np.uint8)
    sgn[_C:_T] = par                                        # C negated when odd
    oct_sign = q[golay.OCTAD_COORDS] ^ golay.pair_bits(golay.OCTAD_COORDS, delta)
    # the suboctad label carries Omega^{|delta|/2}, and Omega -> -Omega when
    # the automorphism is odd
    sgn[_T:].reshape(759, 64)[...] = oct_sign[:, None] ^ _bits(par * _SUB_N64)

    # X, Z and Y go to the blocks dst, so odd automorphisms swap Z and Y.
    # The minus block Y carries the sign of the canonical class
    # representative; odd automorphisms also sign X coordinate (d, i) by
    # P(d) + <d, i>
    dst = np.array([0, 1 + par, 2 - par])
    ws = q[_CLASS_COORDS] ^ golay.pair_bits(_CLASS_COORDS, delta)
    row_sgn = np.empty((3, 2048, 24), dtype=np.uint8)
    row_sgn[...] = _bits(ws ^ pm.bflip * (dst[:, None] == 2))[:, :, None]
    row_sgn[0] ^= _CLASS_PDI * np.uint8(par)
    return _Maps(head=(pm.head, sgn),
                 rows=((2048 * dst[:, None] + pm.chi_img).ravel(), pm.img24,
                       row_sgn.reshape(6144, 24)))


def _atom_maps(at: GeneratorAtom) -> _Maps:
    if at.tag in ("x", "y", "z"):
        return _xyz_maps(at.tag, at.payload)
    if at.tag == "p":
        return _pi_maps(at.payload)
    return _pi_maps(aut_pl.diag_automorphism(golay.CocodeElement(at.payload)))


def _compose(f: _Maps, g: _Maps) -> _Maps:
    """The monomial map f followed by g."""
    (img, sgn), (row, col, row_sgn) = f
    (img2, sgn2), (row2, col2, row_sgn2) = g
    return _Maps((img2.take(img), sgn ^ sgn2.take(img)),
                 (row2.take(row), col2.take(col),
                  row_sgn ^ row_sgn2.take(row, axis=0).take(col, axis=1)))


def _pull(p: int, maps: _Maps) -> _Pull:
    """Pull form mod p of a monomial map: the inverse images, and the
    sign bits times p, left in source order."""
    (img, sgn), (row, col, row_sgn) = maps
    head = np.empty(_X, dtype=np.int32)
    rows, cols = np.empty(6144, dtype=np.intp), np.empty(24, dtype=np.intp)
    head[img], rows[row], cols[col] = np.arange(_X), np.arange(6144), np.arange(24)
    return _Pull(head, rows, cols, np.concatenate((sgn, row_sgn.ravel())) * np.uint8(p))


@dataclass(frozen=True)
class MonomialRun:
    """A run of monomial atoms of a word, applied as one signed
    permutation; with xi = e, the run followed by xi^e as one fused step."""
    atoms: tuple
    xi: int | None = None

    def key(self):
        keys = tuple(at.key() for at in self.atoms)
        if self.xi is not None:
            return keys + (("l", self.xi),)
        return keys[0] if len(keys) == 1 else keys     # a one-atom run keys as its atom


_MONO_CACHE = {}


def _read_through(f: _Pull, reads) -> tuple:
    """Pull tables for the map f followed by each table of reads, which
    reads f's output: f's int32 source index of the whole vector, built
    once, read through each, with f's mask at those sources."""
    src = np.empty(DIM, dtype=np.int32)
    src[:_X] = f.head
    np.add((_X + 24 * f.rows)[:, None], f.cols, out=src[_X:].reshape(6144, 24))
    srcs = [src.take(t.src, mode="clip") for t in reads]
    return tuple(GatherTable(s, f.mask.take(s) ^ t.neg) for s, t in zip(srcs, reads))


def _monomial_gather(p: int, at):
    """Pull form mod p of a monomial atom or of a MonomialRun; a run of
    one atom shares its atom's cache entry.  For a run fused with xi^e it
    is xi's A, B/C/T/X and Z/Y forward tables (``_xi_reads``) read through
    the run's pull form, which this pops from the cache: the fused entry
    takes its place."""
    key = (p, at.key())
    hit = _MONO_CACHE.get(key)
    if hit is not None:
        return hit
    run = at if isinstance(at, MonomialRun) else MonomialRun((at,))
    f = _MONO_CACHE.pop((p, MonomialRun(run.atoms).key()), None) if run.xi else None
    if f is None:
        f = _pull(p, reduce(_compose, map(_atom_maps, run.atoms)))
    table = _read_through(f, _xi_reads(p, run.xi)) if run.xi else f
    if len(_MONO_CACHE) > 128:
        _MONO_CACHE.clear()
    _MONO_CACHE[key] = table
    return table


def _apply_monomial(v: MmVector, at) -> MmVector:
    f = _monomial_gather(v.p, at)
    out = MmVector(v.mod, np.empty_like(v.buf))
    np.take(v.buf[:_X] ^ f.mask[:_X], f.head, out=out.buf[:_X], mode="clip")
    # a row of X/Z/Y is 24 bytes, three uint64: move rows, then columns
    rows = (v.buf[_X:] ^ f.mask[_X:]).view(np.uint64).reshape(6144, 3).take(f.rows, axis=0)
    rows.view(np.uint8).take(f.cols, axis=1, out=out.buf[_X:].reshape(6144, 24), mode="clip")
    return out


# ---------------------------------------------------------------------------
# Triality kernel

@lru_cache(maxsize=8)
def _tau_masks(p: int):
    # (-1)^{<d,i>} and (-1)^{P(d)} per (class, point) coordinate of X/Z/Y
    di = _CLASS_DI * np.uint8(p)
    pp = np.broadcast_to(_CLASS_PBIT[:, None] * np.uint8(p), (2048, 24))
    # x_tau signs of the suboctads and their parity reindex
    t_neg = np.where(_SUB_N64 != 0, p, 0).astype(np.uint16)[:, None]
    reindex = np.where(_SUB_PAR == 1, np.arange(64) ^ 63, np.arange(64))
    return di.ravel(), (di ^ pp).ravel(), pp.ravel(), t_neg, reindex


def _exponent(e) -> int:
    """The exponent e of tau or xi, read exactly: 1 or 2."""
    try:
        e = operator.index(e)
    except TypeError:
        raise ValueError(f"exponent must be an integer, not {e!r}") from None
    if e not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
    return e


def apply_tau(v: MmVector, e: int) -> MmVector:
    """tau^e in one pass; tau^2 = tau^-1 runs every step of tau inverted."""
    e = _exponent(e)
    p, m, lay = v.p, v.mod, layout(v.p)
    mask_di, mask_dp, mask_p, t_neg, reindex = _tau_masks(p)
    out = MmVector(m, np.empty_like(v.buf))

    # small blocks: diagonal fixed; pairs (a, b, c) -> tau: ((b+c)/2,
    # a+(b-c)/2, -a+(b-c)/2), tau^2: ((b-c)/2, a+(b+c)/2, a-(b+c)/2)
    c = lay.extract(v.buf, np.s_[:_T])
    a, b, cc = c[24:_B], c[_B:_C], c[_C:_T]
    half = (p + 1) // 2
    s, d = (b + cc) * half, (b - cc) * half
    new = (s, a + d, d - a) if e == 1 else (d, a + s, a - s)
    lay.inject(out.buf, np.s_[:_T], np.concatenate((c[:24],) + new) % p)

    # T: tau is y_tau (H_64 / 8 on the suboctads, then the parity reindex)
    # then x_tau's signs; tau^2 undoes them in reverse order, as H_64 / 8
    # and the reindex are involutions
    W = v.buf[_T:_X].reshape(759, 64).T.astype(np.uint16, order="C")
    if e == 1:
        W = modp_core.hadamard_words(W, m)[reindex]
        W ^= t_neg
    else:
        W ^= t_neg
        W = modp_core.hadamard_words(W[reindex], m)
    out.buf[_T:_X].reshape(759, 64)[...] = W.T

    # X -> Y -> Z -> X with sign masks under tau, the other way under tau^2
    X, Z, Y = v.buf[_X:_Z], v.buf[_Z:_Y], v.buf[_Y:]
    if e == 1:
        np.bitwise_xor(X, mask_di, out=out.buf[_Y:])
        np.bitwise_xor(Y, mask_dp, out=out.buf[_Z:_Y])
        np.bitwise_xor(Z, mask_p, out=out.buf[_X:_Z])
    else:
        np.bitwise_xor(Y, mask_di, out=out.buf[_X:_Z])
        np.bitwise_xor(Z, mask_dp, out=out.buf[_Y:])
        np.bitwise_xor(X, mask_p, out=out.buf[_Z:_Y])
    return out


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


def _xi_zy_steps(e: int):
    """Sign bits before and after the H_64 / 8 of xi^e on the grey-frame
    tensor, for its (64, ...) view with axis 0 = dG * 4 + i % 4, and the
    row permutation in between, for its (256, ...) view with axis 0 =
    (dG, i % 4, group)."""
    dg, j = np.divmod(np.arange(64), 4)
    if e == 1:      # D first; then (-1)^(w2(dG) + 1)
        pre, post = j == 0, _W2_5[dg] == 0
    else:           # (-1)^w2(dG) first; then -D
        pre, post = _W2_5[dg] == 1, j != 0
    perm = (_REIDX16[:, None, None] * 16 + _SWAP12[:, None] * 4
            + np.argsort(_xi_group_map(e))).ravel()
    return pre.astype(np.int64), perm, post.astype(np.int64)


def _grey_frame():
    """Per grey-frame basis vector (group, dG, i, h): its position in the
    (64, 1536) tensor, whose rows are dG * 4 + i % 4 and columns (group,
    i // 4, h), its Z/Y coordinate, and the sign between the two."""
    g = np.arange(4)[:, None, None, None]
    dg = np.arange(16)[None, :, None, None]
    i = np.arange(24)[None, None, :, None]
    h = np.arange(64)[None, None, None, :]
    sig, kap = g >> 1, g & 1
    c0, b = _canon(kap | (_D16_PAT[dg] << 1) | (h << 6))
    pos = (dg * 4 + i % 4) * 1536 + g * 384 + (i // 4) * 64 + h
    coord = np.where(sig == 0, _Z, _Y) + 24 * coords_to_class(c0) + i
    return [x.ravel() for x in np.broadcast_arrays(pos, coord, sig * b)]


@lru_cache(maxsize=2)
def _xi_maps(e: int):
    """The pull maps of xi^e as (source index, sign bit), free of the
    modulus: B/C/T/X, where short vector n is coordinate 300 + n and xi^e
    maps it to +-short vector idx[n]; Z/Y into the grey-frame tensor with
    the pre-signs; and the transformed tensor back to Z/Y through the row
    permutation, with the post-signs."""
    idx, sgn, ok = qx_leech.short_index_vec(qx_leech.conj_by_xi_vec(SHORT_VALUES, e))
    assert ok.all()
    pos, coord, sign = _grey_frame()
    pre, perm, post = _xi_zy_steps(e)
    row = pos // 1536
    return (pull_map(idx, _B + np.arange(len(idx)), sgn),
            pull_map(pos, coord, sign ^ pre[row]),
            pull_map(coord - _Z, perm[pos // 384] * 384 + pos % 384, sign ^ post[row]))


@lru_cache(maxsize=2)
def _xi24(e: int):
    """Twice the 24x24 matrix of xi^e (integer entries), read-only."""
    M = qx_leech.xi24_matrix_num(e)
    M.flags.writeable = False
    return M


@lru_cache(maxsize=16)
def _xi_tables(p: int, e: int):
    """Pull tables of xi^e mod p for B/C/T/X, Z/Y forward and Z/Y back:
    every modulus shares the (intp) source indices and scales the sign
    bits."""
    return tuple(GatherTable(src, bits * p) for src, bits in _xi_maps(e))


# xi reads its A block, entry (i, j) at _A_IDX[i, j], through a table too
_XI_A = GatherTable(_A_IDX.ravel(), np.zeros(576, dtype=np.uint8))


def _xi_reads(p: int, e: int):
    """The tables through which xi^e reads its input: A, B/C/T/X and Z/Y
    forward.  A fused step reads through these composed with its run's."""
    return (_XI_A,) + _xi_tables(p, e)[:2]


def apply_xi(v: MmVector, e: int, *, run: tuple = ()) -> MmVector:
    """xi^e; with run, the monomial atoms run and then xi^e, as one step
    that reads through tables fused from both (see ``apply_word``)."""
    e = _exponent(e)
    p, m, lay = v.p, v.mod, layout(v.p)
    out = MmVector(m, np.empty_like(v.buf))
    a, short, fwd = (_monomial_gather(p, MonomialRun(run, e)) if run
                     else _xi_reads(p, e))
    back = _xi_tables(p, e)[2]

    # A: congruence with the block-diagonal 24x24 matrix, exact integers
    A = lay.extract(v.buf, a.src)
    A[a.neg != 0] *= -1
    M = _xi24(e)
    lay.inject(out.buf, _A_IDX, (M.T @ A.reshape(24, 24) @ M) * pow(4, -1, p) % p)

    # B/C/T/X: signed permutation from conjugation in the extraspecial group
    gather_signed(out.buf[_B:_Z], v.buf, short)

    # Z/Y: into the grey-frame tensor, H_64 / 8, and back
    tmp = np.empty(64 * 1536, dtype=np.uint8)
    gather_signed(tmp, v.buf, fwd)
    tmp = modp_core.hadamard_words(tmp.reshape(64, 1536).astype(np.uint16), m)
    gather_signed(out.buf[_Z:], tmp.ravel(), back)
    return out


# ---------------------------------------------------------------------------
# Dispatch

def apply_atom(v: MmVector, at: GeneratorAtom, *, run: tuple = ()) -> MmVector:
    """One atom; an xi atom may be given the monomial run before it (see
    ``apply_xi``)."""
    if at.tag in _MONOMIAL_TAGS:
        return _apply_monomial(v, at)
    if at.tag == "t":
        return apply_tau(v, at.payload)
    return apply_xi(v, at.payload, run=run)


def apply_xyz(v: MmVector, tag: str, d: ParkerLoopElement) -> MmVector:
    return apply_atom(v, GeneratorAtom(tag, d.value))


def apply_pi(v: MmVector, pi: StdAutomorphism) -> MmVector:
    return apply_atom(v, GeneratorAtom("p", pi))


def _seen(p: int, run: tuple, e: int) -> bool:
    """Whether the run's table, plain or fused with xi^e, is cached."""
    return ((p, MonomialRun(run).key()) in _MONO_CACHE
            or (p, MonomialRun(run, e).key()) in _MONO_CACHE)


def _apply_run(v: MmVector, run: tuple) -> MmVector:
    return _apply_monomial(v, MonomialRun(run)) if run else v


def apply_word(v: MmVector, word) -> MmVector:
    """Apply the atoms of word left to right; each maximal run of
    monomial atoms acts as one signed permutation.  A run followed by xi
    that was seen before is fused into xi's tables, so the two take three
    gathers, not four.  A run seen once is applied as its own gather:
    fusing costs more than the gather it saves, so it pays only when the
    run comes back."""
    run = ()
    for at in word:
        if at.tag in _MONOMIAL_TAGS:
            run += (at,)
            continue
        if run and at.tag == "l" and _seen(v.p, run, at.payload):
            v = apply_atom(v, at, run=run)
        else:
            v = apply_atom(_apply_run(v, run), at)
        run = ()
    return _apply_run(v, run)
