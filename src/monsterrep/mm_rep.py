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
  vector, held as a pull table (``_kernels.GatherTable``) cached on the
  run and applied by one gather; a run followed by the extra generator
  that ``apply_word`` has seen before is instead read through that
  generator's tables, composed with the run's into one fused cache entry,
  so y x_pi x nu_delta xi^e takes three gathers;
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
        if self.mod.p != other.mod.p:
            raise ValueError("modulus mismatch")
        s = modp_core.add_words(self.buf.astype(np.uint16), other.buf, self.mod)
        return MmVector(self.mod, s.astype(np.uint8))

    def __neg__(self):
        return MmVector(self.mod, modp_core.neg_words(self.buf, self.mod))

    def __repr__(self):
        return f"MmVector(p={self.mod.p})"


def _as_p(p) -> int:
    return p.p if isinstance(p, Modulus) else int(p)


def new_zero(p) -> MmVector:
    return MmVector(modulus(_as_p(p)), np.zeros(DIM, dtype=np.uint8))


def from_coords(p, vals) -> MmVector:
    m = modulus(_as_p(p))
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
    p = _as_p(p)
    return from_coords(p, _rng.rand_ints(seed, 0, DIM, p))


def add(a: MmVector, b: MmVector) -> MmVector:
    return a + b


def basis_vector(p, logical_index: int) -> MmVector:
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
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError("not an MMV1 vector file")
    size, count = len(data), int.from_bytes(data[5:9], "little")
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
# img(c), block by block:
#
#   a    24-point image and 24 sign bits: A entry (i, j) goes to entry
#        (img i, img j), negated by the sign bits of i and j together;
#   bc   552-entry image and sign bits on B then C;
#   t    48576-entry int32 image and sign bits on T, octad-major;
#   xzy  per source block X, Z, Y: the destination block, a 2048-row image,
#        a 24-column image and (2048, 24) sign bits in source coordinates.
#
# The form is closed under composition (``_compose``), so a run of monomial
# atoms becomes one map, one pull table and one gather.

_MONOMIAL_TAGS = frozenset("xyzpd")
_BASE = {"X": _X, "Z": _Z, "Y": _Y}

# the bit <d, i> per (class, point) of X/Z/Y, the bit P(d) per class, and
# the sign bit P(d) + <d, i> of an odd automorphism on X
_CLASS_DI = ((_CLASS_MASKS[:, None] >> np.arange(24)) & 1).astype(np.uint8)
_CLASS_PBIT = (_CLASS_P & 1).astype(np.uint8)
_CLASS_PDI = _CLASS_PBIT[:, None] ^ _CLASS_DI


class _Maps(NamedTuple):
    a: tuple
    bc: tuple
    t: tuple
    xzy: dict


def _bits(s):
    return (np.asarray(s) & 1).astype(np.uint8)


def _t_map(oct_img, sub_img, sgn):
    """T part from the octad images, the (759, 64) suboctad images and the
    sign bits (both broadcast to 759 x 64)."""
    img = (64 * oct_img.astype(np.int32))[:, None] + sub_img
    return (np.broadcast_to(img, (759, 64)).ravel(),
            np.broadcast_to(_bits(sgn), (759, 64)).ravel())


def _xzy_map(dst, rimg, rsgn, cimg, csgn):
    """X/Z/Y part of a source block whose sign is a row bit plus a column bit."""
    return dst, rimg, cimg, _bits(rsgn)[:, None] ^ _bits(csgn)


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

    colsel = ((emask >> np.arange(24)) & 1).astype(np.int64)
    id24, zero24 = np.arange(24), np.zeros(24, dtype=np.int64)

    # B/C (index n of B, 276 + n of C): x_e negates the pairs split by e;
    # y_e and z_e also swap B and C on those pairs, y_e with a sign
    flip = colsel[_PAIR_I] ^ colsel[_PAIR_J]
    n = np.arange(276)
    bc_img = (np.arange(552) if tag == "x"
              else np.concatenate((n + 276 * flip, n + 276 * (1 - flip))))
    bc_sgn = np.tile(flip * (tag != "z"), 2)

    if tag == "x":
        xmap = ("X", chi_id, c_ce_c0, colsel)                   # X
        zmap = ("Z", chi_xor, se ^ pe ^ th_ce_c0, zero24)       # Z <- (e^-1 d)
        ymap = ("Y", chi_xor, se ^ pe ^ th_ce_c0 ^ bflip, zero24)
    elif tag == "y":
        xmap = ("X", chi_xor, se ^ th_c0_ce, zero24)            # X: d -> d e
        zmap = ("Z", chi_xor, se ^ th_c0_ce, colsel)            # (d e)^+
        ymap = ("Y", chi_id, c_ce_c0, colsel)                   # (e^-1 d e)^-
    else:
        xmap = ("X", chi_xor, se ^ pe ^ th_ce_c0, colsel)       # X: d -> e^-1 d
        zmap = ("Z", chi_id, c_ce_c0, colsel)                   # (e^-1 d e)^+
        ymap = ("Y", chi_xor, se ^ th_c0_ce ^ bflip, colsel)    # (d e)^-

    return _Maps(
        a=(id24, _bits(zero24 if tag == "x" else colsel)),     # A -> s A s
        bc=(bc_img, _bits(bc_sgn)),
        t=_t_map(np.arange(759), t_img_t, t_sgn),
        xzy={blk: _xzy_map(dst, rimg, rsgn, id24, csgn)
             for blk, (dst, rimg, rsgn, csgn) in zip("XZY", (xmap, zmap, ymap))},
    )


# position of each point inside each octad (entries of other points unused)
_OCTAD_POS = np.zeros((759, 24), dtype=np.uint8)
_OCTAD_POS[np.arange(759)[:, None], golay.OCTAD_POINTS] = np.arange(8)


class _PermMaps(NamedTuple):
    img24: np.ndarray       # point images
    oct_img: np.ndarray     # octad images
    sub_img: np.ndarray     # (759, 6) images of the basis suboctads 1 << j
    chi_img: np.ndarray     # class images
    bflip: np.ndarray       # canonical-representative bit of the image class
    bc_img: np.ndarray      # B/C pair images


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
    wc0, bflip = _canon(code_img[_CLASS_COORDS])
    pair_img = qx_leech._PAIR_IDX[img24[_PAIR_I], img24[_PAIR_J]]
    maps = _PermMaps(img24, oct_img, sub_img, coords_to_class(wc0), bflip,
                     np.concatenate((pair_img, 276 + pair_img)))
    for arr in maps:
        arr.flags.writeable = False
    return maps


def _pi_maps(pi: StdAutomorphism) -> _Maps:
    """Maps of the automorphism diag * [perm] (x_pi, or nu_delta for the
    identity permutation): the cached permutation part, and the signs
    q(c) + <c, delta> of octads and classes, and the parity."""
    pm = _perm_maps(pi.perm.images)
    q, delta, par = pi.qform, pi.diag.coords, aut_pl.parity(pi)

    # t -> SUB_REP[o, t] (an XOR of pairs {pt0, pt_j}), the point map and
    # the suboctad index are GF(2)-linear: fill 64 t by doubling
    t_img_t = np.zeros((759, 64), dtype=np.int32)
    for j in range(6):
        b = 1 << j
        t_img_t[:, b:2 * b] = t_img_t[:, :b] ^ pm.sub_img[:, j:j + 1]
    oct_sign = q[golay.OCTAD_COORDS] ^ golay.pair_bits(golay.OCTAD_COORDS, delta)
    # the suboctad label carries Omega^{|delta|/2}, and Omega -> -Omega when
    # the automorphism is odd
    t_sgn = oct_sign[:, None] ^ _bits(par * _SUB_N64)

    ws = q[_CLASS_COORDS] ^ golay.pair_bits(_CLASS_COORDS, delta)
    zero24 = np.zeros(24, dtype=np.int64)

    # odd automorphisms swap Z and Y; the minus block Y carries the sign
    # of the canonical class representative
    zy_dst = {"Z": "Z", "Y": "Y"} if par == 0 else {"Z": "Y", "Y": "Z"}
    xzy = {blk: _xzy_map(dst, pm.chi_img, ws ^ pm.bflip * (dst == "Y"), pm.img24, zero24)
           for blk, dst in zy_dst.items()}
    # odd automorphisms also sign X coordinate (d, i) by P(d) + <d, i>
    xzy["X"] = ("X", pm.chi_img, pm.img24, ws[:, None] ^ _CLASS_PDI * np.uint8(par))
    return _Maps(
        a=(pm.img24, _bits(zero24)),
        bc=(pm.bc_img, _bits(np.repeat([0, par], 276))),        # C negated when odd
        t=_t_map(pm.oct_img, t_img_t, t_sgn),
        xzy=xzy,
    )


def _atom_maps(at: GeneratorAtom) -> _Maps:
    if at.tag in ("x", "y", "z"):
        return _xyz_maps(at.tag, at.payload)
    if at.tag == "p":
        return _pi_maps(at.payload)
    return _pi_maps(aut_pl.diag_automorphism(golay.CocodeElement(at.payload)))


def _then(f, g):
    """(image, sign bits) of the map f followed by the map g."""
    img, sgn = f
    return g[0].take(img), sgn ^ g[1].take(img)


def _compose(f: _Maps, g: _Maps) -> _Maps:
    """The monomial map f followed by g."""
    xzy = {}
    for blk, (dst, row, col, sgn) in f.xzy.items():
        dst2, row2, col2, sgn2 = g.xzy[dst]
        xzy[blk] = (dst2, row2.take(row), col2.take(col),
                    sgn ^ sgn2.take(row, axis=0).take(col, axis=1))
    return _Maps(_then(f.a, g.a), _then(f.bc, g.bc), _then(f.t, g.t), xzy)


def _mono_table(p: int, maps: _Maps) -> GatherTable:
    """Pull table of a monomial map over the whole vector."""
    src = np.empty(DIM, dtype=np.int32)
    bits = np.empty(DIM, dtype=np.uint8)

    # A/B/C/T: scatter the push maps, coordinate c -> +-dst[c] for c < _X.
    # Both entries (i, j) and (j, i) of A write the same coordinate alike.
    (a_img, a_sgn), (bc_img, bc_sgn), (t_img, t_sgn) = maps.a, maps.bc, maps.t
    dst = np.concatenate((_A_IDX[a_img[:, None], a_img].ravel(), _B + bc_img, _T + t_img))
    src[dst] = np.concatenate((_A_IDX.ravel(), np.arange(_B, _X)))
    bits[dst] = np.concatenate(((a_sgn[:, None] ^ a_sgn).ravel(), bc_sgn, t_sgn))

    # X/Z/Y: invert the row and column maps; the source index is an outer
    # sum over (row, point) and the sign the source sign bits reordered
    for blk, (dname, rimg, cimg, sgn) in maps.xzy.items():
        rinv, cinv = np.empty(2048, dtype=np.int64), np.empty(24, dtype=np.int64)
        rinv[rimg], cinv[cimg] = np.arange(2048), np.arange(24)
        view = np.s_[_BASE[dname]:_BASE[dname] + 49152]
        np.add((_BASE[blk] + 24 * rinv)[:, None], cinv, out=src[view].reshape(2048, 24))
        bits[view] = sgn.take(rinv, axis=0).take(cinv, axis=1).ravel()
    bits *= np.uint8(p)
    return GatherTable(src, bits)


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


def _read_through(g: GatherTable, t: GatherTable) -> GatherTable:
    """One pull table for the pull table g followed by t, which reads
    g's output."""
    neg = g.neg.take(t.src, mode="clip")
    neg ^= t.neg
    return GatherTable(g.src.take(t.src, mode="clip"), neg)


def _monomial_gather(p: int, at):
    """Pull table mod p of a monomial atom or of a MonomialRun; a run
    of one atom shares its atom's cache entry.  For a run fused with xi^e
    it is xi's A, B/C/T/X and Z/Y forward tables (``_xi_reads``) read
    through the run's table, which this pops from the cache: the fused
    entry takes its place."""
    key = (p, at.key())
    hit = _MONO_CACHE.get(key)
    if hit is not None:
        return hit
    run = at if isinstance(at, MonomialRun) else MonomialRun((at,))
    g = _MONO_CACHE.pop((p, MonomialRun(run.atoms).key()), None) if run.xi else None
    if g is None:
        g = _mono_table(p, reduce(_compose, map(_atom_maps, run.atoms)))
    table = tuple(_read_through(g, t) for t in _xi_reads(p, run.xi)) if run.xi else g
    if len(_MONO_CACHE) > 128:
        _MONO_CACHE.clear()
    _MONO_CACHE[key] = table
    return table


def _apply_monomial(v: MmVector, at) -> MmVector:
    out = MmVector(v.mod, np.empty_like(v.buf))
    gather_signed(out.buf, v.buf, _monomial_gather(v.p, at))
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


def apply_tau(v: MmVector, e: int) -> MmVector:
    """tau^e in one pass; tau^2 = tau^-1 runs every step of tau inverted."""
    if e not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
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
    if e not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
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
