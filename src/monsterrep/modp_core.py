"""Packed arithmetic modulo p = 2^k - 1.

A residue mod p is stored in k bits with the convention that the
all-ones pattern p is an alias of 0 (both read back as 0).  Under this
identification the three structural tricks hold lane-wise:

* negation is bitwise complement of the k bits,
* halving (multiplication by the inverse of 2) is a right rotation,
* addition is ordinary addition with the carry folded back into the
  low bit (end-around carry).

``floor(64/k)`` residues are packed per 64-bit word.  The word-level
functions (``add_words`` etc.) operate on raw uint64 arrays of any shape
and form the kernels used by the big representation vectors; the
``PackedField`` wrapper adds bounds/metadata for standalone use.

Carry safety: lane sums need k+1 bits, so addition splits the lanes into
the even- and odd-indexed groups.  Each group is shifted down to
positions 0, 2k, 4k, ... where every lane has at least k spare bits
above it, summed, and the end-around carry folded twice (the second fold
handles the corner value 2^k).
"""

from dataclasses import dataclass, field

import numpy as np

ALLOWED_P = (3, 7, 15, 31, 127, 255)

_U = np.uint64


def _u(x: int) -> np.uint64:
    return np.uint64(x)


@dataclass(frozen=True)
class Modulus:
    """A modulus p = 2^k - 1 together with its packing geometry."""

    p: int
    k: int = 0
    lanes: int = 0                      # residues per 64-bit word
    lane_bits: int = 0                  # k * lanes
    all_lanes: int = 0                  # every lane's k bits set
    lsb: int = 0                        # bit 0 of every lane
    group_mask: tuple = field(default=(0, 0))   # lanes of each parity, shifted down
    group_lsb: tuple = field(default=(0, 0))

    def __post_init__(self):
        if self.p not in ALLOWED_P:
            raise ValueError(f"modulus must be one of {ALLOWED_P}, got {self.p}")
        k = self.p.bit_length()
        lanes = 64 // k
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lanes", lanes)
        object.__setattr__(self, "lane_bits", k * lanes)
        allm = sum(self.p << (i * k) for i in range(lanes))
        object.__setattr__(self, "all_lanes", allm)
        object.__setattr__(self, "lsb", sum(1 << (i * k) for i in range(lanes)))
        gm, gl = [], []
        for g in (0, 1):
            n = (lanes - g + 1) // 2
            gm.append(sum(self.p << (2 * j * k) for j in range(n)))
            gl.append(sum(1 << (2 * j * k) for j in range(n)))
        object.__setattr__(self, "group_mask", tuple(gm))
        object.__setattr__(self, "group_lsb", tuple(gl))

    def words_for(self, count: int) -> int:
        return -(-count // self.lanes)


_MODULI = {p: Modulus(p) for p in ALLOWED_P}


def modulus(p: int) -> Modulus:
    try:
        return _MODULI[p]
    except KeyError:
        raise ValueError(f"modulus must be one of {ALLOWED_P}, got {p}") from None


def add_words(a, b, m: Modulus):
    """Lane-wise a + b mod p on uint64 arrays (end-around carry)."""
    k = _u(m.k)
    out = np.zeros_like(a)
    for g in (0, 1):
        gm, gl = _u(m.group_mask[g]), _u(m.group_lsb[g])
        sh = _u(g * m.k)
        s = ((a >> sh) & gm) + ((b >> sh) & gm)
        s = (s & gm) + ((s >> k) & gl)
        s = (s & gm) + ((s >> k) & gl)
        out |= s << sh
    return out


def neg_words(a, m: Modulus):
    """Lane-wise additive inverse: complement of the k bits."""
    return a ^ _u(m.all_lanes)


def sub_words(a, b, m: Modulus):
    return add_words(a, neg_words(b, m), m)


def halve_words(a, m: Modulus):
    """Lane-wise multiplication by (p+1)/2: right rotation by one bit."""
    low = a & _u(m.lsb)
    return ((a ^ low) >> _u(1)) | (low << _u(m.k - 1))


def double_words(a, m: Modulus):
    """Lane-wise doubling: left rotation by one bit."""
    top = a & _u(m.lsb << (m.k - 1))
    return ((a ^ top) << _u(1)) | (top >> _u(m.k - 1))


def butterfly_words(a, b, m: Modulus, scale_half: bool = False):
    """(c(a+b), c(a-b)) lane-wise, c = 1/2 if scale_half else 1."""
    s = add_words(a, b, m)
    d = sub_words(a, b, m)
    if scale_half:
        s = halve_words(s, m)
        d = halve_words(d, m)
    return s, d


def hadamard_words(a, m: Modulus):
    """In place, a <- (H_64 / 8) a along axis 0 of a C-contiguous (64, ...)
    uint64 array, H_64 the Sylvester Hadamard matrix: six butterfly layers
    on the index bits, the first three halved."""
    if a.shape[:1] != (64,) or a.dtype != np.uint64 or not a.flags.c_contiguous:
        raise ValueError("hadamard_words needs a C-contiguous (64, ...) uint64 array")
    for layer in range(6):
        w = a.reshape(32 >> layer, 2, 1 << layer, -1)
        w[:, 0], w[:, 1] = butterfly_words(w[:, 0], w[:, 1], m, scale_half=layer < 3)
    return a


class PackedField:
    """A fixed-length vector of residues mod p packed into uint64 words.

    Lanes past ``count`` stay zero (or the alias p, which also reads back
    as zero); ``unpack`` and equality normalize the alias.
    """

    __slots__ = ("words", "count", "mod")

    def __init__(self, words: np.ndarray, count: int, mod: Modulus):
        self.words = words
        self.count = count
        self.mod = mod

    def copy(self) -> "PackedField":
        return PackedField(self.words.copy(), self.count, self.mod)

    def __eq__(self, other):
        if not isinstance(other, PackedField):
            return NotImplemented
        if self.mod.p != other.mod.p or self.count != other.count:
            return False
        return bool(np.array_equal(unpack(self), unpack(other)))

    def __repr__(self):
        return f"PackedField(p={self.mod.p}, count={self.count})"


def pack(values, m: Modulus) -> PackedField:
    """Pack integers 0..p-1 into lanes; values >= p are rejected."""
    vals = np.asarray(values, dtype=np.int64)
    if vals.ndim != 1:
        vals = vals.ravel()
    if vals.size and (vals.min() < 0 or vals.max() >= m.p):
        bad = vals[(vals < 0) | (vals >= m.p)][0]
        raise ValueError(f"value {bad} out of range 0..{m.p - 1} "
                         f"(the alias p must be passed as 0)")
    return PackedField(pack_words(vals, m), len(vals), m)


def pack_words(vals: np.ndarray, m: Modulus) -> np.ndarray:
    nw = m.words_for(len(vals)) if len(vals) else 0
    padded = np.zeros(nw * m.lanes, dtype=np.uint64)
    padded[:len(vals)] = vals.astype(np.uint64)
    lanes = padded.reshape(nw, m.lanes)
    words = np.zeros(nw, dtype=np.uint64)
    for s in range(m.lanes):
        words |= lanes[:, s] << _u(s * m.k)
    return words


def unpack(f: PackedField) -> np.ndarray:
    return unpack_words(f.words, f.count, f.mod)


def unpack_words(words: np.ndarray, count: int, m: Modulus) -> np.ndarray:
    out = np.empty((len(words), m.lanes), dtype=np.int64)
    for s in range(m.lanes):
        out[:, s] = ((words >> _u(s * m.k)) & _u(m.p)).astype(np.int64)
    flat = out.ravel()[:count]
    flat[flat == m.p] = 0
    return flat


def _check_pair(a: PackedField, b: PackedField):
    if a.mod.p != b.mod.p or a.count != b.count:
        raise ValueError("packed fields have mismatched modulus or length")


def _clear_pads(words: np.ndarray, count: int, m: Modulus) -> np.ndarray:
    """Zero the lanes past count (ops may leave the alias value there)."""
    used = count - (len(words) - 1) * m.lanes
    if len(words) and used < m.lanes:
        words[-1] &= _u((1 << (used * m.k)) - 1)
    return words


def add_packed(a: PackedField, b: PackedField) -> PackedField:
    _check_pair(a, b)
    w = _clear_pads(add_words(a.words, b.words, a.mod), a.count, a.mod)
    return PackedField(w, a.count, a.mod)


def neg_packed(a: PackedField) -> PackedField:
    w = _clear_pads(neg_words(a.words, a.mod), a.count, a.mod)
    return PackedField(w, a.count, a.mod)


def halve_packed(a: PackedField) -> PackedField:
    return PackedField(halve_words(a.words, a.mod), a.count, a.mod)


def double_packed(a: PackedField) -> PackedField:
    return PackedField(double_words(a.words, a.mod), a.count, a.mod)


def butterfly_packed(a: PackedField, b: PackedField, scale_half: bool = False):
    _check_pair(a, b)
    s, d = butterfly_words(a.words, b.words, a.mod, scale_half)
    _clear_pads(s, a.count, a.mod)
    _clear_pads(d, a.count, a.mod)
    return (PackedField(s, a.count, a.mod), PackedField(d, a.count, a.mod))
