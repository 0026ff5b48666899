"""Arithmetic modulo p = 2^k - 1 on arrays of residues.

A residue mod p is held in k bits with the convention that the all-ones
pattern p is an alias of 0 (both read back as 0).  Under this
identification the three structural tricks hold element-wise:

* negation is bitwise complement of the k bits (XOR with p),
* halving (multiplication by the inverse of 2) is a right rotation by
  one bit within the k bits,
* addition is ordinary addition with the carry folded back into the
  low bit (end-around carry): s = a + b, then (s & p) + (s >> k).

The word kernels (``add_words`` etc.) take unsigned integer arrays of any
shape holding values 0..p and return values 0..p.  A sum needs k + 1
bits, so the arithmetic runs on uint16 at every p; the vectors of
``mm_rep`` store one uint8 per coordinate and widen where they add.

``hadamard_words`` (H_64 / 8, the block the triality and extra generators
share) does not reduce between its layers: it runs six exact
add/subtract layers (``butterfly_words``) on signed int16, whose values
stay within +-64p <= 16320 < 2^15, and then divides by 8 and reduces
with one lookup in a per-modulus table that is exact for every int16.
"""

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ALLOWED_P = (3, 7, 15, 31, 127, 255)


@dataclass(frozen=True)
class Modulus:
    """A modulus p = 2^k - 1."""

    p: int
    k: int = field(init=False)

    def __post_init__(self):
        try:
            p = operator.index(self.p)
        except TypeError:
            p = None
        if p not in ALLOWED_P:
            raise ValueError(f"modulus must be one of {ALLOWED_P}, got {self.p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", p.bit_length())


_MODULI = {p: Modulus(p) for p in ALLOWED_P}


def modulus(p: int) -> Modulus:
    """The modulus p, an integer (numpy integers too) in ALLOWED_P."""
    try:
        return _MODULI[operator.index(p)]
    except (TypeError, KeyError):
        raise ValueError(f"modulus must be one of {ALLOWED_P}, got {p!r}") from None


def add_words(a, b, m: Modulus):
    """a + b mod p element-wise (end-around carry); a and b are uint16."""
    s = a + b
    c = s >> m.k
    s &= m.p
    s += c
    return s


def neg_words(a, m: Modulus):
    """Additive inverse element-wise: complement of the k bits."""
    return a ^ m.p


def halve_words(a, m: Modulus):
    """Multiplication by (p+1)/2 element-wise: right rotation by one bit."""
    return (a >> 1) | ((a & 1) << (m.k - 1))


def butterfly_words(a, b, s, d):
    """One exact butterfly layer on signed int16 arrays: s <- a + b and
    d <- a - b, with no reduction.  The caller keeps |a| + |b| below 2^15."""
    np.add(a, b, out=s)
    np.subtract(a, b, out=d)
    return s, d


@lru_cache(maxsize=None)
def _div8_table(p: int):
    """Entry u is (v / 8) mod p, v the int16 whose bit pattern is u."""
    v = np.arange(1 << 16, dtype=np.uint16).view(np.int16).astype(np.int64)
    return (v * pow(8, -1, p) % p).astype(np.uint16)


def hadamard_words(a, m: Modulus):
    """In place, a <- (H_64 / 8) a along axis 0 of a C-contiguous (64, ...)
    uint16 array of values 0..p, H_64 the Sylvester Hadamard matrix.

    Six exact butterfly layers on the index bits run on int16, ping-pong
    between a and one scratch array, so the sixth lands back in a; every
    value v is then within +-64p (+-16320 at p = 255), inside int16.  One
    take through a 65536-entry table of (v / 8) mod p, cached per modulus
    and exact for every int16, brings the result to 0..p - 1."""
    if a.shape[:1] != (64,) or a.dtype != np.uint16 or not a.flags.c_contiguous:
        raise ValueError("hadamard_words needs a C-contiguous (64, ...) uint16 array")
    tmp = np.empty_like(a)
    src, dst = a.view(np.int16), tmp.view(np.int16)
    for layer in range(6):
        shape = (32 >> layer, 2, 1 << layer, -1)
        x, y = src.reshape(shape), dst.reshape(shape)
        butterfly_words(x[:, 0], x[:, 1], y[:, 0], y[:, 1])
        src, dst = dst, src
    # mode "clip" never clips, as every uint16 indexes the table, and
    # unlike "raise" it does not buffer the output
    return np.take(_div8_table(m.p), a, out=a, mode="clip")
