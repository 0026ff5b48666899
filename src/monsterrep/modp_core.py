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
"""

from dataclasses import dataclass

import numpy as np

ALLOWED_P = (3, 7, 15, 31, 127, 255)


@dataclass(frozen=True)
class Modulus:
    """A modulus p = 2^k - 1."""

    p: int
    k: int = 0

    def __post_init__(self):
        if self.p not in ALLOWED_P:
            raise ValueError(f"modulus must be one of {ALLOWED_P}, got {self.p}")
        object.__setattr__(self, "k", self.p.bit_length())


_MODULI = {p: Modulus(p) for p in ALLOWED_P}


def modulus(p: int) -> Modulus:
    try:
        return _MODULI[p]
    except KeyError:
        raise ValueError(f"modulus must be one of {ALLOWED_P}, got {p}") from None


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


def sub_words(a, b, m: Modulus):
    return add_words(a, neg_words(b, m), m)


def halve_words(a, m: Modulus):
    """Multiplication by (p+1)/2 element-wise: right rotation by one bit."""
    return (a >> 1) | ((a & 1) << (m.k - 1))


def butterfly_words(a, b, m: Modulus, scale_half: bool = False):
    """(c(a+b), c(a-b)) element-wise, c = 1/2 if scale_half else 1."""
    s = add_words(a, b, m)
    d = sub_words(a, b, m)
    if scale_half:
        s = halve_words(s, m)
        d = halve_words(d, m)
    return s, d


def hadamard_words(a, m: Modulus):
    """In place, a <- (H_64 / 8) a along axis 0 of a C-contiguous (64, ...)
    uint16 array, H_64 the Sylvester Hadamard matrix: six butterfly layers
    on the index bits, the first three halved."""
    if a.shape[:1] != (64,) or a.dtype != np.uint16 or not a.flags.c_contiguous:
        raise ValueError("hadamard_words needs a C-contiguous (64, ...) uint16 array")
    for layer in range(6):
        w = a.reshape(32 >> layer, 2, 1 << layer, -1)
        w[:, 0], w[:, 1] = butterfly_words(w[:, 0], w[:, 1], m, scale_half=layer < 3)
    return a
