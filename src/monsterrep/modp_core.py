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
share) does not reduce between its layers: it divides by 8 with one
rotation, runs six exact add/subtract layers (``butterfly_words``) on
signed int16, whose values stay within +-64p <= 16320, and reduces once
at the end.
"""

from dataclasses import dataclass, field

import numpy as np

ALLOWED_P = (3, 7, 15, 31, 127, 255)


@dataclass(frozen=True)
class Modulus:
    """A modulus p = 2^k - 1."""

    p: int
    k: int = field(init=False)

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


def halve_words(a, m: Modulus):
    """Multiplication by (p+1)/2 element-wise: right rotation by one bit."""
    return (a >> 1) | ((a & 1) << (m.k - 1))


def butterfly_words(a, b, s, d):
    """One exact butterfly layer on signed int16 arrays: s <- a + b and
    d <- a - b, with no reduction.  The caller keeps |a| + |b| below 2^15."""
    np.add(a, b, out=s)
    np.subtract(a, b, out=d)
    return s, d


def _fold_bound(bound: int, m: Modulus) -> int:
    """The largest (u & p) + (u >> k) over 0 <= u <= bound."""
    q = bound >> m.k
    return max(m.p + q - 1, (bound & m.p) + q) if q else bound


def hadamard_words(a, m: Modulus):
    """In place, a <- (H_64 / 8) a along axis 0 of a C-contiguous (64, ...)
    uint16 array of values 0..p, H_64 the Sylvester Hadamard matrix.

    The input is divided by 8 first (a right rotation by 3 mod k bits).
    Then six exact butterfly layers on the index bits run on int16,
    ping-pong between a and one scratch array, so the sixth lands back in
    a; every value is then within +-64p (+-16320 at p = 255).  One shift
    by 64p and end-around-carry folds, as many as that bound needs, bring
    the result back to 0..p."""
    if a.shape[:1] != (64,) or a.dtype != np.uint16 or not a.flags.c_contiguous:
        raise ValueError("hadamard_words needs a C-contiguous (64, ...) uint16 array")
    k, p = m.k, m.p
    tmp = np.empty_like(a)
    r = 3 % k
    if r:
        np.bitwise_and(a, (1 << r) - 1, out=tmp)
        tmp <<= k - r
        a >>= r
        a |= tmp
    src, dst = a.view(np.int16), tmp.view(np.int16)
    for layer in range(6):
        shape = (32 >> layer, 2, 1 << layer, -1)
        x, y = src.reshape(shape), dst.reshape(shape)
        butterfly_words(x[:, 0], x[:, 1], y[:, 0], y[:, 1])
        src, dst = dst, src
    a += 64 * p                 # as uint16: wraps -64p..64p onto 0..128p
    bound = 128 * p
    while bound > p:
        np.right_shift(a, k, out=tmp)
        a &= p
        a += tmp
        bound = _fold_bound(bound, m)
    return a
