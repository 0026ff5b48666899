"""The Parker loop and its distinguished cocycle.

Loop elements are pairs (codeword, sign bit) stored as a 13-bit value
(sign in bit 12).  Multiplication adds code parts and twists the sign by
a cocycle theta built over the fixed basis b_0..b_11:

    theta(b_i, b_j) = 0 for i < j,  P(b_i) for i = j,  C(b_i, b_j) for i > j,

extended to all of the code by linearity in the second argument and by

    theta(d + e) = theta(d) + theta(e) + A(d, e)

on the first (theta(d) is the cocode element pairing to theta(d, .)).
Because b_0..b_5 are the grey basis and b_6..b_11 are coloured, this
single construction already has the grey/coloured compatibility the
non-monomial generator needs: theta vanishes on grey x anything of the
upper triangle, is stable under adding the all-ones word, and restricted
to coloured-first pairs equals the grey pairing <e, gamma(h)>.

P, C, A are the power, commutator and associator maps |d|/4, |d & e|/2,
|d & e & f| taken mod 2.
"""

from dataclasses import dataclass

import numpy as np

from . import golay
from .golay import (BASIS, EXPAND, CocodeElement, GolayCodeword,
                    syndrome_mask, syndrome_mask_vec)


def pmap_mask(d: int) -> int:
    return (bin(d).count("1") >> 2) & 1


def cmap_mask(d: int, e: int) -> int:
    return (bin(d & e).count("1") >> 1) & 1


def amap_mask(d: int, e: int) -> int:
    """A(d, e) as cocode coordinates (syndrome of the intersection)."""
    return syndrome_mask(d & e)


def _build_theta():
    tb = np.zeros((12, 12), dtype=np.uint8)
    for i in range(12):
        for j in range(12):
            if i == j:
                tb[i, j] = pmap_mask(BASIS[i])
            elif i > j:
                tb[i, j] = cmap_mask(BASIS[i], BASIS[j])
    theta_basis = np.zeros(12, dtype=np.uint16)
    for i in range(12):
        theta_basis[i] = int("".join(str(b) for b in tb[i, ::-1]), 2)

    theta = np.zeros(4096, dtype=np.uint16)
    for j in range(12):
        b = 1 << j
        theta[b:2 * b] = (theta[:b] ^ theta_basis[j]
                          ^ syndrome_mask_vec(EXPAND[:b] & np.uint32(BASIS[j])))
    return theta


THETA = _build_theta()

PMAP_TABLE = ((np.bitwise_count(EXPAND) >> 2) & 1).astype(np.uint8)


def theta_of(d: GolayCodeword) -> CocodeElement:
    return CocodeElement(int(THETA[d.coords]))


def theta(d: GolayCodeword, e: GolayCodeword) -> int:
    return theta_bits(d.coords, e.coords)


def theta_bits(dcoords: int, ecoords: int) -> int:
    return bin(int(THETA[dcoords]) & ecoords).count("1") & 1


def theta_bits_vec(dcoords, ecoords) -> np.ndarray:
    th = THETA[np.asarray(dcoords, dtype=np.int64)]
    return golay.pair_bits(th, ecoords)


# ---------------------------------------------------------------------------
# Loop elements

@dataclass(frozen=True)
class ParkerLoopElement:
    """13-bit value: bit 12 holds the sign, bits 0..11 the code coordinates."""
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", golay.exact_int(self.value, "loop element"))
        if not 0 <= self.value < 8192:
            raise ValueError("loop element must fit in 13 bits")

    @property
    def coords(self) -> int:
        return self.value & 0xFFF

    @property
    def sign(self) -> int:
        return self.value >> 12

    @property
    def code(self) -> GolayCodeword:
        return GolayCodeword(self.value & 0xFFF)

    @property
    def mask(self) -> int:
        return int(EXPAND[self.value & 0xFFF])

    def __neg__(self) -> "ParkerLoopElement":
        return ParkerLoopElement(self.value ^ 0x1000)


ONE = ParkerLoopElement(0)
MINUS_ONE = ParkerLoopElement(0x1000)
OMEGA_LOOP = ParkerLoopElement(golay.OMEGA_COORDS)


def loop(code: GolayCodeword, sign: int = 0) -> ParkerLoopElement:
    return ParkerLoopElement(code.coords | (sign & 1) << 12)


def mul(a: ParkerLoopElement, b: ParkerLoopElement) -> ParkerLoopElement:
    return ParkerLoopElement(mul_value(a.value, b.value))


def mul_value(a: int, b: int) -> int:
    s = ((a ^ b) >> 12) ^ theta_bits(a & 0xFFF, b & 0xFFF)
    return ((a ^ b) & 0xFFF) | s << 12


def mul_value_vec(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    s = (((a ^ b) >> 12) & 1).astype(np.uint8) ^ theta_bits_vec(a & 0xFFF, b & 0xFFF)
    return ((a ^ b) & 0xFFF) | s.astype(np.int64) << 12


def inv(a: ParkerLoopElement) -> ParkerLoopElement:
    return ParkerLoopElement(inv_value(a.value))


def inv_value(a: int) -> int:
    return a ^ int(PMAP_TABLE[a & 0xFFF]) << 12


def inv_value_vec(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    return a ^ PMAP_TABLE[a & 0xFFF].astype(np.int64) << 12


def pmap(d: ParkerLoopElement) -> int:
    return int(PMAP_TABLE[d.value & 0xFFF])


def cmap(d: ParkerLoopElement, e: ParkerLoopElement) -> int:
    return cmap_mask(d.mask, e.mask)


def amap(d: ParkerLoopElement, e: ParkerLoopElement) -> CocodeElement:
    return CocodeElement(amap_mask(d.mask, e.mask))

