"""Standard automorphisms of the Parker loop.

Every standard automorphism factors uniquely as diag * [perm]: a
diagonal part delta (a cocode element, acting by d -> d * (-1)^<d,delta>)
followed by the lift [perm] of a code automorphism that fixes all twelve
positive basis loop elements.  The sign correction of the lift is the
unique quadratic form q with q(b_i) = 0 whose polarization is

    (d, e) -> theta(d^perm, e^perm) + theta(d, e),

so application is two table lookups.  Composition uses

    [p][p'] = correction(p, p') * [pp'],   <b_i, correction> = q_{[p']}(b_i^p),

plus the commutation rule [p] * delta^p = delta * [p].
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import golay
from .golay import BASIS, LIGHTEST, CocodeElement, permute_mask, syndrome_mask
from .parker_loop import THETA, ParkerLoopElement


class NotInM24Error(ValueError):
    """The permutation does not preserve the Golay code."""


@dataclass(frozen=True)
class Perm24:
    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(24)):
            raise ValueError("not a permutation of 0..23")

    def __getitem__(self, i):
        return self.images[i]

    def __mul__(self, other):
        """self then other."""
        return Perm24(tuple(other.images[i] for i in self.images))

    def inverse(self):
        inv = [0] * 24
        for i, im in enumerate(self.images):
            inv[im] = i
        return Perm24(tuple(inv))

    def is_identity(self):
        return self.images == tuple(range(24))


IDENTITY_PERM = Perm24(tuple(range(24)))


@lru_cache(maxsize=512)
def _perm_tables(images: tuple):
    """(code image table, cocode image table, qform table) for a code
    automorphism, or raises NotInM24Error.

    Both image tables are GF(2)-linear, so each doubles on the highest
    bit from the image of one basis vector per step: the code table from
    b_j, the cocode table from the lightest representative of the j-th
    cocode basis vector.

    q is the quadratic form with q(b_j) = 0 whose polarization is

        B(c, e) = theta(c^perm, e^perm) + theta(c, e).

    B is linear in e, and symmetric because theta(c, e) + theta(e, c) =
    |c & e|/2 is invariant under the permutation; so it is bilinear.
    Hence q doubles the same way: for b = 2^j and r < b,
    q(r + b) = q(r) + B(r, b), twelve vectorized steps."""
    basis_imgs = []
    for b in BASIS:
        m = permute_mask(b, images)
        try:
            basis_imgs.append(golay.compress(m).coords)
        except ValueError:
            raise NotInM24Error(
                "permutation does not preserve the Golay code") from None
    code_img = np.zeros(4096, dtype=np.uint16)
    cocode_img = np.zeros(4096, dtype=np.uint16)
    q = np.zeros(4096, dtype=np.uint8)
    for j in range(12):
        b = 1 << j
        code_img[b:2 * b] = code_img[:b] ^ np.uint16(basis_imgs[j])
        cocode_img[b:2 * b] = cocode_img[:b] ^ np.uint16(
            syndrome_mask(permute_mask(int(LIGHTEST[b]), images)))
        beta = (np.bitwise_count(THETA[code_img[:b]] & code_img[b])
                ^ np.bitwise_count(THETA[:b] & np.uint16(b)))
        q[b:2 * b] = q[:b] ^ (beta & 1)
    return code_img, cocode_img, q


@dataclass(frozen=True)
class StdAutomorphism:
    """diag * [perm] with cached lookup tables."""

    diag: CocodeElement
    perm: Perm24
    _tables: tuple = field(default=None, compare=False, repr=False)

    def tables(self):
        if self._tables is None:
            object.__setattr__(self, "_tables", _perm_tables(self.perm.images))
        return self._tables

    @property
    def qform(self) -> np.ndarray:
        return self.tables()[2]


IDENTITY_AUT = StdAutomorphism(CocodeElement(0), IDENTITY_PERM)


def from_perm(p: Perm24) -> StdAutomorphism:
    pi = StdAutomorphism(CocodeElement(0), p)
    pi.tables()            # validates M_24 membership eagerly
    return pi


def diag_automorphism(delta: CocodeElement) -> StdAutomorphism:
    return StdAutomorphism(delta, IDENTITY_PERM)


def apply_value(pi: StdAutomorphism, value: int) -> int:
    code_img, _, q = pi.tables()
    c = value & 0xFFF
    s = (value >> 12) ^ int(q[c]) ^ (bin(c & pi.diag.coords).count("1") & 1)
    return int(code_img[c]) | s << 12


def apply_value_vec(pi: StdAutomorphism, values) -> np.ndarray:
    code_img, _, q = pi.tables()
    v = np.asarray(values, dtype=np.int64)
    c = v & 0xFFF
    s = ((v >> 12) & 1).astype(np.uint8) ^ q[c] ^ golay.pair_bits(c, pi.diag.coords)
    return code_img[c].astype(np.int64) | s.astype(np.int64) << 12


def apply(pi: StdAutomorphism, a: ParkerLoopElement) -> ParkerLoopElement:
    return ParkerLoopElement(apply_value(pi, a.value))


def cocode_image(pi: StdAutomorphism, delta: CocodeElement) -> CocodeElement:
    return CocodeElement(int(pi.tables()[1][delta.coords]))


def compose(pi: StdAutomorphism, pi2: StdAutomorphism) -> StdAutomorphism:
    """The automorphism acting as pi followed by pi2."""
    p1, p2 = pi.perm, pi2.perm
    q2 = pi2.tables()[2]
    code1 = pi.tables()[0]
    corr = 0
    for j in range(12):
        corr |= int(q2[code1[1 << j]]) << j
    inv1 = from_perm(p1.inverse()) if not p1.is_identity() else IDENTITY_AUT
    delta = (pi.diag.coords
             ^ cocode_image(inv1, pi2.diag).coords
             ^ corr)
    return StdAutomorphism(CocodeElement(delta), p1 * p2)


def parity(pi: StdAutomorphism) -> int:
    """0 iff the automorphism fixes Omega."""
    return apply_value(pi, golay.OMEGA_COORDS) >> 12


# ---------------------------------------------------------------------------
# Sample elements of M_24 for randomized checks.  Candidates come from the
# visible MOG symmetries (hexacode-preserving column permutations, row
# rotations realizing scalar multiplication, per-column involutions on
# half-column sets); each is validated by the membership test before use.

def _colperm_images(sigma):
    return tuple((i & 3) + 4 * sigma[i >> 2] for i in range(24))


def _rowperm_images(rho, cols=0x3F):
    out = []
    for i in range(24):
        m, n = i & 3, i >> 2
        out.append((rho[m] if (cols >> n) & 1 else m) + 4 * n)
    return tuple(out)


def _candidate_images():
    halves = ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    return ([_colperm_images(sigma) for sigma in permutations(range(6))]
            + [_rowperm_images(rho) for rho in ((0, 2, 3, 1), (0, 3, 1, 2))]
            + [_rowperm_images(rho, cols) for rho in halves for cols in (0x0F, 0x33, 0x3C)])


@lru_cache(maxsize=1)
def sample_perms():
    """The candidates in M_24, in candidate order: those that map the 12
    basis words to words of syndrome 0, tested in one vectorized pass."""
    cands = _candidate_images()
    bits = (np.array(BASIS)[:, None] >> np.arange(24)) & 1
    images = (1 << np.array(cands)) @ bits.T                # (candidates, 12) masks
    in_m24 = ~golay.syndrome_mask_vec(images).any(axis=1)
    good = [Perm24(c) for c, ok in zip(cands, in_m24) if ok]
    assert len(good) >= 24
    return tuple(good)


def random_perm(rng) -> Perm24:
    gens = sample_perms()
    p = gens[rng.int(len(gens))]
    for _ in range(2 + rng.int(4)):
        p = p * gens[rng.int(len(gens))]
    return p


def random_automorphism(rng) -> StdAutomorphism:
    return StdAutomorphism(CocodeElement(rng.int(4096)), random_perm(rng))
