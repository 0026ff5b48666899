"""The binary Golay code on the MOG, its cocode, and the grey/coloured split.

Coordinates 0..23 are arranged in a 4x6 array (the MOG): point m + 4n
sits in row m, column n.  Rows carry the F4 weights 0, 1, a, a' (a' =
a^2 = 1 + a) used by the hexacode map: the hexacode value of a bit
vector is the 6-tuple of weighted column sums.  A vector lies in the
code iff its hexacode value is a hexacode word and all column parities
agree with the row-0 parity.

Fixed basis of the code (12 masks, in order):

    b_0 .. b_5   the grey words g_n = (column n) + (row 0)
    b_6 .. b_11  coloured words h*(v_1), h*(v_2), h*(v_3),
                 h*(a v_1), h*(a v_2), h*(a v_3)

where v_1, v_2, v_3 generate the hexacode and h* lifts a hexacode word
to the unique bit vector with empty row 0 and 0 or 2 bits per column.
Codewords are 12-bit coordinate vectors over this basis; cocode elements
are 12-bit vectors over the reciprocal basis, so the code/cocode pairing
is a plain AND-parity of coordinate words.  In these coordinates the
grey subspaces are exactly the low 6 bits on both sides.
"""

import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# MOG geometry

ROW0 = 0x111111                       # row 0 of the MOG
COLUMN = tuple(0xF << (4 * n) for n in range(6))
COLUMN_LOW3 = tuple(0xE << (4 * n) for n in range(6))   # rows 1..3 only
OMEGA = 0xFFFFFF                      # all 24 points

G_BASIS = tuple((COLUMN[n] ^ ROW0) for n in range(6))

# F4 = {0, 1, a, a'} encoded as 0,1,2,3; addition is XOR.
F4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))

HEXACODE_GENS = ((1, 0, 0, 1, 3, 2), (0, 1, 0, 1, 2, 3), (0, 0, 1, 1, 1, 1))


def exact_int(x, what: str) -> int:
    """x read exactly as an int (numpy integers too); anything else, a
    float with an integral value included, raises ValueError."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {x!r}") from None


@dataclass(frozen=True)
class HexacodeWord:
    """Six F4 digits, two bits each."""
    digits: tuple

    def __post_init__(self):
        digits = tuple(exact_int(d, "hexacode digit") for d in self.digits)
        object.__setattr__(self, "digits", digits)
        if len(digits) != 6 or any(d not in (0, 1, 2, 3) for d in digits):
            raise ValueError("hexacode word needs six digits in {0,1,a,a'}")

    def is_in_hexacode(self) -> bool:
        return self.digits in _HEXACODE_SET


def _f4_scale(s, word):
    return tuple(F4_MUL[s][d] for d in word)


def _f4_add(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def _hexacode_span():
    words = set()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                w = _f4_add(_f4_add(_f4_scale(a, HEXACODE_GENS[0]),
                                    _f4_scale(b, HEXACODE_GENS[1])),
                            _f4_scale(c, HEXACODE_GENS[2]))
                words.add(w)
    return frozenset(words)


_HEXACODE_SET = _hexacode_span()


def hexacode_value(v: int) -> tuple:
    """Weighted column sums of a 24-bit vector; row m has weight m in F4."""
    out = []
    for n in range(6):
        col = (v >> (4 * n)) & 0xF
        val = 0
        for m in (1, 2, 3):
            if col >> m & 1:
                val ^= m
        out.append(val)
    return tuple(out)


def hstar(word) -> int:
    """Unique lift with empty row 0 and 0 or 2 bits per column."""
    digits = word.digits if isinstance(word, HexacodeWord) else tuple(word)
    v = 0
    for n, d in enumerate(digits):
        if d:
            for m in (1, 2, 3):
                if m != d:
                    v |= 1 << (m + 4 * n)
    return v


def is_codeword(v: int) -> bool:
    if hexacode_value(v) not in _HEXACODE_SET:
        return False
    par0 = bin(v & ROW0).count("1") & 1
    return all((bin(v & COLUMN[n]).count("1") & 1) == par0 for n in range(6))


BASIS = tuple(G_BASIS) + tuple(hstar(g) for g in HEXACODE_GENS) \
    + tuple(hstar(_f4_scale(2, g)) for g in HEXACODE_GENS)

OMEGA_COORDS = 0x03F          # Omega~ = g_0 + ... + g_5
OMEGA_COCODE = 0x03F          # omega = gamma_0 + ... + gamma_5 in reciprocal coords

# ---------------------------------------------------------------------------
# Code tables

def _build_expand():
    exp = np.zeros(4096, dtype=np.uint32)
    for j in range(12):
        step = 1 << j
        exp[step:2 * step] = exp[:step] ^ np.uint32(BASIS[j])
    return exp


EXPAND = _build_expand()
_MASK_ORDER = np.argsort(EXPAND, kind="stable")
_MASKS_SORTED = EXPAND[_MASK_ORDER]

_POPC24 = np.bitwise_count(EXPAND).astype(np.int8)


def syndrome_mask(v: int) -> int:
    """Cocode coordinates of a 24-bit vector (kernel = the code)."""
    s = 0
    for j in range(12):
        s |= (bin(v & BASIS[j]).count("1") & 1) << j
    return s


def syndrome_mask_vec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.uint32)
    s = np.zeros(v.shape, dtype=np.uint16)
    for j in range(12):
        s |= (np.bitwise_count(v & np.uint32(BASIS[j])) & 1).astype(np.uint16) << np.uint16(j)
    return s


def _build_lightest():
    """Per cocode element, its weight and the first subset of that weight
    in ``combinations`` order with its syndrome: one pass per weight."""
    rep = np.zeros(4096, dtype=np.uint32)
    wt = np.full(4096, -1, dtype=np.int8)
    wt[0] = 0
    for weight in (1, 2, 3, 4):
        pts = np.fromiter(combinations(range(24), weight), dtype=(np.uint32, weight))
        masks = (np.uint32(1) << pts).sum(axis=1, dtype=np.uint32)
        synd, first = np.unique(syndrome_mask_vec(masks), return_index=True)
        new = wt[synd] < 0
        wt[synd[new]] = weight
        rep[synd[new]] = masks[first[new]]
    assert (wt >= 0).all()
    return rep, wt


LIGHTEST, COCODE_WEIGHT = _build_lightest()

# ---------------------------------------------------------------------------
# Value types

@dataclass(frozen=True)
class GolayCodeword:
    """12-bit coordinate vector over the fixed basis."""
    coords: int

    def __post_init__(self):
        object.__setattr__(self, "coords", exact_int(self.coords, "codeword"))
        if not 0 <= self.coords < 4096:
            raise ValueError("codeword coordinates must fit in 12 bits")

    @property
    def mask(self) -> int:
        return int(EXPAND[self.coords])

    def __xor__(self, other):
        return GolayCodeword(self.coords ^ other.coords)


@dataclass(frozen=True)
class CocodeElement:
    """12-bit coordinate vector over the reciprocal basis."""
    coords: int

    def __post_init__(self):
        object.__setattr__(self, "coords", exact_int(self.coords, "cocode element"))
        if not 0 <= self.coords < 4096:
            raise ValueError("cocode coordinates must fit in 12 bits")

    @property
    def weight(self) -> int:
        return int(COCODE_WEIGHT[self.coords])

    def __xor__(self, other):
        return CocodeElement(self.coords ^ other.coords)


def expand(c: GolayCodeword) -> int:
    return int(EXPAND[c.coords])


def compress(v: int) -> GolayCodeword:
    i = int(np.searchsorted(_MASKS_SORTED, v))
    if i >= 4096 or _MASKS_SORTED[i] != v:
        raise ValueError(f"0x{v:06x} is not a Golay codeword")
    return GolayCodeword(int(_MASK_ORDER[i]))


def syndrome(v: int) -> CocodeElement:
    return CocodeElement(syndrome_mask(v))


def lightest_rep(delta: CocodeElement) -> int:
    """A minimum-weight representative (smallest-set-bit tetrad on ties)."""
    return int(LIGHTEST[delta.coords])


def scalar(d: GolayCodeword, delta: CocodeElement) -> int:
    """Pairing <d, delta> = |d & rep| mod 2 = AND-parity of coordinates."""
    return bin(d.coords & delta.coords).count("1") & 1


def pair_bits(dcoords, dualcoords):
    """Vectorized pairing on raw coordinate words."""
    return np.bitwise_count(np.asarray(dcoords, np.uint32)
                            & np.asarray(dualcoords, np.uint32)).astype(np.uint8) & 1


# ---------------------------------------------------------------------------
# Grey / coloured machinery

def grey_split(d: GolayCodeword):
    """(grey 6-bit over g_0..g_5, coloured 6-bit over b_6..b_11)."""
    return d.coords & 0x3F, d.coords >> 6


def cocode_grey_split(delta: CocodeElement):
    """(grey part as gamma-coordinates, coloured part as CocodeElement)."""
    c6 = delta.coords & 0x3F
    t = c6 ^ (0x3F if bin(c6).count("1") & 1 else 0)
    return t, CocodeElement(delta.coords & 0xFC0)


def grey_cocode_coords(t: int) -> int:
    """Coordinates of sum(gamma_n, n in t); inverse of the t-extraction."""
    return t ^ (0x3F if bin(t).count("1") & 1 else 0)


def gamma_mask(v: int) -> int:
    """6-bit gamma value: column n set iff rows 1..3 of column n hold >= 2 bits."""
    t = 0
    for n in range(6):
        if bin(v & COLUMN_LOW3[n]).count("1") >= 2:
            t |= 1 << n
    return t


def gamma(v) -> CocodeElement:
    """gamma as a map into the grey cocode; accepts a mask or a codeword."""
    mask = v.mask if isinstance(v, GolayCodeword) else int(v)
    return CocodeElement(grey_cocode_coords(gamma_mask(mask)))


W2_TABLE = (0, 0, 1, 1, 0, 0, 1)
GREY_CODE_SIZE = (0, 8, 8, 12, 16, 16, 24)      # |d| as a function of w(d)
GREY_COCODE_MIN = (0, 1, 2, 3, 4, 3, 4)


def _grey_bits(x) -> int:
    if isinstance(x, GolayCodeword):
        if x.coords >> 6:
            raise ValueError("not a grey codeword")
        return x.coords
    if isinstance(x, CocodeElement):
        t, col = cocode_grey_split(x)
        if col.coords:
            raise ValueError("not a grey cocode element")
        return t
    raise TypeError("w/w2 take a grey codeword or grey cocode element")


def w(x) -> int:
    """Weight over the natural grey basis (g_n or gamma_n)."""
    return bin(_grey_bits(x)).count("1")


def w2(x) -> int:
    return W2_TABLE[w(x)]


def bilinear_grey(d: GolayCodeword, e: GolayCodeword) -> int:
    """<<d,e>> = <e, gamma(d)>, the symplectic form associated with w2."""
    a, b = _grey_bits(d), _grey_bits(e)
    return bilinear_grey_bits(a, b)


def bilinear_grey_bits(a: int, b: int) -> int:
    pa, pb = bin(a).count("1"), bin(b).count("1")
    return (pa * pb + bin(a & b).count("1")) & 1


# ---------------------------------------------------------------------------
# Octads and suboctads

_octad_sel = _POPC24 == 8
OCTAD_COORDS = np.arange(4096, dtype=np.uint16)[_octad_sel]
_order = np.argsort(EXPAND[_octad_sel])
OCTAD_COORDS = OCTAD_COORDS[_order]                 # sorted by 24-bit mask
OCTAD_MASKS = EXPAND[OCTAD_COORDS]
OCTAD_INDEX_OF_COORD = np.full(4096, -1, dtype=np.int16)
OCTAD_INDEX_OF_COORD[OCTAD_COORDS] = np.arange(len(OCTAD_COORDS))
assert len(OCTAD_MASKS) == 759

OCTAD_POINTS = np.zeros((759, 8), dtype=np.uint8)
for _o, _mask in enumerate(OCTAD_MASKS):
    OCTAD_POINTS[_o] = [i for i in range(24) if _mask >> i & 1]


def _build_suboctads():
    """Per octad: canonical representative masks and syndromes of the 64
    even subsets mod complement.  Index t over the spanning pairs
    {pt0, pt_j}, j = 1..6; the canonical representative omits pt7."""
    t = np.arange(64, dtype=np.uint32)
    tbits = (t[None, :] >> np.arange(6)[:, None]) & 1        # (6, 64)
    par = tbits.sum(axis=0) & 1
    rep = np.zeros((759, 64), dtype=np.uint32)
    for j in range(6):
        rep |= (tbits[j][None, :] << OCTAD_POINTS[:, j + 1][:, None]).astype(np.uint32)
    rep |= (par[None, :] << OCTAD_POINTS[:, 0][:, None]).astype(np.uint32)
    synd = syndrome_mask_vec(rep.ravel()).reshape(759, 64)
    size = np.bitwise_count(rep.ravel()).reshape(759, 64)
    nbit = ((size >> 1) & 1).astype(np.uint8)
    return rep, synd, nbit


SUB_REP, SUB_SYND, SUB_NBIT = _build_suboctads()

_SUB_KEYS = (np.arange(759, dtype=np.uint32)[:, None] * np.uint32(4096)
             | SUB_SYND.astype(np.uint32)).ravel()
_SUB_ORDER = np.argsort(_SUB_KEYS)
_SUB_KEYS_SORTED = _SUB_KEYS[_SUB_ORDER]
_SUB_T = np.tile(np.arange(64, dtype=np.uint8), 759)[_SUB_ORDER]


def octad_index(d: GolayCodeword) -> int:
    o = int(OCTAD_INDEX_OF_COORD[d.coords])
    if o < 0:
        raise ValueError("not an octad")
    return o


def octad_from_index(o: int) -> GolayCodeword:
    return GolayCodeword(int(OCTAD_COORDS[o]))


def suboctad_find(o: int, delta_coords: int) -> int:
    """Suboctad index of a cocode element representable inside octad o,
    or -1 if there is no such representative."""
    key = o * 4096 + delta_coords
    i = int(np.searchsorted(_SUB_KEYS_SORTED, key))
    if i < len(_SUB_KEYS_SORTED) and _SUB_KEYS_SORTED[i] == key:
        return int(_SUB_T[i])
    return -1


def suboctad_find_vec(o: np.ndarray, delta_coords: np.ndarray):
    key = o.astype(np.uint32) * np.uint32(4096) | delta_coords.astype(np.uint32)
    i = np.searchsorted(_SUB_KEYS_SORTED, key)
    i = np.minimum(i, len(_SUB_KEYS_SORTED) - 1)
    ok = _SUB_KEYS_SORTED[i] == key
    return np.where(ok, _SUB_T[i], 0).astype(np.int64), ok


def suboctad_index(d: GolayCodeword, delta: CocodeElement) -> int:
    o = octad_index(d)
    t = suboctad_find(o, delta.coords)
    if t < 0:
        raise ValueError("cocode element has no representative inside the octad")
    return t


def suboctad_of_mask(o: int, rep_mask: int) -> int:
    """Suboctad index of an explicit even subset of octad o."""
    pts = OCTAD_POINTS[o]
    m8 = 0
    for j in range(8):
        m8 |= ((rep_mask >> int(pts[j])) & 1) << j
    if m8 & 0x80:
        m8 ^= 0xFF
    return (m8 >> 1) & 0x3F


def _build_suboctads_of_code_basis():
    """(759, 12) suboctad index of each octad intersected with each basis
    code word.  The 8-bit pattern of the intersection is linear in the
    code word, and so is its suboctad index: bits 1..6, flipped by bit 7."""
    basis = EXPAND[1 << np.arange(12)].astype(np.int64)
    bits = (basis[None, :, None] >> OCTAD_POINTS[:, None, :]) & 1        # (759, 12, 8)
    m8 = (bits << np.arange(8)).sum(axis=2)
    return (((m8 >> 1) ^ (m8 >> 7) * 0x3F) & 0x3F).astype(np.uint8)


_SUB_OF_CODE_BASIS = _build_suboctads_of_code_basis()


def suboctads_of_code(c: int) -> np.ndarray:
    """Suboctad index of every octad intersected with the code word of
    12-bit coordinates c: the XOR of the basis images of c's set bits."""
    return np.bitwise_xor.reduce(
        _SUB_OF_CODE_BASIS[:, (c >> np.arange(12)) & 1 == 1], axis=1)


# ---------------------------------------------------------------------------
# Permutations of the 24 points

def permute_mask(v: int, images) -> int:
    out = 0
    for i in range(24):
        if v >> i & 1:
            out |= 1 << images[i]
    return out

