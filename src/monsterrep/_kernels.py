"""Signed lane gathers between packed vectors.

A ``GatherTable`` holds a signed lane map in pull form (see the class);
``gather_signed`` applies it with one vectorized step per slot.  The
loop is compiled with numba exactly when numba imports (the optional
``jit`` extra); otherwise the pure-numpy version runs.
"""
import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func
        return wrap if not (args and callable(args[0])) else args[0]


def jit_enabled() -> bool:
    return HAVE_NUMBA


@njit(cache=True)
def _gather_signed_njit(dst, src, start, src_word, src_shift, neg, lane_mask, k):
    lanes, n = src_word.shape
    for w in range(n):
        acc = np.uint64(0)
        for s in range(lanes):
            v = ((src[src_word[s, w]] >> src_shift[s, w]) & lane_mask) ^ neg[s, w]
            acc |= v << np.uint64(s * k)
        dst[start + w] = acc


def _gather_signed_np(dst, src, start, src_word, src_shift, neg, lane_mask, k):
    seg = dst[start:start + src_word.shape[1]]
    seg[:] = 0
    v = np.empty_like(seg)
    for s in range(len(src_word)):
        np.take(src, src_word[s], out=v)
        v >>= src_shift[s]
        v &= lane_mask
        v ^= neg[s]
        v <<= np.uint64(s * k)
        seg |= v


def gather_signed(dst, src, table, lane_mask, k):
    """dst_lane = +-src_lane for every lane of the table's destination
    words, per the precomputed pull table (a GatherTable)."""
    (_gather_signed_njit if HAVE_NUMBA else _gather_signed_np)(
        dst, src, table.start, table.src_word, table.src_shift, table.neg,
        np.uint64(lane_mask), k)


class GatherTable:
    """A signed lane map in pull form over destination words start ..
    start + words: the source word, source bit shift and sign mask (0 or
    p) of every destination lane, pad lanes included.  The arrays are
    slot-major, shape (lanes, words), a slot being a lane position within
    a word; the constructor takes them flattened."""

    __slots__ = ("src_word", "src_shift", "neg", "start")

    def __init__(self, src_word, src_shift, neg, lanes, start=0):
        self.src_word = np.asarray(src_word, dtype=np.int64).reshape(lanes, -1)
        self.src_shift = np.asarray(src_shift, dtype=np.uint8).reshape(lanes, -1)
        self.neg = np.asarray(neg, dtype=np.uint8).reshape(lanes, -1)
        self.start = start

    @property
    def dst_word(self):
        """Destination word of every entry, in entry order."""
        lanes, n = self.src_word.shape
        return np.tile(np.arange(self.start, self.start + n), lanes)


def pull_table(dst_lane, src_lane, sign, m, start, stop, fill=None):
    """GatherTable over destination words start..stop from push lists:
    destination lane dst_lane[i] takes source lane src_lane[i], negated
    where sign[i] is 1.  The other lanes take source lane ``fill``, or
    themselves when it is None.  ``m`` is the Modulus."""
    L = m.lanes
    pull = np.arange(start * L, stop * L) if fill is None else np.full((stop - start) * L, fill)
    sgn = np.zeros(len(pull), dtype=np.int64)
    pull[dst_lane - start * L] = src_lane
    sgn[dst_lane - start * L] = sign
    word, slot = np.divmod(pull.reshape(-1, L).T, L)
    return GatherTable(word.ravel(), (slot * m.k).ravel(),
                       ((sgn.reshape(-1, L).T & 1) * m.p).ravel(), L, start)
