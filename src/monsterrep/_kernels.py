"""Signed gathers between vectors of residues.

A ``GatherTable`` holds a signed coordinate map in pull form: for every
destination coordinate, the source index and a sign mask that is 0 or p.
``gather_signed`` applies it as one ``take`` and one XOR, because XOR
with p is negation mod p (see ``modp_core``).
"""
import numpy as np

# The gathers are plain numpy; ``perfbench/worker.py`` records these two.
HAVE_NUMBA = False


def jit_enabled() -> bool:
    return False


class GatherTable:
    """A signed map in pull form: destination coordinate j takes source
    coordinate src[j], negated where neg[j] is p (it is 0 or p).  An
    int32 or intp source index is kept as given, not copied, so tables
    may share one; ``take`` converts an int32 index on every call, so
    intp pays where one index serves many tables."""

    __slots__ = ("src", "neg")

    def __init__(self, src, neg):
        src = np.asarray(src)
        self.src = src if src.dtype in (np.int32, np.intp) else src.astype(np.int32)
        self.neg = np.asarray(neg, dtype=np.uint8)

    @property
    def dst_word(self):
        """Destination coordinate of every entry, in entry order."""
        return range(len(self.src))


def gather_signed(dst, src, table):
    """dst[j] = +-src[table.src[j]] for every entry j of the table."""
    np.take(src, table.src, out=dst, mode="clip")
    dst ^= table.neg


def pull_map(dst, src, sign):
    """Pull form of push lists, free of the modulus: destination dst[i]
    takes source src[i], negated where sign[i] is 1.  Returns the intp
    source index and the uint8 sign bit of every destination; the
    destinations must cover 0..len(dst)-1 once."""
    pull = np.empty(len(dst), dtype=np.intp)
    bits = np.empty(len(dst), dtype=np.uint8)
    pull[dst] = src
    bits[dst] = np.asarray(sign) & 1
    return pull, bits
