"""Correctness checks behind ``fail_frac``; they run outside the timed
region.

* every word: the norm form of the output equals that of the input;
* a seeded sample of atoms, exactly: tau and xi against the per-coordinate
  ``scalar_ref`` formulas, monomial atoms against conjugation in the
  extraspecial group on the 98280 short-vector coordinates;
* ``mmv_roundtrip``: the output file equals, byte for byte, what
  ``write_vector(apply_word(read_vector(f), parse_word(text)))`` writes.
"""

import numpy as np

from monsterrep import aut_pl, golay, mm_rep, qx_leech, scalar_ref

SHORT = slice(300, 300 + 98280)       # B, C, T, X in logical order


def reference_atom(u: mm_rep.MmVector, at: mm_rep.GeneratorAtom):
    """What atom ``at`` must do to ``u``: (coordinate slice, expected
    coordinates) in the logical order of ``MmVector.unpack``."""
    p = u.p
    if at.tag == "t":
        c = u.unpack().tolist()
        for _ in range(at.payload):
            c = scalar_ref.apply_tau(c, p)
        return slice(None), np.array(c, dtype=np.int64)
    if at.tag == "l":
        c = scalar_ref.apply_xi(u.unpack().tolist(), p, at.payload)
        return slice(None), np.array(c, dtype=np.int64)
    if at.tag == "d":
        pi = aut_pl.StdAutomorphism(golay.CocodeElement(at.payload),
                                    aut_pl.IDENTITY_PERM)
        img = qx_leech.conj_by_gen_vec(qx_leech.SHORT_VALUES, "p", pi)
    else:
        img = qx_leech.conj_by_gen_vec(qx_leech.SHORT_VALUES, at.tag, at.payload)
    idx, sgn, ok = qx_leech.short_index_vec(img)
    if not ok.all():
        raise AssertionError("conjugate of a short vector is not short")
    sv = u.unpack()[SHORT]
    pred = np.zeros(98280, dtype=np.int64)
    pred[idx] = np.where(sgn == 1, (p - sv) % p, sv)
    return SHORT, pred


class Checker:
    """Counts failed words; ``failures`` keeps (word index, reason)."""

    def __init__(self):
        self.failures = []
        self.atoms_checked = 0

    def fail(self, i, reason):
        self.failures.append((i, reason))
        return False

    def failed_words(self):
        return len({i for i, _ in self.failures})

    def norm(self, i, out: mm_rep.MmVector, expected: int) -> bool:
        got = mm_rep.norm_form(out)
        return got == expected or self.fail(i, f"norm form {got} != {expected}")

    def atom(self, i, u, at, w) -> bool:
        """w must be the image of u under atom at, exactly."""
        self.atoms_checked += 1
        part, want = reference_atom(u, at)
        got = w.unpack()[part]
        if np.array_equal(got, want):
            return True
        bad = int(np.flatnonzero(got != want)[0])
        return self.fail(i, f"atom {at.tag}{'' if at.tag == 'p' else at.payload} "
                            f"at p={u.p}: first wrong coordinate {bad} of "
                            f"{'all' if part == slice(None) else 'the short part'}")

    def word_sample(self, i, base, atoms, j) -> bool:
        """Recompute the word's prefix up to atom j and check atom j."""
        u = mm_rep.apply_word(base, atoms[:j])
        return self.atom(i, u, atoms[j], mm_rep.apply_atom(u, atoms[j]))

    def same_bytes(self, i, got_path, want_path) -> bool:
        with open(got_path, "rb") as fh:
            got = fh.read()
        with open(want_path, "rb") as fh:
            want = fh.read()
        return got == want or self.fail(i, "output file differs from "
                                           "write_vector(apply_word(...))")
