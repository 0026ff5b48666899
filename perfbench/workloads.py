"""Workload generators.

Every input comes from ``monsterrep._rng.CounterRng`` seeded with the
benchmark's ``--seed``, so the same seed gives the same words, vectors
and check samples.  A generator yields one ``Word`` at a time; the
benchmark applies it before asking for the next (closed loop, one
caller).

    gx0_xi         the paper's unit y_e * x_pi * x_f * nu_delta * xi^e at
                   p = 3 and p = 255, payloads from a small warm pool
    fresh_word     20-atom words over all seven tags, every monomial
                   payload new, cycling over all six moduli
    tau_xi         reduced words alternating tau^+-1 and xi^+-1, all moduli
    mmv_roundtrip  ``monsterrep apply`` on MMV1 files with 1-3-atom text
                   words from a warm pool, all moduli
"""

from dataclasses import dataclass

from monsterrep import aut_pl, mm_cli, mm_rep
from monsterrep._rng import CounterRng
from monsterrep.mm_rep import GeneratorAtom

ALL_P = (3, 7, 15, 31, 127, 255)
MONOMIAL_TAGS = "xyzdp"


@dataclass
class Word:
    p: int
    atoms: list             # GeneratorAtoms, applied left to right
    check_at: int           # atom position for the exact check, or -1
    text: str = ""          # mmv_roundtrip: the word as the command line takes it


def _payload(rng, tag):
    if tag in "xyz":
        return rng.int(8192)
    if tag == "d":
        return rng.int(4096)
    if tag == "p":
        return aut_pl.random_automorphism(rng)
    return 1 + rng.int(2)


def atom_text(at: GeneratorAtom) -> str:
    if at.tag in "tl":
        return f"{at.tag}{at.payload}"
    return f"{at.tag}{at.payload:x}"


class Workload:
    """Base class: subclasses set ``name``, ``moduli``, ``check_every``
    and implement ``_atoms(i, p)``."""

    name = ""
    moduli = ALL_P
    check_every = 1           # one word in this many gets an exact atom check

    def __init__(self, seed: int):
        self.rng = CounterRng(seed)
        self.base_seeds = {p: int(self.rng.words(1)[0]) for p in self.moduli}

    def base_vector(self, p):
        """The fixed input vector every word at modulus p is applied to."""
        return mm_rep.rand(p, self.base_seeds[p])

    def warm_words(self):
        """Words to run once during set-up (their tables then stay warm)."""
        return []

    def word(self, i: int) -> Word:
        p = self.moduli[i % len(self.moduli)]
        atoms, text = self._atoms(i, p)
        check_at = -1
        if self.rng.int(self.check_every) == 0 or i == 0:   # every run checks one
            check_at = self.rng.int(len(atoms))
        return Word(p, atoms, check_at, text)

    def _atoms(self, i, p):
        raise NotImplementedError


class Gx0Xi(Workload):
    name = "gx0_xi"
    moduli = (3, 255)
    check_every = 48
    pool_size = 7

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = {p: [self._pool_word() for _ in range(self.pool_size)]
                     for p in self.moduli}

    def _pool_word(self):
        return [GeneratorAtom(tag, _payload(self.rng, tag)) for tag in "ypxdl"]

    def warm_words(self):
        return [Word(p, atoms, -1) for p in self.moduli for atoms in self.pool[p]]

    def _atoms(self, i, p):
        return self.pool[p][self.rng.int(self.pool_size)], ""


class FreshWord(Workload):
    """Each word holds every tag at least twice: six tags three times and
    a randomly chosen one twice, in random order.  Monomial payloads are
    redrawn until they are new to the run, so every monomial atom misses
    the table cache."""

    name = "fresh_word"
    check_every = 4
    length = 20
    tags = "xyzdptl"

    def __init__(self, seed):
        super().__init__(seed)
        self.seen = set()

    def _atoms(self, i, p):
        tags = list(self.tags * 3)
        del tags[self.rng.int(len(tags))]
        for j in range(len(tags) - 1, 0, -1):          # Fisher-Yates
            k = self.rng.int(j + 1)
            tags[j], tags[k] = tags[k], tags[j]
        atoms = []
        for tag in tags:
            at = GeneratorAtom(tag, _payload(self.rng, tag))
            while tag in MONOMIAL_TAGS and at.key() in self.seen:
                at = GeneratorAtom(tag, _payload(self.rng, tag))
            if tag in MONOMIAL_TAGS:
                self.seen.add(at.key())
            atoms.append(at)
        return atoms, ""


class TauXi(Workload):
    """Words t^a l^b t^c ... (or starting with l) with exponents 1 or 2:
    no two adjacent atoms share a generator, so the word is reduced."""

    name = "tau_xi"
    check_every = 32
    length = 8

    def _atoms(self, i, p):
        first = self.rng.int(2)
        return [GeneratorAtom("tl"[(first + j) % 2], 1 + self.rng.int(2))
                for j in range(self.length)], ""


class MmvRoundtrip(Workload):
    """Text words p[...] followed by 0-2 further atoms, from a pool of
    five words per modulus.  The tags of the pool words are fixed, so
    every seed runs the same kernels (xi and tau included); the
    permutations, payloads and exponents come from the seed.  Three of
    the five words cost about the same, so the median word lies among
    them and does not jump between pool words from run to run."""

    name = "mmv_roundtrip"
    check_every = 32
    patterns = ("p", "px", "pt", "pd", "pyl")

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = {p: [self._pool_word(tags) for tags in self.patterns]
                     for p in self.moduli}

    def _pool_word(self, tags):
        perm = aut_pl.random_perm(self.rng)
        text = "p[" + ",".join(str(i) for i in perm.images) + "]"
        for tag in tags[1:]:
            text += "*" + atom_text(GeneratorAtom(tag, _payload(self.rng, tag)))
        return text, mm_cli.parse_word(text)

    def warm_words(self):
        return [Word(p, atoms, -1, text)
                for p in self.moduli for text, atoms in self.pool[p]]

    def _atoms(self, i, p):
        text, atoms = self.pool[p][self.rng.int(len(self.patterns))]
        return atoms, text


WORKLOADS = {w.name: w for w in (Gx0Xi, FreshWord, TauXi, MmvRoundtrip)}
