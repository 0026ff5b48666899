"""Command-line front end: verification suites, table dumps, vector
transforms, and benchmarks.

Generator words use the grammar ``atom ('*' atom)*`` with atoms

    x<hex>  y<hex>  z<hex>      loop element, 13-bit hex value
    d<hex>                      diagonal automorphism, 12-bit cocode hex
    p[i0,i1,...,i23]            permutation by images of 0..23
    t1 t2                       triality element and its square
    l1 l2                       the non-monomial generator and its square

Example: ``monsterrep apply --in v.mmv --word 'x1a3*t1*l2' --out w.mmv``.
"""

import argparse
import dataclasses
import json
import sys
from functools import lru_cache

from . import aut_pl, golay, mm_rep, scalar_ref, verify
from .aut_pl import NotInM24Error, Perm24
from .golay import CocodeElement
from .modp_core import ALLOWED_P
from .parker_loop import THETA


def parse_word(text: str):
    atoms = []
    pos = 0
    text = text.strip()
    if not text:
        return atoms
    for part in text.split("*"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty atom at position {pos} in {text!r}")
        tag = part[0]
        body = part[1:]
        try:
            if tag in "xyz":
                atoms.append(mm_rep.GeneratorAtom(tag, int(body, 16)))
            elif tag == "d":
                atoms.append(mm_rep.GeneratorAtom("d", int(body, 16)))
            elif tag in "tl":
                atoms.append(mm_rep.GeneratorAtom(tag, int(body)))
            elif tag == "p":
                if not (body.startswith("[") and body.endswith("]")):
                    raise ValueError("permutation atom needs p[i0,...,i23]")
                images = tuple(int(s) for s in body[1:-1].split(","))
                try:
                    pi = aut_pl.from_perm(Perm24(images))
                except NotInM24Error:
                    raise ValueError(
                        f"permutation {body} does not preserve the Golay code")
                atoms.append(mm_rep.GeneratorAtom("p", pi))
            else:
                raise ValueError(f"unknown atom tag {tag!r}")
        except ValueError as exc:
            raise ValueError(f"bad atom {part!r} at position {pos}: {exc}") from None
        pos += len(part) + 1
    return atoms


def format_qx(a) -> str:
    from . import qx_leech
    d, delta = qx_leech.to_xd_xdelta(a)
    sign = "-" if d.sign else ""
    return f"{sign}x{d.value & 0xFFF:03x}*d{delta.coords:03x}"


def parse_qx(text: str):
    from . import parker_loop, qx_leech
    t = text.strip()
    neg = t.startswith("-")
    if neg:
        t = t[1:]
    if not t.startswith("x") or "*d" not in t:
        raise ValueError("expected [-]x<hex>*d<hex>")
    xs, ds = t[1:].split("*d")
    d = parker_loop.ParkerLoopElement(int(xs, 16) | (0x1000 if neg else 0))
    return qx_leech.from_xd_xdelta(d, CocodeElement(int(ds, 16)))


# ---------------------------------------------------------------------------

def _mog_picture(mask: int) -> str:
    rows = []
    for m in range(4):
        rows.append(" ".join(str((mask >> (m + 4 * n)) & 1) for n in range(6)))
    return "\n".join(rows)


def cmd_verify(args) -> int:
    try:
        reports = verify.run_suite(args.suite, seed=args.seed,
                                   samples=args.samples, p=args.p)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(line)
        ok &= rep.ok
    print("ALL SUITES PASSED" if ok else "FAILURES PRESENT")
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump([dataclasses.asdict(rep) for rep in reports], fh, indent=1)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


def cmd_apply(args) -> int:
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        print(f"word error: {exc}", file=sys.stderr)
        return 2
    try:
        v = mm_rep.read_vector(args.infile)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    w = mm_rep.apply_word(v, word)
    try:
        mm_rep.write_vector(w, args.outfile)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


# the atom names of ``_bench_atoms`` up to the exponent: a class names the
# atoms whose name starts with it
WORD_CLASSES = ("x_d", "y_d", "z_d", "nu_delta", "x_pi", "tau", "xi")


def _bench_atoms(rng_seed=2024):
    from ._rng import CounterRng
    rng = CounterRng(rng_seed)
    pi = aut_pl.random_automorphism(rng)
    return [
        ("x_d", mm_rep.GeneratorAtom("x", 0x1a3)),
        ("y_d", mm_rep.GeneratorAtom("y", 0x7b1)),
        ("z_d", mm_rep.GeneratorAtom("z", 0x555)),
        ("nu_delta", mm_rep.GeneratorAtom("d", 0x29c)),
        ("x_pi", mm_rep.GeneratorAtom("p", pi)),
        ("tau", mm_rep.GeneratorAtom("t", 1)),
        ("tau^2", mm_rep.GeneratorAtom("t", 2)),
        ("xi", mm_rep.GeneratorAtom("l", 1)),
        ("xi^2", mm_rep.GeneratorAtom("l", 2)),
    ]


# ms per G_x0 element times a power of xi in the construction this follows
PAPER_GX0_XI_MS = {3: 0.73, 255: 1.35}


def cmd_bench(args) -> int:
    ps = ALLOWED_P if args.p is None else (args.p,)
    reps = args.reps
    print("backend: numpy, one uint8 per coordinate")
    print("reference figures from the construction this follows: one")
    print(f"G_x0-element-times-xi-power application took {PAPER_GX0_XI_MS[3]} ms at p=3 and")
    print(f"{PAPER_GX0_XI_MS[255]} ms at p=255 on a 4.0 GHz Core i7-8750H (single thread).")
    print()
    atoms = _bench_atoms()
    named = dict(atoms)
    word = [named[n] for n in ("y_d", "x_pi", "x_d", "xi")]
    if args.word_class != "all":
        atoms = [(n, a) for n, a in atoms if n.startswith(args.word_class)]
    for p in ps:
        v = mm_rep.rand(p, 99)
        print(f"p = {p}")
        for name, at in atoms:
            for _ in range(2):                   # a table is cached on its second use
                mm_rep.apply_atom(v, at)
            mean, best = verify.time_ms(lambda: mm_rep.apply_atom(v, at), reps)
            print(f"  {name:9s} mean {mean:7.2f} ms   min {best:7.2f} ms")
        mm_rep.apply_word(v, word)               # caches the monomial run's key
        mm_rep.apply_word(v, word)               # fuses the run into xi's tables
        mean, best = verify.time_ms(lambda: mm_rep.apply_word(v, word), reps)
        paper = PAPER_GX0_XI_MS.get(p)
        ratio = f"  ({best / paper:.2f}x the paper's {paper} ms)" if paper else ""
        print(f"  G_x0-style word times xi-power ({len(word)} atoms): {best:.2f} ms{ratio}")
        print(f"    min of {reps} runs; mean {mean:.2f} ms")

    v3 = mm_rep.rand(3, 99)
    coords = v3.unpack().tolist()
    scalar_ms, _ = verify.time_ms(lambda: scalar_ref.apply_tau(coords, 3), 1)
    mm_rep.apply_tau(v3, 1)
    kernel_ms, _ = verify.time_ms(lambda: mm_rep.apply_tau(v3, 1), reps)
    print(f"kernels vs scalar reference (tau, p=3): {kernel_ms:.2f} ms vs "
          f"{scalar_ms:.1f} ms  ({scalar_ms / kernel_ms:.0f}x)")
    return 0


def cmd_info(args) -> int:
    topic = args.topic
    if topic == "basis":
        print("one line per basis vector; the six groups are MOG columns, "
              "rows 0..3:")
        for j, b in enumerate(golay.BASIS):
            kind = "grey    " if j < 6 else "coloured"
            cols = ".".join("".join(str((b >> (m + 4 * n)) & 1) for m in range(4))
                            for n in range(6))
            print(f"  b_{j:<2d} {kind} {cols}")
        print("\nbasis vector 0 as a MOG picture:")
        print(_mog_picture(golay.BASIS[0]))
    elif topic == "cocycle":
        print("theta(b_j) for the twelve basis vectors (cocode coordinates):")
        for j in range(12):
            print(f"  theta(b_{j:<2d}) = {int(THETA[1 << j]):#05x}")
    elif topic == "short-counts":
        print("276 (pairs) + 276 (pairs + Omega) + 48576 (759 octads x 64 "
              "suboctads) + 49152 (2048 x 24) = 98280 short vectors")
    elif topic == "layout":
        print("coordinate blocks (logical order, MMV1 file order):")
        print("  A  300    24 diagonal + 276 pairs (lexicographic)")
        print("  B  276    pair coordinates")
        print("  C  276    pair + Omega coordinates")
        print("  T  48576  octad-major x suboctad")
        print("  X  49152  code-class-major x point")
        print("  Z  49152  'plus' tensor block")
        print("  Y  49152  'minus' tensor block")
        print("  total 196884")
        print("storage: one uint8 per coordinate in this order; the value p reads as 0")
    else:
        print(f"unknown topic {topic!r}; choose basis, cocycle, short-counts, layout",
              file=sys.stderr)
        return 2
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {n}")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {n}")
    return n


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process and shared by every
    ``main`` call (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="monsterrep",
        description="196884-dimensional Monster representation mod 2^k-1")
    sub = ap.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    vp.add_argument("--p", type=int, choices=ALLOWED_P, default=None)
    vp.add_argument("--seed", type=int, default=1)
    vp.add_argument("--samples", type=_nonnegative_int, default=None,
                    help="sample count for randomized checks (0 = exhaustive only)")
    vp.add_argument("--json", metavar="PATH", default=None,
                    help="also write the reports (suite, seconds, checks) as JSON")
    vp.set_defaults(func=cmd_verify)

    ad = sub.add_parser("apply", help="apply a generator word to a vector file")
    ad.add_argument("--in", dest="infile", required=True)
    ad.add_argument("--word", required=True)
    ad.add_argument("--out", dest="outfile", required=True)
    ad.set_defaults(func=cmd_apply)

    bp = sub.add_parser("bench", help="time generator applications")
    bp.add_argument("--p", type=int, choices=ALLOWED_P, default=None)
    bp.add_argument("--reps", type=_positive_int, default=10)
    bp.add_argument("--word-class", choices=("all",) + WORD_CLASSES, default="all")
    bp.set_defaults(func=cmd_bench)

    ip = sub.add_parser("info", help="dump tables and layouts")
    ip.add_argument("topic", choices=["basis", "cocycle", "short-counts", "layout"])
    ip.set_defaults(func=cmd_info)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
