"""Run one workload in this process and print one JSON record as the
last line of standard output.  ``run.py`` starts it in a fresh process
per workload, so set-up time, peak memory and the package's table caches
are never shared between workloads.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --trace 0|1 --spawned-at T [--setup-only]

``--spawned-at`` is the ``time.monotonic()`` reading of the parent just
before it started this process; ``setup_s`` runs from there to the start
of the first timed word.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import monsterrep  # noqa: E402
from monsterrep import _kernels, mm_cli, mm_rep  # noqa: E402

from checker import Checker  # noqa: E402
from run import OUT  # noqa: E402
from tracer import STAGES, Tracer, layer_metrics, self_time_by_module  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_EXACT_CHECKS = 6          # sampled atoms checked exactly per run
TAIL_BLOCKS = 3
TAIL_BLOCK_WORDS = 50


class Runner:
    """Set-up, the timed closed loop and the checks for one workload."""

    def __init__(self, wl, tmp_dir):
        self.wl = wl
        self.mmv = wl.name == "mmv_roundtrip"
        self.tmp = tmp_dir
        self.base, self.norm, self.files = {}, {}, {}
        self.checker = Checker()
        self.samples = []         # (word index, Word) for the exact check
        self.records = []         # (p, atoms, seconds, traced)

    def set_up(self):
        """Build the per-modulus lazy tables (timed: ``lazy_tables_s``),
        then warm the workload's own tables."""
        lazy = 0.0
        for p in self.wl.moduli:
            t0 = time.perf_counter()
            mm_rep.layout(p)
            lazy += time.perf_counter() - t0
            v = self.base[p] = self.wl.base_vector(p)
            self.norm[p] = mm_rep.norm_form(v)
            t0 = time.perf_counter()
            mm_rep.apply_tau(v, 1)
            mm_rep.apply_xi(v, 1)
            lazy += time.perf_counter() - t0
            if self.mmv:
                self.files[p] = os.path.join(self.tmp, f"in-{p}.mmv")
                mm_rep.write_vector(v, self.files[p])
        for w in self.wl.warm_words():
            self.apply(w)
        return lazy

    def apply(self, w):
        if self.mmv:
            return mm_cli.main(["apply", "--in", self.files[w.p], "--word", w.text,
                                "--out", os.path.join(self.tmp, "out.mmv")])
        return mm_rep.apply_word(self.base[w.p], w.atoms)

    def check(self, i, w, out):
        if not self.mmv:
            self.checker.norm(i, out, self.norm[w.p])
            return
        if out != 0:
            self.checker.fail(i, f"apply exited with {out}")
            return
        want = os.path.join(self.tmp, "expect.mmv")
        v = mm_rep.apply_word(mm_rep.read_vector(self.files[w.p]),
                              mm_cli.parse_word(w.text))
        mm_rep.write_vector(v, want)
        self.checker.same_bytes(i, os.path.join(self.tmp, "out.mmv"), want)
        self.checker.norm(i, v, self.norm[w.p])

    def loop(self, seconds, tracer=None):
        """Closed loop: generate a word, time it, check it, repeat, until
        ``seconds`` have passed and every modulus has had a word."""
        start = len(self.records)
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(self.records) - start < len(self.wl.moduli):
            i = len(self.records)
            w = self.wl.word(i)
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = (self.apply(w) if tracer is None
                       else tracer.run("word", self.apply, w))
            except Exception as exc:            # counted as a failed word
                out = None
                self.checker.fail(i, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            self.records.append((w.p, len(w.atoms), dt, tracer is not None))
            if out is not None:
                self.check(i, w, out)
            if w.check_at >= 0 and len(self.samples) < MAX_EXACT_CHECKS:
                self.samples.append((i, w))

    def check_samples(self):
        for i, w in self.samples:
            try:
                self.checker.word_sample(i, self.base[w.p], w.atoms, w.check_at)
            except Exception as exc:
                self.checker.fail(i, f"exact check raised {type(exc).__name__}: {exc}")


def tail(ms):
    """(value, percentile): the highest percentile of ms with at least 10
    samples beyond it."""
    ranked = sorted(ms)
    beyond = min(10, len(ms) - 1)
    return ranked[-1 - beyond], 100.0 * (len(ms) - beyond) / len(ms)


def word_stats(records):
    """End-to-end numbers over (p, atoms, seconds, traced) word records in
    the order they ran.  ``word_ms.tail`` is the median of the tails of
    TAIL_BLOCKS runs of at least TAIL_BLOCK_WORDS consecutive words: a
    host stall that slows a dozen consecutive words moves one block's
    tail, while a slow path of the program shows in every block.  With
    fewer words the tail is taken over all of them."""
    ms = [1000 * r[2] for r in records]
    n = len(ms)
    k = TAIL_BLOCKS if n >= TAIL_BLOCKS * TAIL_BLOCK_WORDS else 1
    tails = [tail(ms[j * n // k:(j + 1) * n // k]) for j in range(k)]
    out = {"words": n, "word_ms.p50": statistics.median(ms),
           "word_ms.tail": statistics.median(t[0] for t in tails),
           "word_ms.tail_pct": statistics.median(t[1] for t in tails),
           "word_ms.tail_blocks": k}
    for p in (3, 255):
        at_p = [1000 * r[2] for r in records if r[0] == p]
        out[f"word_ms.mod{p}.p50"] = statistics.median(at_p)
        out[f"word_ms.mod{p}.words"] = len(at_p)
    out["atoms_per_s"] = sum(r[1] for r in records) / sum(r[2] for r in records)
    return out


def environment():
    return {"backend": "numba" if _kernels.jit_enabled() else "numpy",
            "jit_enabled": _kernels.jit_enabled(),
            "HAVE_NUMBA": _kernels.HAVE_NUMBA,
            "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = os.path.dirname(os.path.abspath(monsterrep.__file__))
    if pkg != os.path.join(ROOT, "src", "monsterrep"):
        print(f"monsterrep imported from {pkg}, not from this checkout",
              file=sys.stderr)
        return 3

    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp):
    wl = WORKLOADS[args.workload](args.seed)
    runner = Runner(wl, tmp)
    lazy_s = runner.set_up()
    setup_s = time.monotonic() - args.spawned_at
    rec = {"setup_s": setup_s, "lazy_tables_s": lazy_s, "env": environment()}
    if args.setup_only:
        print(json.dumps(rec))
        return 0

    if not args.trace:
        runner.loop(args.seconds)
    else:
        # the first half untraced, the second traced: the difference of
        # their medians is the tracing overhead
        runner.loop(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            runner.loop(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check_samples()

    rec["attempted"] = len(runner.records)
    rec["failed"] = runner.checker.failed_words()
    rec["failures"] = runner.checker.failures[:5]
    rec["atoms_checked"] = runner.checker.atoms_checked
    rec.update(word_stats([r for r in runner.records if not r[3]]))
    if args.trace:
        traced = [r for r in runner.records if r[3]]
        rec["traced_word_ms.p50"] = statistics.median(1000 * r[2] for r in traced)
        rec["traced_words"] = len(traced)
        rec["traced_word_s"] = sum(r[2] for r in traced)
        rec["layers"] = layer_metrics(tracer)
        rec["stages"] = {f"mm_rep.{k}": rec["layers"][f"mm_rep.{k}"] for k in STAGES}
        rec["self_s_by_module"] = self_time_by_module(tracer)
        spans = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        tracer.write(spans)
        rec["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
