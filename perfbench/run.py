"""Benchmark of the monsterrep package, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and fails (exit code 2, no result) when there is none.  Each call runs
one workload in fresh processes (``worker.py``), one caller applying one
word at a time (closed loop), prints every metric by name with its unit,
and prints as its last line one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
``setup_s`` is the median over three fresh processes.  With ``--trace 1``
the worker times half of ``--seconds`` untraced and half with timing
wrappers installed (``tracer.py``) and the metrics are the per-layer
ones (``PER_LAYER``); the import split comes from ``python -X importtime``.
Every result record, with the environment and the paper comparison, is
also written to ``.perfbench_out/`` in the checkout, and a traced run
writes its spans there.

Workloads are described in ``workloads.py``, checks in ``checker.py``.
The selftest is ``python3 -m pytest perfbench/selftest.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("gx0_xi", "fresh_word", "tau_xi", "mmv_roundtrip")
BUDGET_S = 170                # every process of one call ends within this
SETUP_PROCESSES = 3           # setup_s is the median over this many processes
PAPER_MS = {3: 0.73, 255: 1.35}   # Seysen's timing of G_x0 element times xi^e

END_TO_END = (
    ("setup_s", "s"),
    ("word_ms.p50", "ms"),
    ("word_ms.tail", "ms"),
    ("word_ms.mod3.p50", "ms"),
    ("word_ms.mod255.p50", "ms"),
    ("atoms_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

IMPORTED = ("modp_core", "golay", "parker_loop", "aut_pl", "qx_leech", "mm_rep",
            "mm_cli")
MODP = ("add_words", "neg_words", "halve_words", "butterfly_words")

# Per-layer metrics in the JSON result.  Layer times that are exactly zero
# on a workload that never reaches the layer (monomial table build and
# lane gather on tau_xi, the tau stages on gx0_xi, file I/O outside
# mmv_roundtrip, ...) are printed and written to the record file only;
# their call counts are here.
PER_LAYER = (
    [(f"{m}.import_s", "s") for m in IMPORTED]
    + [("mm_rep.lazy_tables_s", "s")]
    + [(f"modp_core.{k}.{w}", u) for k in MODP
       for w, u in (("calls", "count"), ("self_s", "s"))]
    + [("modp_core.bytes", "bytes"),
       ("kernels.gather_signed.calls", "count"),
       ("kernels.gather_signed.self_s", "s"),
       ("kernels.gather_signed.entries", "count"),
       ("kernels.gather_signed.bytes", "bytes"),
       ("kernels.GatherTable.builds", "count"),
       ("kernels.GatherTable.entries", "count"),
       ("golay.calls", "count"),
       ("parker_loop.calls", "count"),
       ("aut_pl.calls", "count"),
       ("qx_leech.calls", "count"),
       ("qx_leech.self_s", "s"),
       ("mm_rep.mono_cache.hits", "count"),
       ("mm_rep.mono_cache.misses", "count"),
       ("mm_rep.mono_cache.hit_ratio", "ratio"),
       ("mm_rep.mono_cache.evictions", "count"),
       ("mm_rep.small_blocks_s", "s"),
       ("mm_rep.had16_s", "s"),
       ("mm_rep.col24_s", "s"),
       ("mm_rep.xi_gather_s", "s"),
       ("mm_rep.read_vector.calls", "count"),
       ("mm_rep.write_vector.calls", "count"),
       ("mm_rep.from_coords.calls", "count"),
       ("mm_rep.unpack.calls", "count"),
       ("mm_cli.parse_word.calls", "count"),
       ("trace.overhead_ms", "ms")]
)


class BenchError(Exception):
    pass


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def start_worker(args, deadline, setup_only=False):
    """Run worker.py in a fresh process; returns (record, stderr)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable]
    if args.trace and not setup_only:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), proc.stderr


def import_times(stderr):
    """Self seconds per package module from ``-X importtime`` output."""
    out = {f"{m}.import_s": 0.0 for m in IMPORTED}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [s.strip() for s in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2].startswith("monsterrep."):
            key = parts[2][len("monsterrep."):] + ".import_s"
            if key in out:
                out[key] = int(parts[0]) / 1e6
    return out


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, rec, metrics, units):
    """Human-readable lines for one result record."""
    env = rec["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"env: backend {env['backend']} (jit_enabled {env['jit_enabled']}, "
          f"HAVE_NUMBA {env['HAVE_NUMBA']}), python {env['python']}, numpy "
          f"{env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {fmt(value):>14s} {units.get(name, '')}")
    print(f"  {'fail_frac':34s} {fmt(rec['fail_frac']):>14s}   "
          f"({rec['failed']} of {rec['attempted']} words failed; "
          f"{rec['atoms_checked']} atoms checked exactly)")
    for i, reason in rec["failures"]:
        print(f"  FAILED word {i}: {reason}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "monsterrep", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'monsterrep')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        rec, stderr = start_worker(args, deadline)
        setups = [rec["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(start_worker(args, deadline, setup_only=True)[0]["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rec["env"].update(nproc=os.cpu_count(), cpu=cpu_model(), seed=args.seed)
    rec["fail_frac"] = rec["failed"] / rec["attempted"]
    if args.trace:
        layers = dict(rec.pop("layers"))
        layers.update(import_times(stderr))
        layers["mm_rep.lazy_tables_s"] = rec["lazy_tables_s"]
        layers["trace.overhead_ms"] = rec["traced_word_ms.p50"] - rec["word_ms.p50"]
        rec["layers"] = layers
        metrics = {name: layers[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        report(args, rec, metrics, units)
        print(f"  untraced word_ms.p50 {fmt(rec['word_ms.p50'])} ms, traced "
              f"{fmt(rec['traced_word_ms.p50'])} ms over {rec['traced_words']} words")
        print("  all layers (s = seconds inside the traced words, "
              "bytes computed from array sizes):")
        for name in sorted(layers):
            if name not in metrics:
                print(f"    {name:40s} {fmt(layers[name]):>14s}")
        total = rec["traced_word_s"]
        print("  share of traced word time, by kernel stage:")
        stages = dict(rec["stages"])
        stages["mm_rep.read_vector+write_vector"] = (layers["mm_rep.read_vector.s"]
                                                     + layers["mm_rep.write_vector.s"])
        for k, v in sorted(stages.items(), key=lambda kv: -kv[1]):
            print(f"    {k:40s} {100 * v / total:6.1f} %")
        print("  share of traced word time, self time by module:")
        for k, v in sorted(rec["self_s_by_module"].items(), key=lambda kv: -kv[1]):
            print(f"    {k:40s} {100 * v / total:6.1f} %")
        print(f"  spans written to {rec['spans_file']}")
    else:
        rec["setup_s_runs"] = setups
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({name: rec[name] for name, _ in END_TO_END if name != "setup_s"})
        units = dict(END_TO_END)
        rec["paper_ratio"] = {f"word_ms.mod{p}.p50/{ms}ms": rec[f"word_ms.mod{p}.p50"] / ms
                              for p, ms in PAPER_MS.items()}
        report(args, rec, metrics, units)
        k = rec["word_ms.tail_blocks"]
        print(f"  word_ms.tail is p{rec['word_ms.tail_pct']:.4g} (10 words beyond it), the "
              f"median over {k} block{'s' * (k > 1)} of {rec['words'] // k} consecutive "
              f"words; {rec['words']} words, {rec['word_ms.mod3.words']} at p=3, "
              f"{rec['word_ms.mod255.words']} at p=255")
        print(f"  setup_s over {len(setups)} processes: "
              + ", ".join(f"{s:.4f}" for s in setups))
        if args.workload == "gx0_xi":
            for key, ratio in rec["paper_ratio"].items():
                print(f"  paper comparison (not gated): {key} = {ratio:.1f}x")
    rec["metrics"] = metrics
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
