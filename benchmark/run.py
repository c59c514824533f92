"""Benchmark entry point for rdmpt2.

One run, as the benchmark contract calls it (run from the checkout root):

    python3 benchmark/run.py --workload nah_exact --seed 0 --seconds 35 --trace 0

measures one workload for about ``--seconds`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
result (provenance, sample counts, per-point digests) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  The exit code is 0 only
when every point passed its correctness checks.

Every workload, untraced then traced, each in a fresh process:

    python3 benchmark/run.py --all [--seed 0] [--seconds 35]

prints every metric by name with its unit and the tracing overhead, checks
that the traced run wrote the same ``records.json`` as the untraced one, and
writes ``.bench_out/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 600


def pin_blas():
    """One BLAS thread, so a run measures the program and not the scheduler.
    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    sys.path.insert(0, str(SRC))
    import rdmpt2
    if not Path(rdmpt2.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rdmpt2 was imported from {rdmpt2.__file__}, not from {SRC}")


def run_one(args) -> int:
    pin_blas()
    import_program()
    import measure

    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    samples = result["samples"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {samples['points']} points, "
          f"{samples['evaluations']} evaluations, {samples['setup_repeats']} set-ups "
          f"-> .bench_out/{name}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def run_all(args) -> int:
    pin_blas()
    import_program()
    from workloads import WORKLOADS

    summary, status = {}, 0
    for workload in WORKLOADS:
        full = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            path = OUT / f"{workload}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{workload} trace={trace}: no result (timeout, {CHILD_TIMEOUT_S} s)")
                status = 1
                continue
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
            if path.is_file():
                full[trace] = json.loads(path.read_text())
            else:
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})")
        runs = summary[workload] = {
            f"trace{t}": {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
            for t, r in full.items()}
        if len(full) == 2:
            digests = {p["digest"] for r in full.values() for p in r["points"]}
            if len(digests) > 1:
                print(f"{workload}: the traced run wrote a different records.json")
                status = 1
            runs.update(records_identical=len(digests) == 1,
                        tracing_overhead=_median_point_s(full[1]) / _median_point_s(full[0]),
                        layer_coverage_pct=full[1]["metrics"]["trace.layer_coverage_pct"]["value"])
    print("\ntracing overhead (traced point_s / untraced point_s) and layer coverage:")
    for workload, runs in summary.items():
        if "tracing_overhead" in runs:
            print(f"  {workload:16s} {runs['tracing_overhead']:.4f}x   "
                  f"non-vqe spans cover {runs['layer_coverage_pct']:.2f}% of point time")
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return status


def _median_point_s(result) -> float:
    return statistics.median(p["wall_s"] for p in result["points"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see benchmark/README.md)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure points until the next would end past this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, one process each")
    args = parser.parse_args(argv)
    if not (SRC / "rdmpt2" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'rdmpt2'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
