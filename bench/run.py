#!/usr/bin/env python3
"""Run one benchmark workload and print its figures as one JSON line.

    python3 bench/run.py --workload eig-survey --seed 1 --seconds 20 --trace 0

Workloads: eig-survey, dense-kernels, cli-json (see bench/README.md).
The workload runs in a fresh Python process whose BLAS thread count is
fixed before numpy loads.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; set-up is repeated in further processes and its
median reported.  With ``--trace 1`` the process runs with every public
library function wrapped in a span, writes the spans to
bench/out/trace-<workload>.jsonl and reports the per-layer metrics.

Exits non-zero, printing no result, when the library sources (src/) are
missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("eig-survey", "dense-kernels", "cli-json")
# One BLAS thread: the load comes from this one process, and a shared
# 2-vCPU machine gives a second thread nothing steady to run on.
BLAS_THREADS = 1
# Set-up runs once in the measured process and this many more times in
# processes that stop at the first timed operation; the median is reported.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    # Every checkout then imports alike: sources compiled in each process,
    # nothing written next to them.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--setup-only", "1" if setup_only else "0",
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "centrotensor" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = run_child(args, setup_only=False)
        setups = [run] + [
            run_child(args, setup_only=True) for _ in range(0 if args.trace else SETUP_PROBES)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw_setup_s = statistics.median(s["raw_setup_s"] for s in setups)
    print(f"wall clock: ops_per_s {run['raw_ops_per_s']:.6g}, op_median_gmean_ms "
          f"{run['raw_op_median_gmean_ms']:.6g}, setup_s {raw_setup_s:.6g}; "
          f"reference kernel {run['reference_s']:.6g} s", file=sys.stderr)
    print("median ms per kind: " + ", ".join(
        f"{kind} {ms:.4g}" for kind, ms in run["kind_medians_ms"].items()), file=sys.stderr)
    if args.trace:
        metrics = run["per_layer"]
        print(f"traced ops_per_s {run['ops_per_s']:.6g}", file=sys.stderr)
    else:
        units = {"ops_per_s": "1/s", "op_median_gmean_ms": "ms", "peak_rss_mb": "MB",
                 "eigenpairs": "count"}
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in units.items()}
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
