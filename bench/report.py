#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarise the spread of each metric.

    python3 bench/report.py --workloads eig-survey cli-json --seeds 1 10 --seconds 20
    python3 bench/report.py --workloads eig-survey --seeds 1 3 --seconds 20 --trace

Runs one seed after another (never in parallel), writes every raw result
to bench/out/report-<time>.json and prints, per workload and metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.  With ``--trace`` it also runs the
traced benchmark on each seed and prints the per-layer medians plus the
tracing overhead: traced against untraced ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("traced ops_per_s "):
            result["traced_ops_per_s"] = float(line.split()[-1])
        elif line.startswith("wall clock: "):
            # "wall clock: name value, name value, ...; reference kernel value s"
            figures, _, ref = line[len("wall clock: "):].partition("; ")
            result["wall_clock"] = {k: float(v) for k, v in (f.split() for f in figures.split(", "))}
            result["wall_clock"]["reference_s"] = float(ref.split()[2])
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    raw = {}
    for workload in args.workloads:
        runs = raw[workload] = []
        for seed in seeds:
            runs.append({"seed": seed, "plain": run_once(workload, seed, args.seconds, False)})
            if args.trace:
                runs[-1]["traced"] = run_once(workload, seed, args.seconds, True)
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)

        plain = [r["plain"] for r in runs]
        print(f"## {workload}: {len(plain)} runs, seeds {seeds.start}-{seeds.stop - 1}, "
              f"failed {sorted({(p['failed'], p['attempted']) for p in plain})}, "
              f"correct {all(p['correct'] for p in plain)}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, metric in plain[0]["metrics"].items():
            s = summary([p["metrics"][name]["value"] for p in plain])
            print(f"| {name} | {metric['unit']} | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {100 * s['spread']:.1f}% |")
        for name in plain[0]["wall_clock"]:
            s = summary([p["wall_clock"][name] for p in plain])
            print(f"| {name} (wall clock) | | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {100 * s['spread']:.1f}% |")
        if args.trace:
            traced = [r["traced"] for r in runs]
            overhead = [1.0 - t["traced_ops_per_s"] / p["metrics"]["ops_per_s"]["value"]
                        for t, p in zip(traced, plain)]
            print(f"\ntracing overhead (1 - traced/untraced ops_per_s): median "
                  f"{100 * statistics.median(overhead):.1f}%, per seed "
                  + ", ".join(f"{100 * o:.1f}%" for o in overhead))
            print("\n| per-layer metric | unit | median |")
            print("| --- | --- | --- |")
            for name, metric in traced[0]["metrics"].items():
                value = statistics.median(t["metrics"][name]["value"] for t in traced)
                print(f"| {name} | {metric['unit']} | {value:.4g} |")
        print()
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"report-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
