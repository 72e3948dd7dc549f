"""One workload process: set up, warm up, run the fixed operation list, check.

Started by run.py with the BLAS thread count already fixed in its
environment.  Prints one JSON line with the figures of this process.

    python3 bench/workload.py --workload eig-survey --seed 1 --seconds 20 \\
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

``--setup-only 1`` stops at the first timed operation and reports only
the set-up time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODULES = {"eig-survey": "eig_survey", "dense-kernels": "dense_kernels", "cli-json": "cli_json"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import centrotensor

    if Path(centrotensor.__file__).resolve().parent != ROOT / "src" / "centrotensor":
        print(f"error: imported centrotensor from {centrotensor.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    from checks import CheckFailure
    from harness import SpeedReference, run_ops

    module = importlib.import_module(MODULES[args.workload])
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        workload = module.build(args.seed, args.seconds, Path(tmp))
        workload.warmup()
        raw_setup_s = time.monotonic() - args.spawned_at
        reference = SpeedReference(module.reference_kernel(), module.REFERENCE_S)
        setup_s = raw_setup_s * reference.scale()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        result = run_ops(workload.ops, reference, tracer)
        inputs_ok = True
        try:
            workload.check_inputs()
        except (CheckFailure, LookupError, ValueError, OSError) as exc:
            inputs_ok = False
            print(f"input check failed: {exc!r}", file=sys.stderr)
    report = {
        "attempted": result.attempted,
        "failed": result.failed,
        "correct": inputs_ok and result.wrong == 0,
        "setup_s": setup_s,
        "ops_per_s": result.ops_per_s(),
        "op_median_gmean_ms": result.op_median_gmean_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eigenpairs": workload.ledger.count(),
        "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": result.ops_per_s(scaled=False),
        "raw_op_median_gmean_ms": result.op_median_gmean_ms(scaled=False),
        "reference_s": statistics.median(result.reference_s),
        "kind_medians_ms": result.kind_medians_ms(),
    }
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
        report["per_layer"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
