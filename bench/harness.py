"""Fixed operation lists, their timing and the end-to-end figures.

A workload is a list of operations fixed before timing starts: its length
depends only on the run length asked for, never on how fast operations
finish, so every run attempts whole rounds of the same operations.  Each
operation is timed alone; its output is checked after the clock stops.

The machine this benchmark was built on is shared: the speed of a fixed
piece of work drifts by up to 2x over minutes, for every process on it.
So each workload brings a reference kernel: fixed work in the same mix of
Python, small numpy calls, memory traffic or string formatting as its
operations, but calling no library code.  It is timed before every
operation and once after the last, and each operation's time is scaled by
the workload's REFERENCE_S over the mean of the two reference times
around it.  Reported times are therefore seconds at the reference speed;
the raw wall-clock figures are printed to stderr beside them.  A change to
the library cannot move a reference kernel, so it moves only the scaled
operation times.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from checks import CheckFailure, PairLedger


class SpeedReference:
    """Times a workload's reference kernel; converts seconds to reference seconds."""

    def __init__(self, work: Callable[[], None], nominal_s: float):
        self._work = work
        self.nominal_s = nominal_s

    def run(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def scale(self, repeats: int = 5) -> float:
        """Factor that turns seconds measured now into reference seconds."""
        return self.nominal_s / statistics.median(self.run() for _ in range(repeats))


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list
    warmup: Callable[[], None]
    check_inputs: Callable[[], None]
    ledger: PairLedger


def rounds_for(seconds: float, round_seconds: float) -> int:
    """Whole rounds that take about `seconds` at the nominal round time."""
    return max(2, round(seconds / round_seconds))


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    # Per completed operation: (kind, wall-clock seconds, reference scale).
    timings: list = field(default_factory=list)
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    reference_s: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def ops_per_s(self, scaled: bool = True) -> float:
        busy = self.busy_s if scaled else self.raw_busy_s
        return self.completed / busy if self.completed else 0.0

    def kind_medians_ms(self, scaled: bool = True) -> dict:
        by_kind = {}
        for kind, seconds, factor in self.timings:
            by_kind.setdefault(kind, []).append(seconds * factor if scaled else seconds)
        return {kind: 1000.0 * statistics.median(v) for kind, v in by_kind.items()}

    def op_median_gmean_ms(self, scaled: bool = True) -> float:
        """Geometric mean over operation kinds of each kind's median latency."""
        medians = self.kind_medians_ms(scaled).values()
        if not medians:
            return 0.0
        return math.exp(sum(math.log(m) for m in medians) / len(medians))


def run_ops(ops, reference: SpeedReference, tracer=None) -> RunResult:
    result = RunResult()
    clock = time.perf_counter
    ref_before = reference.run()
    result.reference_s.append(ref_before)
    for index, op in enumerate(ops):
        result.attempted += 1
        if tracer is not None:
            tracer.op = index
        out = error = None
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # a refused operation is counted and reported, not fatal
            error = exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.op = -1
        if error is not None:
            result.failed += 1
            print(f"op {index} ({op.kind}) raised:", file=sys.stderr)
            traceback.print_exception(error)
        else:
            try:
                op.check(out)
            except (CheckFailure, LookupError, ValueError, TypeError, OSError) as exc:
                # Malformed output (a missing key, an unreadable file) is wrong output too.
                error = exc
                result.failed += 1
                result.wrong += 1
                print(f"op {index} ({op.kind}) failed its check: {exc}", file=sys.stderr)
        out = None
        ref_after = reference.run()
        result.reference_s.append(ref_after)
        factor = reference.nominal_s / ((ref_before + ref_after) / 2.0)
        result.raw_busy_s += elapsed
        result.busy_s += elapsed * factor
        if error is None:
            result.timings.append((op.kind, elapsed, factor))
        ref_before = ref_after
    return result
