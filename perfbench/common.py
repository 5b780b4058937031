"""Statistics, output checks and the result record shared by workloads."""

from __future__ import annotations

import heapq
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: the seed whose selected sweep plans are compared with committed answers
DEFAULT_SEED = 0

#: candidate tail percentiles, highest first; spaced so that a run's
#: tail stays p90 for any sample count from 100 to 999
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile in
    :data:`TAIL_PERCENTILES` with at least :data:`TAIL_BEYOND` samples
    above its nearest-rank position."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, float(ordered[rank - 1])
    return 50.0, median(ordered)


#: slice time that defines a reference millisecond (see :class:`HostSpeed`);
#: about what the slice takes on an uncontended 2-vCPU Xeon VM
REF_NOMINAL_MS = 2.0
#: event-loop steps of one reference slice
REF_STEPS = 3000


def reference_slice() -> float:
    """A fixed job of the planner's kind, owned by the benchmark: a heap
    driven event loop over tuples, dict memo lookups and small numpy
    reductions.  Returns its checksum so that nothing is optimised away."""
    heap = [(float(i % 17), i) for i in range(64)]
    heapq.heapify(heap)
    memo = {}
    arr = np.arange(64, dtype=float)
    acc = 0.0
    for step in range(REF_STEPS):
        t, i = heapq.heappop(heap)
        key = (i % 29, step % 5)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = float(np.minimum(arr, t).sum())
        acc += hit
        heapq.heappush(heap, (t + (i % 7) + 1.0, i))
    return acc


class HostSpeed:
    """The shared host's speed beside a stream of timed work.

    The benchmark gets a few cores of a host whose other tenants slow
    every instruction by up to ~1.7x, and the slowed share of time
    drifts over minutes: run medians of wall time moved by up to 40%
    between runs of the same code, so they follow the host more than
    the program.  Blocks of timed work (one cold plan, one serve
    request, one warm pass) therefore alternate with timed runs of
    :func:`reference_slice`, and a block is reported in reference
    milliseconds: its wall ms x ``REF_NOMINAL_MS`` / the mean of the
    slices just before and just after it.  The slice is benchmark code,
    so a change to the program moves the reported latencies in full."""

    def __init__(self):
        self.ticks_ms: list[float] = []
        self.tick()

    def tick(self) -> float:
        """Time one slice; return the wall-to-reference factor of the
        block since the previous slice."""
        t = time.perf_counter()
        reference_slice()
        self.ticks_ms.append((time.perf_counter() - t) * 1e3)
        return REF_NOMINAL_MS / statistics.fmean(self.ticks_ms[-2:])


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / name) as fh:
        return json.load(fh)


def answer(config_label: str, throughput: float) -> dict:
    """The comparable part of a plan: its label and exact throughput."""
    return {"config_label": config_label, "throughput": float.hex(throughput)}


def plan_invariant_errors(plan) -> list[str]:
    """Invariants every selected :class:`ExecutionPlan` must satisfy."""
    errors = []
    samples = plan.global_batch * (2 if plan.partition.is_bidirectional else 1)
    modelled = samples / plan.iteration_ms * 1e3
    if not math.isclose(plan.throughput, modelled, rel_tol=1e-12):
        errors.append(f"throughput {plan.throughput!r} != samples/iteration "
                      f"{modelled!r}")
    if not plan.iteration_ms >= plan.pipeline_ms:
        errors.append(f"iteration_ms {plan.iteration_ms!r} < pipeline_ms "
                      f"{plan.pipeline_ms!r}")
    if plan.memory is None or not plan.memory.fits:
        errors.append("plan does not fit device memory")
    return errors


@dataclass
class Outcome:
    """Counts checked operations; every failure is reported on stderr."""

    attempted: int = 0
    failed: int = 0

    def check(self, errors: list[str] | str | None, what: str) -> bool:
        self.attempted += 1
        if isinstance(errors, str):
            errors = [errors]
        if not errors:
            return True
        self.failed += 1
        print(f"perfbench: FAILED {what}: {'; '.join(errors)}",
              file=sys.stderr)
        return False

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Result:
    """What a workload run reports."""

    #: metric name -> value; units come from BENCHMARK.json
    metrics: dict[str, float]
    outcome: Outcome
    #: human-readable lines printed before the JSON result
    notes: list[str] = field(default_factory=list)
