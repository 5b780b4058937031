"""Oracle of :func:`repro.schedule.simulator.simulate`.

The list-scheduling engine the event-driven simulator replaced, kept
verbatim so ``tests/test_simulator_equivalence.py`` can hold the
production engine to identical timelines.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from ..errors import ScheduleError, SimulationError
from ..schedule.tasks import Task, validate_task_graph
from ..schedule.timeline import Interval, Timeline


def simulate_reference(
    tasks: Sequence[Task],
    num_devices: int,
    device_weights: dict[int, int] | None = None,
) -> Timeline:
    """The original list-scheduling engine, kept as the semantic oracle.

    Keeps an incremental ready-set: each resource's dispatch candidate
    ``(t*, priority, seq, task)`` is cached and recomputed only when the
    resource's state changed (a task committed on it, or a dependent
    became ready there) — a candidate depends only on the resource's own
    bucket, ready times and free time, all untouched on other resources.
    Each commit is O(R + dirty buckets) instead of a full O(n) frontier
    rescan, so the equivalence suite can fuzz ~10x larger graphs, while
    the per-resource scan itself stays verbatim the original rule.  The
    event-driven :func:`simulate` must produce identical timelines.
    """
    by_id = validate_task_graph(list(tasks))
    n = len(by_id)
    if n == 0:
        return Timeline([], num_devices, device_weights)

    seq = {tid: i for i, tid in enumerate(by_id)}
    remaining_deps = {tid: len(set(t.deps)) for tid, t in by_id.items()}
    dependents: dict[str, list[str]] = defaultdict(list)
    for t in by_id.values():
        # dict.fromkeys, not set(): dependents lists feed dispatch order,
        # and set iteration would vary with the per-process hash seed.
        for d in dict.fromkeys(t.deps):
            dependents[d].append(t.task_id)
    # Max end time of completed dependencies, maintained incrementally
    # (0.0 for zero-dep tasks) instead of recomputed per unlock.
    dep_ready = {tid: 0.0 for tid in by_id}

    #: ready tasks per resource (unsorted; scanned for the best candidate)
    ready: dict[str, list[str]] = defaultdict(list)
    ready_time: dict[str, float] = {}
    resource_free: dict[str, float] = defaultdict(float)
    end_time: dict[str, float] = {}
    intervals: list[Interval] = []

    #: cached per-resource dispatch candidate (t*, priority, seq, task);
    #: recomputed only for resources whose bucket or free time changed
    candidates: dict[str, tuple[float, tuple, int, str]] = {}

    def push_ready(tid: str, at: float) -> None:
        ready_time[tid] = at
        ready[by_id[tid].resource].append(tid)

    def recompute(res: str) -> None:
        bucket = ready[res]
        if not bucket:
            candidates.pop(res, None)
            return
        free = resource_free[res]
        # The resource's next dispatch happens at
        # t* = max(free, min ready_time); among tasks ready by t*,
        # the smallest priority wins.
        t_star = max(free, min(ready_time[tid] for tid in bucket))
        res_best: tuple[tuple, int, str] | None = None
        for tid in bucket:
            if ready_time[tid] <= t_star:
                cand = (tuple(by_id[tid].priority), seq[tid], tid)
                if res_best is None or cand < res_best:
                    res_best = cand
        assert res_best is not None
        candidates[res] = (t_star, res_best[0], res_best[1], res_best[2])

    for tid, t in by_id.items():
        if remaining_deps[tid] == 0:
            push_ready(tid, 0.0)
    for res in ready:
        recompute(res)

    scheduled = 0
    while scheduled < n:
        best: tuple[float, tuple, int, str] | None = None
        for cand_global in candidates.values():
            if best is None or cand_global < best:
                best = cand_global
        if best is None:
            unrun = sorted(tid for tid in by_id if tid not in end_time)
            raise ScheduleError(
                f"dependency cycle: {len(unrun)} tasks cannot run "
                f"(first few: {unrun[:5]})"
            )
        start, _, _, tid = best
        t = by_id[tid]
        ready[t.resource].remove(tid)
        end = start + t.duration
        resource_free[t.resource] = end
        end_time[tid] = end
        intervals.append(Interval(start, end, t))
        scheduled += 1
        dirty = {t.resource}
        for dep_tid in dependents[tid]:
            if end > dep_ready[dep_tid]:
                dep_ready[dep_tid] = end
            remaining_deps[dep_tid] -= 1
            if remaining_deps[dep_tid] == 0:
                push_ready(dep_tid, dep_ready[dep_tid])
                dirty.add(by_id[dep_tid].resource)
        for res in dirty:
            recompute(res)

    if len(end_time) != n:  # pragma: no cover - defensive
        raise SimulationError(f"simulated {len(end_time)} of {n} tasks")
    return Timeline(intervals, num_devices, device_weights)
