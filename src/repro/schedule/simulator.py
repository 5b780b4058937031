"""Discrete-event simulator for pipeline task graphs.

The simulator executes a DAG of :class:`~repro.schedule.tasks.Task`
objects under two rules:

1. a task may start only after all its dependencies complete;
2. each resource runs one task at a time; when it becomes free it picks,
   among the tasks ready at that moment, the one with the smallest
   ``priority`` tuple (FIFO dispatch with explicit tie-breaking — the
   heuristic of §2.2).

Both engines realise the same list-scheduling policy: at every step the
(resource, task) pair with the earliest feasible start commits, breaking
ties by priority then insertion order.  A task's start is
``max(resource_free, ready_time)``, and the chosen candidate minimises
``(start, priority, seq)`` *per resource* — so a task that is ready
earlier runs first even if a higher-priority task becomes ready later
(work-conserving dispatch), while priorities break genuine ties.

The greedy frontier is sound because dependency unlocks are processed at
commit time and every uncommitted task starts no earlier than the
current frontier, so a committed start time can never be invalidated.

:func:`simulate` is a true event-driven engine: each resource keeps a
heap of waiting tasks keyed by ready time plus a heap of *settled* tasks
(known ready at or before the resource's last dispatch) keyed by
priority, and a global event heap orders per-resource dispatch
candidates by ``(feasible_start, priority, seq)``.  Candidates are
recomputed only for resources whose state changed, giving
``O(n log n)``-ish behaviour instead of the reference engine's
per-commit bucket scans — an order of magnitude faster on planner
sweeps, with timelines guaranteed identical to the list-scheduling
oracle :func:`repro.oracles.simulate_reference` (see
``tests/test_simulator_equivalence.py``).
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Sequence

from ..errors import ScheduleError, SimulationError
from .tasks import Task, validate_task_graph
from .timeline import Interval, Timeline


def simulate(
    tasks: Sequence[Task],
    num_devices: int,
    device_weights: dict[int, int] | None = None,
) -> Timeline:
    """Execute a task graph and return its :class:`Timeline`.

    Event-driven engine; produces timelines identical to
    :func:`repro.oracles.simulate_reference`.  Raises
    :class:`ScheduleError` on malformed graphs (cycles, unknown
    dependencies) and :class:`SimulationError` on internal
    inconsistencies.

    ``device_weights`` maps each logical device to the number of
    physical devices it stands for (stage replication).  A logical
    device may host stages of several pipelines — bidirectional chain
    position ``i`` runs the down pipeline's stage ``i`` and the up
    pipeline's stage ``S-1-i`` — so callers must derive the weight from
    *all* stages hosted there, not just one chain's.
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
    #: incrementally-maintained max end time of each task's completed
    #: dependencies; 0.0 for zero-dep tasks (the reference's
    #: ``default=0.0`` path).
    dep_ready = {tid: 0.0 for tid in by_id}

    #: not-yet-eligible tasks per resource, heap-keyed by (ready, seq)
    waiting: dict[str, list[tuple[float, int, str]]] = defaultdict(list)
    #: tasks ready at or before the resource's last dispatch — eligible
    #: for every future dispatch — heap-keyed by (priority, seq)
    settled: dict[str, list[tuple[tuple, int, str]]] = defaultdict(list)
    #: tasks found eligible for the resource's *current* candidate but
    #: not yet settled (the candidate has not committed, so a later
    #: recompute may lower t* below their ready times)
    extra: dict[str, list[tuple[tuple, int, str, float]]] = defaultdict(list)

    resource_free: dict[str, float] = defaultdict(float)
    end_time: dict[str, float] = {}
    intervals: list[Interval] = []

    #: lazy-invalidated global event heap of per-resource dispatch
    #: candidates: (t_star, priority, seq, res, version)
    event_heap: list[tuple[float, tuple, int, str, int]] = []
    version: dict[str, int] = defaultdict(int)

    def recompute(res: str) -> None:
        """Refresh the resource's dispatch candidate in the event heap."""
        w, x, s = waiting[res], extra[res], settled[res]
        # Un-stage previously eligible tasks: the new t* may be earlier
        # than their ready times, so eligibility must be re-derived.
        for prio, sq, tid, ready in x:
            heappush(w, (ready, sq, tid))
        x.clear()
        version[res] += 1
        free = resource_free[res]
        if s:
            # Settled tasks were ready by the last dispatch time, which
            # is <= free, so min-ready over the bucket cannot exceed
            # free: the next dispatch happens exactly when free.
            t_star = free
        elif w:
            t_star = max(free, w[0][0])
        else:
            return  # empty bucket: stale heap entries die by version
        while w and w[0][0] <= t_star:
            ready, sq, tid = heappop(w)
            x.append((tuple(by_id[tid].priority), sq, tid, ready))
        best: tuple[tuple, int, str] | None = s[0] if s else None
        for prio, sq, tid, _ in x:
            cand = (prio, sq, tid)
            if best is None or cand < best:
                best = cand
        assert best is not None
        heappush(event_heap, (t_star, best[0], best[1], res, version[res]))

    for tid, t in by_id.items():
        if remaining_deps[tid] == 0:
            heappush(waiting[t.resource], (0.0, seq[tid], tid))
    for res in waiting:
        recompute(res)

    scheduled = 0
    while scheduled < n:
        while event_heap:
            t_star, _, _, res, ver = heappop(event_heap)
            if ver == version[res]:
                break
        else:
            unrun = sorted(tid for tid in by_id if tid not in end_time)
            raise ScheduleError(
                f"dependency cycle: {len(unrun)} tasks cannot run "
                f"(first few: {unrun[:5]})"
            )
        # Commit: eligible-now tasks become permanently eligible (every
        # future dispatch of this resource happens at >= t_star).
        s = settled[res]
        for prio, sq, tid, _ in extra[res]:
            heappush(s, (prio, sq, tid))
        extra[res].clear()
        _, _, tid = heappop(s)
        t = by_id[tid]
        end = t_star + t.duration
        resource_free[res] = end
        end_time[tid] = end
        intervals.append(Interval(t_star, end, t))
        scheduled += 1
        dirty = {res}
        for dep_tid in dependents[tid]:
            if end > dep_ready[dep_tid]:
                dep_ready[dep_tid] = end
            remaining_deps[dep_tid] -= 1
            if remaining_deps[dep_tid] == 0:
                res2 = by_id[dep_tid].resource
                heappush(
                    waiting[res2], (dep_ready[dep_tid], seq[dep_tid], dep_tid)
                )
                dirty.add(res2)
        for r in dirty:
            recompute(r)

    if len(end_time) != n:  # pragma: no cover - defensive
        raise SimulationError(f"simulated {len(end_time)} of {n} tasks")
    return Timeline(intervals, num_devices, device_weights)


