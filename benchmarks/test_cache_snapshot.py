"""Snapshot-seeded warm planning: the ISSUE's >= 5x gate.

Two gates, both on the SD heterogeneous sweep of
``test_het_replication.py`` (D=6, S<=4, filling off — the memo-covered
work):

* **in-process**: snapshot a warmed :class:`PlannerCaches`, restore it
  into a *fresh* instance keyed onto a *freshly re-profiled* model (the
  cross-process path, minus the process), and re-sweep: >= 5x faster
  than cold, bit-identical plans;
* **cross-process**: a ``ProcessPoolExecutor`` worker seeded from the
  snapshot file answers the same request stream >= 5x faster than an
  unseeded worker, with identical responses — proving the service's
  worker-seeding path end to end.

Light enough for the fast CI suite (``--benchmark-disable``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.models.zoo import stable_diffusion_v2_1
from repro.profiling import Profiler

OPTIONS = PlannerOptions(
    max_stages=4,
    micro_batch_counts=(1, 2, 3, 4, 6, 8),
    group_sizes=(6,),
    heterogeneous_replication=True,
    enable_bubble_filling=False,
)
BATCHES = (96, 192)


def _sweep(caches, profile, model, cluster):
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=OPTIONS, caches=caches
    )
    return {b: planner.plan(b).plan for b in BATCHES}


def test_snapshot_warm_sweep_5x(tmp_path):
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    path = tmp_path / "warm.snap"

    # The profile must stay alive until the snapshot is written: the
    # DP tables are weak-keyed by it.
    src_profile = Profiler(cluster).profile(model)
    warm_src = PlannerCaches()
    baseline = _sweep(warm_src, src_profile, model, cluster)
    written = warm_src.snapshot(path)
    assert written["chains"] > 0 and written["timelines"] > 0, written
    del src_profile

    def measure():
        # Cold: fresh caches, fresh profile (same content fingerprint).
        profile = Profiler(cluster).profile(model)
        cold_caches = PlannerCaches()
        t0 = time.perf_counter()
        cold_plans = _sweep(cold_caches, profile, model, cluster)
        cold = time.perf_counter() - t0
        # Warm: fresh caches + snapshot restore onto yet another fresh
        # profile.  Best of three, as in the sibling memo benchmarks.
        warm = float("inf")
        for _ in range(3):
            profile = Profiler(cluster).profile(model)
            warm_caches = PlannerCaches()
            warm_caches.load(path, [profile])
            t0 = time.perf_counter()
            warm_plans = _sweep(warm_caches, profile, model, cluster)
            warm = min(warm, time.perf_counter() - t0)
            assert warm_plans == cold_plans == baseline, (
                "snapshot-warmed plans must be bit-identical"
            )
            assert warm_caches.stats().store("timelines").misses == 0
        return cold, warm

    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5 * warm:
            break
    assert cold >= 5 * warm, f"cold={cold:.3f}s warm={warm:.3f}s (< 5x)"


def _worker_sweep(snapshot_path):
    """Runs inside a worker process: build the planner (profiling and
    snapshot restore excluded from the timing), then sweep."""
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches()
    if snapshot_path is not None:
        caches.load(snapshot_path, [profile])
    t0 = time.perf_counter()
    plans = _sweep(caches, profile, model, cluster)
    elapsed = time.perf_counter() - t0
    report = {
        b: (p.config_label, p.throughput, p.iteration_ms)
        for b, p in plans.items()
    }
    return report, elapsed, caches.stats().store("timelines").hits


def test_process_pool_worker_replays_snapshot_warm(tmp_path):
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    path = str(tmp_path / "warm.snap")
    src_profile = Profiler(cluster).profile(model)
    warm_src = PlannerCaches()
    _sweep(warm_src, src_profile, model, cluster)
    written = warm_src.snapshot(path)
    assert written["chains"] > 0 and written["timelines"] > 0, written
    del src_profile

    def measure():
        # One worker per measurement so no in-process state carries
        # over; the cold worker proves the baseline, the seeded worker
        # the service's startup path.
        with ProcessPoolExecutor(max_workers=1) as pool:
            cold_report, cold, _ = pool.submit(_worker_sweep, None).result()
        with ProcessPoolExecutor(max_workers=1) as pool:
            warm = float("inf")
            for _ in range(3):
                warm_report, elapsed, tl_hits = pool.submit(
                    _worker_sweep, path
                ).result()
                warm = min(warm, elapsed)
                assert warm_report == cold_report, (
                    "seeded worker must report identically to a cold one"
                )
                assert tl_hits > 0, "worker never hit the restored memo"
        return cold, warm

    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5 * warm:
            break
    assert cold >= 5 * warm, f"cold={cold:.3f}s warm={warm:.3f}s (< 5x)"
