"""Heterogeneous replication on a non-divisible cluster (D=6, S<=4).

The paper's evaluation pins ``r = D/S`` per stage (footnote 2); the
general partition recursion (Eqns. 7-9) lets every stage pick its own
replica count, which is where real (non power-of-two) clusters live.
This benchmark sweeps a deliberately non-``S | D`` cluster — 6 GPUs,
pipeline groups of 6, up to 4 stages — end to end and checks:

* the planner returns valid heterogeneous plans (contiguous chains,
  device-conserving, non-uniform replicas where ``S !| D``);
* a repeated sweep hits the per-profile heterogeneous DP memo: the
  second pass is at least 5x faster and returns bit-identical plans.

It is deliberately light enough for the fast CI suite
(``-m "not slow" --benchmark-disable``).
"""

from __future__ import annotations

import time

from repro.cluster import single_node
from repro.core.planner import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.models.zoo import stable_diffusion_v2_1
from repro.profiling import Profiler

#: 6 GPUs, one pipeline group of 6: S in {2, 3} divides D, S=4 does not.
HET_OPTIONS = PlannerOptions(
    max_stages=4,
    micro_batch_counts=(1, 2, 3, 4, 6, 8),
    group_sizes=(6,),
    heterogeneous_replication=True,
)

BATCHES = (96, 192)


def _planner(profile, model, cluster, caches=None, **overrides):
    options = HET_OPTIONS
    if overrides:
        from dataclasses import replace

        options = replace(options, **overrides)
    return DiffusionPipePlanner(
        model, cluster, profile, options=options,
        caches=caches if caches is not None else PlannerCaches(),
    )


def _check_chain(partition, D):
    """Contiguity + device conservation of a heterogeneous chain."""
    chain = partition.down
    assert chain[0].lo == 0
    for a, b in zip(chain, chain[1:]):
        assert a.hi == b.lo
    assert all(st.replicas >= 1 for st in chain)
    assert sum(st.replicas for st in chain) <= D
    assert partition.group_size == D


def test_het_replication_sweep_end_to_end(benchmark):
    """Full planner sweep (partition + simulate + fill) on D=6."""
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    planner = _planner(profile, model, cluster)

    plans = benchmark.pedantic(
        lambda: {b: planner.plan(b).plan for b in BATCHES}, rounds=1, iterations=1
    )
    for b, plan in plans.items():
        assert plan.throughput > 0, f"infeasible at batch {b}"
        _check_chain(plan.partition, 6)

    # The non-divisible combo the homogeneous planner would skip: S=4 on
    # 6 devices.  The DP must return a valid plan with non-uniform
    # replicas (uniform is impossible: 4 !| 6).
    ev = planner.evaluate(96, group_size=6, num_stages=4, num_micro=4)
    assert ev is not None
    chain = ev.plan.partition.down
    _check_chain(ev.plan.partition, 6)
    # The acceptance criterion: a non-uniform replica assignment
    # (uniform is impossible with 4 stages on 6 devices).  How many of
    # the 6 devices the optimum uses is a W-vs-Y trade-off the profile
    # decides, so it is deliberately not pinned here.
    assert len({st.replicas for st in chain}) > 1, [st.replicas for st in chain]


def test_het_dp_memo_speedup():
    """A repeated sweep (fresh planner, shared PlannerCaches, same
    ProfileDB) must hit the per-profile heterogeneous DP memo and the
    shared timeline memo: >= 5x faster, bit-identical plans.

    Filling is disabled so the measured work is the partition DP and the
    schedule simulation — the parts the memos cover (filling is
    benchmarked above).
    """
    model = stable_diffusion_v2_1()
    cluster = single_node(6)

    def measure():
        # A fresh PlannerCaches isolates the timeline memo, and a fresh
        # profile guarantees cold per-profile DP tables, even when other
        # tests (or a previous measurement attempt) ran first.
        caches = PlannerCaches()
        profile = Profiler(cluster).profile(model)

        def sweep():
            planner = _planner(
                profile, model, cluster, caches=caches,
                enable_bubble_filling=False,
            )
            return {b: planner.plan(b).plan for b in BATCHES}

        t0 = time.perf_counter()
        first = sweep()
        cold = time.perf_counter() - t0
        tables = caches.chains.entry_count(profile)
        assert tables > 0, "cold sweep must build heterogeneous DP tables"
        # Best of three warm passes: the warm path is milliseconds of
        # cache reads, so a single scheduler stall on a shared CI
        # runner could otherwise sink the ratio.
        warm = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            second = sweep()
            warm = min(warm, time.perf_counter() - t0)
            assert first == second, "memoized sweep must be bit-identical"
        # Structural memo-hit evidence, independent of wall clock: the
        # warm sweeps added no DP tables.
        assert caches.chains.entry_count(profile) == tables
        return cold, warm

    # The wall-clock ratio is the acceptance criterion, but timing on
    # shared runners is noisy — allow one full re-measurement (a fresh
    # profile makes the first pass genuinely cold again).
    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5 * warm:
            break
    assert cold >= 5 * warm, f"cold={cold:.3f}s warm={warm:.3f}s (< 5x)"


def test_divisible_stages_unaffected_by_het_flag():
    """On S | D combos the heterogeneous DP may only match or improve
    the homogeneous objective, and uniform replication stays available
    (it is one of the states the general recursion enumerates)."""
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    het = _planner(profile, model, cluster)
    hom = _planner(profile, model, cluster, heterogeneous_replication=False)
    for S in (2, 3):  # both divide 6
        ev_het = het.evaluate(96, group_size=6, num_stages=S, num_micro=4)
        ev_hom = hom.evaluate(96, group_size=6, num_stages=S, num_micro=4)
        assert ev_het is not None and ev_hom is not None
        assert (
            ev_het.plan.partition.t_max_ms
            <= ev_hom.plan.partition.t_max_ms + 1e-9
        )
