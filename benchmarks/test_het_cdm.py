"""Heterogeneous bidirectional (CDM) replication on a non-divisible
cluster (D=6, S<=4), CDM-LSUN profile.

PR 2's sibling (``test_het_replication.py``) promoted per-stage replica
counts on the 1F1B path; this sweep exercises the bidirectional CDM
partitioner's heterogeneous path end to end — 6 GPUs, one pipeline
group, up to 4 chain positions, each choosing a replica count shared by
its co-located down/up stages — and checks:

* the planner returns valid heterogeneous bidirectional plans (both
  chains contiguous and complete, device-conserving, co-located replica
  agreement, non-uniform replicas where ``S !| D``);
* a repeated sweep hits the per-profile heterogeneous CDM DP memo: the
  second pass is at least 5x faster and returns bit-identical plans.

It is deliberately light enough for the fast CI suite
(``-m "not slow" --benchmark-disable``): one batch and one micro-batch
count keep the number of distinct DP tables small.
"""

from __future__ import annotations

import time

from repro.cluster import single_node
from repro.core.planner import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.models.zoo import cdm_lsun
from repro.profiling import Profiler

#: 6 GPUs, one pipeline group of 6: S in {2, 3} divides D, S=4 does not.
HET_CDM_OPTIONS = PlannerOptions(
    max_stages=4,
    micro_batch_counts=(4,),
    group_sizes=(6,),
    heterogeneous_replication=True,
)

BATCHES = (96,)


def _planner(profile, model, cluster, caches=None, **overrides):
    options = HET_CDM_OPTIONS
    if overrides:
        from dataclasses import replace

        options = replace(options, **overrides)
    return DiffusionPipePlanner(
        model, cluster, profile, options=options,
        caches=caches if caches is not None else PlannerCaches(),
    )


def _check_bidirectional(partition, D):
    """Contiguity, coverage, device conservation and co-located replica
    agreement of a heterogeneous bidirectional plan."""
    assert partition.is_bidirectional
    S = partition.num_stages
    for chain in (partition.down, partition.up):
        assert chain[0].lo == 0
        for a, b in zip(chain, chain[1:]):
            assert a.hi == b.lo
        assert all(st.replicas >= 1 for st in chain)
    assert sum(st.replicas for st in partition.down) <= D
    for i in range(S):
        assert partition.down[i].replicas == partition.up[S - 1 - i].replicas
    assert partition.group_size == D


def test_het_cdm_sweep_end_to_end(benchmark):
    """Full planner sweep (partition + simulate + fill) on D=6."""
    model = cdm_lsun()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    planner = _planner(profile, model, cluster)

    plans = benchmark.pedantic(
        lambda: {b: planner.plan(b).plan for b in BATCHES}, rounds=1, iterations=1
    )
    for b, plan in plans.items():
        assert plan.throughput > 0, f"infeasible at batch {b}"
        _check_bidirectional(plan.partition, 6)

    # The non-divisible combo the uniform planner would skip: S=4 chain
    # positions on 6 devices.  The DP must return a valid bidirectional
    # plan with non-uniform replicas (uniform is impossible: 4 !| 6).
    ev = planner.evaluate(96, group_size=6, num_stages=4, num_micro=4)
    assert ev is not None
    _check_bidirectional(ev.plan.partition, 6)
    chain = ev.plan.partition.down
    assert len({st.replicas for st in chain}) > 1, [st.replicas for st in chain]


def test_het_cdm_dp_memo_speedup():
    """A repeated sweep (fresh planner, shared PlannerCaches, same
    ProfileDB) must hit the per-profile heterogeneous CDM DP memo and
    the shared timeline memo: >= 5x faster, bit-identical plans.

    Filling is disabled so the measured work is the partition DP and the
    schedule simulation — the parts the memos cover (filling is
    benchmarked above).
    """
    model = cdm_lsun()
    cluster = single_node(6)

    def measure():
        # A fresh PlannerCaches isolates the timeline memo, and a fresh
        # ProfileDB guarantees cold per-profile DP tables, regardless of
        # what ran earlier.
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
        tables = caches.cdm.entry_count(profile)
        assert tables > 0, "cold sweep must build heterogeneous CDM DP tables"
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
        assert caches.cdm.entry_count(profile) == tables
        return cold, warm

    # The wall-clock ratio is the acceptance criterion, but timing on
    # shared runners is noisy — allow one full re-measurement (a fresh
    # profile makes the first pass genuinely cold again).
    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5 * warm:
            break
    assert cold >= 5 * warm, f"cold={cold:.3f}s warm={warm:.3f}s (< 5x)"


def test_divisible_cdm_unaffected_by_het_flag():
    """On S | D combos the heterogeneous CDM DP may only match or
    improve the uniform objective (uniform replication is one of the
    states the general recursion enumerates)."""
    model = cdm_lsun()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    het = _planner(profile, model, cluster)
    uni = _planner(profile, model, cluster, heterogeneous_replication=False)
    for S in (2, 3):  # both divide 6
        ev_het = het.evaluate(96, group_size=6, num_stages=S, num_micro=4)
        ev_uni = uni.evaluate(96, group_size=6, num_stages=S, num_micro=4)
        assert ev_het is not None and ev_uni is not None
        assert (
            ev_het.plan.partition.t_max_ms
            <= ev_uni.plan.partition.t_max_ms + 1e-9
        )
