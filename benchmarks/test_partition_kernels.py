"""Array-kernel DP speedup gate (the PR's headline optimisation).

Times cold table builds of the three partition DPs — heterogeneous
1F1B, the uniform chain, and the CDM bidirectional DP — on the array
kernels and on their :mod:`repro.oracles` recursions (substituted at
the builder call site) on a fig13c/d-flavoured lattice: the CDM-LSUN
down backbone on one NVSwitch node's cost constants, swept across the
group sizes the figure's cluster sweep visits (D up to 64 devices) at
two stage counts.  The gate is on the *aggregate* ratio (total
reference seconds / total array seconds), so the lattice's mass
distribution is part of the contract: the
heterogeneous shapes dominate, exactly where the planner spends its
time on fig13c/d-class sweeps with ``heterogeneous_replication``.

Timing discipline: every build is cold (fresh :class:`PlannerCaches`),
and every (engine, shape) point takes the best of N runs — single runs
on a shared CI box can be 2-3x off their dispersion floor, and the
best-of floor is the quantity the ratio is stable in.

The engines' *outputs* are asserted bit-identical on one lattice shape
here; exhaustive differential coverage (all pricing modes, both CDM
flavours, fuzzed instances) lives in ``tests/test_partition_kernels.py``.
"""

from __future__ import annotations

import gc
import time

from repro.cluster.collectives import CommCosts
from repro.core.caches import PlannerCaches
from repro.core.partition import (
    PartitionContext,
    _chain_frontiers,
    _het_frontiers,
)
from repro.core.partition_cdm import CDMPartitionContext, _cdm_frontiers
from tests.conftest import reference_dp_tables

#: required aggregate cold-build speedup of the array engine
MIN_AGGREGATE_SPEEDUP = 5.0

#: best-of runs per (engine, shape) point
BEST_OF = 4


def _interleaved_floors(ref_fn, arr_fn, n=BEST_OF):
    """Best-of-``n`` floors for both engines, runs interleaved.

    Interleaving matters more than the floor here: the box's effective
    speed drifts on a seconds scale (frequency scaling, suite
    neighbours), and timing all of one engine's runs before the other
    lets a drift epoch bill a single engine and swing the ratio 2x.
    Alternating ref/arr samples both engines across the same epochs, so
    drift cancels out of the ratio.  Collector hygiene on top: a full
    collection before the runs (earlier suite tests' garbage is not
    billed here) and automatic collection paused while timing."""
    best_ref = best_arr = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            ref_fn()
            best_ref = min(best_ref, time.perf_counter() - t0)
            t0 = time.perf_counter()
            arr_fn()
            best_arr = min(best_arr, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best_ref, best_arr


def _ctx(profile, component, M=16):
    return PartitionContext(
        profile=profile,
        component=component,
        batch_per_group=256.0,
        num_micro_batches=M,
        p2p=CommCosts(bandwidth=1e9, latency=0.01),
        allreduce=CommCosts(bandwidth=5e8, latency=0.05),
    )


def test_array_kernels_aggregate_speedup(lsun, lsun_profile):
    down, up = lsun.backbone_names
    L = lsun_profile.num_layers(down)
    ld, lu = lsun_profile.num_layers(down), lsun_profile.num_layers(up)
    ctx = _ctx(lsun_profile, down)
    cctx = CDMPartitionContext(
        down=_ctx(lsun_profile, down, M=8), up=_ctx(lsun_profile, up, M=8)
    )

    def het(S, D):
        return lambda: _het_frontiers(ctx, L, S, D, PlannerCaches())

    def chain():
        return _chain_frontiers(ctx, 2, L, 4, PlannerCaches())

    def cdm():
        return _cdm_frontiers(
            cctx, 4, 2, PlannerCaches(), cut_step=2, max_frontier=8,
            ld=ld, lu=lu,
        )

    def on_oracle(build):
        def run():
            with reference_dp_tables():
                build()
        return run

    lattice = [
        ("het S=4 D=16", het(4, 16)),
        ("het S=4 D=32", het(4, 32)),
        ("het S=6 D=32", het(6, 32)),
        ("het S=4 D=64", het(4, 64)),
        ("chain S=4", chain),
        ("cdm uniform", cdm),
    ]

    total_ref = total_arr = 0.0
    rows = []
    for name, build in lattice:
        t_ref, t_arr = _interleaved_floors(on_oracle(build), build)
        total_ref += t_ref
        total_arr += t_arr
        rows.append((name, t_ref, t_arr))

    print()
    for name, t_ref, t_arr in rows:
        print(
            f"  {name:<14} ref {t_ref * 1e3:8.1f} ms   "
            f"arr {t_arr * 1e3:8.1f} ms   {t_ref / t_arr:5.2f}x"
        )
    aggregate = total_ref / total_arr
    print(
        f"  {'aggregate':<14} ref {total_ref * 1e3:8.1f} ms   "
        f"arr {total_arr * 1e3:8.1f} ms   {aggregate:5.2f}x"
    )
    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"array kernels {aggregate:.2f}x >= {MIN_AGGREGATE_SPEEDUP}x "
        f"aggregate cold-build speedup expected "
        f"(ref {total_ref:.3f}s / arr {total_arr:.3f}s); per-shape: "
        + ", ".join(
            f"{n} {r / a:.2f}x" for n, r, a in rows
        )
    )


def test_array_kernels_identical_tables_on_lattice_shape(lsun, lsun_profile):
    """The speed gate is only meaningful if both engines agree."""
    down = lsun.backbone_names[0]
    L = lsun_profile.num_layers(down)
    ctx = _ctx(lsun_profile, down)
    with reference_dp_tables():
        h_ref, tf_ref = _het_frontiers(ctx, L, 4, 16, PlannerCaches())
    h_arr, tf_arr = _het_frontiers(ctx, L, 4, 16, PlannerCaches())
    assert tf_ref == tf_arr
    assert len(h_ref) == len(h_arr)
    for d_ref, d_arr in zip(h_ref, h_arr):
        assert list(d_ref.keys()) == list(d_arr.keys())
        for k in d_ref:
            assert d_ref[k] == d_arr[k]
