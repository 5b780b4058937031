"""Headline performance numbers: ``repro bench``.

Measures the numbers the fast benchmark suite gates on — cold and warm
DP table builds of the production (array-kernel) engine and one planner
sweep's wall-clock — and reports them as a table or as JSON with a
stable schema (``repro-bench/1``), so CI can archive the artifact per
commit and regressions show up as a diffable time series.  The
engine-versus-oracle speedup is gated in
``benchmarks/test_partition_kernels.py``, not timed here.

Schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "best_of": 3,
      "builds": [
        {"dp": "het1f1b", "shape": "cdm-lsun down S=4 D=16",
         "engine": "array", "cold_s": 0.04, "warm_s": 0.0001},
        ...
      ],
      "sweep": {"model": "sd", "gpus": 8, "batch": 256.0,
                "wall_s": 1.9, "throughput": 123.4},
      "elastic": {"model": "sd", "machines": 2, "devices_per_machine": 3,
                  "cold_s": 0.8, "warm_s": 0.01}
    }

The ``elastic`` section times a replan after a machine leave/rejoin
round-trip: ``cold_s`` plans the final membership with fresh caches,
``warm_s`` replans it inside an :class:`~repro.core.ElasticSession`
whose caches survived the churn (the memo-hit path the >= 5x gate in
``benchmarks/test_elastic_replan.py`` enforces).

Fields are only ever added, never renamed, so downstream tooling can
pin on ``schema``.  Every timing is a best-of-N floor (single runs on
shared CI boxes sit well above their dispersion floor); ``warm_s``
times a second call against the same caches, i.e. the memo hit path.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from .cluster import single_node
from .cluster.collectives import CommCosts
from .core.caches import PlannerCaches
from .core.partition import PartitionContext, _chain_frontiers, _het_frontiers
from .core.partition_cdm import CDMPartitionContext, _cdm_frontiers
from .profiling import Profiler

__all__ = ["BENCH_SCHEMA", "run_bench", "format_bench", "write_json"]

BENCH_SCHEMA = "repro-bench/1"


def _best_of(fn: Callable[[], Any], n: int) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cold_warm(build: Callable[[PlannerCaches], Any], n: int):
    """(cold, warm) floors: cold against fresh caches, warm against the
    caches the cold run filled (the table-memo hit path)."""
    cold = float("inf")
    warm = float("inf")
    for _ in range(n):
        caches = PlannerCaches()
        t0 = time.perf_counter()
        build(caches)
        cold = min(cold, time.perf_counter() - t0)
        t0 = time.perf_counter()
        build(caches)
        warm = min(warm, time.perf_counter() - t0)
    return cold, warm


def run_bench(*, best_of: int = 3, sweep: bool = True) -> dict:
    """Collect the headline numbers; see the module docstring's schema."""
    from .models import zoo

    cluster = single_node(8)
    lsun = zoo.cdm_lsun()
    profile = Profiler(cluster).profile(lsun)
    down, up = lsun.backbone_names
    L = profile.num_layers(down)
    ld, lu = L, profile.num_layers(up)

    def ctx(component, M=16):
        return PartitionContext(
            profile=profile,
            component=component,
            batch_per_group=256.0,
            num_micro_batches=M,
            p2p=CommCosts(bandwidth=1e9, latency=0.01),
            allreduce=CommCosts(bandwidth=5e8, latency=0.05),
        )

    bctx = ctx(down)
    cctx = CDMPartitionContext(down=ctx(down, M=8), up=ctx(up, M=8))

    cases = [
        (
            "chain",
            "cdm-lsun down S=4 r=2",
            lambda caches: _chain_frontiers(bctx, 2, L, 4, caches),
        ),
        (
            "het1f1b",
            "cdm-lsun down S=4 D=16",
            lambda caches: _het_frontiers(bctx, L, 4, 16, caches),
        ),
        (
            "cdm",
            "cdm-lsun S=4 r=2 cut=2 mf=8",
            lambda caches: _cdm_frontiers(
                cctx, 4, 2, caches, cut_step=2, max_frontier=8, ld=ld, lu=lu,
            ),
        ),
    ]

    builds = []
    for dp, shape, build in cases:
        cold, warm = _cold_warm(build, best_of)
        builds.append(
            {
                "dp": dp,
                "shape": shape,
                "engine": "array",
                "cold_s": cold,
                "warm_s": warm,
            }
        )

    report: dict = {
        "schema": BENCH_SCHEMA,
        "best_of": best_of,
        "builds": builds,
    }
    report["elastic"] = _bench_elastic(best_of)

    if sweep:
        sd = zoo.stable_diffusion_v2_1(self_conditioning=False)
        sd_profile = Profiler(cluster).profile(sd)
        from .core import DiffusionPipePlanner

        wall = float("inf")
        ev = None
        for _ in range(best_of):
            planner = DiffusionPipePlanner(
                sd, cluster, sd_profile, caches=PlannerCaches()
            )
            t0 = time.perf_counter()
            ev = planner.plan(256.0)
            wall = min(wall, time.perf_counter() - t0)
        report["sweep"] = {
            "model": "sd",
            "gpus": cluster.world_size,
            "batch": 256.0,
            "wall_s": wall,
            "throughput": ev.plan.throughput,
        }
    return report


def _bench_elastic(best_of: int) -> dict:
    """Cold vs warm replan latency across a leave/rejoin round-trip.

    Mirrors the elastic benchmark's scenario on the same toy cluster
    (two 3-device machines) so the CI artifact tracks the number the
    >= 5x gate enforces.
    """
    from .cluster.topology import ClusterSpec
    from .core import (
        DiffusionPipePlanner,
        ElasticEvent,
        ElasticSession,
        PlannerOptions,
    )
    from .models import zoo

    cluster = ClusterSpec(num_machines=2, devices_per_machine=3)
    model = zoo.stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)
    options = PlannerOptions(
        max_stages=4,
        micro_batch_counts=(1, 2, 3, 4, 6, 8),
        group_sizes=(3,),
        heterogeneous_replication=True,
        enable_bubble_filling=False,
    )
    batch_per_device = 16.0

    cold = _best_of(
        lambda: DiffusionPipePlanner(
            model, cluster, profile, options=options, caches=PlannerCaches()
        ).plan(batch_per_device * cluster.world_size),
        best_of,
    )

    session = ElasticSession(
        model,
        cluster,
        batch_per_device=batch_per_device,
        profile=profile,
        options=options,
        caches=PlannerCaches(),
    )
    session.replan()
    session.apply(ElasticEvent("leave"))
    session.replan()
    session.apply(ElasticEvent("join"))
    warm = _best_of(session.replan, best_of)

    return {
        "model": "sd",
        "machines": cluster.num_machines,
        "devices_per_machine": cluster.devices_per_machine,
        "cold_s": cold,
        "warm_s": warm,
    }


def format_bench(report: dict) -> str:
    """Human-readable rendering of a :func:`run_bench` report."""
    from .harness import format_table

    rows = []
    for b in report["builds"]:
        rows.append(
            [
                b["dp"],
                b["shape"],
                b["engine"],
                f"{b['cold_s'] * 1e3:.1f}",
                f"{b['warm_s'] * 1e3:.3f}",
            ]
        )
    out = format_table(
        ["dp", "shape", "engine", "cold ms", "warm ms"],
        rows,
        title=f"table builds (best of {report['best_of']})",
    )
    elastic = report.get("elastic")
    if elastic:
        out += (
            f"\nelastic replan: {elastic['model']} on "
            f"{elastic['machines']}x{elastic['devices_per_machine']} GPUs "
            f"after leave/rejoin — {elastic['cold_s'] * 1e3:.0f} ms cold, "
            f"{elastic['warm_s'] * 1e3:.1f} ms warm"
        )
    sweep = report.get("sweep")
    if sweep:
        out += (
            f"\nsweep: {sweep['model']} @ batch {sweep['batch']:g} on "
            f"{sweep['gpus']} GPUs — {sweep['wall_s'] * 1e3:.0f} ms cold, "
            f"{sweep['throughput']:.1f} samples/s"
        )
    return out


def write_json(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
