"""Work the planner's bound-pruned search skips, counted rather than timed.

``plan()`` evaluates every (D, S, M) candidate against the best
throughput found so far, and ``evaluate(..., beat=...)`` stops at the
first upper bound on the candidate's throughput that cannot beat it: a
task-graph lower bound on the makespan before simulation, the simulated
pipeline makespan before filling.  On the Fig. 13a
SD-with-self-conditioning and Fig. 13c CDM-LSUN grids, with the
benchmark planner options, this gate counts ``BubbleFiller.fill`` and
``simulate`` calls of a cold ``plan()`` per cell against the exhaustive
``candidate_plans()``, and checks that both name the same plan.

Gate: fill calls fall by at least 70% and simulate calls by at least
40%.  Measured at introduction (noise-free profiles): SD-SC 672 -> 104
fills and 672 -> 308 simulations; CDM-LSUN 360 -> 16 fills and
360 -> 123 simulations.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.planner as planner_module
from repro.cluster import p4de_cluster
from repro.core import DiffusionPipePlanner, PlannerCaches
from repro.core.filling import BubbleFiller
from repro.harness.throughput import (
    BENCH_PLANNER_OPTIONS,
    CDM_LSUN_BATCHES,
    SD_BATCHES,
)
from repro.models.zoo import cdm_lsun, stable_diffusion_v2_1
from repro.profiling import Profiler

GRIDS = {
    "fig13a-sd-sc": (lambda: stable_diffusion_v2_1(self_conditioning=True),
                     SD_BATCHES),
    "fig13c-cdm-lsun": (cdm_lsun, CDM_LSUN_BATCHES),
}

FILL_CUT = 0.70
SIMULATE_CUT = 0.40


def _counting(monkeypatch, counts: Counter) -> None:
    simulate = planner_module.simulate
    fill = BubbleFiller.fill

    def counted_simulate(*args, **kwargs):
        counts["simulate"] += 1
        return simulate(*args, **kwargs)

    def counted_fill(self, *args, **kwargs):
        counts["fill"] += 1
        return fill(self, *args, **kwargs)

    monkeypatch.setattr(planner_module, "simulate", counted_simulate)
    monkeypatch.setattr(BubbleFiller, "fill", counted_fill)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_plan_search_skips_fills_and_simulations(grid, monkeypatch):
    factory, batches = GRIDS[grid]
    model = factory()
    profile = Profiler(p4de_cluster(1)).profile(model)
    cells = [(gpus // 8, b) for gpus, bs in batches.items() for b in bs]
    counts = {"search": Counter(), "exhaustive": Counter()}
    answers = {}
    _counting(monkeypatch, counts["search"])
    for machines, batch in cells:
        # A fresh cache per cell: every count is a cold plan's.
        planner = DiffusionPipePlanner(
            model, p4de_cluster(machines), profile,
            options=BENCH_PLANNER_OPTIONS, caches=PlannerCaches(),
        )
        answers[machines, batch] = planner.plan(batch).plan
    monkeypatch.undo()
    _counting(monkeypatch, counts["exhaustive"])
    for machines, batch in cells:
        planner = DiffusionPipePlanner(
            model, p4de_cluster(machines), profile,
            options=BENCH_PLANNER_OPTIONS, caches=PlannerCaches(),
        )
        best = max(planner.candidate_plans(batch),
                   key=lambda ev: ev.plan.throughput).plan
        assert answers[machines, batch] == best, (machines, batch)

    search, exhaustive = counts["search"], counts["exhaustive"]
    print(f"{grid}: fill {exhaustive['fill']} -> {search['fill']}, "
          f"simulate {exhaustive['simulate']} -> {search['simulate']}")
    assert search["fill"] <= (1 - FILL_CUT) * exhaustive["fill"], counts
    assert search["simulate"] <= (1 - SIMULATE_CUT) * exhaustive["simulate"], (
        counts
    )
