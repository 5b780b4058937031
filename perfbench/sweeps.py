"""``sd-sc-sweep`` and ``cdm-lsun-sweep``: cold and warm fig13 passes.

A cold pass profiles the model afresh (seeded noise), makes a fresh
:class:`PlannerCaches` and plans every grid cell with a new planner.
Warm passes then plan the same cells with new planners sharing the
filled caches, which is the memo-hit path.  Passes repeat until the run
has measured for ``seconds`` and collected enough cold plans for a p90
tail.  Latencies are in reference milliseconds (see
:class:`common.HostSpeed`).
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

from repro.cluster.topology import p4de_cluster
from repro.core.planner import DiffusionPipePlanner, PlannerCaches
from repro.harness.throughput import BENCH_PLANNER_OPTIONS
from repro.profiling.profiler import Profiler

from .common import (DEFAULT_SEED, REF_NOMINAL_MS, HostSpeed, Outcome,
                     Result, answer, geomean, load_expected, median,
                     peak_rss_mb, plan_invariant_errors, tail)
from .tracer import (SERVICE_METRICS, Tracer, cache_metrics,
                     coverage_errors, spans_path, summarise)
from .workloads import MACHINE_COUNTS, PROFILE_NOISE_STD, SweepSpec, sweep_spec

clock = time.perf_counter

#: warm passes after each cold pass
WARM_REPS = 5
#: cold samples a run collects at least, so that the tail is p90
MIN_COLD_SAMPLES = 100


@dataclass
class ColdPass:
    setup_s: float
    model: object
    profile: object
    clusters: dict
    caches: PlannerCaches
    plans: list = field(default_factory=list)
    #: ``plan()`` per cell, in wall and in reference ms
    cold_ms: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    #: planner construction and ``plan()`` over all cells, wall and reference
    wall_s: float = 0.0
    ref_wall_s: float = 0.0
    speed: HostSpeed = field(default_factory=HostSpeed)


def _planner(spec_pass: ColdPass, machines: int) -> DiffusionPipePlanner:
    return DiffusionPipePlanner(
        spec_pass.model, spec_pass.clusters[machines], spec_pass.profile,
        options=BENCH_PLANNER_OPTIONS, caches=spec_pass.caches,
    )


def profile_model(spec: SweepSpec):
    """Build the model and profile it with the seeded jitter."""
    model = spec.model_factory()
    profile = Profiler(p4de_cluster(1), noise_std=PROFILE_NOISE_STD,
                       seed=spec.noise_seed).profile(model)
    return model, profile


def cold_pass(spec: SweepSpec, cells) -> ColdPass:
    """Fresh profile and caches, then one timed ``plan()`` per cell."""
    gc.collect()
    t = clock()
    model, profile = profile_model(spec)
    clusters = {m: p4de_cluster(m) for m in MACHINE_COUNTS}
    caches = PlannerCaches()
    setup = clock() - t
    run = ColdPass(setup, model, profile, clusters, caches)
    for machines, batch in cells:
        t_cell = clock()
        planner = _planner(run, machines)
        t = clock()
        ev = planner.plan(batch)
        done = clock()
        scale = run.speed.tick()
        run.plans.append(ev.plan)
        run.cold_ms.append((done - t) * 1e3)
        run.ref_ms.append((done - t) * 1e3 * scale)
        run.wall_s += done - t_cell
        run.ref_wall_s += (done - t_cell) * scale
    return run


def warm_pass(run: ColdPass, cells, outcome: Outcome) -> list[float]:
    """Re-plan every cell on the filled caches; answers must not change.
    Returns the ``plan()`` times in reference ms."""
    out = []
    for (machines, batch), cold in zip(cells, run.plans):
        planner = _planner(run, machines)
        t = clock()
        ev = planner.plan(batch)
        out.append((clock() - t) * 1e3)
        same = (answer(ev.plan.config_label, ev.plan.throughput)
                == answer(cold.config_label, cold.throughput))
        outcome.check(None if same else "warm plan differs from cold plan",
                      f"warm {machines}x{batch}")
    scale = run.speed.tick()
    return [ms * scale for ms in out]


def check_cold(spec: SweepSpec, cells, run: ColdPass, expected: dict | None,
               outcome: Outcome) -> None:
    for (machines, batch), plan in zip(cells, run.plans):
        key = f"{8 * machines}x{batch}"
        errors = plan_invariant_errors(plan)
        if expected is not None:
            got = answer(plan.config_label, plan.throughput)
            if got != expected[key]:
                errors.append(f"answer {got} != expected {expected[key]}")
        outcome.check(errors, f"{spec.name} {key}")


def check_argmax(cells, run: ColdPass, outcome: Outcome) -> None:
    """The selected plan is the best of ``candidate_plans()`` (untimed)."""
    for (machines, batch), plan in zip(cells, run.plans):
        best = max(_planner(run, machines).candidate_plans(batch),
                   key=lambda ev: ev.plan.throughput).plan
        same = (answer(best.config_label, best.throughput)
                == answer(plan.config_label, plan.throughput))
        outcome.check(None if same else
                      f"selected {plan.config_label} but argmax is "
                      f"{best.config_label}", f"argmax {machines}x{batch}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        t_start: float) -> Result:
    import_s = clock() - t_start
    spec = sweep_spec(workload, seed)
    cells = spec.cells()
    expected = (load_expected("sweeps.json")[workload]
                if seed == DEFAULT_SEED else None)
    outcome = Outcome()
    # Untimed warm-up: lazy numpy and interpreter set-up on the
    # smallest scale, with throwaway profile and caches.
    cold_pass(spec, [c for c in cells if c[0] == MACHINE_COUNTS[0]])

    if trace:
        return _run_traced(spec, cells, expected, outcome, seconds)

    setups, cold, warm, walls, raw_cold, ticks = [], [], [], [], [], []
    t0 = clock()
    last = None
    min_passes = math.ceil(MIN_COLD_SAMPLES / len(cells))
    while len(walls) < min_passes or clock() - t0 < seconds:
        last = cold_pass(spec, cells)
        setups.append(last.setup_s)
        check_cold(spec, cells, last, expected, outcome)
        for _ in range(WARM_REPS):
            warm.extend(warm_pass(last, cells, outcome))
        raw_cold.extend(last.cold_ms)
        cold.extend(last.ref_ms)
        walls.append(last.ref_wall_s)
        ticks.extend(last.speed.ticks_ms)
    check_argmax(cells, last, outcome)

    pct, tail_ms = tail(cold)
    # set-up has no slices around it; the host drifts over minutes, so
    # the run's median slice stands for it
    setup_factor = REF_NOMINAL_MS / median(ticks)
    metrics = {
        "setup_s": setup_factor * (import_s + median(setups)),
        "plan_p50_ms": median(cold),
        "plan_tail_ms": tail_ms,
        "plans_per_s": len(cold) / sum(walls),
        "warm_plan_p50_ms": median(warm),
        "selected_throughput_sps": geomean([p.throughput for p in last.plans]),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"plan_tail_ms is p{pct:g} of {len(cold)} cold plans "
             f"({len(walls)} passes); warm_plan_p50_ms over {len(warm)} "
             f"warm plans; setup_s = (imports {import_s:.3f} s + median of "
             f"{len(setups)} profile/cache set-ups) x {setup_factor:.3f}",
             f"latencies in reference ms, wall ms x "
             f"{median(cold) / median(raw_cold):.3f} at the median; raw wall "
             f"median cold plan {median(raw_cold):.1f} ms"]
    return Result(metrics, outcome, notes)


def _run_traced(spec, cells, expected, outcome, seconds) -> Result:
    """Alternate untraced and traced cold passes; per-layer metrics are
    medians over the traced ones, overhead is traced minus untraced."""
    plain_walls, traced_walls, layers = [], [], []
    t0 = clock()
    while not traced_walls or clock() - t0 < seconds:
        plain = cold_pass(spec, cells)
        plain_walls.append(plain.wall_s)
        check_cold(spec, cells, plain, expected, outcome)
        with Tracer() as tracer:
            traced = cold_pass(spec, cells)
        traced_walls.append(traced.wall_s)
        check_cold(spec, cells, traced, expected, outcome)
        outcome.check(coverage_errors(tracer, spec.name), "trace coverage")
        # Cache ratios cover the cold pass and one warm pass, the
        # lookups that warm_plan_p50_ms depends on.
        warm_pass(traced, cells, outcome)
        layers.append({**tracer.layer_metrics(),
                       **cache_metrics(traced.caches.stats().as_dict()),
                       **dict.fromkeys(SERVICE_METRICS, 0.0)})
    tracer.write_spans(spans_path(spec.name, spec.noise_seed))
    values, notes = summarise(layers, median(plain_walls) * 1e3,
                              median(traced_walls) * 1e3, "cold pass")
    return Result(values, outcome, notes)
