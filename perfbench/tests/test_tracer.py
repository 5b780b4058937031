"""The tracer times every boundary, nests spans per thread and leaves
the program exactly as it found it."""

import importlib
import threading

import pytest

from perfbench.common import Outcome, plan_invariant_errors
from perfbench.tracer import (BOUNDARIES, CANDIDATES, Tracer,
                              coverage_errors)
from repro.cluster.topology import p4de_cluster
from repro.core.planner import DiffusionPipePlanner, PlannerCaches
from repro.harness.throughput import BENCH_PLANNER_OPTIONS
from repro.models import zoo
from repro.profiling.profiler import Profiler
from repro.schedule.families import SCHEDULE_FAMILIES


def _owners():
    """Every object the tracer patches, with a copy of its namespace."""
    owners = []
    for module, path, _, _ in BOUNDARIES:
        owner = importlib.import_module(module)
        for part in path.split(".")[:-1]:
            owner = getattr(owner, part)
        owners.append(owner)
    owners.append(DiffusionPipePlanner)
    owners.extend(SCHEDULE_FAMILIES.values())
    return {id(o): (o, dict(vars(o))) for o in owners}


def _assert_unpatched(before):
    for owner, namespace in before.values():
        assert dict(vars(owner)) == namespace, owner


def _plan_small(batch=64):
    model = zoo.stable_diffusion_v2_1()
    cluster = p4de_cluster(1)
    profile = Profiler(cluster).profile(model)
    planner = DiffusionPipePlanner(model, cluster, profile,
                                   options=BENCH_PLANNER_OPTIONS,
                                   caches=PlannerCaches())
    return planner.plan(batch).plan


def test_wrappers_restore_every_patched_attribute():
    before = _owners()
    with Tracer():
        assert hasattr(DiffusionPipePlanner.evaluate, "__wrapped__")
        assert hasattr(
            DiffusionPipePlanner.candidate_configs, "__wrapped__")
    _assert_unpatched(before)


def test_wrappers_restore_after_an_exception():
    before = _owners()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    _assert_unpatched(before)


def test_traced_plan_is_identical_and_reaches_every_boundary():
    untraced = _plan_small()
    with Tracer() as tracer:
        traced = _plan_small()
    assert traced == untraced
    # a single-backbone model: every pipeline boundary but partition_cdm
    assert coverage_errors(tracer, "sd-sc-sweep") == []
    layers = tracer.layer_metrics()
    assert layers["planner.candidates"] == tracer.boundary_calls[CANDIDATES]
    assert layers["planner.evaluated"] == layers["planner.candidates"] > 0
    assert layers["fill.calls"] > 0
    assert 0.0 < layers["planner.self_ms"] < layers["planner.evaluate_ms"]


def test_coverage_guard_flags_a_boundary_the_planner_bypasses():
    planner_module = importlib.import_module("repro.core.planner")
    with Tracer() as tracer:
        # As if the planner imported the name another way: its calls
        # no longer go through the patched attribute.
        patched = planner_module.simulate
        planner_module.simulate = patched.__wrapped__
        try:
            _plan_small()
        finally:
            planner_module.simulate = patched
    assert coverage_errors(tracer, "sd-sc-sweep") == [
        "traced boundary simulate recorded no calls"]


def test_spans_nest_per_thread_under_their_plan():
    with Tracer() as tracer:
        threads = [threading.Thread(target=_plan_small, args=(b,))
                   for b in (64, 128)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    plans = [s for s in tracer.spans if s.name == "plan"]
    assert len(plans) == 2 and plans[0].plan_id != plans[1].plan_id
    for s in tracer.spans:
        if s.name in ("plan", "profiling"):
            assert s.parent is None
            continue
        parent = by_id[s.parent]
        assert parent.plan_id == s.plan_id is not None
        assert parent.start <= s.start <= s.end <= parent.end


def test_invariant_check_rejects_a_wrong_throughput():
    from dataclasses import replace

    plan = _plan_small()
    assert plan_invariant_errors(plan) == []
    outcome = Outcome()
    outcome.check(plan_invariant_errors(
        replace(plan, throughput=plan.throughput * 1.001)), "tampered")
    assert (outcome.attempted, outcome.failed) == (1, 1)
