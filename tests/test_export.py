"""Export (trace + plan serialisation) tests."""

import json

import pytest

from repro.core import DiffusionPipePlanner, PlannerOptions
from repro.core.plan import FillItem
from repro.errors import ConfigurationError
from repro.export import (
    load_plan,
    partition_from_dict,
    partition_to_dict,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    timeline_to_chrome_trace,
)
from repro.schedule import StageExec, simulate
from repro.schedule.onef1b import build_1f1b


def _timeline():
    stages = [
        StageExec(index=i, fwd_ms=10, bwd_ms=20, send_fwd_ms=1,
                  send_bwd_ms=1, sync_ms=3)
        for i in range(2)
    ]
    return simulate(build_1f1b(stages, 2), 2)


def _plan(cluster8, uniform, uniform_profile):
    planner = DiffusionPipePlanner(
        uniform, cluster8, uniform_profile,
        options=PlannerOptions(
            max_stages=2, micro_batch_counts=(2,), group_sizes=(2,),
            check_memory=True,
        ),
    )
    return planner.evaluate(64, 2, 2, 2).plan


def test_chrome_trace_structure(tmp_path):
    tl = _timeline()
    path = tmp_path / "trace.json"
    trace = timeline_to_chrome_trace(tl, path=str(path))
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    # All compute tasks present: 2 stages x 2 micro x (fwd + bwd) = 8.
    device_events = [e for e in events if e["tid"].startswith("device")]
    assert len(device_events) >= 8
    # Round-trips through JSON on disk.
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == len(events)
    # Times are microseconds (10 ms forward -> 10000 us).
    fwd = next(e for e in events if e["name"].startswith("fwd[0,0]"))
    assert fwd["dur"] == pytest.approx(10_000)


def test_chrome_trace_with_fill_items():
    tl = _timeline()
    items = [FillItem("enc", 2, 32.0, 6.0, bubble_index=0, partial=True)]
    trace = timeline_to_chrome_trace(tl, items, {0: (5.0, (1,))})
    nt = [e for e in trace["traceEvents"] if e["name"].startswith("nt:")]
    assert len(nt) == 1
    assert nt[0]["args"]["partial"] is True
    with pytest.raises(ConfigurationError):
        timeline_to_chrome_trace(tl, items, None)
    with pytest.raises(ConfigurationError):
        timeline_to_chrome_trace(tl, items, {9: (0.0, (0,))})


def test_plan_roundtrip(tmp_path, cluster8, uniform, uniform_profile):
    plan = _plan(cluster8, uniform, uniform_profile)
    d = plan_to_dict(plan)
    back = plan_from_dict(json.loads(json.dumps(d)))
    assert back == plan

    path = tmp_path / "plan.json"
    save_plan(plan, str(path))
    assert load_plan(str(path)) == plan


def test_partition_roundtrip(cluster8, uniform, uniform_profile):
    plan = _plan(cluster8, uniform, uniform_profile)
    p = plan.partition
    assert partition_from_dict(partition_to_dict(p)) == p


def test_fill_telemetry_roundtrip(cluster8, uniform, uniform_profile):
    """states_pruned / beam_peak survive (de)serialisation exactly."""
    from dataclasses import replace

    plan = _plan(cluster8, uniform, uniform_profile)
    assert plan.fill is not None
    plan = replace(
        plan, fill=replace(plan.fill, strategy="lookahead",
                           states_pruned=17, beam_peak=42)
    )
    d = json.loads(json.dumps(plan_to_dict(plan)))
    assert d["fill"]["states_pruned"] == 17
    assert d["fill"]["beam_peak"] == 42
    back = plan_from_dict(d)
    assert back.fill.states_pruned == 17
    assert back.fill.beam_peak == 42
    assert back == plan


def test_pre_telemetry_exports_still_load(cluster8, uniform, uniform_profile):
    """Plans written before the lookahead-telemetry fields (and before
    the strategy refactor) deserialise with zeroed defaults."""
    plan = _plan(cluster8, uniform, uniform_profile)
    d = plan_to_dict(plan)
    # Strip every post-refactor fill key, as an old export would lack them.
    for key in ("strategy", "candidates_dropped", "per_bubble",
                "states_pruned", "beam_peak"):
        d["fill"].pop(key, None)
    back = plan_from_dict(json.loads(json.dumps(d)))
    assert back.fill.strategy == "greedy"
    assert back.fill.candidates_dropped == 0
    assert back.fill.per_bubble == ()
    assert back.fill.states_pruned == 0
    assert back.fill.beam_peak == 0
    assert back.fill.leftover_ms == plan.fill.leftover_ms
    assert back.fill.items == plan.fill.items
