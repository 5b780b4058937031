"""BENCHMARK.json, the prediction table and run.py agree."""

import json
from pathlib import Path

from perfbench.run import WORKLOADS
from perfbench.tracer import EXPECTED_BOUNDARIES

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads(
    (ROOT / "perfbench" / "predictions.json").read_text())


def test_workloads_match_run_py():
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == WORKLOADS
    assert set(EXPECTED_BOUNDARIES) == set(WORKLOADS)
    assert set(PREDICTIONS["workloads"]) == set(WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_prediction_names_known_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in PREDICTIONS["predictions"]:
        assert entry["workload"] in WORKLOADS, entry
        assert set(entry["metrics"]) <= per_layer, entry
        assert set(entry["moves"]) <= end_to_end, entry
    predicted = {m for e in PREDICTIONS["predictions"] for m in e["metrics"]}
    # only the tracer's own overhead and the evaluate total are unpredicted
    assert per_layer - predicted == {"trace.overhead_ms",
                                     "trace.overhead_share",
                                     "planner.evaluate_ms"}
