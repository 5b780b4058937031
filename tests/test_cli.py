"""CLI tests."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "stable-diffusion-v2.1" in out
    assert "cdm-lsun" in out
    assert "dit-xl-pixart" in out


def test_plan_command(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    trace_path = tmp_path / "trace.json"
    rc = main([
        "plan", "--model", "sd", "--gpus", "8", "--batch", "256",
        "--out", str(plan_path), "--trace", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "bubble ratio" in out
    plan = json.loads(plan_path.read_text())
    assert plan["model_name"] == "stable-diffusion-v2.1"
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--model", "controlnet", "--gpus", "8",
        "--batches", "64", "128",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "DiffusionPipe" in out
    assert "GPipe" in out
    assert "DeepSpeed" in out


def test_table_commands(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["plan", "--model", "gpt5"])


def test_bad_gpu_count():
    with pytest.raises(SystemExit):
        main(["plan", "--model", "sd", "--gpus", "1"])
    with pytest.raises(SystemExit):
        # Beyond one machine the world must tile p4de nodes.
        main(["plan", "--model", "sd", "--gpus", "12"])


def test_group_size_menu_respects_machine_boundaries():
    """Pipeline groups are contiguous rank blocks, so the menu may only
    offer sizes that tile a machine: on multi-machine p4de worlds a
    D=3/D=6 group would straddle the inter-node link while being priced
    off the first (intra-node) group."""
    from repro.catalog import build_cluster, group_sizes

    assert group_sizes(build_cluster(8)) == (2, 4, 8)
    assert group_sizes(build_cluster(16)) == (2, 4, 8)
    assert group_sizes(build_cluster(24)) == (2, 4, 8)  # not 3, 6
    # Single node: every divisor stays on the one machine.
    assert group_sizes(build_cluster(6)) == (2, 3, 6)


def test_plan_heterogeneous_cdm_non_divisible(capsys):
    """The acceptance path: a cdm-* model on a non-divisible cluster
    (D=6, up to 4 chain positions) plans end to end with
    --heterogeneous instead of exiting."""
    rc = main([
        "plan", "--model", "cdm-lsun", "--gpus", "6", "--batch", "96",
        "--heterogeneous",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "S=" in out and "D=" in out
    assert "throughput" in out


def test_plan_speed_factors_flag(capsys):
    """--speed-factors builds a heterogeneous cluster and the planner
    prices the slow device: the plan is valid but strictly slower than
    the homogeneous one."""
    assert main(["plan", "--model", "sd", "--gpus", "6", "--batch", "96"]) == 0
    plain = capsys.readouterr().out
    rc = main([
        "plan", "--model", "sd", "--gpus", "6", "--batch", "96",
        "--speed-factors", "0=0.5",
    ])
    assert rc == 0
    slow = capsys.readouterr().out

    def iteration_ms(out):
        row = next(l for l in out.splitlines() if "iteration" in l)
        return float(row.split("|")[1].strip().split()[0])

    assert iteration_ms(slow) > iteration_ms(plain)


def test_sweep_speed_factors_flag(capsys):
    rc = main([
        "sweep", "--model", "sd", "--gpus", "6", "--batches", "96",
        "--speed-factors", "1=0.5",
    ])
    assert rc == 0
    assert "DiffusionPipe" in capsys.readouterr().out


def test_bad_speed_factors_rejected():
    with pytest.raises(SystemExit, match="RANK=FACTOR"):
        main(["plan", "--gpus", "6", "--speed-factors", "half"])
    with pytest.raises(SystemExit, match="invalid --speed-factors"):
        # Rank 9 is out of range on a 6-device world.
        main(["plan", "--gpus", "6", "--speed-factors", "9=0.5"])
    with pytest.raises(SystemExit, match="invalid --speed-factors"):
        main(["plan", "--gpus", "6", "--speed-factors", "0=-1.0"])


def test_plan_fill_strategy_flag(capsys, tmp_path):
    """--fill-strategy threads the registry name through the planner and
    surfaces the fill telemetry rows."""
    plan_path = tmp_path / "plan.json"
    rc = main([
        "plan", "--model", "sd", "--gpus", "8", "--batch", "64",
        "--fill-strategy", "lookahead", "--out", str(plan_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fill strategy" in out
    assert "lookahead" in out
    assert "bubbles filled" in out
    plan = json.loads(plan_path.read_text())
    assert plan["fill"]["strategy"] == "lookahead"
    assert "candidates_dropped" in plan["fill"]
    assert plan["fill"]["per_bubble"]
    # the search telemetry reaches the plan JSON and the table
    assert "states_pruned" in plan["fill"] and "beam_peak" in plan["fill"]
    if plan["fill"]["beam_peak"]:
        assert "beam peak" in out and "states pruned" in out


@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_engine_knobs_are_gone(capsys, command):
    """One production engine per phase: no DP-kernel or beam flags, and
    the fill-strategy menu offers only the production policies."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--dp-kernel" not in out and "--lookahead-beam" not in out
    assert "{greedy,lookahead,none}" in out
    with pytest.raises(SystemExit):
        main([command, "--fill-strategy", "lookahead_reference"])


def test_cluster_builder_raises_configuration_error():
    """Library callers (the planning service) get a typed error, never
    SystemExit; main() turns it into the CLI's one-line exit."""
    from repro.catalog import build_cluster, build_model, parse_speed_factors

    for gpus in (0, 12):
        with pytest.raises(ConfigurationError):
            build_cluster(gpus)
    with pytest.raises(ConfigurationError, match="unknown model"):
        build_model("gpt5", None)
    with pytest.raises(ConfigurationError, match="RANK=FACTOR"):
        parse_speed_factors(["half"])
    with pytest.raises(SystemExit, match="multiple of 8"):
        main(["plan", "--gpus", "12"])


def test_plan_fill_strategy_none(capsys):
    rc = main([
        "plan", "--model", "sd", "--gpus", "8", "--batch", "64",
        "--fill-strategy", "none",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "none" in out


def test_fill_strategy_rejects_unknown():
    with pytest.raises(SystemExit):
        main([
            "plan", "--model", "sd", "--gpus", "8", "--batch", "64",
            "--fill-strategy", "psychic",
        ])
