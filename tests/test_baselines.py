"""Baseline-system tests (DDP, ZeRO-3, GPipe, SPP, CDM strategies)."""

import pytest

from dataclasses import replace

from repro.baselines import (
    ChimeraBaseline,
    CDMStrategyConfig,
    DataParallelBaseline,
    GPipeBaseline,
    GPipeConfig,
    ParallelCDMBaseline,
    SequentialCDMBaseline,
    SPPBaseline,
    Zero3Baseline,
    equal_layer_partition,
    single_backbone_view,
)
from repro.cluster import DeviceSpec, p4de_cluster
from repro.errors import ConfigurationError
from repro.models import zoo
from repro.profiling import Profiler


@pytest.fixture
def setup(cluster8, uniform, uniform_profile):
    return uniform, cluster8, uniform_profile


def test_ddp_iteration_structure(setup):
    model, cluster, prof = setup
    ddp = DataParallelBaseline(model, cluster, prof)
    res = ddp.run(64)
    assert res.local_batch == 8
    assert res.iteration_ms == pytest.approx(res.compute_ms + res.sync_ms)
    assert res.throughput == pytest.approx(64 / res.iteration_ms * 1e3)
    assert not res.oom
    # Compute includes frozen encoders + backbone fwd+bwd.
    expected = prof.component_fwd_ms("encoder", 8) + prof.component_train_ms(
        "backbone", 8
    )
    assert res.compute_ms == pytest.approx(expected)


def test_ddp_validation(setup):
    model, cluster, prof = setup
    ddp = DataParallelBaseline(model, cluster, prof)
    with pytest.raises(ConfigurationError):
        ddp.run(63)  # not divisible by world
    with pytest.raises(ConfigurationError):
        ddp.compute_ms(0)


def test_ddp_sync_grows_with_machines(uniform):
    res = {}
    for machines in (1, 2):
        cluster = p4de_cluster(machines)
        prof = Profiler(cluster).profile(uniform)
        ddp = DataParallelBaseline(uniform, cluster, prof)
        res[machines] = ddp.run(8 * cluster.world_size)
    assert res[2].sync_ms > res[1].sync_ms
    assert res[2].sync_share > res[1].sync_share


def test_zero3_slower_but_smaller(setup):
    model, cluster, prof = setup
    ddp = DataParallelBaseline(model, cluster, prof).run(64)
    z3 = Zero3Baseline(model, cluster, prof).run(64)
    assert z3.sync_ms > ddp.sync_ms           # extra gather traffic
    assert z3.memory.peak_bytes < ddp.memory.peak_bytes


def test_equal_layer_partition():
    stages = equal_layer_partition(10, 3, "bb")
    assert [(s.lo, s.hi) for s in stages] == [(0, 4), (4, 7), (7, 10)]
    with pytest.raises(ConfigurationError):
        equal_layer_partition(2, 3, "bb")


def test_gpipe_runs_and_underperforms_spp(setup):
    model, cluster, prof = setup
    gp = GPipeBaseline(model, cluster, prof).run(64)
    assert not gp.oom
    spp = SPPBaseline(model, cluster, prof).run(64)
    # SPP searches partitions/hyper-params; GPipe is fixed 2/4 equal.
    assert spp.throughput >= gp.throughput * 0.999
    assert gp.iteration_ms > 0


def test_gpipe_bubble_ratio_positive(setup):
    model, cluster, prof = setup
    ratio = GPipeBaseline(model, cluster, prof).bubble_ratio(64)
    assert 0.0 < ratio < 1.0


def test_gpipe_rejects_multi_backbone(cluster8, cascaded, cascaded_profile):
    with pytest.raises(ConfigurationError):
        GPipeBaseline(cascaded, cluster8, cascaded_profile)
    with pytest.raises(ConfigurationError):
        SPPBaseline(cascaded, cluster8, cascaded_profile)


def test_gpipe_batch_validation(setup):
    model, cluster, prof = setup
    gp = GPipeBaseline(model, cluster, prof, GPipeConfig(2, 4))
    with pytest.raises(ConfigurationError):
        gp.run(61)


def test_spp_never_fills(setup):
    model, cluster, prof = setup
    spp = SPPBaseline(model, cluster, prof)
    ev = spp.evaluate(64)
    assert ev.plan.fill is None
    assert ev.plan.bubble_ratio_filled == ev.plan.bubble_ratio_unfilled
    assert spp.bubble_ratio(64) > 0


def test_spp_preserves_heterogeneous_flag(setup):
    """SPP reuses DiffusionPipe's planner options (minus filling), so a
    heterogeneous sweep keeps SPP on the same partition search space —
    and the shared PlannerCaches means shared heterogeneous DP work."""
    from dataclasses import replace

    from repro.core import PlannerCaches, PlannerOptions

    model, cluster, prof = setup
    opts = PlannerOptions(heterogeneous_replication=True, check_memory=False)
    caches = PlannerCaches()
    spp = SPPBaseline(model, cluster, prof, options=opts, caches=caches)
    assert spp.options.heterogeneous_replication
    assert not spp.options.enable_bubble_filling
    assert replace(opts, enable_bubble_filling=False) == spp.options
    assert spp.planner.caches is caches


def test_single_backbone_view(cascaded):
    view = single_backbone_view(cascaded, "backbone_a")
    assert view.backbone_names == ("backbone_a",)
    assert "backbone_b" not in view.components
    assert "embed" in view.components
    with pytest.raises(ConfigurationError):
        single_backbone_view(cascaded, "nope")


def test_cdm_sequential_vs_parallel(cluster8, cascaded, cascaded_profile):
    seq = SequentialCDMBaseline(cascaded, cluster8, cascaded_profile)
    par = ParallelCDMBaseline(cascaded, cluster8, cascaded_profile)
    rs = seq.run(64)
    rp = par.run(64)
    assert rs.name == "DeepSpeed-S"
    assert rp.name == "DeepSpeed-P"
    assert not rs.oom and not rp.oom
    # Sequential sums iteration times; parallel takes the slowest.
    assert rs.iteration_ms > rp.iteration_ms
    # Both process 2 backbones' worth of samples.
    assert rs.throughput == pytest.approx(2 * 64 / rs.iteration_ms * 1e3)


def test_cdm_zero3_variant_names(cluster8, cascaded, cascaded_profile):
    seq = SequentialCDMBaseline(
        cascaded, cluster8, cascaded_profile, CDMStrategyConfig(zero3=True)
    )
    assert seq.name == "DeepSpeed-ZeRO-3-S"
    res = seq.run(64)
    assert res.throughput > 0


def test_cdm_strategies_reject_single_backbone(setup):
    model, cluster, prof = setup
    with pytest.raises(ConfigurationError):
        SequentialCDMBaseline(model, cluster, prof)
    with pytest.raises(ConfigurationError):
        ParallelCDMBaseline(model, cluster, prof)


def test_baselines_check_memory_against_the_smallest_device():
    """On a mixed cluster every baseline's OOM bound is its smallest
    device, exactly as the planner checks (``min_memory_bytes``): a
    10 GB device among A100-80GBs must not be reported as fitting an
    SD iteration that peaks at 47-59 GB per device."""
    small = DeviceSpec(name="small-10GB", memory_bytes=10e9)
    cluster = replace(p4de_cluster(1), device_specs={3: small})
    assert cluster.min_memory_bytes() == small.memory_bytes
    model = zoo.stable_diffusion_v2_1()
    prof = Profiler(cluster).profile(model)
    for baseline in (
        GPipeBaseline(model, cluster, prof),
        ChimeraBaseline(model, cluster, prof),
        DataParallelBaseline(model, cluster, prof),
        Zero3Baseline(model, cluster, prof),
    ):
        res = baseline.run(256)
        assert res.memory.capacity_bytes == small.memory_bytes, res.name
        assert res.oom, res.name

    # SPP's all-OOM fallback reports the same bound.
    tiny = DeviceSpec(name="tiny", memory_bytes=1e3)
    cluster = replace(p4de_cluster(1), device_specs={3: tiny})
    prof = Profiler(cluster).profile(model)
    res = SPPBaseline(model, cluster, prof).run(256)
    assert res.oom
    assert res.memory.capacity_bytes == tiny.memory_bytes
