"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CollectiveModel, CommCosts, single_node
from repro.core import (
    CDMPartitionContext,
    PartitionContext,
    extract_bubbles,
    partition_backbone,
    partition_cdm,
    valid_partial_samples,
)
from repro.core.filling import ComponentState, fill_one_bubble
from repro.core.bubbles import Bubble, total_bubble_device_time
from repro.core.partition import pareto_insert
from repro.engine import SGD, PipelineTrainer, SingleDeviceTrainer, clone_chain, mlp_chain
from repro.engine.equivalence import max_param_diff
from repro.profiling import ProfileDB
from repro.schedule import StageExec, Task, simulate
from repro.schedule.gpipe import build_gpipe
from repro.schedule.onef1b import build_1f1b
from repro.oracles import simulate_reference

FAST = CommCosts(bandwidth=6e8, latency=0.005)

# ---------------------------------------------------------------------------
# Simulator invariants
# ---------------------------------------------------------------------------

stage_times = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=100.0),
    ),
    min_size=2,
    max_size=5,
)


@given(stage_times, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_1f1b_makespan_bounds(times, M):
    """Makespan is at least the busiest device's work and at most the
    serial total; bubble ratio lies in [0, 1)."""
    stages = [
        StageExec(index=i, fwd_ms=f, bwd_ms=b) for i, (f, b) in enumerate(times)
    ]
    tl = simulate(build_1f1b(stages, M), len(stages))
    per_stage = [M * (f + b) for f, b in times]
    serial = sum(per_stage)
    assert tl.makespan >= max(per_stage) - 1e-9
    assert tl.makespan <= serial + 1e-6
    assert 0.0 <= tl.bubble_ratio() < 1.0


@given(stage_times, st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_gpipe_never_faster_than_critical_path(times, M):
    stages = [
        StageExec(index=i, fwd_ms=f, bwd_ms=b) for i, (f, b) in enumerate(times)
    ]
    tl = simulate(build_gpipe(stages, M), len(stages))
    # Critical path >= one micro-batch traversing all stages + draining
    # the slowest stage.
    f_total = sum(f for f, _ in times)
    b_total = sum(b for _, b in times)
    assert tl.makespan >= f_total + b_total - 1e-9


@st.composite
def task_graphs(draw):
    """Random DAGs: arbitrary resources, priorities, fan-in, zero durations."""
    n = draw(st.integers(min_value=1, max_value=24))
    tasks = []
    for i in range(n):
        dep_pool = list(range(i))
        deps = draw(
            st.lists(st.sampled_from(dep_pool), max_size=min(3, i), unique=True)
        ) if dep_pool else []
        tasks.append(
            Task(
                task_id=f"t{i}",
                resource=f"r{draw(st.integers(min_value=0, max_value=3))}",
                duration=draw(
                    st.one_of(
                        st.just(0.0),
                        st.floats(min_value=0.1, max_value=20.0),
                    )
                ),
                deps=tuple(f"t{j}" for j in deps),
                priority=(
                    draw(st.integers(min_value=0, max_value=2)),
                    draw(st.integers(min_value=0, max_value=2)),
                ),
            )
        )
    return tasks


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_event_engine_matches_reference_on_random_dags(tasks):
    """The event-driven engine and the reference list scheduler commit
    identical intervals on arbitrary task graphs."""
    fast = simulate(tasks, 1)
    ref = simulate_reference(tasks, 1)
    assert [
        (iv.start, iv.end, iv.task.task_id) for iv in fast.intervals
    ] == [(iv.start, iv.end, iv.task.task_id) for iv in ref.intervals]


@given(stage_times, st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_bubble_extraction_conserves_idle_time(times, M):
    """Sum of bubble device-times equals the timeline's idle accounting."""
    stages = [
        StageExec(index=i, fwd_ms=f, bwd_ms=b) for i, (f, b) in enumerate(times)
    ]
    tl = simulate(build_1f1b(stages, M), len(stages))
    bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    assert total_bubble_device_time(bubbles) == np.float64(
        tl.bubble_device_time()
    ) or abs(total_bubble_device_time(bubbles) - tl.bubble_device_time()) < 1e-6


# ---------------------------------------------------------------------------
# Partitioner invariants
# ---------------------------------------------------------------------------

layer_times = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=100.0),
    ),
    min_size=4,
    max_size=12,
)


def _ctx_from_times(times, M=2):
    db = ProfileDB.from_layer_times(
        {"bb": list(times)}, batches=(1.0, 64.0), trainable={"bb": True}
    )
    return PartitionContext(
        profile=db, component="bb", batch_per_group=64.0,
        num_micro_batches=M, p2p=FAST, allreduce=FAST,
    )


@given(layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_partition_covers_chain_contiguously(times, S):
    if S > len(times):
        return
    plan = partition_backbone(_ctx_from_times(times), S, S)
    assert plan.down[0].lo == 0
    assert plan.down[-1].hi == len(times)
    for a, b in zip(plan.down, plan.down[1:]):
        assert a.hi == b.lo
    assert all(st_.num_layers >= 1 for st_ in plan.down)


@given(
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_het_objective_never_exceeds_homogeneous(times, S, k):
    """On ``S | D`` clusters the heterogeneous DP can always pick the
    uniform ``r = D/S`` assignment, so its objective must never exceed
    the homogeneous chain DP's."""
    if S > len(times):
        return
    D = S * k
    ctx = _ctx_from_times(times)
    hom = partition_backbone(ctx, S, D)
    het = partition_backbone(ctx, S, D, heterogeneous=True)
    assert het.t_max_ms <= hom.t_max_ms + 1e-9 * max(1.0, hom.t_max_ms)


@given(layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_het_backtracking_contiguous_and_device_conserving(times, S):
    """Non-divisible case (D = S + 1): the backtracked chain must be
    contiguous, cover all layers and never over-subscribe devices."""
    if S > len(times):
        return
    D = S + 1  # S + 1 is never a multiple of S for S >= 2
    plan = partition_backbone(_ctx_from_times(times), S, D, heterogeneous=True)
    assert plan.down[0].lo == 0
    assert plan.down[-1].hi == len(times)
    for a, b in zip(plan.down, plan.down[1:]):
        assert a.hi == b.lo
    assert all(st_.replicas >= 1 for st_ in plan.down)
    assert sum(st_.replicas for st_ in plan.down) <= D


def _cdm_ctx_from_times(down_times, up_times, M=2):
    db = ProfileDB.from_layer_times(
        {"down": list(down_times), "up": list(up_times)},
        batches=(1.0, 64.0),
        trainable={"down": True, "up": True},
    )
    mk = lambda comp: PartitionContext(  # noqa: E731
        profile=db, component=comp, batch_per_group=64.0,
        num_micro_batches=M, p2p=FAST, allreduce=FAST,
    )
    return CDMPartitionContext(down=mk("down"), up=mk("up"))


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_het_cdm_objective_never_exceeds_uniform(down_times, up_times, S, k):
    """On ``S | D`` clusters the heterogeneous CDM DP can always pick
    the uniform ``r = D/S`` assignment for every chain position, so its
    objective must never exceed the uniform DP's."""
    if S > min(len(down_times), len(up_times)):
        return
    D = S * k
    ctx = _cdm_ctx_from_times(down_times, up_times)
    uni = partition_cdm(ctx, S, D)
    het = partition_cdm(ctx, S, D, heterogeneous=True)
    assert het.t_max_ms <= uni.t_max_ms + 1e-9 * max(1.0, uni.t_max_ms)


@given(layer_times, layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_het_cdm_backtracking_valid_chains(down_times, up_times, S):
    """Non-divisible case (D = S + 1): both backtracked chains must be
    contiguous, cover their backbone, never over-subscribe devices, and
    co-located stages must share one replica count."""
    if S > min(len(down_times), len(up_times)):
        return
    D = S + 1  # never a multiple of S for S >= 2
    plan = partition_cdm(
        _cdm_ctx_from_times(down_times, up_times), S, D, heterogeneous=True
    )
    ld, lu = len(down_times), len(up_times)
    for chain, L in ((plan.down, ld), (plan.up, lu)):
        assert chain[0].lo == 0
        assert chain[-1].hi == L
        for a, b in zip(chain, chain[1:]):
            assert a.hi == b.lo
        assert all(st_.replicas >= 1 for st_ in chain)
    assert sum(st_.replicas for st_ in plan.down) <= D
    for i in range(S):
        assert plan.down[i].replicas == plan.up[S - 1 - i].replicas


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_het_cdm_memo_hit_bit_identical(down_times, up_times, S, M):
    """A repeated heterogeneous CDM call (same profile, same inputs)
    hits the per-profile DP memo and returns a bit-identical plan."""
    if S > min(len(down_times), len(up_times)):
        return
    ctx = _cdm_ctx_from_times(down_times, up_times, M=M)
    D = S + 1
    first = partition_cdm(ctx, S, D, heterogeneous=True)
    second = partition_cdm(ctx, S, D, heterogeneous=True)
    assert first == second


@given(layer_times)
@settings(max_examples=30, deadline=None)
def test_partition_w_is_lower_bounded_by_mean(times):
    """max stage time >= total / S for any partition: the DP's W too."""
    S = 2
    ctx = _ctx_from_times(times)
    plan = partition_backbone(ctx, S, S)
    total = sum((f + b) for f, b in times) * (32 / 64)  # micro batch 32
    assert plan.w_ms >= total / S - 1e-6


@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_pareto_frontier_invariant(points):
    frontier: list[tuple] = []
    for i, (w, y) in enumerate(points):
        pareto_insert(frontier, (w, y, i), 2)
    # No point in the frontier dominates another.
    for a in frontier:
        for b in frontier:
            if a is b:
                continue
            assert not (a[0] <= b[0] and a[1] <= b[1]), (a, b)
    # Every input point is dominated by (or equal to) some frontier point.
    for w, y in points:
        assert any(fw <= w and fy <= y for fw, fy, _ in frontier)


# ---------------------------------------------------------------------------
# Filling invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=8),
    st.floats(min_value=1.0, max_value=100.0),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_fill_never_exceeds_bubble(times, bubble_ms, d):
    db = ProfileDB.from_layer_times(
        {"e": [(t, 0.0) for t in times]},
        batches=(1.0, 64.0),
        trainable={"e": False},
        scale_with_batch=False,
    )
    state = ComponentState(name="e", num_layers=len(times), batch=64.0)
    bubble = Bubble(start=0.0, end=bubble_ms, devices=tuple(range(d)), weight=d)
    fill = fill_one_bubble(db, [state], bubble, 0)
    assert fill.time_ms <= bubble_ms + 1e-6
    assert sum(i.time_ms for i in fill.items) == np.float64(fill.time_ms) or abs(
        sum(i.time_ms for i in fill.items) - fill.time_ms
    ) < 1e-9
    # Items reference valid layers, in order per component.
    layers = [i.layer for i in fill.items]
    assert layers == sorted(layers)


@st.composite
def fill_instances(draw):
    """A random NT workload (1-2 components) plus a random bubble list."""
    from repro.models import ModelSpec
    from repro.models.zoo import timed_component

    comps = {}
    for c in range(draw(st.integers(min_value=1, max_value=2))):
        n = draw(st.integers(min_value=1, max_value=4))
        t = draw(st.floats(min_value=1.0, max_value=80.0))
        comps[f"c{c}"] = [(t, 0.0)] * n
    db = ProfileDB.from_layer_times(
        {**comps, "bb": [(1.0, 1.0)]},
        batches=(1.0, 64.0),
        trainable={**{k: False for k in comps}, "bb": True},
        scale_with_batch=True,
    )
    backbone = timed_component("bb", [1.0], trainable=True)
    specs = [timed_component(n, [1.0] * len(v)) for n, v in comps.items()]
    model = ModelSpec("fuzz", [backbone] + specs, backbone_names=("bb",))
    bubbles = []
    t0 = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dur = draw(st.floats(min_value=2.0, max_value=100.0))
        w = draw(st.integers(min_value=1, max_value=4))
        bubbles.append(
            Bubble(start=t0, end=t0 + dur, devices=tuple(range(w)), weight=w)
        )
        t0 += dur + 1.0
    return db, model, bubbles


@given(fill_instances(), st.sampled_from(["greedy", "lookahead", "none"]))
@settings(max_examples=40, deadline=None)
def test_any_strategy_respects_capacity_and_conserves_samples(instance, strategy):
    """Every strategy's fill fits each bubble's wall-clock capacity, and
    per-layer sample accounting (full + partial items vs the final
    component states) conserves the batch."""
    from repro.core import BubbleFiller

    db, model, bubbles = instance
    filler = BubbleFiller(db, model, batch=64, strategy=strategy)
    report = filler.fill(bubbles, leftover_devices=2)
    assert report.strategy == strategy
    # Capacity: per bubble, placed time fits the duration.
    for b_index, bubble in enumerate(bubbles):
        placed = sum(
            i.time_ms for i in report.items if i.bubble_index == b_index
        )
        assert placed <= bubble.duration + 1e-6
    # Every strategy reports exactly one utilization entry per bubble.
    assert len(report.per_bubble) == len(bubbles)
    for u in report.per_bubble:
        placed = sum(
            i.time_ms for i in report.items if i.bubble_index == u.bubble_index
        )
        assert abs(placed - u.filled_ms) < 1e-9
        assert 0.0 <= u.utilization <= 1.0
    # Conservation: scheduled samples + the state's remaining samples
    # account for exactly one batch per started layer, none beyond.
    scheduled: dict[tuple[str, int], float] = {}
    for item in report.items:
        key = (item.component, item.layer)
        scheduled[key] = scheduled.get(key, 0.0) + item.samples
    for name, state in filler.states.items():
        for layer in range(state.num_layers):
            got = scheduled.get((name, layer), 0.0)
            if layer < state.next_layer:
                assert abs(got - state.batch) < 1e-6, (name, layer)
            elif layer == state.next_layer:
                assert abs(got - (state.batch - state.remaining)) < 1e-6
            else:
                assert got == 0.0
    # The leftover equals the remaining work at the leftover width.
    assert report.leftover_ms == pytest.approx(filler.leftover_ms(2))


@given(fill_instances())
@settings(max_examples=40, deadline=None)
def test_lookahead_never_worse_than_greedy(instance):
    from repro.core import BubbleFiller

    db, model, bubbles = instance
    greedy = BubbleFiller(db, model, batch=64, strategy="greedy").fill(
        bubbles, leftover_devices=2
    )
    look = BubbleFiller(db, model, batch=64, strategy="lookahead").fill(
        bubbles, leftover_devices=2
    )
    assert look.leftover_ms <= greedy.leftover_ms


def _normalized_bubbles(bubbles):
    """Bubble list modulo ulp-level noise: sub-nanosecond slivers are
    dropped and adjacent same-set bubbles merged.  The reference's
    midpoint sampling cannot resolve segments one ulp wide (the midpoint
    rounds onto an edge), so the two implementations may legitimately
    disagree there; at any physical scale they are identical."""
    merged = []
    for b in bubbles:
        if b.duration <= 1e-9:
            continue
        if (
            merged
            and merged[-1][2] == b.devices
            and abs(merged[-1][1] - b.start) <= 1e-9
        ):
            merged[-1] = (merged[-1][0], b.end, b.devices)
        else:
            merged.append((b.start, b.end, b.devices))
    return [(round(s, 6), round(e, 6), d) for s, e, d in merged]


@given(stage_times, st.integers(min_value=1, max_value=5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_sweep_line_extraction_matches_reference(times, M, include_sync):
    """The O(E log E) sweep-line and the quadratic breakpoint scan
    commit the same bubbles (modulo ulp-wide slivers the midpoint scan
    cannot resolve) on simulated 1F1B timelines."""
    from repro.oracles import extract_bubbles_reference

    stages = [
        StageExec(index=i, fwd_ms=f, bwd_ms=b, sync_ms=5.0)
        for i, (f, b) in enumerate(times)
    ]
    tl = simulate(build_1f1b(stages, M), len(stages))
    # Unfiltered view only: a ulp sliver can split a bubble around the
    # min-duration threshold, making the filtered lists incomparable by
    # normalization (the filtered case is equivalence-tested on
    # noise-free timelines in test_core_bubbles / benchmarks).
    fast = extract_bubbles(
        tl, min_duration_ms=0.0, include_sync_spans=include_sync
    )
    ref = extract_bubbles_reference(
        tl, min_duration_ms=0.0, include_sync_spans=include_sync
    )
    assert _normalized_bubbles(fast) == _normalized_bubbles(ref)


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1.0, max_value=128.0),
)
@settings(max_examples=50, deadline=None)
def test_valid_partial_samples_properties(d, remaining):
    out = valid_partial_samples(batch=128.0, idle_devices=d, remaining=remaining)
    for total in out:
        assert total <= remaining + 1e-9
        assert (total / d) in (4, 8, 12, 16, 24, 32, 48, 64, 96)
    assert out == sorted(out)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=1.0, max_value=1e9),
)
@settings(max_examples=50, deadline=None)
def test_allreduce_consistent_with_costs(n, size):
    coll = CollectiveModel(single_node(16))
    ranks = list(range(n))
    costs = coll.allreduce_costs(ranks)
    direct = coll.allreduce(ranks, size)
    via_costs = size / costs.bandwidth + costs.latency
    assert abs(direct - via_costs) < 1e-6 * max(direct, 1.0)


# ---------------------------------------------------------------------------
# Numeric engine
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=15, deadline=None)
def test_pipeline_equivalence_random_models(seed, micro):
    rng = np.random.default_rng(seed)
    chain = mlp_chain("m", [3, 5, 5, 2], rng)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 2))
    single = SingleDeviceTrainer(clone_chain(chain), optimizer=SGD(lr=0.05))
    pipe = PipelineTrainer(clone_chain(chain), [2], num_micro=micro,
                           optimizer_factory=lambda: SGD(lr=0.05))
    single.step(x, y)
    pipe.step(x, y)
    assert max_param_diff(single.chain.param_vector(), pipe.param_vector()) < 1e-11
