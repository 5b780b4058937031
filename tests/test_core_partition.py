"""Single-backbone DP partitioner tests (§4.1, §4.3)."""

import pytest

from repro.cluster import CommCosts
from repro.core import PartitionContext, StageCosts, partition_backbone
from repro.core.partition import pareto_insert
from repro.errors import ConfigurationError, PartitionError

from .conftest import make_synthetic_db

FAST_P2P = CommCosts(bandwidth=6e8, latency=0.005)
FAST_AR = CommCosts(bandwidth=1e9, latency=0.1)


def _ctx(db=None, batch=64.0, M=4, sc=False, p2p=FAST_P2P, ar=FAST_AR):
    return PartitionContext(
        profile=db or make_synthetic_db(),
        component="backbone",
        batch_per_group=batch,
        num_micro_batches=M,
        p2p=p2p,
        allreduce=ar,
        self_conditioning=sc,
    )


def test_uniform_backbone_splits_evenly():
    """8 identical layers into 2/4 stages -> equal layer counts."""
    for S in (2, 4):
        plan = partition_backbone(_ctx(), S, S)
        sizes = [st.num_layers for st in plan.down]
        assert sizes == [8 // S] * S
        # Chain is contiguous and covers all layers.
        assert plan.down[0].lo == 0
        assert plan.down[-1].hi == 8
        for a, b in zip(plan.down, plan.down[1:]):
            assert a.hi == b.lo


def test_skewed_backbone_balances_time():
    """One heavy layer attracts a singleton stage."""
    db = make_synthetic_db(
        backbone_times=[(10, 20)] * 3 + [(60, 120)] + [(10, 20)] * 2,
    )
    plan = partition_backbone(_ctx(db), 2, 2)
    heavy_stage = next(st for st in plan.down if st.lo <= 3 < st.hi)
    # The heavy stage should not also carry most light layers.
    assert heavy_stage.num_layers <= 3


def test_w_value_matches_stage_costs():
    plan = partition_backbone(_ctx(), 2, 2)
    ctx = _ctx()
    costs = StageCosts(ctx, replicas=1)
    expected_w = max(
        costs.t0(st.lo, st.hi) for st in plan.down
    )
    assert plan.w_ms == pytest.approx(expected_w)
    # Objective = (M + 2S - 2) W + Y.
    M, S = 4, 2
    assert plan.t_max_ms == pytest.approx((M + 2 * S - 2) * plan.w_ms + plan.y_ms)


def test_replication_uses_group_devices():
    plan = partition_backbone(_ctx(), 2, 8)
    assert all(st.replicas == 4 for st in plan.down)
    assert plan.group_size == 8


def test_micro_batch_size_property():
    plan = partition_backbone(_ctx(batch=64, M=4), 2, 2)
    assert plan.micro_batch == 16.0


def test_infeasible_cases():
    with pytest.raises(PartitionError):
        partition_backbone(_ctx(), 9, 9)      # more stages than layers
    with pytest.raises(PartitionError):
        partition_backbone(_ctx(), 3, 2)      # more stages than devices
    with pytest.raises(PartitionError):
        partition_backbone(_ctx(), 3, 8)      # 3 does not divide 8
    with pytest.raises(PartitionError):
        # r = 4 replicas but only 2 samples per micro-batch: sub-sample
        # local batches are unrunnable (same floor as the het DP).
        partition_backbone(_ctx(batch=4, M=2), 2, 8)
    with pytest.raises(ConfigurationError):
        partition_backbone(_ctx(), 0, 2)


def test_comm_bound_stage_cost():
    """With a tiny p2p bandwidth the boundary dominates T0."""
    slow = CommCosts(bandwidth=1.0, latency=0.0)  # 1 byte/ms
    ctx = _ctx(p2p=slow)
    costs = StageCosts(ctx, replicas=1)
    # Stage [4, 8): receives layer 3's output: 1e4 B/sample * 16 samples.
    t0 = costs.t0(4, 8)
    comm = 2 * 1e4 * 16 / 1.0
    assert t0 == pytest.approx(comm)


def test_sync_gap_uses_prefix_backward():
    ctx = _ctx()
    costs = StageCosts(ctx, replicas=1)
    # Stage starting at layer 4: compensation = bwd of layers 0..3 at
    # local batch 16 -> 4 * 20ms * (16/64).
    assert costs.compensation_ms(4) == pytest.approx(4 * 20.0 * 16 / 64)
    assert costs.sync_gap(4, 8) == pytest.approx(
        costs.sync_ms(4, 8) - costs.compensation_ms(4)
    )
    # First stage has zero compensation: fully exposed sync.
    assert costs.compensation_ms(0) == 0.0


def test_self_conditioning_increases_bound():
    plain = partition_backbone(_ctx(sc=False), 2, 2)
    sc = partition_backbone(_ctx(sc=True), 2, 2)
    assert sc.t_max_ms > plain.t_max_ms
    assert sc.self_conditioning


def test_self_conditioning_t0():
    ctx = _ctx(sc=True)
    costs = StageCosts(ctx, replicas=1)
    # 2 * fwd + bwd for the compute branch of Eqn. 17.
    local = 16
    fwd = 4 * 10.0 * local / 64
    bwd = 4 * 20.0 * local / 64
    assert costs.t0_sc(0, 4) == pytest.approx(2 * fwd + bwd)
    assert costs.t0(0, 4) == pytest.approx(fwd + bwd)


def test_pareto_insert():
    frontier = []
    assert pareto_insert(frontier, (1.0, 2.0, "a"), 2)
    assert pareto_insert(frontier, (2.0, 1.0, "b"), 2)
    # Dominated point rejected.
    assert not pareto_insert(frontier, (2.0, 3.0, "c"), 2)
    # Dominating point evicts.
    assert pareto_insert(frontier, (0.5, 0.5, "d"), 2)
    assert [e[2] for e in frontier] == ["d"]


def test_heterogeneous_matches_homogeneous_when_optimal():
    """On a uniform backbone with S | D, free replication should do at
    least as well as forced-equal replication."""
    hom = partition_backbone(_ctx(), 2, 4)
    het = partition_backbone(_ctx(), 2, 4, heterogeneous=True)
    assert het.t_max_ms <= hom.t_max_ms + 1e-9
    assert sum(st.replicas for st in het.down) <= 4


def test_heterogeneous_uneven_devices():
    """Heterogeneous replication handles S !| D."""
    plan = partition_backbone(_ctx(), 2, 3, heterogeneous=True)
    assert plan.num_stages == 2
    assert sum(st.replicas for st in plan.down) <= 3
    # The heavier share of devices goes somewhere useful: both stages
    # keep at least one device.
    assert all(st.replicas >= 1 for st in plan.down)


def test_heterogeneous_equals_homogeneous_when_forced():
    """D = S leaves exactly one device per stage: both DPs face the same
    space and must return the same objective."""
    hom = partition_backbone(_ctx(), 2, 2)
    het = partition_backbone(_ctx(), 2, 2, heterogeneous=True)
    assert het.t_max_ms == pytest.approx(hom.t_max_ms, rel=1e-12)
    assert [st.replicas for st in het.down] == [1, 1]


def test_heterogeneous_repeated_call_bit_identical():
    db = make_synthetic_db()
    a = partition_backbone(_ctx(db), 2, 3, heterogeneous=True)
    b = partition_backbone(_ctx(db), 2, 3, heterogeneous=True)
    assert a == b  # second call reads the memoized DP table


def test_heterogeneous_cache_is_micro_batch_keyed():
    """The DP table key uses the micro-batch *size*, not (batch, M):
    sweeps with the same ratio share one table, and M only enters the
    final objective selection."""
    from repro.core import PlannerCaches

    db = make_synthetic_db()
    caches = PlannerCaches()
    partition_backbone(
        _ctx(db, batch=64, M=4), 2, 3, heterogeneous=True, caches=caches
    )
    n_tables = caches.chains.entry_count(db)
    # Same micro-batch size (32/2 == 64/4): table is reused.
    partition_backbone(
        _ctx(db, batch=32, M=2), 2, 3, heterogeneous=True, caches=caches
    )
    assert caches.chains.entry_count(db) == n_tables
    # Different micro-batch size: a new table.
    partition_backbone(
        _ctx(db, batch=64, M=2), 2, 3, heterogeneous=True, caches=caches
    )
    assert caches.chains.entry_count(db) == n_tables + 1


def test_heterogeneous_dp_prunes_dead_states():
    """The last DP stage only materialises full-chain prefixes, and no
    state exceeds the device budget or starves a remaining stage."""
    from repro.core import PlannerCaches
    from repro.core.partition import _het_frontiers

    ctx = _ctx()
    S, D, L = 3, 5, 8
    history, _ = _het_frontiers(ctx, L, S, D, PlannerCaches())
    for s in range(1, S + 1):
        for state in history[s]:
            l, d = state[0], state[1]
            assert s <= l <= L - (S - s)
            assert s <= d <= D - (S - s)
    # Last stage: only full-chain prefixes, keyed (l, d, last-stage r).
    assert all(state[0] == L for state in history[S])
    assert all(len(state) == 3 for state in history[S])


def test_heterogeneous_respects_micro_batch_floor():
    """A stage replica must see at least one sample per micro-batch:
    with micro-batch 1 the DP may not replicate any stage (larger r
    would mean unrunnable sub-sample local batches), and with
    micro-batch 3 no stage may exceed 3 replicas."""
    plan = partition_backbone(
        _ctx(batch=2, M=2), 2, 6, heterogeneous=True
    )  # micro-batch 1.0
    assert [st.replicas for st in plan.down] == [1, 1]
    plan = partition_backbone(
        _ctx(batch=6, M=2), 2, 8, heterogeneous=True
    )  # micro-batch 3.0
    assert all(st.replicas <= 3 for st in plan.down)
    assert all(plan.micro_batch / st.replicas >= 1.0 for st in plan.down)


def test_heterogeneous_sc_feedback_not_pruned():
    """Regression: the feedback term T_F depends on the *last* stage's
    replica count, so a final-stage entry dominated on (w, w_sc, y) can
    still be the optimum.  Heavy first layer + light last layer whose
    output (the feedback payload) is huge: r=(2, 1) strictly dominates
    r=(1, 2) on the frontier triple, but r=(1, 2) halves T_F and wins
    the objective.  The DP must keep both (last-stage buckets are keyed
    by r) and return the brute-force optimum."""
    import itertools

    from repro.profiling.records import LayerProfile

    def layer(i, f, b, out):
        return LayerProfile(
            component="bb", layer_index=i, layer_name=f"l{i}",
            batches=(1.0, 64.0), fwd_ms=(f / 64, f), bwd_ms=(b / 64, b),
            param_bytes=1e6, grad_bytes=1e6,
            output_bytes_per_sample=out,
            activation_bytes_per_sample=1.0, trainable=True,
        )

    from repro.profiling import ProfileDB

    db = ProfileDB([layer(0, 100.0, 200.0, 1.0), layer(1, 1.0, 2.0, 1e6)])
    ctx = PartitionContext(
        profile=db, component="bb", batch_per_group=64.0,
        num_micro_batches=1, p2p=CommCosts(bandwidth=3200.0, latency=0.0),
        allreduce=FAST_AR, self_conditioning=True,
        self_conditioning_prob=0.9,
    )
    S, D, L = 2, 3, 2
    plan = partition_backbone(ctx, S, D, heterogeneous=True)

    best = None
    for cut in itertools.combinations(range(1, L), S - 1):
        slices = list(zip((0, *cut), (*cut, L)))
        for rs in itertools.product(range(1, D + 1), repeat=S):
            if sum(rs) > D:
                continue
            w = w_sc = 0.0
            y = float("-inf")
            for (a, b), r in zip(slices, rs):
                c = StageCosts(ctx, r)
                w = max(w, c.t0(a, b))
                w_sc = max(w_sc, c.t0_sc(a, b))
                y = max(y, c.sync_gap(a, b))
            tf = StageCosts(ctx, rs[-1]).feedback_ms()
            coeff = ctx.num_micro_batches + 2 * S - 2
            p = ctx.self_conditioning_prob
            obj = p * (coeff * w_sc + y + tf) + (1 - p) * (coeff * w + y)
            if best is None or obj < best[0]:
                best = (obj, rs)

    assert plan.t_max_ms == pytest.approx(best[0], rel=1e-9)
    assert [st.replicas for st in plan.down] == list(best[1]) == [1, 2]


def test_per_replica_sync_model_resolved_in_stage_costs():
    """With an ``allreduce_by_r`` resolver, StageCosts prices Eqn. 4
    with the constants of its own replica count; without one it falls
    back to the flat pair."""
    import itertools

    ar_by_r = lambda r: CommCosts(bandwidth=1e9 * r, latency=0.2 / r)  # noqa: E731
    ctx = PartitionContext(
        profile=make_synthetic_db(), component="backbone",
        batch_per_group=64.0, num_micro_batches=4,
        p2p=FAST_P2P, allreduce=FAST_AR,
        allreduce_by_r=ar_by_r, allreduce_key=("t", 1e9, 0.2),
    )
    for r in (1, 2, 3):
        assert StageCosts(ctx, r).sync_costs == ar_by_r(r)
    flat = _ctx()
    assert StageCosts(flat, 2).sync_costs == FAST_AR
    with pytest.raises(ConfigurationError, match="allreduce_key"):
        PartitionContext(
            profile=make_synthetic_db(), component="backbone",
            batch_per_group=64.0, num_micro_batches=4,
            p2p=FAST_P2P, allreduce=FAST_AR, allreduce_by_r=ar_by_r,
        )

    # Brute force: the heterogeneous DP is optimal under the r-indexed
    # sync model (each stage's Y term uses its own constants).
    S, D = 2, 3
    L = ctx.profile.num_layers("backbone")
    plan = partition_backbone(ctx, S, D, heterogeneous=True)
    best = float("inf")
    for cut in itertools.combinations(range(1, L), S - 1):
        slices = list(zip((0, *cut), (*cut, L)))
        for rs in itertools.product(range(1, D + 1), repeat=S):
            if sum(rs) > D:
                continue
            w = 0.0
            y = float("-inf")
            for (a, b), r in zip(slices, rs):
                c = StageCosts(ctx, r)
                w = max(w, c.t0(a, b))
                y = max(y, c.sync_gap(a, b))
            coeff = ctx.num_micro_batches + 2 * S - 2
            best = min(best, coeff * w + y)
    assert plan.t_max_ms == pytest.approx(best, rel=1e-9)


def test_het_cache_keyed_by_sync_model():
    """Two contexts differing only in their sync resolver constants
    must not share a heterogeneous DP table."""
    from repro.core import PlannerCaches

    db = make_synthetic_db()
    caches = PlannerCaches()

    def ctx_with(key, scale):
        return PartitionContext(
            profile=db, component="backbone", batch_per_group=64.0,
            num_micro_batches=4, p2p=FAST_P2P, allreduce=FAST_AR,
            allreduce_by_r=lambda r: CommCosts(
                bandwidth=scale * r, latency=0.1
            ),
            allreduce_key=key,
        )

    partition_backbone(
        ctx_with(("a", 1e9), 1e9), 2, 3, heterogeneous=True, caches=caches
    )
    n = caches.chains.entry_count(db)
    # Same constants: memo hit, no new table.
    partition_backbone(
        ctx_with(("a", 1e9), 1e9), 2, 3, heterogeneous=True, caches=caches
    )
    assert caches.chains.entry_count(db) == n
    # Different resolver constants: a new table.
    partition_backbone(
        ctx_with(("a", 5e8), 5e8), 2, 3, heterogeneous=True, caches=caches
    )
    assert caches.chains.entry_count(db) == n + 1


def test_stage_costs_validation():
    with pytest.raises(ConfigurationError):
        StageCosts(_ctx(), replicas=0)
