"""Differential tests of the array DP kernels against their oracles.

The vectorized table builders of :mod:`repro.core.partition_kernels`
promise *bit-identical* outputs to the pure-Python recursions of
:mod:`repro.oracles` they replaced — same max/+ compositions, same
associativity, same tie-breaking, exact float equality.  This suite fuzzes (L, S, D, layer
costs) with hypothesis and compares the full frontier tables, the
feedback times and the backtracked plans across all three pricing
modes (default, self-conditioning, zero-bubble) and both CDM flavours
(uniform ``fixed_r`` and heterogeneous), plus the capped-fold replay
engine in isolation.  Comparisons are exact: every float is checked by
``.hex()``, entry order included.  The oracle tables are built through
the production memo wrappers with the oracle substituted at the
builder's call site (``reference_dp_tables``), so wrapper freezing and
backtracking are exercised on both sides.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.collectives import CommCosts
from repro.core.caches import PlannerCaches
from repro.core.partition import (
    PartitionContext,
    _chain_frontiers,
    _het_frontiers,
    partition_backbone,
)
from repro.core.partition_cdm import (
    CDMPartitionContext,
    _cdm_frontiers,
    _cdm_het_frontiers,
    partition_cdm,
)
from repro.core import partition_kernels as pk
from repro.profiling import ProfileDB

from .conftest import reference_dp_tables

FAST = CommCosts(bandwidth=6e8, latency=0.005)

layer_times = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=100.0),
    ),
    min_size=4,
    max_size=10,
)

#: (self_conditioning, pricing) — the three table flavours of the
#: single-backbone DPs
PRICINGS = [(False, "default"), (True, "default"), (False, "zerobubble")]


def _ctx(times, sc=False, pricing="default", M=2):
    db = ProfileDB.from_layer_times(
        {"bb": list(times)}, batches=(1.0, 64.0), trainable={"bb": True}
    )
    return PartitionContext(
        profile=db, component="bb", batch_per_group=64.0,
        num_micro_batches=M, p2p=FAST, allreduce=FAST,
        self_conditioning=sc, pricing=pricing,
    )


def _assert_cells_identical(ref_cell, arr_cell, where):
    assert len(ref_cell) == len(arr_cell), where
    for e_ref, e_arr in zip(ref_cell, arr_cell):
        assert len(e_ref) == len(e_arr), where
        for v_ref, v_arr in zip(e_ref, e_arr):
            if isinstance(v_ref, float):
                assert float(v_ref).hex() == float(v_arr).hex(), (
                    where, e_ref, e_arr,
                )
            else:
                assert v_ref == v_arr, (where, e_ref, e_arr)


def _assert_chain_identical(h_ref, h_arr):
    assert len(h_ref) == len(h_arr)
    for s, (row_ref, row_arr) in enumerate(zip(h_ref, h_arr)):
        assert len(row_ref) == len(row_arr)
        for l, (c_ref, c_arr) in enumerate(zip(row_ref, row_arr)):
            _assert_cells_identical(c_ref, c_arr, (s, l))


def _assert_dicts_identical(h_ref, h_arr):
    assert len(h_ref) == len(h_arr)
    for s, (d_ref, d_arr) in enumerate(zip(h_ref, h_arr)):
        # Key *order* matters: downstream selection iterates the dicts.
        assert list(d_ref.keys()) == list(d_arr.keys()), s
        for k in d_ref:
            _assert_cells_identical(d_ref[k], d_arr[k], (s, k))


# ---------------------------------------------------------------------------
# Chain DP
# ---------------------------------------------------------------------------


@given(
    layer_times,
    st.integers(min_value=2, max_value=4),
    st.sampled_from(PRICINGS),
)
@settings(max_examples=40, deadline=None)
def test_chain_table_differential(times, S, mode):
    if S > len(times):
        return
    sc, pricing = mode
    ctx = _ctx(times, sc=sc, pricing=pricing)
    L = len(times)
    with reference_dp_tables():
        h_ref, tf_ref = _chain_frontiers(ctx, 2, L, S, PlannerCaches())
    h_arr, tf_arr = _chain_frontiers(ctx, 2, L, S, PlannerCaches())
    assert float(tf_ref).hex() == float(tf_arr).hex()
    _assert_chain_identical(h_ref, h_arr)


@given(layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_chain_backtracked_plan_differential(times, S):
    if S > len(times):
        return
    ctx = _ctx(times)
    with reference_dp_tables():
        ref = partition_backbone(ctx, S, S, caches=PlannerCaches())
    arr = partition_backbone(ctx, S, S, caches=PlannerCaches())
    assert ref == arr
    assert float(ref.t_max_ms).hex() == float(arr.t_max_ms).hex()
    assert float(ref.w_ms).hex() == float(arr.w_ms).hex()


# ---------------------------------------------------------------------------
# Heterogeneous 1F1B DP
# ---------------------------------------------------------------------------


@given(
    layer_times,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(PRICINGS),
)
@settings(max_examples=40, deadline=None)
def test_het_table_differential(times, S, extra, mode):
    if S > len(times):
        return
    sc, pricing = mode
    D = S + extra  # covers divisible and non-divisible device counts
    ctx = _ctx(times, sc=sc, pricing=pricing)
    L = len(times)
    with reference_dp_tables():
        h_ref, tf_ref = _het_frontiers(ctx, L, S, D, PlannerCaches())
    h_arr, tf_arr = _het_frontiers(ctx, L, S, D, PlannerCaches())
    assert set(tf_ref) == set(tf_arr)
    for r in tf_ref:
        assert float(tf_ref[r]).hex() == float(tf_arr[r]).hex()
    _assert_dicts_identical(h_ref, h_arr)


@given(layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_het_backtracked_plan_differential(times, S):
    if S > len(times):
        return
    ctx = _ctx(times)
    D = S + 1
    with reference_dp_tables():
        ref = partition_backbone(
            ctx, S, D, heterogeneous=True, caches=PlannerCaches()
        )
    arr = partition_backbone(
        ctx, S, D, heterogeneous=True, caches=PlannerCaches()
    )
    assert ref == arr
    assert float(ref.t_max_ms).hex() == float(arr.t_max_ms).hex()


# ---------------------------------------------------------------------------
# CDM DP, both flavours
# ---------------------------------------------------------------------------


def _cdm_ctx(down_times, up_times, M=2):
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
    st.sampled_from([1, 2]),
    st.sampled_from([2, 8]),
)
@settings(max_examples=30, deadline=None)
def test_cdm_uniform_table_differential(dts, uts, S, cut_step, mf):
    if S > min(len(dts), len(uts)):
        return
    ctx = _cdm_ctx(dts, uts)
    ld, lu = len(dts), len(uts)
    with reference_dp_tables():
        f_ref = _cdm_frontiers(
            ctx, S, 2, PlannerCaches(), cut_step=cut_step, max_frontier=mf,
            ld=ld, lu=lu,
        )
    f_arr = _cdm_frontiers(
        ctx, S, 2, PlannerCaches(), cut_step=cut_step, max_frontier=mf,
        ld=ld, lu=lu,
    )
    _assert_dicts_identical(f_ref, f_arr)


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2]),
    st.sampled_from([2, 8]),
)
@settings(max_examples=30, deadline=None)
def test_cdm_het_table_differential(dts, uts, S, extra, cut_step, mf):
    if S > min(len(dts), len(uts)):
        return
    ctx = _cdm_ctx(dts, uts)
    ld, lu = len(dts), len(uts)
    D = S + extra
    with reference_dp_tables():
        f_ref = _cdm_het_frontiers(
            ctx, S, D, PlannerCaches(), cut_step=cut_step, max_frontier=mf,
            ld=ld, lu=lu,
        )
    f_arr = _cdm_het_frontiers(
        ctx, S, D, PlannerCaches(), cut_step=cut_step, max_frontier=mf,
        ld=ld, lu=lu,
    )
    _assert_dicts_identical(f_ref, f_arr)


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_cdm_backtracked_plan_differential(dts, uts, S, het):
    if S > min(len(dts), len(uts)):
        return
    ctx = _cdm_ctx(dts, uts)
    D = S + 1 if het else S * 2
    with reference_dp_tables():
        ref = partition_cdm(
            ctx, S, D, heterogeneous=het, caches=PlannerCaches()
        )
    arr = partition_cdm(ctx, S, D, heterogeneous=het, caches=PlannerCaches())
    assert ref == arr
    assert float(ref.t_max_ms).hex() == float(arr.t_max_ms).hex()


# ---------------------------------------------------------------------------
# Capped-fold replay engine
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_fold_matches_reference(seed, n_targets, max_batches,
                                         cap, force_lockstep):
    """``_lockstep_fold`` replays the capped fold bit-identically to
    ``_fold_reference`` for every target, on both sides of its hybrid
    cost-model split (forced all-lockstep vs the default, which sends
    small instances to the python fold)."""
    rng = random.Random(seed)
    w, y, bidx, pil, seg_of = [], [], [], [], []
    per_target = []
    gb = 0
    for t in range(n_targets):
        rows, batches = [], []
        arrivals = 0
        for _ in range(rng.randint(1, max_batches)):
            for _ in range(rng.randint(1, 5)):
                # Continuous draws: candidate values are a.s. distinct,
                # matching the production stream (the upstream Pareto
                # screen never emits equal-valued same-batch mates).
                w.append(rng.random() * 100)
                y.append(rng.random() * 100)
                bidx.append(gb)
                pil.append(arrivals)
                seg_of.append(t)
                rows.append((w[-1], y[-1], len(w) - 1))
                batches.append(gb)
                arrivals += 1
            gb += 1
        per_target.append((rows, batches))
    saved = pk._REPLAY_ROUND_COST
    try:
        if force_lockstep:
            # Zero round cost pushes the hybrid split to all-lockstep;
            # the default constants send instances this small to the
            # python fold, so both replay paths get exercised.
            pk._REPLAY_ROUND_COST = 0.0
        scnt, idx = pk._lockstep_fold(
            np.array(w), np.array(y),
            np.array(bidx, dtype=np.int64), np.array(pil, dtype=np.int64),
            np.array(seg_of, dtype=np.int64),
            np.ones(len(w), dtype=bool),
            np.arange(n_targets, dtype=np.int64),
            cap,
        )
    finally:
        pk._REPLAY_ROUND_COST = saved
    for t, (rows, batches) in enumerate(per_target):
        expect = pk._fold_reference(rows, batches, cap)
        got = idx[t, : scnt[t]].tolist()
        assert got == [e[2] for e in expect], t


# ---------------------------------------------------------------------------
# Cached tables are immutable against caller-side mutation
# ---------------------------------------------------------------------------


def test_cached_chain_table_survives_caller_mutation():
    """The memo wrappers freeze frontier cells to tuples: a caller that
    takes a local copy of a frontier and mutates it cannot corrupt the
    cached table (the regression behind the docstring's read-only
    contract)."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    ctx = _ctx(times)
    caches = PlannerCaches()
    h1, tf1 = _chain_frontiers(ctx, 2, 5, 3, caches)
    snapshot = [
        [[tuple(e) for e in cell] for cell in row] for row in h1
    ]
    # Cells are frozen: in-place mutation is impossible.
    assert all(isinstance(cell, tuple) for row in h1 for cell in row)
    with pytest.raises((TypeError, AttributeError)):
        h1[3][5] += (("junk",),)  # tuples reject in-place concat on rows
    # A caller working on a local copy mutates only the copy.
    local = [list(row) for row in h1]
    local[3] = [()] * len(local[3])
    h2, tf2 = _chain_frontiers(ctx, 2, 5, 3, caches)
    assert tf2 == tf1
    assert [
        [[tuple(e) for e in cell] for cell in row] for row in h2
    ] == snapshot


def test_cached_het_and_cdm_tables_survive_caller_mutation():
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0)]
    ctx = _ctx(times)
    caches = PlannerCaches()
    h1, _ = _het_frontiers(ctx, 4, 2, 3, caches)
    key = next(iter(h1[1]))
    snapshot = [tuple(e) for e in h1[1][key]]
    assert isinstance(h1[1][key], tuple)
    local = dict(h1[1])
    local[key] = ()
    h2, _ = _het_frontiers(ctx, 4, 2, 3, caches)
    assert [tuple(e) for e in h2[1][key]] == snapshot

    cctx = _cdm_ctx(times, times)
    f1 = _cdm_frontiers(
        cctx, 2, 2, caches, cut_step=1, max_frontier=4, ld=4, lu=4
    )
    key = next(iter(f1[1]))
    snapshot = [tuple(e) for e in f1[1][key]]
    assert isinstance(f1[1][key], tuple)
    local = dict(f1[1])
    local[key] = ()
    f2 = _cdm_frontiers(
        cctx, 2, 2, caches, cut_step=1, max_frontier=4, ld=4, lu=4
    )
    assert [tuple(e) for e in f2[1][key]] == snapshot


# ---------------------------------------------------------------------------
# Cut-grid plan reuse across stage-local batches
# ---------------------------------------------------------------------------


def test_cdm_plan_reused_across_adjacent_batches():
    """Within a sweep, adjacent stage-local batches share the CDM cut
    grid: the geometry/transition plan is built once and re-scaled with
    each batch's cost slabs instead of rebuilt (``caches.kernel_plans``
    is keyed on geometry only, never on batch sizes)."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    caches = PlannerCaches()
    results = []
    for batch in (64.0, 32.0):
        db = ProfileDB.from_layer_times(
            {"down": times, "up": times},
            batches=(1.0, 64.0),
            trainable={"down": True, "up": True},
        )
        mk = lambda comp: PartitionContext(  # noqa: E731
            profile=db, component=comp, batch_per_group=batch,
            num_micro_batches=2, p2p=FAST, allreduce=FAST,
        )
        cctx = CDMPartitionContext(down=mk("down"), up=mk("up"))
        results.append(
            _cdm_frontiers(
                cctx, 2, 2, caches, cut_step=1, max_frontier=4,
                ld=5, lu=5,
            )
        )
    # One plan build (miss), one warm reuse: the second batch's table
    # came from re-scaled cost slabs over the shared plan arrays.
    assert caches.kernel_plans.misses == 1
    assert caches.kernel_plans.hits >= 1
    # And the warm-plan table is still bit-identical to the oracle.
    db = ProfileDB.from_layer_times(
        {"down": times, "up": times},
        batches=(1.0, 64.0),
        trainable={"down": True, "up": True},
    )
    mk = lambda comp: PartitionContext(  # noqa: E731
        profile=db, component=comp, batch_per_group=32.0,
        num_micro_batches=2, p2p=FAST, allreduce=FAST,
    )
    cctx = CDMPartitionContext(down=mk("down"), up=mk("up"))
    with reference_dp_tables():
        f_ref = _cdm_frontiers(
            cctx, 2, 2, PlannerCaches(), cut_step=1, max_frontier=4,
            ld=5, lu=5,
        )
    _assert_dicts_identical(f_ref, results[1])
