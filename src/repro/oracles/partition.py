"""Pure-Python oracles of the partition DP table builders.

The vectorized kernels of :mod:`repro.core.partition_kernels` promise
tables bit-identical to these recursions: same ``max``/``+``
compositions, same tie-breaking, same entry order.  Each oracle takes
the arguments of the array builder it checks, so a test can substitute
it at the production call site (``partition_kernels.<name>``) and run
the whole partitioner — memo wrappers, selection, backtracking — on
the oracle's table.
"""

from __future__ import annotations

from ..core.partition import (
    PartitionContext,
    StageCosts,
    _LazyStageCosts,
    pareto_insert,
)
from ..core.partition_cdm import (
    CDMPartitionContext,
    _cut_points,
    _lazy_scaled_costs,
    _min_gap,
)


def chain_table_reference(
    ctx: PartitionContext, r: int, L: int, S: int
) -> tuple[list[list[list[tuple]]], float]:
    """The uniform-replication recursion in its own (layers, stages)
    shape: ``history[s][l]`` lists ``(w, w_sc, y, cut, parent)``.

    An independent oracle of
    :func:`~repro.core.partition_kernels.het_table_array` with
    ``fixed_r=r``, whose ``history[s][(l, s * r)]`` must reproduce
    ``history[s][l]`` (the last stage only at ``l = L``)."""
    costs = StageCosts(ctx, r)
    scaled = ctx.speed_scales is not None
    comp_scale = ctx.comp_scale
    prev: list[list[tuple]] = [[] for _ in range(L + 1)]
    prev[0] = [(0.0, 0.0, float("-inf"), -1, -1)]
    history: list[list[list[tuple]]] = [prev]

    for s in range(1, S + 1):
        cur: list[list[tuple]] = [[] for _ in range(L + 1)]
        # Stage s (1-based) replicates on the group-local device window
        # [(s-1)r, sr); its compute runs at the window's bottleneck pace.
        sigma = ctx.window_scale((s - 1) * r, r) if scaled else 1.0
        # A prefix of l layers in s stages needs l >= s and leaves at
        # least S - s layers for the remaining stages.
        for l in range(s, L - (S - s) + 1):
            frontier: list[tuple] = []
            for c in range(s - 1, l):
                parents = prev[c]
                if not parents:
                    continue
                if scaled:
                    t0 = costs.t0_scaled(c, l, sigma)
                    if ctx.self_conditioning:
                        t0_sc = costs.t0_sc_scaled(c, l, sigma)
                    elif ctx.zb_pricing:
                        t0_sc = costs.t0_ramp_scaled(c, l, sigma)
                    else:
                        t0_sc = t0
                    gap = costs.sync_gap_scaled(c, l, comp_scale)
                else:
                    t0 = costs.t0(c, l)
                    if ctx.self_conditioning:
                        t0_sc = costs.t0_sc(c, l)
                    elif ctx.zb_pricing:
                        # The second coordinate carries the split-backward
                        # ramp bound (see _objective); dominance over the
                        # triple is still a monotone max-composition.
                        t0_sc = costs.t0_ramp(c, l)
                    else:
                        t0_sc = t0
                    gap = costs.sync_gap(c, l)
                for pi, parent in enumerate(parents):
                    pw, pwsc, py = parent[0], parent[1], parent[2]
                    cand = (
                        max(pw, t0),
                        max(pwsc, t0_sc),
                        max(py, gap),
                        c,
                        pi,
                    )
                    pareto_insert(frontier, cand, 3)
            cur[l] = frontier
        history.append(cur)
        prev = cur

    # Feedback time computed while the StageCosts are warm: the final
    # selection would otherwise rebuild the O(L) prefix sums on every
    # warm-path call just for this one value.
    tf = costs.feedback_ms() if ctx.self_conditioning else 0.0
    return history, tf


def het_table_reference(
    ctx: PartitionContext, L: int, S: int, D: int, fixed_r: int | None = None
) -> tuple[list[dict[tuple, list[tuple]]], dict[int, float]]:
    """Oracle of :func:`~repro.core.partition_kernels.het_table_array`
    (``fixed_r`` pins every stage's replica count, with
    ``D = S * fixed_r``)."""
    costs_for = _LazyStageCosts(ctx)
    scaled = ctx.speed_scales is not None
    comp_scale = ctx.comp_scale
    #: per-(r, lo, hi, window-scale) segment costs — distinct parent
    #: states reach the same stage slice (and, under mixed speeds, equal
    #: window factors), so the interpolation work is shared.
    seg: dict[tuple, tuple[float, float, float]] = {}
    # Physical feasibility: every stage replica must see at least one
    # sample per micro-batch (the homogeneous sweep enforces the same
    # floor via its r = D/S guard).  Larger r always lowers a stage's
    # modeled compute, so without this cap the DP would happily pick
    # unrunnable sub-sample local batches.
    r_cap = int(ctx.micro_batch)

    # history[s][(l, d)] -> frontier entries (w, w_sc, y, cut, r, parent)
    history: list[dict[tuple[int, int], list[tuple]]] = [
        {(0, 0): [(0.0, 0.0, float("-inf"), -1, 0, -1)]}
    ]
    for s in range(1, S + 1):
        cur: dict[tuple[int, int], list[tuple]] = {}
        stages_left = S - s
        for (pl, pd), parents in history[s - 1].items():
            if fixed_r is not None:
                r_values = (fixed_r,)
            else:
                # Device-count pruning: every remaining stage needs at
                # least one device, so replica counts beyond ``D - pd -
                # stages_left`` lead to unreachable states and are never
                # generated (nor their StageCosts built).
                max_r = min(D - pd - stages_left, r_cap)
                if max_r <= 0:
                    continue
                r_values = range(1, max_r + 1)
            if stages_left:
                # Leave at least one layer per remaining stage.
                l_values = range(pl + 1, L - stages_left + 1)
            else:
                # Last stage: only the full-chain prefix can become a
                # feasible plan; partial prefixes are dead states.
                l_values = (L,)
            for l in l_values:
                for r in r_values:
                    # The stage would occupy the group-local window
                    # [pd, pd+r); under mixed speeds its compute runs at
                    # the window's bottleneck factor, which joins the
                    # memo key (equal windows still share).
                    w = ctx.window_scale(pd, r)
                    seg_key = (r, pl, l, w)
                    vals = seg.get(seg_key)
                    if vals is None:
                        costs = costs_for(r)
                        if scaled:
                            t0 = costs.t0_scaled(pl, l, w)
                            if ctx.self_conditioning:
                                t0_sc = costs.t0_sc_scaled(pl, l, w)
                            elif ctx.zb_pricing:
                                t0_sc = costs.t0_ramp_scaled(pl, l, w)
                            else:
                                t0_sc = t0
                            gap = costs.sync_gap_scaled(pl, l, comp_scale)
                        else:
                            t0 = costs.t0(pl, l)
                            if ctx.self_conditioning:
                                t0_sc = costs.t0_sc(pl, l)
                            elif ctx.zb_pricing:
                                t0_sc = costs.t0_ramp(pl, l)
                            else:
                                t0_sc = t0
                            gap = costs.sync_gap(pl, l)
                        vals = seg[seg_key] = (t0, t0_sc, gap)
                    t0, t0_sc, gap = vals
                    # Last-stage buckets are additionally keyed by the
                    # stage's own replica count: the feedback term T_F
                    # (§4.3) depends on the *last* stage's r, so entries
                    # that differ only there are incomparable under the
                    # (w, w_sc, y) dominance test and must not prune
                    # each other.  (A pinned r is the same everywhere.)
                    if stages_left == 0 and fixed_r is None:
                        state = (l, pd + r, r)
                    else:
                        state = (l, pd + r)
                    frontier = cur.setdefault(state, [])
                    for pi, parent in enumerate(parents):
                        cand = (
                            max(parent[0], t0),
                            max(parent[1], t0_sc),
                            max(parent[2], gap),
                            pl,
                            r,
                            pi,
                        )
                        pareto_insert(frontier, cand, 3)
        history.append(cur)

    # Feedback times for every last-stage replica count, computed here
    # while the StageCosts are still warm (the final selection would
    # otherwise rebuild the O(L) prefix sums on every cold table).
    tf_by_r: dict[int, float] = {}
    if ctx.self_conditioning:
        for entries in history[S].values():
            r = entries[0][4]
            if r not in tf_by_r:
                tf_by_r[r] = costs_for(r).feedback_ms()

    return history, tf_by_r


def _seg_eval(costs_for, comp_scale: float | None = None):
    """Lazy per-``(r, lo, hi, window-scale)`` segment ``(t0, sync_gap)``
    memo; a window scale ``w`` (``None`` on homogeneous groups) routes
    the slice through the speed-scaled bounds."""
    memo: dict[tuple, tuple[float, float]] = {}

    def get(r: int, lo: int, hi: int, w: float | None = None):
        key = (r, lo, hi, w)
        v = memo.get(key)
        if v is None:
            costs = costs_for(r)
            if w is None:
                v = memo[key] = (costs.t0(lo, hi), costs.sync_gap(lo, hi))
            else:
                v = memo[key] = (
                    costs.t0_scaled(lo, hi, w),
                    costs.sync_gap_scaled(lo, hi, comp_scale),
                )
        return v

    return get


def cdm_table_reference(
    ctx: CDMPartitionContext,
    S: int,
    *,
    cut_step: int,
    max_frontier: int,
    ld: int,
    lu: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
    plans=None,
) -> list[dict[tuple[int, int, int], list[tuple]]]:
    """Oracle of :func:`~repro.core.partition_kernels.cdm_table_array`
    (``plans``, the array engine's geometry store, is accepted and
    ignored so the two are call-compatible)."""
    scaled = ctx.down.speed_scales is not None
    comp_scale = ctx.down.comp_scale
    eval_d = _seg_eval(_lazy_scaled_costs(ctx.down, ctx.comm_scale), comp_scale)
    eval_u = _seg_eval(_lazy_scaled_costs(ctx.up, ctx.comm_scale), comp_scale)

    cuts_d = _cut_points(ld, cut_step)
    # Up-backbone boundaries are addressed as suffix lengths ``b``; the
    # layer positions they induce are ``lu - b``.
    cuts_u = _cut_points(lu, cut_step)
    pts_u = sorted({lu - b for b in cuts_u})

    # Feasibility bounds from the cut grid: every stage covers at least
    # one inter-cut gap, so no slice in a completable partition exceeds
    # ``L - (S-1) * min-gap`` and a prefix must leave the remaining
    # positions ``remaining * min-gap`` layers of room.  States outside
    # these bounds can never reach full coverage; pruning them shrinks
    # the quadratic transition space without changing any reachable
    # final frontier.
    gap_d = _min_gap(cuts_d)
    gap_u = _min_gap(pts_u)
    max_len_d = ld - (S - 1) * gap_d
    max_len_u = lu - (S - 1) * gap_u

    frontiers: list[dict[tuple[int, int, int], list[tuple]]] = [
        {(0, 0, 0): [(0.0, float("-inf"), -1, -1, 0, -1)]}
    ]
    for k in range(1, S + 1):
        cur: dict[tuple[int, int, int], list[tuple]] = {}
        remaining = S - k
        room_d = ld - remaining * gap_d
        room_u = lu - remaining * gap_u
        for (pa, pb, pd), parents in frontiers[k - 1].items():
            if fixed_r is not None:
                r_iter = (fixed_r,)
            else:
                # Device-count pruning: every remaining position needs
                # at least one device, so replica counts beyond
                # ``D - pd - remaining`` lead to unreachable states and
                # are never generated (nor their prefix sums built).
                max_r = min(D - pd - remaining, r_cap)
                if max_r <= 0:
                    continue
                r_iter = range(1, max_r + 1)
            # Down stage k-1 covers [pa, a); up stage S-k covers
            # [lu - b, lu - pb).
            if remaining:
                hi_a = min(room_d, pa + max_len_d)
                hi_b = min(room_u, pb + max_len_u)
                a_iter = [a for a in cuts_d if pa < a <= hi_a]
                b_iter = [b for b in cuts_u if pb < b <= hi_b]
            else:
                # Last position: only full-coverage states can become a
                # feasible plan; partial pairs are dead states.
                a_iter = (ld,)
                b_iter = (lu,)
            for a in a_iter:
                for r in r_iter:
                    # Position k-1 occupies the device window
                    # [pd, pd+r); its down AND up stage are co-located
                    # there, so one bottleneck factor scales both.
                    w = ctx.down.window_scale(pd, r) if scaled else None
                    td, gd = eval_d(r, pa, a, w)
                    for b in b_iter:
                        tu, gu = eval_u(r, lu - b, lu - pb, w)
                        w_stage = max(td, tu)
                        y_stage = max(gd, gu)
                        skey = (a, b, pd + r)
                        frontier = cur.setdefault(skey, [])
                        for pi, parent in enumerate(parents):
                            cand = (
                                max(parent[0], w_stage),
                                max(parent[1], y_stage),
                                pa,
                                pb,
                                r,
                                pi,
                            )
                            pareto_insert(frontier, cand, 2)
                        if len(frontier) > max_frontier:
                            frontier.sort(key=lambda e: (e[0], e[1]))
                            del frontier[max_frontier:]
        frontiers.append(cur)
    return frontiers
