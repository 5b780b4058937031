"""Bidirectional partitioning for cascaded diffusion models (§4.2).

Two backbones pipeline over the same device chain in opposite
directions.  Device-chain position ``k`` hosts the down backbone's stage
``k`` and the up backbone's stage ``S-1-k``, so walking the chain
forward assigns a growing *prefix* of the down backbone and a growing
*suffix* of the up backbone.  The DP state is therefore
``(down-prefix, up-suffix, positions-filled)`` with a Pareto frontier of
``(W, Y)`` values, where

    W = max over placed stages of T0 (Eqn. 10, using the 2x-enlarged
        communication of competing bidirectional transfers),
    Y = max over placed stages of T_S - T_C (Eqn. 11),

and the objective is ``(M_CDM + 2S - 2) W + Y`` (Eqn. 12) with
``M_CDM = M_down + M_up`` paired forward/backward stages in the stable
phase.

Replication comes in two flavours, mirroring the single-backbone
partitioner: the default pins every chain position to ``r = D / S``
devices (the paper's evaluation setting), while ``heterogeneous=True``
lets each position pick its own replica count — shared by the
co-located down and up stages, which live on the same devices — with
the devices-consumed count joining the DP state (the general recursion
of Eqns. 7-9 applied to the bidirectional objective).

Models with more than two backbones are split into two direction groups
whose stage chains are concatenated (§4.2's grouping rule); see
:func:`group_backbones`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, PartitionError
from ..profiling.records import ProfileDB
from ..schedule import BIDIRECTIONAL_COMM_SCALE
from .caches import PlannerCaches, default_caches
from .partition import PartitionContext, StageCosts, _LazyStageCosts
from .plan import PartitionPlan, StageAssignment


@dataclass(frozen=True)
class CDMPartitionContext:
    """Inputs for the two-backbone partitioner.

    ``down`` / ``up`` are single-backbone contexts sharing batch and
    communication constants; their ``component`` fields name the two
    backbones.  Communication inside stage costs is scaled by
    ``comm_scale`` to model link competition.

    Both contexts must agree on the micro-batch count: the bidirectional
    schedule runs ``M`` paired micro-batches per direction, and the
    objective coefficient ``M_CDM = M_down + M_up`` must describe the
    same schedule the planner simulates.
    """

    down: PartitionContext
    up: PartitionContext
    comm_scale: float = BIDIRECTIONAL_COMM_SCALE

    def __post_init__(self) -> None:
        if self.down.num_micro_batches <= 0 or self.up.num_micro_batches <= 0:
            raise ConfigurationError("micro-batch counts must be positive")
        if self.down.num_micro_batches != self.up.num_micro_batches:
            raise ConfigurationError(
                "bidirectional pipelines run equal micro-batch counts in "
                f"both directions (got down={self.down.num_micro_batches}, "
                f"up={self.up.num_micro_batches}); the schedule builder and "
                "the Eqn. 12 coefficient would otherwise disagree"
            )
        if self.comm_scale <= 0:
            raise ConfigurationError("comm_scale must be positive")
        if self.down.speed_scales != self.up.speed_scales:
            raise ConfigurationError(
                "bidirectional contexts share one device chain, so their "
                "speed_scales must be identical (got "
                f"down={self.down.speed_scales}, up={self.up.speed_scales})"
            )

    @property
    def m_cdm(self) -> int:
        """Paired forward/backward stage count of the stable phase."""
        return self.down.num_micro_batches + self.up.num_micro_batches


class _ScaledCosts(StageCosts):
    """Stage costs with the bidirectional communication enlargement."""

    def __init__(self, ctx: PartitionContext, replicas: int, comm_scale: float):
        super().__init__(ctx, replicas)
        self._comm_scale = comm_scale

    def boundary_comm_ms(self, lo: int, forwards: int = 1) -> float:
        return super().boundary_comm_ms(lo, forwards) * self._comm_scale


def _lazy_scaled_costs(ctx: PartitionContext, comm_scale: float):
    """Per-replica-count :class:`_ScaledCosts`, built on first use."""
    return _LazyStageCosts(ctx, lambda c, r: _ScaledCosts(c, r, comm_scale))


def _cut_points(n: int, cut_step: int) -> list[int]:
    """Boundary positions allowed by ``cut_step`` (chain ends always)."""
    return sorted({p for p in range(0, n + 1) if p % cut_step == 0} | {0, n})


def _min_gap(pts: list[int]) -> int:
    """Smallest positive slice the cut grid admits."""
    return min(b - a for a, b in zip(pts, pts[1:]))


def _cdm_dp_table(
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
) -> list[dict[tuple[int, int, int], tuple[tuple, ...]]]:
    """Shared DP engine for both replication flavours.

    ``frontiers[k][(a, b, d)]`` is the Pareto set of
    (W, Y, prev_a, prev_b, replicas, parent_index) after placing ``k``
    chain positions with down prefix ``a``, up suffix ``b`` and ``d``
    devices consumed.  Each position's replica count is shared by its
    co-located down and up stages — they live on the same devices.
    ``fixed_r`` pins every position to one count (uniform replication;
    the device coordinate is then deterministic); ``fixed_r=None`` lets
    each position choose ``r`` within the device budget and ``r_cap``.
    Frontiers are frozen to tuples, so the read-only contract is
    engine-enforced.

    The table is built by the vectorized
    :func:`~.partition_kernels.cdm_table_array`.  ``plans`` is an
    optional store of geometry transition plans it shares across
    adjacent stage-local batches in a sweep
    (``PlannerCaches.kernel_plans``).
    """
    from . import partition_kernels

    frontiers = partition_kernels.cdm_table_array(
        ctx, S, cut_step=cut_step, max_frontier=max_frontier,
        ld=ld, lu=lu, D=D, r_cap=r_cap, fixed_r=fixed_r, plans=plans,
    )
    return [
        {state: tuple(entries) for state, entries in stage.items()}
        for stage in frontiers
    ]


def _cdm_frontiers(
    ctx: CDMPartitionContext,
    S: int,
    r: int,
    caches: PlannerCaches,
    *,
    cut_step: int,
    max_frontier: int,
    ld: int,
    lu: int,
) -> list[dict[tuple[int, int, int], tuple[tuple, ...]]]:
    """The (memoized) uniform-replication CDM DP table.

    A :func:`_cdm_dp_table` run with every position pinned to ``r``
    replicas.  The table depends on stage costs (local batches, comm
    constants, comm scale) but not on the micro-batch counts, so it is
    keyed by the stage-local batches — two (micro-batch, r) combos
    sharing a local batch and sync constants share one table (the
    backtracker applies its caller's own ``r`` to the assignments).
    Tables live in ``caches.cdm``, keyed by the shared profile; the
    rare split-profile contexts stay uncached.
    """
    cacheable = ctx.down.profile is ctx.up.profile
    key = (
        ctx.down.component,
        ctx.up.component,
        S,
        # Stage-local batch sizes, computed exactly as StageCosts does;
        # the O(L) prefix-sum tables themselves are built only on a
        # cache miss.
        ctx.down.micro_batch / r,
        ctx.up.micro_batch / r,
        ctx.down.p2p,
        # Sync constants resolved for the uniform replica count: with a
        # per-replica-count resolver these differ across r even at one
        # stage-local batch, so the flat pair must not stand in.
        ctx.down.allreduce_for(r),
        ctx.up.p2p,
        ctx.up.allreduce_for(r),
        ctx.comm_scale,
        cut_step,
        max_frontier,
        # The bidirectional family always prices with the default mode
        # today, but the contexts carry the field, so the key does too.
        ctx.down.pricing,
        ctx.up.pricing,
        # Speed factors: position k's device window is [k*r, (k+1)*r),
        # so a scaled table depends on the tuple AND on r — two
        # (micro-batch, r) combos sharing a stage-local batch slice
        # different windows.  None keeps homogeneous keys stable.
        None if ctx.down.speed_scales is None else (r, ctx.down.speed_scales),
    )
    if cacheable:
        cached = caches.cdm.get(ctx.down.profile, key)
        if cached is not None:
            return cached
    frontiers = _cdm_dp_table(
        ctx, S, cut_step=cut_step, max_frontier=max_frontier, ld=ld, lu=lu,
        D=S * r, r_cap=r, fixed_r=r,
        plans=caches.kernel_plans,
    )
    if cacheable:
        caches.cdm.put(ctx.down.profile, key, frontiers)
    return frontiers


def _cdm_het_frontiers(
    ctx: CDMPartitionContext,
    S: int,
    D: int,
    caches: PlannerCaches,
    *,
    cut_step: int,
    max_frontier: int,
    ld: int,
    lu: int,
) -> list[dict[tuple[int, int, int], tuple[tuple, ...]]]:
    """The (memoized) heterogeneous CDM DP table (Eqns. 7-9 applied to
    the bidirectional objective).

    A :func:`_cdm_dp_table` run with free per-position replica counts.
    Like the uniform table, the frontier values depend on the per-group
    micro-batch (per-``r`` local batches are derived inside) but not on
    the micro-batch counts, which only scale the final selection.
    Tables live in ``caches.cdm_het``.
    """
    cacheable = ctx.down.profile is ctx.up.profile
    key = (
        ctx.down.component,
        ctx.up.component,
        S,
        D,
        ctx.down.micro_batch,
        ctx.up.micro_batch,
        ctx.down.p2p,
        # One table spans every replica count, so the key carries the
        # sync model's identity (the per-r resolver's constant tuple, or
        # the flat CommCosts pair), exactly like ``PlannerCaches.het``.
        ctx.down.sync_key,
        ctx.up.p2p,
        ctx.up.sync_key,
        ctx.comm_scale,
        cut_step,
        max_frontier,
        ctx.down.pricing,
        ctx.up.pricing,
        # Per-device speed factors (windows are internal DP state; D is
        # above), matching ``_het_frontiers``.
        ctx.down.speed_scales,
    )
    if cacheable:
        cached = caches.cdm_het.get(ctx.down.profile, key)
        if cached is not None:
            return cached
    # Physical feasibility: every replica of either co-located stage
    # must see at least one sample per micro-batch (the same floor the
    # single-backbone DPs enforce).  Larger r always lowers a stage's
    # modeled compute, so without this cap the DP would happily pick
    # unrunnable sub-sample local batches.
    r_cap = int(min(ctx.down.micro_batch, ctx.up.micro_batch))
    frontiers = _cdm_dp_table(
        ctx, S, cut_step=cut_step, max_frontier=max_frontier, ld=ld, lu=lu,
        D=D, r_cap=r_cap, fixed_r=None,
        plans=caches.kernel_plans,
    )
    if cacheable:
        caches.cdm_het.put(ctx.down.profile, key, frontiers)
    return frontiers


def _cdm_select_plan(
    ctx: CDMPartitionContext,
    S: int,
    D: int,
    frontiers: list[dict[tuple[int, int, int], list[tuple]]],
    ld: int,
    lu: int,
    *,
    replicas: int | None,
) -> PartitionPlan:
    """Final objective selection + backtrack over a CDM DP table.

    ``replicas`` overrides the per-position count for uniform tables —
    they may be shared across (micro-batch, r) combos with one stage-
    local batch, so the entries' own ``r`` labels the *builder's* call,
    not necessarily this one.  ``None`` keeps each entry's count
    (heterogeneous tables).
    """
    # Accept any full assignment covering both chains; devices may be
    # partially used but using all of them never hurts, so prefer d = D.
    finals = [
        (state, e)
        for state, entries in frontiers[S].items()
        if state[0] == ld and state[1] == lu
        for e in entries
    ]
    if not finals:
        flavour = "heterogeneous bidirectional" if replicas is None else (
            "bidirectional"
        )
        raise PartitionError(
            f"no feasible {flavour} partition into {S} stages on {D} devices"
        )
    coeff = ctx.m_cdm + 2 * S - 2
    best_state, best = min(
        finals,
        key=lambda se: (coeff * se[1][0] + se[1][1], se[1][0], -se[0][2]),
    )
    obj = coeff * best[0] + best[1]

    # Backtrack both chains plus the per-position replica counts.  The
    # loop walks chain positions S-1..0; down slices are collected in
    # reverse chain order, while the up slice of position S-1-j is up
    # stage j, so the up collection is already in stage order.
    down_cuts: list[tuple[int, int, int]] = []
    up_cuts: list[tuple[int, int, int]] = []
    a, b, d, entry = ld, lu, best_state[2], best
    for k in range(S, 0, -1):
        pa, pb, r = entry[2], entry[3], entry[4]
        pos_r = replicas if replicas is not None else r
        down_cuts.append((pa, a, pos_r))
        up_cuts.append((lu - b, lu - pb, pos_r))
        entry = frontiers[k - 1][(pa, pb, d - r)][entry[5]]
        a, b, d = pa, pb, d - r
    down_cuts.reverse()

    down = tuple(
        StageAssignment(ctx.down.component, lo, hi, replicas=r)
        for lo, hi, r in down_cuts
    )
    up = tuple(
        StageAssignment(ctx.up.component, lo, hi, replicas=r)
        for lo, hi, r in up_cuts
    )
    for chain in (down, up):
        for i in range(1, len(chain)):
            if chain[i].lo != chain[i - 1].hi:
                raise PartitionError(
                    "backtracking produced a non-contiguous chain"
                )
    return PartitionPlan(
        down=down,
        up=up,
        num_stages=S,
        num_micro_batches=ctx.down.num_micro_batches,
        group_size=D,
        batch_per_group=ctx.down.batch_per_group,
        t_max_ms=obj,
        w_ms=best[0],
        y_ms=best[1],
        self_conditioning=False,
    )


def partition_cdm(
    ctx: CDMPartitionContext,
    num_stages: int,
    group_size: int,
    *,
    cut_step: int = 1,
    max_frontier: int = 8,
    heterogeneous: bool = False,
    caches: PlannerCaches | None = None,
) -> PartitionPlan:
    """Optimal bidirectional partition of two backbones (Eqns. 13-16).

    With ``heterogeneous=False`` every chain position replicates on
    ``group_size / num_stages`` devices (the paper's evaluation
    setting); with ``heterogeneous=True`` each position picks its own
    replica count — shared by its co-located down and up stages — so
    non-divisible ``(S, D)`` combinations become plannable.

    ``cut_step > 1`` restricts stage boundaries to multiples of the step
    (chain ends always allowed), shrinking the O(L^2) transition space
    for long backbones at negligible quality cost on near-uniform
    chains.  ``max_frontier`` caps each state's Pareto set, keeping the
    lowest-``W`` entries (frontiers are tiny in practice; the cap is a
    worst-case guard).

    DP tables are memoized in ``caches`` (the process-wide default
    instance when ``None``).
    """
    caches = caches if caches is not None else default_caches()
    S = num_stages
    D = group_size
    if S <= 0 or D <= 0:
        raise ConfigurationError("num_stages and group_size must be positive")
    if cut_step <= 0:
        raise ConfigurationError("cut_step must be positive")
    if S > D:
        raise PartitionError(f"cannot place {S} stages on {D} devices")
    if (
        ctx.down.speed_scales is not None
        and len(ctx.down.speed_scales) != D
    ):
        raise ConfigurationError(
            f"speed_scales must carry one factor per group device "
            f"(got {len(ctx.down.speed_scales)} for group size {D})"
        )

    ld = ctx.down.profile.num_layers(ctx.down.component)
    lu = ctx.up.profile.num_layers(ctx.up.component)
    if S > ld or S > lu:
        raise PartitionError(
            f"cannot cut backbones of {ld}/{lu} layers into {S} stages"
        )

    if heterogeneous:
        frontiers = _cdm_het_frontiers(
            ctx, S, D, caches, cut_step=cut_step, max_frontier=max_frontier,
            ld=ld, lu=lu,
        )
        return _cdm_select_plan(
            ctx, S, D, frontiers, ld, lu, replicas=None
        )

    if D % S != 0:
        raise PartitionError(
            f"uniform CDM replication needs S | D (got S={S}, D={D}); "
            "use heterogeneous=True otherwise"
        )
    r = D // S
    if ctx.down.micro_batch < r or ctx.up.micro_batch < r:
        # Same per-replica sample floor the heterogeneous DP enforces
        # (r_cap), keeping the het-CDM <= uniform-CDM invariant exact.
        raise PartitionError(
            f"uniform replication r={r} needs at least {r} samples per "
            f"micro-batch in both directions (got "
            f"{ctx.down.micro_batch:g}/{ctx.up.micro_batch:g})"
        )
    frontiers = _cdm_frontiers(
        ctx, S, r, caches, cut_step=cut_step, max_frontier=max_frontier,
        ld=ld, lu=lu,
    )
    return _cdm_select_plan(ctx, S, D, frontiers, ld, lu, replicas=r)


def group_backbones(
    profile: ProfileDB, backbones: list[str], batch: float
) -> tuple[list[str], list[str]]:
    """Split >2 backbones into two direction groups (§4.2).

    Groups are balanced greedily by total forward+backward time so the
    two concatenated chains have similar load (longest-processing-time
    heuristic).  Returns (down group, up group), each in cascade order.
    """
    if len(backbones) < 2:
        raise ConfigurationError("grouping needs at least two backbones")
    weights = {
        name: profile.component_train_ms(name, batch) for name in backbones
    }
    down: list[str] = []
    up: list[str] = []
    down_w = up_w = 0.0
    for name in sorted(backbones, key=lambda n: -weights[n]):
        if down_w <= up_w:
            down.append(name)
            down_w += weights[name]
        else:
            up.append(name)
            up_w += weights[name]
    # Restore cascade order within each group.
    order = {name: i for i, name in enumerate(backbones)}
    down.sort(key=order.__getitem__)
    up.sort(key=order.__getitem__)
    return down, up
