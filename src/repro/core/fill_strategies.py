"""Pluggable bubble-filling strategies (§5) behind a named registry.

The seed implementation hard-wired one policy: fill bubbles
chronologically, choosing per bubble the longest-running candidate
(Algorithms 1+2).  That policy is now one entry — ``greedy`` — of a
registry of :class:`FillStrategy` implementations, so filling policies
can be ablated the same way Fig. 15 ablates the partial-batch rule:

``greedy``
    The paper's myopic per-bubble choice, bit-identical to the seed.
``lookahead``
    Plans *across* bubbles: a forward DP over component-chain states
    that finds trades the greedy misses — e.g. holding a short layer
    back so it can ride the next, wider bubble together with its
    successor.  The production search: dominance pruning of beam
    states, shape-keyed reuse of expansion tables / beam prefixes /
    final plans across planner evaluations, and an adaptive beam that
    runs narrow except at decision points.  Never worse than
    ``greedy``: the greedy trajectory is evaluated as a candidate plan
    and replaces the beam's whenever it is strictly better (on a
    leftover tie the beam plan, which maximised filled device-time, is
    kept).  The differential suite holds it bit-identical to its
    unpruned oracle, :class:`repro.oracles.LookaheadReferenceFill`.
``none``
    Fills nothing; the whole non-trainable part runs after the flush.
    The filling-path twin of the Fig. 15 "bubble filling disabled"
    ablation (which bypasses the filler entirely).

Strategies receive the :class:`~repro.core.filling.BubbleFiller` (which
owns the model DAG, the profile, the partial-batch knobs and the
component states) plus the bubble list, and return a complete
:class:`~repro.core.plan.FillReport` including per-bubble utilization
and dropped-candidate accounting.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from ..errors import FillingError
from .bubbles import Bubble
from .plan import BubbleUtilization, FillItem, FillReport
from .filling import (
    BubbleFill,
    ComponentState,
    _Candidate,
    _candidate_items,
    apply_fill,
    fill_one_bubble,
    full_batch_candidates,
    prefix_times_raw,
    valid_partial_samples,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .filling import BubbleFiller


class FillStrategy(Protocol):
    """A bubble-filling policy: consumes the filler's component states,
    produces the complete fill report."""

    name: str

    def fill(
        self,
        filler: "BubbleFiller",
        bubbles: Sequence[Bubble],
        leftover_devices: int,
    ) -> FillReport:
        ...  # pragma: no cover - protocol


FILL_STRATEGIES: dict[str, Callable[[], FillStrategy]] = {}


def register_fill_strategy(name: str):
    """Class decorator adding a strategy factory under ``name``."""

    def deco(cls):
        FILL_STRATEGIES[name] = cls
        return cls

    return deco


def get_fill_strategy(name: str) -> FillStrategy:
    """Instantiate the strategy registered under ``name``."""
    factory = FILL_STRATEGIES.get(name)
    if factory is None:
        raise FillingError(
            f"unknown fill strategy {name!r}; "
            f"registered: {fill_strategy_names()}"
        )
    return factory()


def fill_strategy_names() -> tuple[str, ...]:
    """Registered strategy names, sorted (CLI choices, docs)."""
    return tuple(sorted(FILL_STRATEGIES))


def _chronological(bubbles: Sequence[Bubble]) -> list[tuple[int, Bubble]]:
    return sorted(enumerate(bubbles), key=lambda ib: ib[1].start)


def _utilization(index: int, bubble: Bubble, filled_ms: float) -> BubbleUtilization:
    return BubbleUtilization(
        bubble_index=index,
        duration_ms=bubble.duration,
        weight=bubble.weight,
        filled_ms=filled_ms,
    )


# ---------------------------------------------------------------------------
# none
# ---------------------------------------------------------------------------


@register_fill_strategy("none")
class NoneFill:
    """Fill nothing: every bubble stays idle, all NT work is leftover."""

    name = "none"

    def fill(
        self,
        filler: "BubbleFiller",
        bubbles: Sequence[Bubble],
        leftover_devices: int,
    ) -> FillReport:
        per_bubble = [_utilization(i, b, 0.0) for i, b in _chronological(bubbles)]
        return filler.build_report(
            bubbles, (), 0.0, leftover_devices, per_bubble=per_bubble
        )


# ---------------------------------------------------------------------------
# greedy (Algorithms 1 + 2)
# ---------------------------------------------------------------------------


@register_fill_strategy("greedy")
class GreedyFill:
    """The paper's policy: bubbles chronologically, per bubble the
    longest-running candidate (bit-identical to the seed implementation).
    """

    name = "greedy"

    def fill(
        self,
        filler: "BubbleFiller",
        bubbles: Sequence[Bubble],
        leftover_devices: int,
    ) -> FillReport:
        all_items: list[FillItem] = []
        per_bubble: list[BubbleUtilization] = []
        filled_device_time = 0.0
        dropped = 0
        for index, bubble in _chronological(bubbles):
            ready = filler.ready_components()
            if not ready:
                if all(s.done for s in filler.states.values()):
                    break
                per_bubble.append(_utilization(index, bubble, 0.0))
                continue
            fill = fill_one_bubble(
                filler.profile,
                ready,
                bubble,
                index,
                enable_partial_batch=filler.enable_partial_batch,
                partial_batch_menu=filler.partial_batch_menu,
                max_candidates=filler.max_candidates,
                store=filler.caches.prefixes,
            )
            dropped += fill.candidates_dropped
            per_bubble.append(_utilization(index, bubble, fill.time_ms))
            if not fill.items:
                continue
            apply_fill(filler.states, fill)
            all_items.extend(fill.items)
            filled_device_time += fill.time_ms * bubble.weight
        # Bubbles skipped by the early all-done break still get a
        # zero-utilization entry, so every strategy reports exactly one
        # entry per bubble.
        seen = {u.bubble_index for u in per_bubble}
        for index, bubble in _chronological(bubbles):
            if index not in seen:
                per_bubble.append(_utilization(index, bubble, 0.0))
        return filler.build_report(
            bubbles,
            all_items,
            filled_device_time,
            leftover_devices,
            candidates_dropped=dropped,
            per_bubble=per_bubble,
        )


# ---------------------------------------------------------------------------
# lookahead (cross-bubble DP / beam search)
# ---------------------------------------------------------------------------


#: a component-chain state: per-component (next_layer, remaining)
_StateKey = tuple[tuple[int, float], ...]


def _state_dominates(a: _StateKey, b: _StateKey) -> bool:
    """Componentwise search-state dominance.

    ``a`` dominates ``b`` when every component of ``a`` is at least as
    far along: a strictly later head layer, or the same head layer with
    no more fresh-head samples remaining.  Comparing the fresh-head
    remaining is what makes the relation safe — two states at the same
    ``next_layer`` vector can still differ in how much of each head is
    left, and the one with *more* remaining has strictly more work (see
    the naive-dominance trap tests).  Under batch-monotone layer times
    the dominating state can mimic any continuation of the dominated
    one within the same bubble budgets, so its optimal leftover is never
    larger.
    """
    for (la, ra), (lb, rb) in zip(a, b):
        if la < lb or (la == lb and ra > rb):
            return False
    return True

#: one recorded per-bubble decision on a search path:
#: (bubble position in chronological order, counts aligned with the
#:  ready list at that state, optional partial (ready idx, layer,
#:  samples, time), total wall-clock time of the fill)
_Move = tuple[int, tuple[int, ...], tuple[int, int, float, float] | None, float]

#: search paths are singly-linked (move, parent) chains — a beam offer
#: is O(1) instead of copying the whole move tuple per successor
_MoveNode = tuple[_Move, "object"] | None


def _walk_moves(node: _MoveNode) -> list[_Move]:
    """Flatten a linked move chain into chronological order."""
    out: list[_Move] = []
    while node is not None:
        move, node = node
        out.append(move)
    out.reverse()
    return out


class _SearchCtx:
    """Per-fill constants of the lookahead search, computed once.

    ``model.non_trainable`` re-derives a topological order on every
    access, and the search visits thousands of states per bubble — so
    the component order, layer counts, dependency lists and the
    always-done (trainable) name set are snapshotted here, and state
    keys are expanded against these arrays instead of the model.
    """

    def __init__(
        self,
        filler: "BubbleFiller",
        leftover_devices: int,
        ordered: Sequence[tuple[int, Bubble]] = (),
    ):
        self.filler = filler
        self.profile = filler.profile
        self.batch = filler.batch
        self.prefix_store = filler.caches.prefixes
        self.leftover_devices = leftover_devices
        comps = list(filler.model.non_trainable)
        self.names = [c.name for c in comps]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.num_layers = [filler.states[n].num_layers for n in self.names]
        self.deps = [tuple(c.depends_on) for c in comps]
        self.always_done = {
            c.name for c in filler.model.components.values() if c.trainable
        }
        #: distinct bubble weights — the device widths any remaining
        #: layer could still be placed at (earn-bound computation)
        self.weights = tuple(sorted({b.weight for _, b in ordered})) or (1,)
        self._estimates: dict[_StateKey, float] = {}
        self._earns: dict[_StateKey, float] = {}
        # Both metrics decompose per component, and beam states share
        # most of their cells — per-cell memos make the per-key value a
        # handful of dict hits once a cell has been seen anywhere.
        self._est_cell: dict[tuple[int, tuple[int, float]], float] = {}
        self._earn_cell: dict[tuple[int, tuple[int, float]], float] = {}
        self._ready: dict[_StateKey, tuple[int, ...]] = {}
        self._ready_states: dict[_StateKey, list[ComponentState]] = {}

    def initial_key(self) -> _StateKey:
        return tuple(
            (self.filler.states[n].next_layer, self.filler.states[n].remaining)
            for n in self.names
        )

    def ready_indices(self, key: _StateKey) -> tuple[int, ...]:
        """Indices of non-done components with all dependencies done
        (same order/semantics as ``BubbleFiller.ready_components``)."""
        cached = self._ready.get(key)
        if cached is not None:
            return cached
        done = set(self.always_done)
        for i, (next_layer, _) in enumerate(key):
            if next_layer >= self.num_layers[i]:
                done.add(self.names[i])
        out = tuple(
            i
            for i, (next_layer, _) in enumerate(key)
            if next_layer < self.num_layers[i]
            and all(dep in done for dep in self.deps[i])
        )
        self._ready[key] = out
        return out

    def ready_states(self, key: _StateKey, indices: Sequence[int]) -> list[ComponentState]:
        cached = self._ready_states.get(key)
        if cached is not None:
            return cached
        out = [
            ComponentState(
                name=self.names[i],
                num_layers=self.num_layers[i],
                batch=self.batch,
                next_layer=key[i][0],
                remaining=key[i][1],
            )
            for i in indices
        ]
        self._ready_states[key] = out
        return out

    def states_from(self, key: _StateKey) -> dict[str, ComponentState]:
        return {
            n: ComponentState(
                name=n,
                num_layers=self.num_layers[i],
                batch=self.batch,
                next_layer=key[i][0],
                remaining=key[i][1],
            )
            for i, n in enumerate(self.names)
        }

    def estimate(self, key: _StateKey) -> float:
        """Fast leftover estimate for beam ranking (prefix-cache sums)."""
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        cells = self._est_cell
        total = 0.0
        for i, cell in enumerate(key):
            v = cells.get((i, cell))
            if v is None:
                v = prefix_times_raw(
                    self.profile,
                    self.names[i],
                    self.num_layers[i],
                    cell[0],
                    cell[1],
                    self.batch,
                    self.leftover_devices,
                    self.prefix_store,
                )[-1]
                cells[(i, cell)] = v
            total += v
        self._estimates[key] = total
        return total

    def earn_bound(self, key: _StateKey) -> float:
        """Upper bound on the filled device-time the state's *remaining*
        work could still earn: each remaining layer at the most
        profitable width among the timeline's bubble weights.

        Used by the dominance filter's filled-time compensation: a
        dominator whose filled lead covers the dominated state's extra
        earn potential also wins the downstream filled tie-breaks, so
        pruning cannot flip which plan the selection reports.

        The bound prices each layer as a *single* placement.  Under the
        partial-batch rule a layer may be split across several
        placements, each paying its own width-dependent share, so for
        profiles whose layer time is not linear in batch a dominated
        state can out-earn this bound by splitting — the plan-selection
        guarantee is exact only when layers are placed whole (partial
        batching off) or times are batch-linear.  The *leftover*
        guarantee never depends on this bound (see
        :meth:`LookaheadFill._dominance_scan`).
        """
        cached = self._earns.get(key)
        if cached is not None:
            return cached
        cells = self._earn_cell
        total = 0.0
        for i, cell in enumerate(key):
            v = cells.get((i, cell))
            if v is None:
                v = 0.0
                next_layer, remaining = cell
                n = self.num_layers[i]
                if next_layer < n:
                    arrs = [
                        prefix_times_raw(
                            self.profile, self.names[i], n, next_layer,
                            remaining, self.batch, d, self.prefix_store,
                        )
                        for d in self.weights
                    ]
                    for k in range(n - next_layer):
                        best = 0.0
                        for arr, d in zip(arrs, self.weights):
                            e = (arr[k + 1] - arr[k]) * d
                            if e > best:
                                best = e
                        v += best
                cells[(i, cell)] = v
            total += v
        self._earns[key] = total
        return total


def _advance(
    key: _StateKey,
    ready_idx: Sequence[int],
    counts: tuple[int, ...],
    batch: float,
) -> _StateKey:
    """Apply full-batch counts to a state key (consume_full mirror)."""
    cells = list(key)
    for h, i in enumerate(ready_idx):
        k = counts[h]
        if k > 0:
            next_layer, _ = cells[i]
            cells[i] = (next_layer + k, batch)
    return tuple(cells)


def _advance_partial(
    key: _StateKey, comp_i: int, batch: float, samples: float
) -> _StateKey:
    """Apply a partial-batch layer to a state key (consume_partial
    mirror, same epsilon)."""
    cells = list(key)
    next_layer, remaining = cells[comp_i]
    remaining -= samples
    if remaining <= 1e-9:
        cells[comp_i] = (next_layer + 1, batch)
    else:
        cells[comp_i] = (next_layer, remaining)
    return tuple(cells)


class _ExpansionTable:
    """Per-bubble expansion memo: (ready signature, duration, weight) ->
    (FFC candidates, dropped count, lazily-filled partial menus).

    Backed either by a per-fill dict (no shape cache) or by the shared
    :class:`~repro.core.caches.FillShapeCache`'s bounded ``expansions``
    store with a context-identity prefix, so a planner sweep enumerates
    each distinct (state, bubble shape) point once.  Entries are pure
    functions of their key, so sharing them never changes results.
    """

    def __init__(self, store, prefix=None):
        self._store = store
        self._prefix = prefix
        self._plain = isinstance(store, dict)

    def get(self, sig):
        key = sig if self._prefix is None else (self._prefix, sig)
        return self._store.get(key)

    def put(self, sig, value) -> None:
        key = sig if self._prefix is None else (self._prefix, sig)
        if self._plain:
            self._store[key] = value
        else:
            self._store.put(key, value)


def _expand_state(
    ctx: _SearchCtx,
    key: _StateKey,
    filled: float,
    dropped: int,
    moves: _MoveNode,
    pos: int,
    bubble: Bubble,
    out: dict[_StateKey, tuple[float, int, _MoveNode]],
    table: _ExpansionTable,
    cap: int,
) -> None:
    """Add every reachable successor of ``key`` through ``bubble``.

    Shared by ``lookahead`` and its oracle: the oracle runs it over the
    full beam with a per-fill memo, the pruned strategy with the shared
    shape-cache table.  The memo only skips recomputation — enumeration
    order and values are identical either way, so the two strategies see
    the same successor sets.
    """

    # Offers are inlined (this is the hottest loop of the search): same
    # state, same future — keep the path that filled the most
    # device-time (ties: the incumbent, deterministic because expansion
    # order is deterministic).
    get = out.get
    ready_idx = ctx.ready_indices(key)
    if not ready_idx:
        cur = get(key)
        if cur is None or filled > cur[0]:
            out[key] = (filled, dropped, moves)
        return
    ready = ctx.ready_states(key, ready_idx)

    filler = ctx.filler
    batch = ctx.batch
    d = bubble.weight
    tb = bubble.duration
    sig = (tuple((i, key[i]) for i in ready_idx), tb, d, cap)
    entry = table.get(sig)
    if entry is None:
        candidates, cand_dropped = full_batch_candidates(
            ctx.profile, ready, tb, d, max_candidates=cap,
            store=ctx.prefix_store,
        )
        # Partial options depend only on (ready slot, full-batch count),
        # which many candidates share — enumerated once, lazily, into
        # the entry's menu dict.
        entry = (tuple(candidates), cand_dropped, {})
        table.put(sig, entry)
    candidates, cand_dropped, partial_menu = entry
    dropped += cand_dropped
    partials_on = filler.enable_partial_batch
    menu_get = partial_menu.get
    for cand in candidates:
        counts = cand.counts
        base_key = _advance(key, ready_idx, counts, batch)
        if any(counts):
            new_filled = filled + cand.time_ms * d
            cur = get(base_key)
            if cur is None or new_filled > cur[0]:
                out[base_key] = (
                    new_filled,
                    dropped,
                    ((pos, counts, None, cand.time_ms), moves),
                )
        else:
            cur = get(base_key)
            if cur is None or filled > cur[0]:
                out[base_key] = (filled, dropped, moves)
        if not partials_on:
            continue
        budget = tb - cand.time_ms + 1e-9
        for h, comp in enumerate(ready):
            layer = comp.next_layer + counts[h]
            if layer >= comp.num_layers:
                continue
            options = menu_get((h, counts[h]))
            if options is None:
                remaining = comp.layer_batch(counts[h])
                options = [
                    (samples, ctx.profile.fwd_ms(comp.name, layer, samples / d))
                    for samples in valid_partial_samples(
                        comp.batch, d, remaining, filler.partial_batch_menu
                    )
                ]
                partial_menu[(h, counts[h])] = options
            for samples, t in options:
                if t > budget:
                    continue
                pkey = _advance_partial(base_key, ready_idx[h], batch, samples)
                new_filled = filled + (cand.time_ms + t) * d
                cur = get(pkey)
                if cur is None or new_filled > cur[0]:
                    out[pkey] = (
                        new_filled,
                        dropped,
                        (
                            (
                                pos,
                                counts,
                                (h, layer, samples, t),
                                cand.time_ms + t,
                            ),
                            moves,
                        ),
                    )


def _select(
    ctx: _SearchCtx,
    beam: dict[_StateKey, tuple[float, int, _MoveNode]],
) -> tuple[float, float, int, _MoveNode] | None:
    """Best terminal state by *exact* leftover (ties: most filled)."""
    best = None
    for key, (filled, dropped, moves) in sorted(beam.items()):
        states = ctx.states_from(key)
        leftover = ctx.filler.leftover_ms(ctx.leftover_devices, states=states)
        if (
            best is None
            or leftover < best[0] - 1e-12
            or (abs(leftover - best[0]) <= 1e-12 and filled > best[1])
        ):
            best = (leftover, filled, dropped, moves)
    return best


def _greedy_baseline(
    filler: "BubbleFiller",
    bubbles: Sequence[Bubble],
    leftover_devices: int,
) -> tuple[FillReport, "BubbleFiller"]:
    """Run the greedy policy on a scratch filler (same knobs); returns
    the report and the scratch filler so the fallback path can adopt its
    final states."""
    # Deferred import: BubbleFiller's constructor lives in filling,
    # which this module otherwise only depends on for primitives.
    from .filling import BubbleFiller

    scratch = BubbleFiller(
        filler.profile,
        filler.model,
        filler.batch,
        enable_partial_batch=filler.enable_partial_batch,
        partial_batch_menu=filler.partial_batch_menu,
        max_candidates=filler.max_candidates,
        strategy="greedy",
        caches=filler.caches,
    )
    for name, state in filler.states.items():
        scratch.states[name].next_layer = state.next_layer
        scratch.states[name].remaining = state.remaining
    return scratch.fill(bubbles, leftover_devices), scratch


def _materialize(
    filler: "BubbleFiller",
    ordered: Sequence[tuple[int, Bubble]],
    bubbles: Sequence[Bubble],
    moves: Sequence[_Move],
    filled_device_time: float,
    dropped: int,
    leftover_devices: int,
    *,
    states_pruned: int = 0,
    beam_peak: int = 0,
) -> FillReport:
    """Replay the winning path, mutating the filler's states and
    emitting the concrete :class:`FillItem` placements."""
    by_pos = {m[0]: m for m in moves}
    all_items: list[FillItem] = []
    per_bubble: list[BubbleUtilization] = []
    for pos, (index, bubble) in enumerate(ordered):
        move = by_pos.get(pos)
        if move is None:
            per_bubble.append(_utilization(index, bubble, 0.0))
            continue
        _, counts, partial, time_ms = move
        ready = filler.ready_components()
        cand = _Candidate(counts=counts, time_ms=time_ms)
        items = _candidate_items(
            filler.profile, ready, cand, bubble.weight, index
        )
        if partial is not None:
            h, layer, samples, t = partial
            items.append(
                FillItem(
                    component=ready[h].name,
                    layer=layer,
                    samples=samples,
                    time_ms=t,
                    bubble_index=index,
                    partial=True,
                )
            )
        apply_fill(filler.states, BubbleFill(index, tuple(items), time_ms))
        all_items.extend(items)
        per_bubble.append(_utilization(index, bubble, time_ms))
    return filler.build_report(
        bubbles,
        all_items,
        filled_device_time,
        leftover_devices,
        candidates_dropped=dropped,
        per_bubble=per_bubble,
        states_pruned=states_pruned,
        beam_peak=beam_peak,
    )


def _plan_desc(
    filler: "BubbleFiller",
    ordered: Sequence[tuple[int, Bubble]],
    report: FillReport,
) -> tuple:
    """Shape-cache value for a finished fill: the report's content keyed
    by chronological bubble *position* (bubble indices are call-local)
    plus the filler's terminal component states."""
    pos_of = {index: pos for pos, (index, _) in enumerate(ordered)}
    items = tuple(
        (pos_of[i.bubble_index], i.component, i.layer, i.samples, i.time_ms,
         i.partial)
        for i in report.items
    )
    per_bubble = tuple(
        (pos_of[u.bubble_index], u.filled_ms) for u in report.per_bubble
    )
    finals = tuple(
        (name, state.next_layer, state.remaining)
        for name, state in sorted(filler.states.items())
    )
    return (
        items,
        per_bubble,
        report.filled_device_time_ms,
        report.candidates_dropped,
        report.states_pruned,
        report.beam_peak,
        finals,
    )


def _replay_plan(
    filler: "BubbleFiller",
    ordered: Sequence[tuple[int, Bubble]],
    bubbles: Sequence[Bubble],
    desc: tuple,
    leftover_devices: int,
) -> FillReport:
    """Materialise a shape-cache hit: rebind the cached plan to this
    call's bubble indices, restore the terminal component states, and
    rebuild the report — bit-identical to the cold search's."""
    items_d, per_bubble_d, filled, dropped, pruned, peak, finals = desc
    index_of = {pos: index for pos, (index, _) in enumerate(ordered)}
    bubble_at = {pos: b for pos, (_, b) in enumerate(ordered)}
    items = [
        FillItem(
            component=c, layer=layer, samples=s, time_ms=t,
            bubble_index=index_of[p], partial=partial,
        )
        for p, c, layer, s, t, partial in items_d
    ]
    per_bubble = [
        BubbleUtilization(
            bubble_index=index_of[p],
            duration_ms=bubble_at[p].duration,
            weight=bubble_at[p].weight,
            filled_ms=f,
        )
        for p, f in per_bubble_d
    ]
    for name, next_layer, remaining in finals:
        state = filler.states[name]
        state.next_layer = next_layer
        state.remaining = remaining
    return filler.build_report(
        bubbles,
        items,
        filled,
        leftover_devices,
        candidates_dropped=dropped,
        per_bubble=per_bubble,
        states_pruned=pruned,
        beam_peak=peak,
    )


@register_fill_strategy("lookahead")
class LookaheadFill:
    """Planner-grade cross-bubble search: the oracle's DP plus the
    three cost levers that make it a planner default —

    * **dominance pruning** — a state is dropped when another beam state
      componentwise-dominates it on per-component progress *and*
      fresh-head remaining (see :func:`_state_dominates`) and has banked
      at least the dominated state's extra earn potential
      (:meth:`_SearchCtx.earn_bound`), so pruning always preserves the
      optimal leftover, and the reported plan wherever layers are
      placed whole or times are batch-linear;
    * **shape-cache reuse** — expansion tables, per-position beam
      prefixes and final plans are keyed by the timeline *shape*
      (chronological (duration, weight) pairs; absolute starts never
      enter the DP), so a planner's (S, M, D) sweep over the same shape
      pays one cold search (``PlannerCaches.fills``);
    * an **adaptive beam schedule** — the beam runs at ``narrow`` width
      by default and widens to the full cap only at decision points
      where the best candidate future diverges from the greedy-aligned
      candidates' (:meth:`_diverged`).

    Telemetry lands in ``FillReport.states_pruned`` (dominance + beam
    cuts) and ``FillReport.beam_peak`` (peak post-dominance state
    count).  The greedy trajectory remains the fallback, so ``lookahead``
    never reports a larger leftover than ``greedy``; on instances where
    no beam cut fires *and* the per-(state, bubble) FFC enumeration
    stays within this strategy's tighter candidate cap (32 vs the
    oracle's 256 — truncation surfaces in ``candidates_dropped``) it is
    bit-identical to :class:`repro.oracles.LookaheadReferenceFill`.
    """

    name = "lookahead"

    #: maximum (wide) beam width
    beam_width = 64
    #: per-(state, bubble) FFC enumeration cap during the search.
    #: Tighter than the oracle's 256: the cap cut keeps the
    #: longest-time candidates deterministically, and instances small
    #: enough for the differential suite never reach it.
    max_candidates = 32
    #: the default narrow width is ``beam / narrow_divisor`` (>= floor);
    #: decision points widen to ``beam / wide_divisor``
    narrow_divisor = 32
    narrow_floor = 2
    wide_divisor = 4
    #: cheap pre-cut cap (x beam) before the pairwise dominance pass
    overflow_factor = 1
    #: relative tolerance of the greedy/lookahead divergence test
    divergence_tol = 1e-9

    def fill(
        self,
        filler: "BubbleFiller",
        bubbles: Sequence[Bubble],
        leftover_devices: int,
    ) -> FillReport:
        ordered = _chronological(bubbles)
        ctx = _SearchCtx(filler, leftover_devices, ordered)
        beam_cap = self.beam_width
        narrow = min(
            beam_cap, max(self.narrow_floor, beam_cap // self.narrow_divisor)
        )
        cap = min(filler.max_candidates, self.max_candidates)
        init = ctx.initial_key()
        # Shape identity of the timeline's bubbles: exact durations
        # and weights in chronological order (start times never enter
        # the search).
        shape = tuple((b.duration, b.weight) for _, b in ordered)

        cache = filler.fill_cache
        ckey = None
        table = _ExpansionTable({})
        if cache is not None:
            # Context identity: everything besides the bubble shape that
            # the search outcome depends on.  The expansion sub-key is
            # beam-independent (tables are pure enumerations).
            ident = (
                weakref.ref(filler.profile),
                # Structural model identity, not just the name: two
                # ModelSpecs sharing a name but differing in layer
                # counts or dependencies must never alias.
                filler.model.name,
                tuple(ctx.names),
                tuple(ctx.num_layers),
                tuple(ctx.deps),
                filler.batch,
                filler.enable_partial_batch,
                filler.partial_batch_menu,
                # Both caps: ``cap`` keys the search's expansion tables,
                # but the cached plan may come from the greedy-baseline
                # fallback, which enumerates at the filler's *raw*
                # candidate cap.
                filler.max_candidates,
                cap,
                # Schedule family the bubbles came from: shapes can
                # coincide across families, and keeping the identities
                # apart makes hit statistics attributable per family.
                filler.schedule,
            )
            ckey = (ident, beam_cap, narrow, leftover_devices, init)
            final = cache.finals.get((ckey, shape))
            if final is not None:
                cache.final_hits += 1
                return _replay_plan(
                    filler, ordered, bubbles, final, leftover_devices
                )
            cache.final_misses += 1
            table = _ExpansionTable(cache.expansions, ident)

        beam: dict[_StateKey, tuple[float, int, _MoveNode]] = {
            init: (0.0, 0, None)
        }
        pruned_total = 0
        peak = len(beam)
        start = 0
        if cache is not None:
            # Beam-prefix reuse: resume after the longest stored prefix
            # of this shape (snapshots are taken after every position).
            for p in range(len(ordered) - 2, -1, -1):
                # The dominance earn bound prices remaining work at the
                # timeline's distinct bubble weights, so a snapshot is
                # only valid for timelines sharing that weight set —
                # hence ``ctx.weights`` in the key next to the prefix.
                snap = cache.prefixes.get(
                    (ckey, ctx.weights, shape[: p + 1])
                )
                if snap is not None:
                    beam = dict(snap[0])
                    pruned_total, peak = snap[1], snap[2]
                    start = p + 1
                    break

        overflow = self.overflow_factor * beam_cap
        wide = max(narrow, beam_cap // self.wide_divisor)
        for pos in range(start, len(ordered)):
            index, bubble = ordered[pos]
            nxt: dict[_StateKey, tuple[float, int, _MoveNode]] = {}
            for key, (filled, dropped, moves) in beam.items():
                _expand_state(
                    ctx, key, filled, dropped, moves, pos, bubble, nxt,
                    table, cap,
                )
            if len(nxt) > narrow:
                # One estimate-ranked sort serves the overflow cut, the
                # dominance scan (dominators sort first) and the beam
                # cut.
                estimate = ctx.estimate
                entries = sorted(
                    nxt.items(),
                    key=lambda kv: (estimate(kv[0]), -kv[1][0], kv[0]),
                )
                if len(entries) > overflow:
                    # The dominance pass is pairwise: bound its input.
                    pruned_total += len(entries) - overflow
                    entries = entries[:overflow]
                survivors, dominated = self._dominance_scan(ctx, entries)
                pruned_total += dominated
                if len(survivors) > peak:
                    peak = len(survivors)
                cut = False
                if len(survivors) > narrow:
                    width = (
                        wide
                        if self._diverged(ctx, survivors, pos)
                        else narrow
                    )
                    if len(survivors) > width:
                        pruned_total += len(survivors) - width
                        survivors = survivors[:width]
                        cut = True
                if len(survivors) == len(nxt):
                    pass  # nothing dropped: keep insertion order
                elif cut:
                    nxt = dict(survivors)
                else:
                    keep = {k for k, _ in survivors}
                    nxt = {k: v for k, v in nxt.items() if k in keep}
            elif len(nxt) > peak:
                peak = len(nxt)
            beam = nxt
            if cache is not None and pos + 1 < len(ordered):
                cache.prefixes.put(
                    (ckey, ctx.weights, shape[: pos + 1]),
                    (tuple(beam.items()), pruned_total, peak),
                )

        best = _select(ctx, beam)
        use_greedy = False
        if best is None or best[0] > 0.0:
            # Greedy floor, skipped when the beam already left nothing
            # over (a zero leftover cannot be beaten, and ties keep the
            # beam plan anyway — the report is identical either way).
            greedy, scratch = _greedy_baseline(filler, bubbles, leftover_devices)
            use_greedy = best is None or greedy.leftover_ms < best[0]
        if use_greedy:
            for name, state in scratch.states.items():
                filler.states[name].next_layer = state.next_layer
                filler.states[name].remaining = state.remaining
            report = replace(
                greedy, strategy=self.name,
                states_pruned=pruned_total, beam_peak=peak,
            )
        else:
            leftover, filled, dropped, moves = best
            report = _materialize(
                filler,
                ordered,
                bubbles,
                _walk_moves(moves),
                filled,
                dropped,
                leftover_devices,
                states_pruned=pruned_total,
                beam_peak=peak,
            )
        if cache is not None:
            cache.finals.put((ckey, shape), _plan_desc(filler, ordered, report))
        return report

    # -- pruning -------------------------------------------------------------

    def _dominance_scan(
        self,
        ctx: _SearchCtx,
        entries: list[tuple[_StateKey, tuple[float, int, _MoveNode]]],
    ) -> tuple[list[tuple[_StateKey, tuple[float, int, _MoveNode]]], int]:
        """Drop states another state componentwise-dominates.

        A dominator must (a) be at least as far along on *every*
        component — comparing both head layer and fresh-head remaining
        (:func:`_state_dominates`) — and (b) have filled at least the
        dominated state's extra earn potential more device-time
        (``earn_bound`` compensation).  (a) alone guarantees the
        dominator's optimal continuation never reports a larger
        leftover (it can mimic any continuation of the dominated state
        under batch-monotone layer times); (b) additionally guarantees
        the mimic wins the filled-device-time tie-breaks wherever each
        layer is placed whole or times are batch-linear, so pruning
        then cannot change which plan the final selection reports (with
        partial batching on non-linear profiles an equal-leftover
        selection may tie-break differently than the oracle — the
        leftover itself is unaffected; see
        :meth:`_SearchCtx.earn_bound`).

        ``entries`` must be sorted by estimate: a dominator's remaining
        time never exceeds the dominated state's, so candidate
        dominators always appear earlier.  Returns the surviving
        entries (still in rank order) and the dominated count.
        """
        earn = ctx.earn_bound
        survivors: list[tuple[_StateKey, tuple[float, int, _MoveNode]]] = []
        kept: list[tuple[_StateKey, float, float]] = []
        pruned = 0
        for key, val in entries:
            filled = val[0]
            key_earn = None
            dominated = False
            for kkey, kfilled, kearn in kept:
                if kfilled < filled:
                    continue
                if not _state_dominates(kkey, key):
                    continue
                if key_earn is None:
                    key_earn = earn(key)
                if kfilled - filled >= key_earn - kearn:
                    dominated = True
                    break
            if dominated:
                pruned += 1
            else:
                kept.append(
                    (key, filled, earn(key) if key_earn is None else key_earn)
                )
                survivors.append((key, val))
        return survivors, pruned

    # -- adaptive schedule ---------------------------------------------------

    def _diverged(
        self,
        ctx: _SearchCtx,
        entries: list[tuple[_StateKey, tuple[float, int, _MoveNode]]],
        pos: int,
    ) -> bool:
        """Decision-point test for the adaptive beam.

        A position is greedy-like when the best future (smallest
        estimated leftover) among the successors is achieved by a
        greedy-aligned successor — one produced by a maximal-immediate-
        time move.  Then the narrow beam (ranked by the same estimate)
        already carries the interesting states.  When a *non*-greedy
        successor's future estimate beats every greedy-aligned one
        beyond the tolerance, greedy and lookahead scores diverge: the
        position is a real decision point and the beam widens to the
        full cap.
        """
        max_t = 0.0
        scored = []
        for key, (filled, dropped, moves) in entries:
            t = (
                moves[0][3]
                if moves is not None and moves[0][0] == pos
                else 0.0
            )
            scored.append((ctx.estimate(key), t))
            if t > max_t:
                max_t = t
        best = min(e for e, _ in scored)
        greedy_best = min(e for e, t in scored if t >= max_t - 1e-9)
        return best < greedy_best - self.divergence_tol * max(
            1.0, abs(greedy_best)
        )
