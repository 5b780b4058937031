"""Vectorized numpy engines for the partition DP table builds.

The pure-Python Pareto DPs in :mod:`.partition` and
:mod:`.partition_cdm` spend essentially all of their cold time in loop
overhead: profiling shows tens of thousands of ``max``/``pareto_insert``
calls against a few hundred distinct segment-cost evaluations.  This
module implements the three hot table builds — ``_chain_frontiers``,
``_het_frontiers`` and the shared ``_cdm_dp_table`` engine — as array
kernels:

* per-``(cut, prefix)`` stage costs (``t0`` / ``t0_sc`` / ``t0_ramp`` /
  ``sync_gap``) become dense ``(L+1, L+1)`` slabs built from the same
  prefix-sum lists :class:`~.partition.StageCosts` already maintains;
* each stage's transitions are enumerated as flat index arrays (the
  boolean device-budget and cut-grid feasibility masks turn into
  ``searchsorted`` ranges) and the full candidate slab is one
  ``np.maximum(parent_coords, slice_costs)`` broadcast;
* Pareto reduction runs as grouped pairwise dominance filtering over
  sorted candidate segments.

The kernels are *differential twins* of the pure-Python recursions in
:mod:`repro.oracles.partition`: they evaluate the same ``max``/``+``
compositions in the same associativity, reconstruct the same
backtracking pointers, and emit the same frontier entries in the same
order — bit-identical tables, not just equal objectives.  The fuzz
suite (``tests/test_partition_kernels.py``) diffs the two.

Exactness notes
---------------

``pareto_insert`` keeps a candidate iff no other candidate in the same
frontier dominates-or-equals it from an earlier generation position or
strictly dominates it from a later one, and lists survivors in
generation order — so the reduction needs exact comparisons, never
arithmetic on the coordinates.  The CDM engine additionally truncates
each state's frontier to ``max_frontier`` after every transition batch;
:func:`_truncation_safe` proves (per state, from killer-batch interval
counts) that the fold can never truncate, in which case the vectorized
survivors are exact; the rare unprovable states replay the reference
fold on the precomputed candidate values.
"""

from __future__ import annotations

import numpy as np

from .partition import StageCosts, pareto_insert

__all__ = [
    "chain_table_array",
    "het_table_array",
    "cdm_table_array",
]

#: element budget of one padded pairwise-dominance chunk
_PAIRWISE_BUDGET = 1 << 21

#: killer sentinel: the candidate survives the whole fold
_NO_KILLER = np.iinfo(np.int64).max


# -- shared machinery --------------------------------------------------------


def _order_bits(a: np.ndarray) -> np.ndarray:
    """Total-order-preserving ``int64`` view of a float64 array.

    ``-0.0`` is normalised to ``+0.0`` first so numerically equal
    floats map to equal keys; negative values are flipped into
    two's-complement order.  Sorting the keys with an *unstable*
    integer sort is several times faster than numpy's stable float
    sort, and exactness is restored by a separate tie-repair pass.
    """
    b = (a + 0.0).view(np.int64)
    return b ^ ((b >> 63) & 0x7FFFFFFFFFFFFFFF)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for an int array of segment sizes."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _cost_slabs(
    costs: StageCosts,
    L: int,
    *,
    sc: bool,
    zb: bool,
    scale: float | None = None,
    comp_scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``[lo, hi]`` slabs of ``(t0, alt, sync_gap)``.

    ``alt`` is the frontier's second coordinate: ``t0_sc`` under
    self-conditioning, ``t0_ramp`` under zero-bubble pricing, ``t0``
    otherwise.  Every element reproduces the scalar methods' float
    compositions exactly (prefix-difference, then add, then max), and
    the boundary-communication columns are produced by the *instance*
    method, so subclasses (the CDM comm-scaled costs) price themselves.

    ``scale``/``comp_scale`` select the speed-scaled bound variants
    (``t0_scaled`` etc.): compute divided by the hosting window's
    bottleneck factor, compensation deflated by the group maximum —
    unconditionally, matching the scalar methods' op sequence, so 1.0
    stays bit-identical to the unscaled slab.  ``None`` (the
    homogeneous default) keeps the original op sequence byte-for-byte.
    """
    F = np.asarray(costs._fwd)
    B = np.asarray(costs._bwd)
    fw = F[None, :] - F[:, None]
    bw = B[None, :] - B[:, None]
    comm1 = np.asarray([costs.boundary_comm_ms(lo) for lo in range(L + 1)])
    if scale is None:
        t0 = np.maximum(fw + bw, comm1[:, None])
    else:
        t0 = np.maximum((fw + bw) / scale, comm1[:, None])
    if sc:
        comm2 = np.asarray(
            [costs.boundary_comm_ms(lo, forwards=2) for lo in range(L + 1)]
        )
        if scale is None:
            alt = np.maximum(2.0 * fw + bw, comm2[:, None])
        else:
            alt = np.maximum((2.0 * fw + bw) / scale, comm2[:, None])
    elif zb:
        W = np.asarray(costs._bww)
        bb = np.maximum(0.0, bw - (W[None, :] - W[:, None]))
        if scale is None:
            alt = np.maximum(fw + bb, comm1[:, None])
        else:
            alt = np.maximum((fw + bb) / scale, comm1[:, None])
    else:
        alt = t0
    G = np.asarray(costs._grad)
    g = G[None, :] - G[:, None]
    sync = np.where(
        g == 0, 0.0, g / costs.sync_costs.bandwidth + costs.sync_costs.latency
    )
    comp = B - costs._bwd[0]
    if comp_scale is None:
        gap = sync - comp[:, None]
    else:
        gap = sync - (comp / comp_scale)[:, None]
    return t0, alt, gap


def _chunks_by_budget(
    counts: np.ndarray, budget: int
) -> list[tuple[int, int]]:
    """Contiguous segment chunks with bounded padded pairwise size.

    Chunk width is uniform, derived from the globally widest segment —
    every caller bounds per-segment counts (hierarchical reduction,
    within-batch prefilter, truncated parents), so the padding waste
    stays small and the construction stays O(number of chunks).
    """
    nseg = len(counts)
    m = int(counts.max(initial=0))
    rows = max(1, budget // max(1, m * m))
    return [(lo, min(lo + rows, nseg)) for lo in range(0, nseg, rows)]


def _grouped_pareto(
    cols: tuple[np.ndarray, ...],
    counts: np.ndarray,
    batch: np.ndarray | None = None,
    budget: int = _PAIRWISE_BUDGET,
):
    """Per-segment Pareto reduction by padded pairwise dominance.

    Candidates lie contiguously per segment, in generation order.
    ``drop[i]`` is True iff some candidate of the same segment
    dominates-or-equals ``i`` from an earlier position or strictly
    dominates it from anywhere — exactly the set ``pareto_insert``
    removes over a full fold, so survivors (in order) are the fold's
    final frontier.

    With ``batch`` (monotone per-candidate batch ids), also returns
    ``killer[i]``: the smallest batch id of a *surviving* dominator of
    ``i`` (``_NO_KILLER`` for survivors).  Every dropped candidate has
    one, and it is an upper bound on the batch at which the sequential
    fold actually removes ``i`` — the slack the truncation-safety
    screen is allowed.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    drop = np.zeros(n, dtype=bool)
    killer = np.full(n, _NO_KILLER, dtype=np.int64) if batch is not None else None
    if n == 0:
        return (drop, killer) if batch is not None else drop
    starts = np.cumsum(counts) - counts
    if batch is not None:
        budget = max(budget // 4, 1)
    for lo, hi in _chunks_by_budget(counts, budget):
        cnt = counts[lo:hi]
        m = int(cnt.max(initial=0))
        if m == 0:
            continue
        st = starts[lo:hi]
        pos = np.arange(m, dtype=np.int64)
        valid = pos[None, :] < cnt[:, None]
        idx = np.where(valid, st[:, None] + pos[None, :], 0)
        le = None
        lt = None
        for col in cols:
            V = np.where(valid, col[idx], np.inf)
            cle = V[:, :, None] <= V[:, None, :]
            clt = V[:, :, None] < V[:, None, :]
            le = cle if le is None else (le & cle)
            lt = clt if lt is None else (lt | clt)
        # j removes i iff j dominates-or-equals i and (strictly, or j
        # is earlier in generation order).  j == i never qualifies.
        domo = le & (lt | (pos[:, None] < pos[None, :]))
        drop_c = domo.any(axis=1)
        drop[idx[valid]] = drop_c[valid]
        if killer is not None:
            keep = (~drop_c) & valid
            B = np.where(valid, batch[idx], 0)
            kb = np.where(keep[:, :, None] & domo, B[:, :, None], _NO_KILLER)
            killer[idx[valid]] = kb.min(axis=1)[valid]
    return (drop, killer) if batch is not None else drop


def _staircase_drop(
    w: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    batch: np.ndarray | None = None,
    cap: int | None = None,
):
    """Exact two-column per-segment Pareto drop mask in O(n log n).

    Stable-sorted by ``(w, y)`` within a segment (ties fall back to the
    incoming array order), candidate ``i`` is killed iff some
    sort-predecessor ``j`` of its segment has ``y_j <= y_i``: the
    predecessor's ``w`` is ``<=`` by sort order, and on full value ties
    the stable sort leaves ``j`` earlier — exactly the
    dominates-or-equals-from-earlier / strictly-dominates rule
    ``pareto_insert`` applies, provided the caller's array order ranks
    every equal-valued pair by arrival (generation order does; so does
    the elbow emission order, whose equal pairs are always cross-batch
    and batch-major).  Survivors are the strict running minima of
    ``y``, so one cumulative minimum replaces the quadratic pairwise
    comparison tensor.

    Segments are contiguous, so instead of one global three-key lexsort
    the sort runs per power-of-two width class as two row-wise stable
    ``argsort`` passes over padded 2-D slabs — much smaller sorts, no
    segment key, and the padding (``+inf``) stays glued to the row
    ends.

    With ``batch`` (per-candidate batch ids), also returns
    ``killer[i]``: the batch id of one *surviving* dominator of every
    dropped candidate (``_NO_KILLER`` for survivors).  It is an upper
    bound on the batch at which the sequential fold removes ``i`` —
    sound for the truncation-safety screen, which only errs toward
    ``unsafe`` on slack.

    With ``cap`` (requires ``batch``), additionally returns ``rej[i]``:
    True for candidates a *capped* sequential fold provably rejects on
    arrival — dominated-or-equal by an earlier-arriving candidate
    whose final ``(w, y, arrival)`` rank in its segment is below
    ``cap``.  Such an "elite" ranks below the cap against every
    arrival prefix (its rank only grows as candidates arrive, and
    within-batch kills complete before batch-end truncations), so it
    is in the frontier whenever a later victim arrives — or was pruned
    by a strictly lex-better dominator that transitively rejects the
    same victims.  Rejected candidates never occupy frontier space, so
    they can be excluded from truncation-replay streams and from the
    safety screen's live counts.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = len(w)
    drop = np.zeros(n, dtype=bool)
    killer = (
        np.full(n, _NO_KILLER, dtype=np.int64) if batch is not None else None
    )
    rej = np.zeros(n, dtype=bool) if cap is not None else None
    starts = np.cumsum(counts) - counts
    nzseg = np.flatnonzero(counts > 1)
    widths = counts[nzseg]
    rstarts = starts[nzseg]
    if n == 0 or not len(nzseg):
        if rej is not None:
            return drop, killer, rej
        return (drop, killer) if batch is not None else drop
    if batch is None and int(widths.sum()) >= 100_000:
        # Bucket prefilter: on big plain streams, kill candidates that
        # have a dominator in a strictly earlier ``w`` bucket of their
        # segment before the sort ever sees them.  Bucket edges are
        # strict (the bucket map is nondecreasing in ``w``), so such a
        # dominator has strictly smaller ``w`` and ``y <= y_i`` — a
        # kill under the ``pareto_insert`` rule regardless of arrival
        # order.  Survivors keep arrival order, and every killed
        # dominator has a strictly lex-better one (the chain bottoms
        # out at a prefilter survivor), so the staircase restricted to
        # the survivors reproduces the exact reference drop set.
        nb = 128
        big = np.iinfo(np.int64).max
        nr = len(nzseg)
        fidx = np.repeat(rstarts, widths) + _ragged_arange(widths)
        sid = np.repeat(np.arange(nr, dtype=np.int64), widths)
        wf = w[fidx]
        yb0 = _order_bits(y[fidx])
        offs = np.cumsum(widths) - widths
        lo = np.minimum.reduceat(wf, offs)
        span = np.maximum.reduceat(wf, offs) - lo
        good = np.isfinite(span) & (span > 0)
        scale = np.where(good, nb / np.where(good, span, 1.0), 0.0)
        with np.errstate(invalid="ignore"):
            bf = (wf - lo[sid]) * scale[sid]
        bf = np.nan_to_num(bf, nan=0.0, posinf=float(nb - 1), neginf=0.0)
        bk = np.clip(bf.astype(np.int64), 0, nb - 1)
        bmin = np.full(nr * nb, big, dtype=np.int64)
        np.minimum.at(bmin, sid * nb + bk, yb0)
        excl = np.empty((nr, nb), dtype=np.int64)
        excl[:, 0] = big
        np.minimum.accumulate(
            bmin.reshape(nr, nb)[:, :-1], axis=1, out=excl[:, 1:]
        )
        dead = excl[sid, bk] <= yb0
        if dead.any():
            keep = ~dead
            sub_counts = np.zeros_like(counts)
            sub_counts[nzseg] = np.bincount(sid[keep], minlength=nr)
            svi = fidx[keep]
            drop[fidx[dead]] = True
            drop[svi] = _staircase_drop(w[svi], y[svi], sub_counts)
            return drop
    sent = np.iinfo(np.int64).max
    wb = np.empty(n + 1, dtype=np.int64)
    wb[:n] = _order_bits(w)
    wb[n] = sent
    yb = np.empty(n + 1, dtype=np.int64)
    yb[:n] = _order_bits(y)
    yb[n] = sent
    cls = np.ceil(np.log2(widths.astype(np.float64))).astype(np.int64)
    for c in np.unique(cls).tolist():
        members = np.flatnonzero(cls == c)
        padw = 1 << int(c)
        rs = rstarts[members]
        wid = widths[members]
        pos = np.arange(padw, dtype=np.int64)
        # Pads point at the sentinel slot: its key is strictly above
        # every real key (even ``+inf``), so the unstable sort keeps
        # pads glued to the row ends and one gather serves both the
        # keys and the original (= arrival) positions.
        gidx = np.where(
            pos[None, :] < wid[:, None], rs[:, None] + pos[None, :], n
        )
        o = np.argsort(wb[gidx], axis=1)  # unstable introsort on int64
        Gs = np.take_along_axis(gidx, o, axis=1)
        Kws = wb[Gs]
        # Tie repair: the unstable sort scrambles runs of equal ``w``;
        # re-order each run by ``(y, arrival)``.  Runs are rare — pads
        # never join them (sentinel keys are excluded).
        dup = (Kws[:, 1:] == Kws[:, :-1]) & (Kws[:, 1:] != sent)
        if dup.any():
            in_run = np.zeros((len(members), padw), dtype=bool)
            in_run[:, 1:] = dup
            in_run[:, :-1] |= dup
            rr, cc = np.nonzero(in_run)
            conn = np.zeros(len(rr), dtype=bool)
            if len(rr) > 1:
                conn[1:] = (
                    (rr[1:] == rr[:-1])
                    & (cc[1:] == cc[:-1] + 1)
                    & dup[rr[1:], cc[1:] - 1]
                )
            rid = np.cumsum(~conn)
            gv = Gs[rr, cc]
            srt = np.lexsort((gv, yb[gv], rid))
            Gs[rr, cc] = gv[srt]
        Kys = yb[Gs]
        valid = Gs != n
        cm = np.minimum.accumulate(Kys, axis=1)
        excl = np.empty_like(cm)
        excl[:, 0] = sent
        excl[:, 1:] = cm[:, :-1]
        kill = (excl <= Kys) & valid
        drop[Gs[kill]] = True
        if killer is not None and kill.any():
            # The running-minimum holder is a survivor and dominates
            # every cell it kills; its column is the last strict-minimum
            # position at or before each cell.
            setters = Kys < excl
            sp = np.where(setters, pos[None, :], -1)
            last = np.maximum.accumulate(sp, axis=1)
            kr, kc = np.nonzero(kill)
            src = Gs[kr, last[kr, kc]]
            killer[Gs[kr, kc]] = batch[src]
        if rej is not None:
            # Arrival-order rejection against the cap elites: ``Gs``
            # holds each sorted cell's original (= arrival) slot, so
            # one broadcast per elite column covers every victim.
            r2 = np.zeros_like(kill)
            for q in range(min(cap, padw)):
                r2 |= (
                    (Kws[:, q : q + 1] <= Kws)
                    & (Kys[:, q : q + 1] <= Kys)
                    & (Gs[:, q : q + 1] < Gs)
                )
            r2 &= valid
            rej[Gs[r2]] = True
    if rej is not None:
        return drop, killer, rej
    return (drop, killer) if batch is not None else drop


def _csr_count_before(
    vals: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    *,
    strict: bool,
) -> np.ndarray:
    """Per-query count of leading slab elements ``<= target`` (``<``
    when ``strict``).  ``starts``/``counts`` select one ascending-sorted
    slab of ``vals`` per query; all queries bisect in lockstep."""
    nq = len(targets)
    lo = np.zeros(nq, dtype=np.int64)
    hi = counts.astype(np.int64).copy()
    if nq == 0 or not hi.any():
        return lo
    for _ in range(int(hi.max()).bit_length()):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        gi = np.where(active, starts + mid, 0)
        v = vals[gi]
        go = active & ((v < targets) if strict else (v <= targets))
        lo = np.where(go, mid + 1, lo)
        hi = np.where(active & ~go, mid, hi)
    return lo


def _rmq_table(a: np.ndarray, max_width: int) -> np.ndarray:
    """Sparse min table: row ``k`` holds ``min(a[i:i + 2**k])`` (clipped
    at the end), answering in-slab range-min queries up to
    ``max_width`` wide with two gathers."""
    rows = [a]
    k = 1
    while (1 << k) <= max_width:
        half = 1 << (k - 1)
        prev = rows[-1]
        cur = prev.copy()
        if len(a) > half:
            np.minimum(prev[:-half], prev[half:], out=cur[:-half])
        rows.append(cur)
        k += 1
    return np.stack(rows)


def _clamp_elbow(
    PW: np.ndarray,
    PY: np.ndarray,
    pstarts: np.ndarray,
    pcounts: np.ndarray,
    cell_b: np.ndarray,
    A_b: np.ndarray,
    B_b: np.ndarray,
):
    """Exact within-batch Pareto survivors of corner-clamped frontiers.

    Every batch ``b`` emits one candidate per entry of parent frontier
    ``cell_b[b]``: ``(max(w, A_b), max(y, B_b))``, in parent-list order.
    Parent frontiers are mutually incomparable (distinct ``w``, distinct
    ``y``; sorted by ``w`` ascending their ``y`` is strictly
    descending), so the candidates a batch's own members fail to kill —
    the kill rule of ``pareto_insert``, dominates-or-equals from an
    earlier arrival or strictly dominates from anywhere — are exactly:

    * the parents strictly above the elbow (``w > A`` and ``y > B``),
      clamped to themselves, and
    * at most two corner entries — the clamp of the last ``w <= A``
      parent and the clamp of the first ``y <= B`` parent.  When some
      parent has both (it clamps to exactly ``(A, B)``), the corners
      merge and value ties resolve to the first-arriving such parent.

    Two lockstep binary searches per batch find the elbow; a sparse-min
    table over parent-list positions resolves the merged-corner tie.
    Returns ``(bidx, pil, CW, CY)`` in emission order: batch-major,
    and ``[C1, band, C2]`` (ascending ``w``, descending ``y``) within a
    batch.  That is NOT parent-list order, but every equal-``(w, y)``
    pair is cross-batch (a batch's survivors are strictly
    incomparable), so stability over emission order still resolves
    value ties by arrival — callers need only re-sort the few
    *survivors* by ``(bidx, pil)`` before emitting entries.  Dropping
    the killed candidates is sound because the sequential fold
    completes every within-batch kill before the batch-end truncation
    point.
    """
    nb = len(cell_b)
    n_par = len(PW)
    if n_par == 0 or nb == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0), np.zeros(0)
    ncell = len(pcounts)
    lidx = _ragged_arange(pcounts)
    cell_of = np.repeat(np.arange(ncell, dtype=np.int64), pcounts)
    order = np.lexsort((PW, cell_of))
    ws = PW[order]
    ys = PY[order]
    nys = -ys
    pis = lidx[order]
    maxc = int(pcounts.max())
    T = _rmq_table(pis, maxc)

    st = pstarts[cell_b]
    m = pcounts[cell_b]
    k0 = _csr_count_before(ws, st, m, A_b, strict=False)  # parents w <= A
    jy = _csr_count_before(nys, st, m, -B_b, strict=True)  # parents y > B

    above_cnt = np.maximum(jy - k0, 0)
    tie = jy < k0  # some parent clamps to exactly (A, B)
    has_c1 = k0 > 0
    has_c2 = ~tie & (jy < m)

    i1 = np.where(has_c1, st + k0 - 1, 0)
    c1y = np.where(tie, B_b, ys[i1])
    c1pi = pis[i1]
    if tie.any():
        lo = st + jy
        hi = st + k0
        lens = hi - lo
        kq = np.where(tie, np.frexp(lens.astype(np.float64))[1] - 1, 0)
        a1 = np.where(tie, lo, 0)
        a2 = np.where(tie, hi - (1 << kq), 0)
        mn = np.minimum(T[kq, a1], T[kq, a2])
        c1pi = np.where(tie, mn, c1pi)

    i2 = np.where(has_c2, st + jy, 0)
    c2w = ws[i2]
    c2pi = pis[i2]

    ab_b = np.repeat(np.arange(nb, dtype=np.int64), above_cnt)
    ga = (st + k0)[ab_b] + _ragged_arange(above_cnt)

    b1 = np.flatnonzero(has_c1)
    b2 = np.flatnonzero(has_c2)
    cnt_out = has_c1.astype(np.int64) + above_cnt + has_c2.astype(np.int64)
    ostarts = np.cumsum(cnt_out) - cnt_out
    n_out = int(cnt_out.sum())
    bidx = np.repeat(np.arange(nb, dtype=np.int64), cnt_out)
    pil = np.empty(n_out, dtype=np.int64)
    CW = np.empty(n_out)
    CY = np.empty(n_out)
    d1 = ostarts[b1]
    pil[d1] = c1pi[b1]
    CW[d1] = A_b[b1]
    CY[d1] = c1y[b1]
    dband = (ostarts + has_c1)[ab_b] + _ragged_arange(above_cnt)
    pil[dband] = pis[ga]
    CW[dband] = ws[ga]
    CY[dband] = ys[ga]
    d2 = (ostarts + has_c1 + above_cnt)[b2]
    pil[d2] = c2pi[b2]
    CW[d2] = c2w[b2]
    CY[d2] = B_b[b2]
    return bidx, pil, CW, CY


def _segmented_pareto(
    cols: tuple[np.ndarray, ...],
    counts: np.ndarray,
    chunk: int = 64,
) -> np.ndarray:
    """Exact per-segment Pareto drop mask via hierarchical reduction.

    The kill relation (dominates-or-equals from an earlier position, or
    strictly dominates from anywhere) is transitive, so any candidate a
    chunk-mate kills is killed by a *final* survivor too: filtering
    bounded chunks first, then re-filtering the survivors at full
    segment granularity, yields exactly the pairwise drop mask while
    never materialising a quadratic-in-segment comparison tensor.
    Only sound without mid-fold truncation (chain/heterogeneous DPs).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    drop = np.zeros(n, dtype=bool)
    if n == 0:
        return drop
    alive = np.arange(n, dtype=np.int64)
    seg_alive = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cur = counts
    while True:
        big = cur > chunk
        final = not big.any()
        if final:
            sub = cur
        else:
            q, rem = np.divmod(cur, chunk)
            nsub = q + (rem > 0)
            sub = np.full(int(nsub.sum()), chunk, dtype=np.int64)
            ends = np.cumsum(nsub) - 1
            has_rem = rem > 0
            sub[ends[has_rem]] = rem[has_rem]
        d = _grouped_pareto(tuple(c[alive] for c in cols), sub)
        if final:
            drop[alive[d]] = True
            return drop
        keep = ~d
        alive = alive[keep]
        seg_alive = seg_alive[keep]
        new = np.bincount(seg_alive, minlength=len(counts))
        drop[:] = True
        drop[alive] = False
        if (new == cur).all():
            # No shrinkage: the true frontiers really are this wide.
            # Finish with one full-granularity pass (exact by
            # transitivity — every true killer is still alive).
            d = _grouped_pareto(tuple(c[alive] for c in cols), new)
            drop[alive[d]] = True
            return drop
        cur = new


def _truncation_safe(
    counts: np.ndarray,
    batch: np.ndarray,
    killer: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Per-segment proof that per-batch truncation never fires.

    Candidate ``i`` occupies a frontier slot during batches
    ``[batch_i, max(killer_i, batch_i))`` at most (its true removal is
    never later than a surviving dominator's batch, and never after
    insertion for candidates killed in or before their own batch).
    The segment's frontier size after any batch is therefore bounded by
    the interval count at that batch; when the running maximum stays
    within ``cap``, the reference fold provably never truncates and the
    canonical Pareto survivors *are* the fold result.  Exact integer
    arithmetic throughout — the bound errs only toward ``unsafe``.
    """
    nseg = len(counts)
    safe = np.ones(nseg, dtype=bool)
    n = batch.shape[0]
    if n == 0:
        return safe
    nz = counts > 0
    seg = np.repeat(np.arange(nseg, dtype=np.int64), counts)
    end = np.maximum(killer, batch)
    ev_seg = np.concatenate([seg, seg])
    ev_time = np.concatenate([batch, end])
    ev_delta = np.concatenate(
        [np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)]
    )
    # Starts sort before ends at equal (segment, time): ties then only
    # overestimate the alive count, keeping the screen conservative.
    ev_kind = np.concatenate(
        [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]
    )
    order = np.lexsort((ev_kind, ev_time, ev_seg))
    deltas = ev_delta[order]
    run = np.cumsum(deltas)
    ev_counts = 2 * counts[nz]
    ev_starts = np.cumsum(ev_counts) - ev_counts
    base = np.where(ev_starts > 0, run[ev_starts - 1], 0)
    rel = run - np.repeat(base, ev_counts)
    safe[nz] = np.maximum.reduceat(rel, ev_starts) <= cap
    return safe


def _fold_reference(
    cand_rows: list[tuple],
    batches: list[int],
    max_frontier: int,
) -> list[tuple]:
    """Replay the reference CDM fold on precomputed candidate values:
    ``pareto_insert`` per candidate, truncation after each batch."""
    frontier: list[tuple] = []
    prev_batch = batches[0]
    for row, b in zip(cand_rows, batches):
        if b != prev_batch:
            if len(frontier) > max_frontier:
                frontier.sort(key=lambda e: (e[0], e[1]))
                del frontier[max_frontier:]
            prev_batch = b
        pareto_insert(frontier, row, 2)
    if len(frontier) > max_frontier:
        frontier.sort(key=lambda e: (e[0], e[1]))
        del frontier[max_frontier:]
    return frontier


#: hybrid replay cost model: approximate wall-clock of one lockstep
#: numpy round vs one python ``pareto_insert`` row.  Only the ratio
#: matters, and only for speed — any split is bit-identical.
_REPLAY_ROUND_COST = 3.5e-4
_REPLAY_ROW_COST = 1.5e-6


def _lockstep_fold(
    w: np.ndarray,
    y: np.ndarray,
    bidx: np.ndarray,
    pil: np.ndarray,
    seg_of: np.ndarray,
    sel: np.ndarray,
    uts: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay the capped fold for every target in ``uts`` at once.

    Vectorized twin of ``_fold_reference`` across segments: one numpy
    round per batch depth, each round merging the next batch of every
    still-active target into its frontier state.  The state is kept in
    reference *list* order (insertion order, re-sorted by ``(w, y)``
    exactly when a truncation fires), so the final slot order is
    bit-identical to the python fold's output list — the merged rows
    order full value ties by column position, which is list-then-
    arrival order just like ``pareto_insert``.

    The round count is set by the deepest target, so the handful of
    targets with the most batches are peeled off to the python fold
    when the cost model says the saved rounds outweigh their row count
    (``_REPLAY_ROUND_COST`` / ``_REPLAY_ROW_COST``); either path is
    exact, the split only moves wall-clock.

    ``sel`` masks the candidates to replay (callers exclude
    arrival-rejected candidates — they never occupy frontier space).
    Returns ``(scnt, idx)``: per ``uts`` target, the final frontier
    size and the flat candidate indices of its entries, row-wise in
    emission order (``-1`` pads).
    """
    uidx = np.flatnonzero(sel)
    uidx = uidx[np.lexsort((pil[uidx], bidx[uidx]))]
    nU = len(uidx)
    ub = bidx[uidx]
    new = np.ones(nU, dtype=bool)
    new[1:] = ub[1:] != ub[:-1]
    rstart = np.flatnonzero(new)
    rcnt = np.diff(np.append(rstart, nU))
    nu = len(uts)
    row_of = np.full(int(uts[-1]) + 1, -1, dtype=np.int64)
    row_of[uts] = np.arange(nu, dtype=np.int64)
    rrow = row_of[seg_of[uidx[rstart]]]
    nbk = np.bincount(rrow, minlength=nu)
    wstarts = np.cumsum(nbk) - nbk
    rows_t = np.bincount(rrow, weights=rcnt, minlength=nu).astype(np.int64)
    scnt = np.zeros(nu, dtype=np.int64)
    idx = np.full((nu, cap), -1, dtype=np.int64)

    # Deepest-first split: python-fold the ``j`` deepest targets when
    # that prices lower than the lockstep rounds they would force.
    order = np.argsort(-nbk, kind="stable")
    depth = nbk[order]
    crows = np.zeros(nu + 1, dtype=np.int64)
    np.cumsum(rows_t[order], out=crows[1:])
    rounds_if = np.append(depth, 0)
    split_cost = _REPLAY_ROUND_COST * rounds_if + _REPLAY_ROW_COST * crows
    j = int(np.argmin(split_cost))

    for t in order[:j].tolist():
        lo = int(rstart[wstarts[t]])
        hi = lo + int(rows_t[t])
        fi = uidx[lo:hi]
        res = _fold_reference(
            list(zip(w[fi].tolist(), y[fi].tolist(), fi.tolist())),
            ub[lo:hi].tolist(),
            cap,
        )
        scnt[t] = len(res)
        idx[t, : len(res)] = [e[2] for e in res]

    lock = order[j:]
    nl = len(lock)
    if nl == 0:
        return scnt, idx
    sent = np.iinfo(np.int64).max
    UW = np.empty(nU + 1, dtype=np.int64)
    UW[:nU] = _order_bits(w[uidx])
    UW[nU] = sent
    UY = np.empty(nU + 1, dtype=np.int64)
    UY[:nU] = _order_bits(y[uidx])
    UY[nU] = sent
    nbk_l = nbk[lock]
    neg = -nbk_l  # ascending: rows are in depth-descending order
    wstarts_l = wstarts[lock]
    SI = np.full((nl, cap), nU, dtype=np.int64)
    SC = np.zeros(nl, dtype=np.int64)
    ARR = np.arange(nl, dtype=np.int64)[:, None]
    COLS = np.arange(int(rcnt.max(initial=0)), dtype=np.int64)
    for k in range(int(nbk_l.max(initial=0))):
        na = int(np.searchsorted(neg, -k, side="left"))
        if na == 0:
            break
        ridx = wstarts_l[:na] + k
        bst = rstart[ridx]
        bw = rcnt[ridx]
        mbw = int(bw.max())
        gp = np.where(
            COLS[None, :mbw] < bw[:, None], bst[:, None] + COLS[:mbw], nU
        )
        # Merged row = [frontier state | batch arrivals]: column order
        # is exactly the order ``pareto_insert`` ranks equal values.
        MI = np.concatenate([SI[:na], gp], axis=1)
        MW = UW[MI]
        MY = UY[MI]
        arr = ARR[:na]
        o1 = np.argsort(MY, axis=1, kind="stable")
        o2 = np.argsort(MW[arr, o1], axis=1, kind="stable")
        o12 = o1[arr, o2]
        MIs = MI[arr, o12]
        Kys = MY[arr, o12]
        cm = np.minimum.accumulate(Kys, axis=1)
        excl = np.empty_like(cm)
        excl[:, 0] = sent
        excl[:, 1:] = cm[:, :-1]
        surv = (excl > Kys) & (MIs != nU)
        KO = np.zeros_like(surv)
        KO[arr, o12] = surv
        ordi = np.argsort(~KO, axis=1, kind="stable")
        newSI = MI[arr, ordi[:, :cap]]
        sc2 = surv.sum(axis=1)
        tr = sc2 > cap
        if tr.any():
            # Truncation reorders the list to ``(w, y)``-sorted before
            # cutting — compact the *sorted* layout for those rows.
            ords = np.argsort(~surv, axis=1, kind="stable")
            tSI = MIs[arr, ords[:, :cap]]
            newSI = np.where(tr[:, None], tSI, newSI)
        SI[:na] = newSI
        SC[:na] = np.minimum(sc2, cap)
    uix = np.append(uidx, -1)
    scnt[lock] = SC
    idx[lock] = uix[np.minimum(SI, nU)]
    return scnt, idx


def _flatten_entries(
    stage_lists: list[list[tuple]], value_dims: int
) -> tuple[np.ndarray, ...]:
    """Column arrays + per-list counts for a stage's frontier lists."""
    cols: list[list[float]] = [[] for _ in range(value_dims)]
    counts = np.zeros(len(stage_lists), dtype=np.int64)
    for i, entries in enumerate(stage_lists):
        counts[i] = len(entries)
        for e in entries:
            for d in range(value_dims):
                cols[d].append(e[d])
    return tuple(np.asarray(c, dtype=np.float64) for c in cols) + (counts,)


# -- chain (uniform 1F1B) ----------------------------------------------------


def chain_table_array(ctx, r: int, L: int, S: int):
    """Array twin of :func:`repro.oracles.chain_table_reference` — same
    ``(history, tf)``, bit-identical entries in identical order."""
    costs = StageCosts(ctx, r)
    sc = ctx.self_conditioning
    zb = ctx.zb_pricing
    scaled = ctx.speed_scales is not None
    if not scaled:
        t0, alt, gap = _cost_slabs(costs, L, sc=sc, zb=zb)
    else:
        # One slab triple per distinct per-stage window factor: stage s
        # covers group-local devices [(s-1)r, sr), and equal bottleneck
        # factors share a slab.
        comp_scale = ctx.comp_scale
        slabs_by_sigma: dict[float, tuple] = {}

    prev: list[list[tuple]] = [[] for _ in range(L + 1)]
    prev[0] = [(0.0, 0.0, float("-inf"), -1, -1)]
    history: list[list[list[tuple]]] = [prev]
    for s in range(1, S + 1):
        if scaled:
            sigma = ctx.window_scale((s - 1) * r, r)
            slab = slabs_by_sigma.get(sigma)
            if slab is None:
                slab = slabs_by_sigma[sigma] = _cost_slabs(
                    costs, L, sc=sc, zb=zb,
                    scale=sigma, comp_scale=comp_scale,
                )
            t0, alt, gap = slab
        cur: list[list[tuple]] = [[] for _ in range(L + 1)]
        # Flatten parents in (cell, entry) order — candidate generation
        # order for every target l is exactly this flat order filtered
        # to cells < l, which is a prefix (cells ascend).
        pc: list[int] = []
        pw: list[float] = []
        ps: list[float] = []
        py: list[float] = []
        ppi: list[int] = []
        for c in range(L + 1):
            for pi, e in enumerate(prev[c]):
                pc.append(c)
                pw.append(e[0])
                ps.append(e[1])
                py.append(e[2])
                ppi.append(pi)
        ls = np.arange(s, L - (S - s) + 1, dtype=np.int64)
        if pc and len(ls):
            PC = np.asarray(pc, dtype=np.int64)
            PW = np.asarray(pw)
            PS = np.asarray(ps)
            PY = np.asarray(py)
            PPI = np.asarray(ppi, dtype=np.int64)
            counts = np.searchsorted(PC, ls, side="left")
            cpi = _ragged_arange(counts)
            LL = np.repeat(ls, counts)
            CC = PC[cpi]
            CW = np.maximum(PW[cpi], t0[CC, LL])
            CS = np.maximum(PS[cpi], alt[CC, LL])
            CY = np.maximum(PY[cpi], gap[CC, LL])
            if not sc and not zb:
                # Default pricing reuses t0 for the second coordinate
                # (partition.py), so CS == CW for every entry by
                # induction from the (0.0, 0.0, ...) root — dominance
                # over the triple degenerates to two columns and the
                # sort-based staircase applies.
                drop = _staircase_drop(CW, CY, counts)
            else:
                drop = _segmented_pareto((CW, CS, CY), counts)
            kidx = np.flatnonzero(~drop)
            seg_of = np.repeat(np.arange(len(ls), dtype=np.int64), counts)
            rows = zip(
                CW[kidx].tolist(),
                CS[kidx].tolist(),
                CY[kidx].tolist(),
                CC[kidx].tolist(),
                PPI[cpi][kidx].tolist(),
                seg_of[kidx].tolist(),
            )
            lsl = ls.tolist()
            for w, w2, y, c, pi, sg in rows:
                cur[lsl[sg]].append((w, w2, y, c, pi))
        history.append(cur)
        prev = cur

    tf = costs.feedback_ms() if ctx.self_conditioning else 0.0
    return history, tf


# -- heterogeneous 1F1B ------------------------------------------------------


def het_table_array(ctx, L: int, S: int, D: int):
    """Array twin of :func:`repro.oracles.het_table_reference` — same
    ``(history, tf_by_r)``, bit-identical entries and dict orders."""
    sc = ctx.self_conditioning
    zb = ctx.zb_pricing
    r_cap = int(ctx.micro_batch)
    rmax = min(D - S + 1, r_cap)
    costs_by_r: dict[int, StageCosts] = {}

    def costs_for(r: int) -> StageCosts:
        costs = costs_by_r.get(r)
        if costs is None:
            costs = costs_by_r[r] = StageCosts(ctx, r)
        return costs

    scaled = ctx.speed_scales is not None
    if not scaled:
        shape = (rmax + 1, L + 1, L + 1)
        ST0 = np.zeros(shape)
        SALT = np.zeros(shape)
        SGAP = np.zeros(shape)
        for r in range(1, rmax + 1):
            ST0[r], SALT[r], SGAP[r] = _cost_slabs(
                costs_for(r), L, sc=sc, zb=zb
            )
        SID = None
    else:
        # Slab per distinct (r, window factor): a stage of r replicas
        # starting at group-local device pd runs at the bottleneck of
        # scales[pd:pd+r].  SID maps (pd, r) to its slab, so the value
        # gathers below stay single fancy-index expressions.
        comp_scale = ctx.comp_scale
        SID = np.zeros((D + 1, rmax + 1), dtype=np.int64)
        slab_id: dict[tuple[int, float], int] = {}
        slab_params: list[tuple[int, float]] = []
        for r in range(1, rmax + 1):
            for pd in range(D - r + 1):
                key = (r, ctx.window_scale(pd, r))
                sid = slab_id.get(key)
                if sid is None:
                    sid = slab_id[key] = len(slab_params)
                    slab_params.append(key)
                SID[pd, r] = sid
        shape = (len(slab_params), L + 1, L + 1)
        ST0 = np.zeros(shape)
        SALT = np.zeros(shape)
        SGAP = np.zeros(shape)
        for sid, (r, w) in enumerate(slab_params):
            ST0[sid], SALT[sid], SGAP[sid] = _cost_slabs(
                costs_for(r), L, sc=sc, zb=zb,
                scale=w, comp_scale=comp_scale,
            )

    history: list[dict[tuple, list[tuple]]] = [
        {(0, 0): [(0.0, 0.0, float("-inf"), -1, 0, -1)]}
    ]
    for s in range(1, S + 1):
        stages_left = S - s
        states = list(history[s - 1])
        PL = np.asarray([st[0] for st in states], dtype=np.int64)
        PD = np.asarray([st[1] for st in states], dtype=np.int64)
        entry_lists = list(history[s - 1].values())
        EW, ES, EY, ecounts = _flatten_entries(entry_lists, 3)
        estarts = np.cumsum(ecounts) - ecounts

        # Batch enumeration (one batch per (parent, l, r), in reference
        # loop order: parents in dict order, l outer, r inner).
        nr = np.minimum(D - PD - stages_left, r_cap)
        nr = np.maximum(nr, 0)
        if stages_left:
            nl = np.maximum(L - stages_left - PL, 0)
        else:
            nl = np.ones(len(states), dtype=np.int64)
        n_per_p = nl * nr
        total_b = int(n_per_p.sum())
        if total_b == 0:
            history.append({})
            continue
        P_b = np.repeat(np.arange(len(states), dtype=np.int64), n_per_p)
        local = _ragged_arange(n_per_p)
        nr_b = nr[P_b]
        il = local // nr_b
        R_b = 1 + (local % nr_b)
        if stages_left:
            L_b = PL[P_b] + 1 + il
        else:
            L_b = np.full(total_b, L, dtype=np.int64)
        PL_b = PL[P_b]
        D_b = PD[P_b] + R_b

        # Group batches by target state, preserving within-target
        # construction order (stable sort by first-occurrence rank).
        if stages_left:
            code = L_b * (D + 1) + D_b
        else:
            code = (L_b * (D + 1) + D_b) * (rmax + 1) + R_b
        uniq, first, inverse = np.unique(
            code, return_index=True, return_inverse=True
        )
        rank_of_uniq = np.empty(len(uniq), dtype=np.int64)
        rank_of_uniq[np.argsort(first, kind="stable")] = np.arange(
            len(uniq), dtype=np.int64
        )
        t_rank = rank_of_uniq[inverse]
        perm = np.argsort(t_rank, kind="stable")
        P_b, R_b, L_b, PL_b, D_b, t_rank = (
            P_b[perm], R_b[perm], L_b[perm], PL_b[perm], D_b[perm],
            t_rank[perm],
        )
        nt = len(uniq)
        tb_counts = np.bincount(t_rank, minlength=nt)
        tb_starts = np.cumsum(tb_counts) - tb_counts

        # Candidate expansion: one candidate per (batch, parent entry).
        # Under mixed speeds the slab axis is the (pd, r) window's slab
        # id; otherwise it is r itself — the original gather unchanged.
        K_b = SID[PD[P_b], R_b] if scaled else R_b
        T0_b = ST0[K_b, PL_b, L_b]
        GA_b = SGAP[K_b, PL_b, L_b]
        if not sc and not zb:
            # CS == CW under default pricing (see chain_table_array):
            # dominance degenerates to two columns, so each batch is a
            # corner-clamped frontier — prune it to its elbow survivors
            # before the cross-batch staircase ever sees it.
            bidx, pil, CW, CY = _clamp_elbow(
                EW, EY, estarts, ecounts, P_b, T0_b, GA_b
            )
            CS = CW
            t_of_b = np.repeat(np.arange(nt, dtype=np.int64), tb_counts)
            ct_counts = np.bincount(t_of_b[bidx], minlength=nt)
            drop = _staircase_drop(CW, CY, ct_counts)
            # Survivors back to arrival order before emission (the
            # elbow emits w-sorted runs, not parent-list order).
            kidx = np.flatnonzero(~drop)
            kidx = kidx[np.lexsort((pil[kidx], bidx[kidx]))]
        else:
            counts_e = ecounts[P_b]
            bidx = np.repeat(
                np.arange(total_b, dtype=np.int64), counts_e
            )
            pil = _ragged_arange(counts_e)
            eidx = estarts[P_b][bidx] + pil
            AL_b = SALT[K_b, PL_b, L_b]
            CW = np.maximum(EW[eidx], T0_b[bidx])
            CS = np.maximum(ES[eidx], AL_b[bidx])
            CY = np.maximum(EY[eidx], GA_b[bidx])
            ct_counts = np.add.reduceat(counts_e, tb_starts)
            drop = _segmented_pareto((CW, CS, CY), ct_counts)
            kidx = np.flatnonzero(~drop)

        # Target states in creation order; assemble surviving entries.
        seg_of = np.repeat(np.arange(nt, dtype=np.int64), ct_counts)
        TL = L_b[tb_starts]
        TD = D_b[tb_starts]
        TR = R_b[tb_starts]
        if stages_left:
            target_states = [
                (int(TL[t]), int(TD[t])) for t in range(nt)
            ]
        else:
            target_states = [
                (int(TL[t]), int(TD[t]), int(TR[t])) for t in range(nt)
            ]
        cur: dict[tuple, list[tuple]] = {st: [] for st in target_states}
        rows = zip(
            CW[kidx].tolist(),
            CS[kidx].tolist(),
            CY[kidx].tolist(),
            PL_b[bidx][kidx].tolist(),
            R_b[bidx][kidx].tolist(),
            pil[kidx].tolist(),
            seg_of[kidx].tolist(),
        )
        for w, w2, y, pl, rr, pi, sg in rows:
            cur[target_states[sg]].append((w, w2, y, pl, rr, pi))
        history.append(cur)

    tf_by_r: dict[int, float] = {}
    if ctx.self_conditioning:
        for state in history[S]:
            r = state[2]
            if r not in tf_by_r:
                tf_by_r[r] = costs_for(r).feedback_ms()
    return history, tf_by_r


# -- bidirectional CDM -------------------------------------------------------


def _build_cdm_plan(
    *,
    S: int,
    ld: int,
    lu: int,
    cuts_d: list[int],
    cuts_u: list[int],
    gap_d: int,
    gap_u: int,
    max_len_d: int,
    max_len_u: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
) -> list[dict]:
    """Geometry-only transition plan shared across table builds.

    State sets, batch enumeration and target creation order of the CDM
    DP depend only on the lattice geometry — frontiers are never empty,
    so no value ever changes which states exist.  The plan tabulates,
    per chain position, the parent states and the (parent, a, r, b)
    batches grouped by target in creation order; a table build then
    only fills in values.  Plans are cached in
    ``PlannerCaches.kernel_plans`` so adjacent stage-local batches in a
    sweep rebuild values over shared index arrays instead of
    re-enumerating the cut grid.
    """
    cuts_d_arr = np.asarray(cuts_d, dtype=np.int64)
    cuts_u_arr = np.asarray(cuts_u, dtype=np.int64)
    plan: list[dict] = []
    PA = np.zeros(1, dtype=np.int64)
    PB = np.zeros(1, dtype=np.int64)
    PD = np.zeros(1, dtype=np.int64)
    for k in range(1, S + 1):
        remaining = S - k
        room_d = ld - remaining * gap_d
        room_u = lu - remaining * gap_u
        if fixed_r is not None:
            nr = np.ones(len(PA), dtype=np.int64)
        else:
            nr = np.maximum(
                np.minimum(D - PD - remaining, r_cap), 0
            )
        if remaining:
            a_lo = np.searchsorted(cuts_d_arr, PA, side="right")
            a_hi = np.searchsorted(
                cuts_d_arr, np.minimum(room_d, PA + max_len_d), side="right"
            )
            b_lo = np.searchsorted(cuts_u_arr, PB, side="right")
            b_hi = np.searchsorted(
                cuts_u_arr, np.minimum(room_u, PB + max_len_u), side="right"
            )
            na = np.maximum(a_hi - a_lo, 0)
            nb = np.maximum(b_hi - b_lo, 0)
        else:
            a_lo = np.searchsorted(cuts_d_arr, ld, side="left") * np.ones(
                len(PA), dtype=np.int64
            )
            b_lo = np.searchsorted(cuts_u_arr, lu, side="left") * np.ones(
                len(PB), dtype=np.int64
            )
            na = np.ones(len(PA), dtype=np.int64)
            nb = np.ones(len(PB), dtype=np.int64)
        n_per_p = na * nr * nb
        total_b = int(n_per_p.sum())
        if total_b == 0:
            plan.append(
                {
                    "P": np.zeros(0, dtype=np.int64),
                    "A": np.zeros(0, dtype=np.int64),
                    "B": np.zeros(0, dtype=np.int64),
                    "R": np.zeros(0, dtype=np.int64),
                    "PA": PA, "PB": PB, "PD": PD,
                    "tb_starts": np.zeros(0, dtype=np.int64),
                    "tb_counts": np.zeros(0, dtype=np.int64),
                    "TA": np.zeros(0, dtype=np.int64),
                    "TB": np.zeros(0, dtype=np.int64),
                    "TD": np.zeros(0, dtype=np.int64),
                }
            )
            PA = PB = PD = np.zeros(0, dtype=np.int64)
            continue
        P_b = np.repeat(np.arange(len(PA), dtype=np.int64), n_per_p)
        local = _ragged_arange(n_per_p)
        nrnb = (nr * nb)[P_b]
        nb_b = nb[P_b]
        ia = local // nrnb
        ir = (local % nrnb) // nb_b
        ib = local % nb_b
        A_b = cuts_d_arr[a_lo[P_b] + ia]
        B_b = cuts_u_arr[b_lo[P_b] + ib]
        if fixed_r is not None:
            R_b = np.full(total_b, fixed_r, dtype=np.int64)
        else:
            R_b = 1 + ir
        D_b = PD[P_b] + R_b

        code = (A_b * (lu + 1) + B_b) * (D + 1) + D_b
        uniq, first, inverse = np.unique(
            code, return_index=True, return_inverse=True
        )
        rank_of_uniq = np.empty(len(uniq), dtype=np.int64)
        rank_of_uniq[np.argsort(first, kind="stable")] = np.arange(
            len(uniq), dtype=np.int64
        )
        t_rank = rank_of_uniq[inverse]
        perm = np.argsort(t_rank, kind="stable")
        P_b, A_b, B_b, R_b, D_b, t_rank = (
            P_b[perm], A_b[perm], B_b[perm], R_b[perm], D_b[perm],
            t_rank[perm],
        )
        nt = len(uniq)
        tb_counts = np.bincount(t_rank, minlength=nt)
        tb_starts = np.cumsum(tb_counts) - tb_counts
        plan.append(
            {
                "P": P_b, "A": A_b, "B": B_b, "R": R_b,
                "PA": PA, "PB": PB, "PD": PD,
                "tb_starts": tb_starts, "tb_counts": tb_counts,
                "TA": A_b[tb_starts], "TB": B_b[tb_starts],
                "TD": D_b[tb_starts],
            }
        )
        PA, PB, PD = A_b[tb_starts], B_b[tb_starts], D_b[tb_starts]
    return plan


def cdm_table_array(
    ctx,
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
):
    """Array twin of :func:`repro.oracles.cdm_table_reference` — same
    frontier list, bit-identical entries, dict orders and truncation
    behaviour.

    ``plans`` is an optional mapping-like store (``LruStore``) of
    geometry transition plans, shared across table builds of one sweep.
    """
    from .partition_cdm import (
        _cut_points,
        _lazy_scaled_costs,
        _min_gap,
    )

    cuts_d = _cut_points(ld, cut_step)
    cuts_u = _cut_points(lu, cut_step)
    pts_u = sorted({lu - b for b in cuts_u})
    gap_d = _min_gap(cuts_d)
    gap_u = _min_gap(pts_u)

    plan_key = ("cdm", S, ld, lu, cut_step, D, r_cap, fixed_r)
    plan = plans.get(plan_key) if plans is not None else None
    if plan is None:
        plan = _build_cdm_plan(
            S=S, ld=ld, lu=lu, cuts_d=cuts_d, cuts_u=cuts_u,
            gap_d=gap_d, gap_u=gap_u,
            max_len_d=ld - (S - 1) * gap_d,
            max_len_u=lu - (S - 1) * gap_u,
            D=D, r_cap=r_cap, fixed_r=fixed_r,
        )
        if plans is not None:
            plans.put(plan_key, plan)

    costs_d_for = _lazy_scaled_costs(ctx.down, ctx.comm_scale)
    costs_u_for = _lazy_scaled_costs(ctx.up, ctx.comm_scale)
    r_used = sorted(
        set().union(*(np.unique(stage["R"]).tolist() for stage in plan))
    )
    rmax = max(r_used, default=0)
    scaled = ctx.down.speed_scales is not None
    if not scaled:
        STD = np.zeros((rmax + 1, ld + 1, ld + 1))
        SGD = np.zeros((rmax + 1, ld + 1, ld + 1))
        STU = np.zeros((rmax + 1, lu + 1, lu + 1))
        SGU = np.zeros((rmax + 1, lu + 1, lu + 1))
        for r in r_used:
            STD[r], _, SGD[r] = _cost_slabs(
                costs_d_for(r), ld, sc=False, zb=False
            )
            STU[r], _, SGU[r] = _cost_slabs(
                costs_u_for(r), lu, sc=False, zb=False
            )
        SID = None
    else:
        # Chain position k hosts its down AND up stage on the same
        # device window [pd, pd+r), so one (r, window factor) slab id
        # serves both chains' gathers (see het_table_array).
        comp_scale = ctx.down.comp_scale
        SID = np.zeros((D + 1, rmax + 1), dtype=np.int64)
        slab_id: dict[tuple[int, float], int] = {}
        slab_params: list[tuple[int, float]] = []
        for r in r_used:
            for pd in range(D - r + 1):
                key = (r, ctx.down.window_scale(pd, r))
                sid = slab_id.get(key)
                if sid is None:
                    sid = slab_id[key] = len(slab_params)
                    slab_params.append(key)
                SID[pd, r] = sid
        nslab = len(slab_params)
        STD = np.zeros((nslab, ld + 1, ld + 1))
        SGD = np.zeros((nslab, ld + 1, ld + 1))
        STU = np.zeros((nslab, lu + 1, lu + 1))
        SGU = np.zeros((nslab, lu + 1, lu + 1))
        for sid, (r, w) in enumerate(slab_params):
            STD[sid], _, SGD[sid] = _cost_slabs(
                costs_d_for(r), ld, sc=False, zb=False,
                scale=w, comp_scale=comp_scale,
            )
            STU[sid], _, SGU[sid] = _cost_slabs(
                costs_u_for(r), lu, sc=False, zb=False,
                scale=w, comp_scale=comp_scale,
            )

    frontiers: list[dict[tuple[int, int, int], list[tuple]]] = [
        {(0, 0, 0): [(0.0, float("-inf"), -1, -1, 0, -1)]}
    ]
    for k in range(1, S + 1):
        st = plan[k - 1]
        P_b, A_b, B_b, R_b = st["P"], st["A"], st["B"], st["R"]
        PA, PB = st["PA"], st["PB"]
        tb_starts, tb_counts = st["tb_starts"], st["tb_counts"]
        total_b = len(P_b)
        if total_b == 0:
            frontiers.append({})
            continue
        entry_lists = list(frontiers[k - 1].values())
        EW, EY, ecounts = _flatten_entries(entry_lists, 2)
        estarts = np.cumsum(ecounts) - ecounts

        PA_b = PA[P_b]
        PB_b = PB[P_b]
        K_b = SID[st["PD"][P_b], R_b] if scaled else R_b
        td = STD[K_b, PA_b, A_b]
        gd = SGD[K_b, PA_b, A_b]
        tu = STU[K_b, lu - B_b, lu - PB_b]
        gu = SGU[K_b, lu - B_b, lu - PB_b]
        WS = np.maximum(td, tu)
        YS = np.maximum(gd, gu)

        # Candidate expansion fused with the exact within-batch
        # prefilter: every batch is one parent frontier clamped by a
        # single ``(WS, YS)`` corner, so only its elbow survivors (the
        # strictly-above-elbow band plus at most two corner entries)
        # can ever touch the fold — the sequential fold completes all
        # within-batch kills before any batch-end truncation.  The
        # clamp collapses most entries onto the corner, so this is also
        # where the candidate stream loses most of its mass.
        bidx, pil, CW, CY = _clamp_elbow(
            EW, EY, estarts, ecounts, P_b, WS, YS
        )
        nt = len(tb_counts)
        t_of_b = np.repeat(np.arange(nt, dtype=np.int64), tb_counts)
        seg_of = t_of_b[bidx]
        ct_counts = np.bincount(seg_of, minlength=nt)

        oversized = ct_counts > max_frontier
        if oversized.any():
            drop, killer, rej = _staircase_drop(
                CW, CY, ct_counts, batch=bidx, cap=max_frontier
            )
            # Arrival-rejected candidates never occupy frontier space:
            # exclude them from the screen's live counts (tighter, still
            # sound) and from the replay streams below.
            live = ~rej
            safe = _truncation_safe(
                np.bincount(seg_of[live], minlength=nt),
                bidx[live],
                killer[live],
                max_frontier,
            )
        else:
            drop = _staircase_drop(CW, CY, ct_counts)
            safe = np.ones(nt, dtype=bool)
            rej = None

        kidx = np.flatnonzero(~drop & safe[seg_of])
        # Survivors back to arrival order before emission (the elbow
        # emits w-sorted runs, not parent-list order).
        kidx = kidx[np.lexsort((pil[kidx], bidx[kidx]))]
        target_states = [
            (int(st["TA"][t]), int(st["TB"][t]), int(st["TD"][t]))
            for t in range(nt)
        ]
        cur: dict[tuple[int, int, int], list[tuple]] = {
            s_: [] for s_ in target_states
        }
        rows = zip(
            CW[kidx].tolist(),
            CY[kidx].tolist(),
            PA_b[bidx][kidx].tolist(),
            PB_b[bidx][kidx].tolist(),
            R_b[bidx][kidx].tolist(),
            pil[kidx].tolist(),
            seg_of[kidx].tolist(),
        )
        for w, y, pa, pb, rr, pi, sg in rows:
            cur[target_states[sg]].append((w, y, pa, pb, rr, pi))
        if not safe.all():
            # The screen could not rule out mid-build truncation for
            # these targets: replay the capped fold for all of them at
            # once, one vectorized round per batch depth.
            uts = np.flatnonzero(~safe)
            scnt_u, idx_u = _lockstep_fold(
                CW,
                CY,
                bidx,
                pil,
                seg_of,
                ~safe[seg_of] & ~rej,
                uts,
                max_frontier,
            )
            emask = (
                np.arange(max_frontier, dtype=np.int64)[None, :]
                < scnt_u[:, None]
            )
            flat = idx_u[emask]
            fb = bidx[flat]
            tup = list(
                zip(
                    CW[flat].tolist(),
                    CY[flat].tolist(),
                    PA_b[fb].tolist(),
                    PB_b[fb].tolist(),
                    R_b[fb].tolist(),
                    pil[flat].tolist(),
                )
            )
            ustarts = np.cumsum(scnt_u) - scnt_u
            for j, t in enumerate(uts.tolist()):
                lo = int(ustarts[j])
                cur[target_states[t]] = tup[lo : lo + int(scnt_u[j])]
        frontiers.append(cur)
    return frontiers
