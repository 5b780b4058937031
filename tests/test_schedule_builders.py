"""1F1B / GPipe / bidirectional schedule-builder tests."""

import pytest

from repro.errors import ConfigurationError
from repro.schedule import (
    StageExec,
    TaskKind,
    get_family,
    simulate,
    validate_stages,
)
from repro.schedule.bidirectional import build_bidirectional
from repro.schedule.gpipe import build_gpipe
from repro.schedule.onef1b import build_1f1b


def _stages(S, f=10.0, b=20.0, comm=0.0, sync=0.0):
    return [
        StageExec(index=i, fwd_ms=f, bwd_ms=b, send_fwd_ms=comm,
                  send_bwd_ms=comm, sync_ms=sync)
        for i in range(S)
    ]


def _sim(tasks, S):
    return simulate(tasks, S)


def test_stage_exec_validation():
    with pytest.raises(ConfigurationError):
        StageExec(index=-1, fwd_ms=1, bwd_ms=1)
    with pytest.raises(ConfigurationError):
        StageExec(index=0, fwd_ms=-1, bwd_ms=1)
    with pytest.raises(ConfigurationError):
        StageExec(index=0, fwd_ms=1, bwd_ms=1, replicas=0)
    with pytest.raises(ConfigurationError):
        validate_stages([])
    with pytest.raises(ConfigurationError):
        validate_stages([StageExec(index=1, fwd_ms=1, bwd_ms=1)])
    s = StageExec(index=0, fwd_ms=2, bwd_ms=4)
    assert s.sc_fwd_ms == 2  # defaults to fwd


def test_1f1b_makespan_matches_theory():
    """Balanced stages, no comm: span = (M + S - 1) * (f + b)."""
    S, M, f, b = 4, 4, 10.0, 20.0
    tl = _sim(build_1f1b(_stages(S, f, b), M), S)
    assert tl.makespan == pytest.approx((M + S - 1) * (f + b))


def test_1f1b_bubble_ratio_matches_theory():
    S, M = 4, 4
    tl = _sim(build_1f1b(_stages(S), M), S)
    assert tl.bubble_ratio() == pytest.approx((S - 1) / (M + S - 1))


def test_1f1b_task_counts():
    S, M = 3, 2
    tasks = build_1f1b(_stages(S), M)
    kinds = {}
    for t in tasks:
        kinds[t.kind] = kinds.get(t.kind, 0) + 1
    assert kinds[TaskKind.FORWARD] == S * M
    assert kinds[TaskKind.BACKWARD] == S * M
    assert kinds[TaskKind.COMM] == 2 * (S - 1) * M
    assert kinds[TaskKind.SYNC] == S


def test_1f1b_memory_window():
    """Stage 0 may have at most S in-flight micro-batches: with M >> S
    its forwards are throttled by completed backwards."""
    S, M = 2, 6
    tl = _sim(build_1f1b(_stages(S), M), S)
    fwd_starts = sorted(
        iv.start
        for iv in tl.intervals
        if iv.task.kind == TaskKind.FORWARD and iv.task.meta["stage"] == 0
    )
    bwd_ends = sorted(
        iv.end
        for iv in tl.intervals
        if iv.task.kind == TaskKind.BACKWARD and iv.task.meta["stage"] == 0
    )
    # The (S+1)-th forward cannot start before the 1st backward ends.
    assert fwd_starts[S] >= bwd_ends[0]


def test_gpipe_all_forwards_before_backwards():
    S, M = 2, 4
    tl = _sim(build_gpipe(_stages(S), M), S)
    for dev in range(S):
        fwd_end = max(
            iv.end for iv in tl.intervals
            if iv.task.kind == TaskKind.FORWARD and iv.task.device == dev
        )
        bwd_start = min(
            iv.start for iv in tl.intervals
            if iv.task.kind == TaskKind.BACKWARD and iv.task.device == dev
        )
        assert bwd_start >= fwd_end


def test_gpipe_vs_1f1b_same_span_when_balanced():
    """With balanced stages and no comm, GPipe and 1F1B have the same
    critical path (they differ in memory, not time)."""
    S, M = 4, 4
    a = _sim(build_1f1b(_stages(S), M), S).makespan
    g = _sim(build_gpipe(_stages(S), M), S).makespan
    assert a == pytest.approx(g)


def test_self_conditioning_adds_forward_wave():
    S, M = 2, 2
    plain = build_1f1b(_stages(S), M)
    sc = build_1f1b(_stages(S), M, self_conditioning=True, feedback_ms=1.0)
    sc_kinds = [t for t in sc if t.kind == TaskKind.SC_FORWARD]
    assert len(sc_kinds) == S * M
    assert len(sc) > len(plain)
    tl_sc = _sim(sc, S)
    tl_plain = _sim(plain, S)
    assert tl_sc.makespan > tl_plain.makespan


def test_self_conditioning_feedback_ordering():
    """The main forward of a micro-batch on stage 0 starts only after
    the SC wave reaches the last stage and feeds back."""
    S, M = 3, 1
    tl = _sim(build_1f1b(_stages(S), M, self_conditioning=True,
                         feedback_ms=5.0), S)
    sc_last_end = max(
        iv.end for iv in tl.intervals if iv.task.kind == TaskKind.SC_FORWARD
        and iv.task.meta["stage"] == S - 1
    )
    main_first = min(
        iv.start for iv in tl.intervals if iv.task.kind == TaskKind.FORWARD
        and iv.task.meta["stage"] == 0
    )
    assert main_first >= sc_last_end + 5.0


def test_sync_runs_after_last_backward():
    S, M = 2, 2
    tl = _sim(build_1f1b(_stages(S, sync=7.0), M), S)
    for dev in range(S):
        syncs = [iv for iv in tl.intervals if iv.task.kind == TaskKind.SYNC
                 and iv.task.device == dev]
        assert len(syncs) == 1
        last_bwd = max(
            iv.end for iv in tl.intervals
            if iv.task.kind == TaskKind.BACKWARD and iv.task.device == dev
        )
        assert syncs[0].start >= last_bwd
    assert tl.makespan >= 7.0 + (M + S - 1) * 30.0


def test_bidirectional_combines_two_pipelines():
    S, M = 2, 2
    tasks = build_bidirectional(_stages(S, f=10, b=20), _stages(S, f=10, b=20), M)
    tl = _sim(tasks, S)
    # Both pipelines' work lands on both devices.
    for dev in range(S):
        ids = {iv.task.task_id for iv in tl.intervals if iv.task.device == dev}
        assert any(i.startswith("dn/") for i in ids)
        assert any(i.startswith("up/") for i in ids)
    # Utilisation beats a single unidirectional pipeline's.
    single = _sim(build_1f1b(_stages(S), M), S)
    assert tl.bubble_ratio() < single.bubble_ratio()


def test_bidirectional_stage_count_mismatch():
    with pytest.raises(ConfigurationError):
        build_bidirectional(_stages(2), _stages(3), 2)


def test_bidirectional_colocated_replica_mismatch():
    """Chain position i hosts down stage i and up stage S-1-i on the
    same devices, so their replica counts must agree."""
    down = [
        StageExec(index=0, fwd_ms=1, bwd_ms=2, replicas=2),
        StageExec(index=1, fwd_ms=1, bwd_ms=2, replicas=1),
    ]
    up_ok = [
        StageExec(index=0, fwd_ms=1, bwd_ms=2, replicas=1),
        StageExec(index=1, fwd_ms=1, bwd_ms=2, replicas=2),
    ]
    build_bidirectional(down, up_ok, 2)  # mirrored counts: fine
    up_bad = [
        StageExec(index=0, fwd_ms=1, bwd_ms=2, replicas=2),
        StageExec(index=1, fwd_ms=1, bwd_ms=2, replicas=1),
    ]
    with pytest.raises(ConfigurationError, match="co-located"):
        build_bidirectional(down, up_bad, 2)


def test_comm_scale_doubles_transfers():
    S, M = 2, 1
    t1 = build_1f1b(_stages(S, comm=4.0), M, comm_scale=1.0)
    t2 = build_1f1b(_stages(S, comm=4.0), M, comm_scale=2.0)
    c1 = next(t for t in t1 if t.kind == TaskKind.COMM)
    c2 = next(t for t in t2 if t.kind == TaskKind.COMM)
    assert c2.duration == 2 * c1.duration


def test_gpipe_is_the_fifo_core_without_window():
    """GPipe is the 1F1B graph without the in-flight window deps, with
    every forward emitted (and dispatched) before any backward."""
    S, M = 3, 5
    kw = dict(self_conditioning=True, feedback_ms=1.0)
    f1b = build_1f1b(_stages(S), M, **kw)
    gpipe = build_gpipe(_stages(S), M, **kw)

    def shape(tasks, drop_window):
        return {
            (t.task_id, t.kind, t.resource, t.duration, tuple(
                d for d in t.deps
                if not (drop_window and t.kind is TaskKind.FORWARD
                        and d.startswith("bwd"))
            ))
            for t in tasks
        }

    assert shape(gpipe, False) == shape(f1b, True) != shape(f1b, False)
    kinds = [t.kind for t in gpipe]
    last_fwd = max(i for i, k in enumerate(kinds) if k is TaskKind.FORWARD)
    assert last_fwd < kinds.index(TaskKind.BACKWARD)


def test_bidirectional_family_rejects_self_conditioning():
    family = get_family("bidirectional")
    with pytest.raises(ConfigurationError, match="self-conditioning"):
        family.build(_stages(2), 2, up=_stages(2), self_conditioning=True)


def test_invalid_micro_batches():
    with pytest.raises(ConfigurationError):
        build_1f1b(_stages(2), 0)
    with pytest.raises(ConfigurationError):
        build_gpipe(_stages(2), -1)
