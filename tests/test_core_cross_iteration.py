"""Cross-iteration composition tests (§3.2)."""

import pytest

from repro.core import (
    FillReport,
    compose_iteration,
    extract_bubbles,
    packed_fill_strict_credit,
    strict_idle_in_bubbles,
)
from repro.core.plan import BubbleUtilization, FillItem
from repro.schedule import StageExec, Task, TaskKind, Timeline, simulate
from repro.schedule.onef1b import build_1f1b
from repro.schedule import device_resource
from repro.schedule.timeline import Interval


def _timeline(S=2, M=2, f=10.0, b=20.0):
    stages = [StageExec(index=i, fwd_ms=f, bwd_ms=b) for i in range(S)]
    return simulate(build_1f1b(stages, M), S)


def _report(filled=30.0, bubble=60.0, leftover=0.0):
    return FillReport(
        items=(FillItem("e", 0, 64, filled, 0),),
        filled_device_time_ms=filled,
        bubble_device_time_ms=bubble,
        leftover_ms=leftover,
        num_bubbles=1,
        complete=leftover == 0.0,
    )


def test_unfilled_iteration_is_serial():
    tl = _timeline()
    est = compose_iteration(tl, None, nt_total_ms=100.0)
    assert est.iteration_ms == pytest.approx(tl.makespan + 100.0)
    assert est.leftover_ms == 100.0
    assert est.bubble_ratio_filled == est.bubble_ratio_unfilled


def test_filled_iteration_hides_nt():
    tl = _timeline()
    # The timeline's idle device-time is 60 ms; fill it completely.
    est = compose_iteration(tl, _report(filled=60.0, leftover=0.0),
                            nt_total_ms=100.0)
    assert est.iteration_ms == pytest.approx(tl.makespan)
    assert est.warmup_extra_ms == 100.0
    assert est.saved_ms == 100.0
    assert est.bubble_ratio_filled == 0.0
    assert est.bubble_ratio_filled < est.bubble_ratio_unfilled


def test_leftover_appends_to_iteration():
    tl = _timeline()
    est = compose_iteration(tl, _report(leftover=25.0), nt_total_ms=100.0)
    assert est.iteration_ms == pytest.approx(tl.makespan + 25.0)
    assert est.saved_ms == pytest.approx(75.0)


def test_ratio_accounting_with_devices():
    tl = _timeline()
    est2 = compose_iteration(tl, _report(), nt_total_ms=100.0, total_devices=2)
    est4 = compose_iteration(tl, _report(), nt_total_ms=100.0, total_devices=4)
    # Same idle time spread over more devices -> smaller ratio.
    assert est4.bubble_ratio_filled < est2.bubble_ratio_filled


def test_fill_report_fraction():
    rep = _report(filled=30.0, bubble=60.0)
    assert rep.fill_fraction == pytest.approx(0.5)
    empty = FillReport(
        items=(), filled_device_time_ms=0.0, bubble_device_time_ms=0.0,
        leftover_ms=0.0, num_bubbles=0, complete=True,
    )
    assert empty.fill_fraction == 0.0


# -- view-consistent filled bubble-ratio (sync-heavy regression) --------------------


def _iv(start, end, dev, kind=TaskKind.FORWARD):
    task = Task(
        task_id=f"{kind.value}@{dev}:{start}", resource=device_resource(dev),
        duration=end - start, kind=kind, device=dev,
    )
    return Interval(start, end, task)


def _sync_heavy_timeline():
    """dev0: compute [0,10), a sub-threshold strict-idle gap [10,18),
    compute [18,30), then a 70 ms gradient sync; dev1 busy throughout.
    Strict idle = 8 ms (outside any fillable bubble); the only fillable
    bubble is the sync span [30,100)."""
    return Timeline(
        [
            _iv(0, 10, 0),
            _iv(18, 30, 0),
            _iv(30, 100, 0, TaskKind.SYNC),
            _iv(0, 100, 1),
        ],
        num_devices=2,
    )


def test_strict_idle_in_bubbles_overlap():
    tl = _sync_heavy_timeline()
    bubbles = extract_bubbles(tl, min_duration_ms=10.0, include_sync_spans=True)
    assert [(b.start, b.end) for b in bubbles] == [(30.0, 100.0)]
    # The sync bubble contains no strict idle at all...
    assert strict_idle_in_bubbles(tl, bubbles) == 0.0
    # ...while with the threshold lowered the 8 ms strict gap is inside.
    all_bubbles = extract_bubbles(tl, min_duration_ms=0.0,
                                  include_sync_spans=True)
    assert strict_idle_in_bubbles(tl, all_bubbles) == pytest.approx(8.0)


def test_sync_heavy_fill_does_not_clamp_ratio_to_zero():
    """Work overlapped with gradient sync must not erase the strict-idle
    gap that was never fillable (the old accounting clamped to 0)."""
    tl = _sync_heavy_timeline()
    bubbles = extract_bubbles(tl, min_duration_ms=10.0, include_sync_spans=True)
    assert tl.bubble_device_time() == pytest.approx(8.0)  # strict view
    fill = FillReport(
        items=(FillItem("e", 0, 64, 50.0, 0),),
        filled_device_time_ms=50.0,          # all of it rides the sync span
        bubble_device_time_ms=70.0,
        leftover_ms=0.0,
        num_bubbles=1,
        complete=True,
    )
    est = compose_iteration(tl, fill, nt_total_ms=60.0, bubbles=bubbles)
    # 8 ms of strict idle remain: it was outside the fillable pool.
    assert est.bubble_ratio_filled == pytest.approx(
        8.0 / (est.iteration_ms * 2)
    )
    assert est.bubble_ratio_filled > 0.0
    # Without bubble metadata the historical (clamping) accounting applies.
    est_legacy = compose_iteration(tl, fill, nt_total_ms=60.0)
    assert est_legacy.bubble_ratio_filled == 0.0


def test_fill_within_strict_capacity_keeps_historical_accounting():
    """When the filled time fits the strict capacity inside the bubbles,
    the refined accounting reduces to the historical subtraction."""
    tl = _timeline()
    bubbles = extract_bubbles(tl, min_duration_ms=0.0, include_sync_spans=True)
    rep = _report(filled=30.0, bubble=60.0)
    with_bubbles = compose_iteration(tl, rep, nt_total_ms=100.0, bubbles=bubbles)
    without = compose_iteration(tl, rep, nt_total_ms=100.0)
    assert with_bubbles.bubble_ratio_filled == without.bubble_ratio_filled


# -- placement-aware per-bubble strict accounting ----------------------------------


def _sync_prefix_timeline():
    """dev0: compute [0,10), a 60 ms gradient sync [10,70), strict idle
    [70,110), compute [110,120); dev1 busy throughout.  The fillable
    bubble is [10,110) — a 60 ms sync *prefix* followed by 40 ms of
    strict idle — so work packed from the bubble start rides the sync
    span first."""
    return Timeline(
        [
            _iv(0, 10, 0),
            _iv(10, 70, 0, TaskKind.SYNC),
            _iv(110, 120, 0),
            _iv(0, 120, 1),
        ],
        num_devices=2,
    )


def _placed_report(filled_ms, bubbles):
    per_bubble = tuple(
        BubbleUtilization(
            bubble_index=i, duration_ms=b.duration, weight=b.weight,
            filled_ms=filled_ms,
        )
        for i, b in enumerate(bubbles)
    )
    return FillReport(
        items=(FillItem("e", 0, 64, filled_ms, 0),),
        filled_device_time_ms=filled_ms,
        bubble_device_time_ms=sum(b.device_time for b in bubbles),
        leftover_ms=0.0,
        num_bubbles=len(bubbles),
        complete=True,
        per_bubble=per_bubble,
    )


def test_packed_credit_intersects_strict_spans():
    tl = _sync_prefix_timeline()
    bubbles = extract_bubbles(tl, min_duration_ms=10.0, include_sync_spans=True)
    assert [(b.start, b.end) for b in bubbles] == [(10.0, 110.0)]
    # A 50 ms fill packs [10, 60): entirely on the sync span.
    assert packed_fill_strict_credit(tl, bubbles, _placed_report(50.0, bubbles)) == 0.0
    # A 70 ms fill packs [10, 80): 10 ms spill onto the strict idle.
    assert packed_fill_strict_credit(
        tl, bubbles, _placed_report(70.0, bubbles)
    ) == pytest.approx(10.0)
    # A full 100 ms fill covers all 40 ms of strict idle.
    assert packed_fill_strict_credit(
        tl, bubbles, _placed_report(100.0, bubbles)
    ) == pytest.approx(40.0)


def test_work_on_strict_idle_first_overstated_utilization():
    """The regression the placement-aware accounting exists for: a fill
    that rides a sync prefix removes *no* strict idle, but the
    work-on-strict-idle-first assumption credited it against the strict
    capacity and reported the bubble as (partially) utilized."""
    tl = _sync_prefix_timeline()
    bubbles = extract_bubbles(tl, min_duration_ms=10.0, include_sync_spans=True)
    assert tl.bubble_device_time() == pytest.approx(40.0)  # strict view
    placed = _placed_report(50.0, bubbles)  # packs [10, 60): sync only
    est = compose_iteration(tl, placed, nt_total_ms=60.0, bubbles=bubbles)
    # All 40 ms of strict idle remain: nothing was placed on it.
    assert est.bubble_ratio_filled == pytest.approx(40.0 / (est.iteration_ms * 2))
    # The capacity-capped legacy path (no per-bubble placement data)
    # would have credited min(50, 40) = 40 ms — utilization overstated.
    legacy = FillReport(
        items=placed.items,
        filled_device_time_ms=placed.filled_device_time_ms,
        bubble_device_time_ms=placed.bubble_device_time_ms,
        leftover_ms=0.0, num_bubbles=1, complete=True,
    )
    est_legacy = compose_iteration(tl, legacy, nt_total_ms=60.0, bubbles=bubbles)
    assert est_legacy.bubble_ratio_filled == 0.0
    assert est.bubble_ratio_filled > est_legacy.bubble_ratio_filled


def test_packed_credit_reduces_to_historical_on_sync_free_bubbles():
    """Sync-free bubbles: every packed window lies on strict idle, so
    the placement-aware credit equals the filled device-time and the
    ratio matches the historical subtraction bit for bit."""
    tl = _timeline()
    bubbles = extract_bubbles(tl, min_duration_ms=0.0, include_sync_spans=True)
    filled = 10.0
    per_bubble = tuple(
        BubbleUtilization(bubble_index=i, duration_ms=b.duration,
                          weight=b.weight,
                          filled_ms=filled if i == 0 else 0.0)
        for i, b in enumerate(bubbles)
    )
    placed = FillReport(
        items=(FillItem("e", 0, 64, filled, 0),),
        filled_device_time_ms=filled * bubbles[0].weight,
        bubble_device_time_ms=sum(b.device_time for b in bubbles),
        leftover_ms=0.0, num_bubbles=len(bubbles), complete=True,
        per_bubble=per_bubble,
    )
    assert packed_fill_strict_credit(tl, bubbles, placed) == pytest.approx(
        placed.filled_device_time_ms
    )
    est = compose_iteration(tl, placed, nt_total_ms=100.0, bubbles=bubbles)
    legacy = FillReport(
        items=placed.items,
        filled_device_time_ms=placed.filled_device_time_ms,
        bubble_device_time_ms=placed.bubble_device_time_ms,
        leftover_ms=0.0, num_bubbles=len(bubbles), complete=True,
    )
    est_legacy = compose_iteration(tl, legacy, nt_total_ms=100.0, bubbles=bubbles)
    assert est.bubble_ratio_filled == est_legacy.bubble_ratio_filled
