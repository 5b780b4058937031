"""Bubble identification tests (§5)."""

import pytest

from repro.core import Bubble, extract_bubbles, longest_bubble, total_bubble_device_time
from repro.errors import FillingError
from repro.schedule import (
    StageExec,
    Task,
    TaskKind,
    Timeline,
    device_resource,
    simulate,
)
from repro.schedule.onef1b import build_1f1b
from repro.schedule.timeline import Interval


def _iv(start, end, dev, kind=TaskKind.FORWARD):
    task = Task(
        task_id=f"{kind.value}@{dev}:{start}", resource=device_resource(dev),
        duration=end - start, kind=kind, device=dev,
    )
    return Interval(start, end, task)


def test_bubble_dataclass_validation():
    with pytest.raises(FillingError):
        Bubble(start=5, end=5, devices=(0,), weight=1)
    with pytest.raises(FillingError):
        Bubble(start=0, end=5, devices=(), weight=1)
    with pytest.raises(FillingError):
        Bubble(start=0, end=5, devices=(0,), weight=0)
    b = Bubble(start=0, end=5, devices=(0, 1), weight=2)
    assert b.duration == 5
    assert b.device_time == 10


def test_constant_idle_set_segmentation():
    """Warm-up staircase: the idle set shrinks step by step, producing
    one bubble per constant set."""
    # dev0 busy [0,30); dev1 busy [10,30); dev2 busy [20,30).
    tl = Timeline(
        [_iv(0, 30, 0), _iv(10, 30, 1), _iv(20, 30, 2)], num_devices=3
    )
    bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    as_tuples = [(b.start, b.end, b.devices) for b in bubbles]
    assert as_tuples == [(0, 10, (1, 2)), (10, 20, (2,))]


def test_min_duration_filter():
    tl = Timeline([_iv(0, 5, 0), _iv(8, 100, 0)], num_devices=1)
    all_bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    assert len(all_bubbles) == 1
    assert extract_bubbles(tl, min_duration_ms=10.0) == []
    with pytest.raises(FillingError):
        extract_bubbles(tl, min_duration_ms=-1)


def test_sync_spans_included_when_fillable():
    ivs = [_iv(0, 10, 0), _iv(10, 20, 0, TaskKind.SYNC), _iv(0, 20, 1)]
    tl = Timeline(ivs, num_devices=2)
    fillable = extract_bubbles(tl, min_duration_ms=0.0, include_sync_spans=True)
    strict = extract_bubbles(tl, min_duration_ms=0.0, include_sync_spans=False)
    assert sum(b.device_time for b in fillable) == 10.0
    assert strict == []


def test_weights_counted():
    tl = Timeline(
        [_iv(0, 20, 0), _iv(10, 20, 1)],
        num_devices=2,
        device_weights={0: 1, 1: 4},
    )
    bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    assert len(bubbles) == 1
    assert bubbles[0].weight == 4
    assert total_bubble_device_time(bubbles) == 40.0


def test_longest_bubble_helper():
    tl = Timeline([_iv(0, 5, 0), _iv(30, 35, 0)], num_devices=1)
    bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    top = longest_bubble(bubbles)
    assert top is not None and top.duration == 25.0
    assert longest_bubble([]) is None


def test_bubbles_of_real_1f1b_schedule():
    stages = [StageExec(index=i, fwd_ms=10, bwd_ms=20) for i in range(4)]
    tl = simulate(build_1f1b(stages, 4), 4)
    bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    # Total bubble device-time equals the timeline's own accounting.
    assert total_bubble_device_time(bubbles) == pytest.approx(
        tl.bubble_device_time()
    )
    # Chronologically sorted, non-overlapping in time per device.
    starts = [b.start for b in bubbles]
    assert starts == sorted(starts)


def test_empty_timeline():
    assert extract_bubbles(Timeline([], 2)) == []


def test_sweep_line_matches_reference_on_crafted_timelines():
    """Sweep-line vs the retained quadratic oracle: weights, sync spans,
    custom horizons, shared edges."""
    from repro.oracles import extract_bubbles_reference

    cases = [
        Timeline([_iv(0, 30, 0), _iv(10, 30, 1), _iv(20, 30, 2)], 3),
        Timeline([_iv(0, 5, 0), _iv(8, 100, 0)], 1),
        Timeline(
            [_iv(0, 10, 0), _iv(10, 20, 0, TaskKind.SYNC), _iv(0, 20, 1)], 2
        ),
        Timeline(
            [_iv(0, 20, 0), _iv(10, 20, 1)], 2, device_weights={0: 1, 1: 4}
        ),
        # Edges shared across devices: one device's idle ends exactly
        # where another's begins.
        Timeline([_iv(0, 10, 0), _iv(10, 20, 1), _iv(0, 20, 2)], 3),
        Timeline([], 2),
    ]
    for tl in cases:
        for sync in (True, False):
            for min_ms in (0.0, 10.0):
                for horizon in (None, 15.0):
                    fast = extract_bubbles(
                        tl, min_duration_ms=min_ms,
                        include_sync_spans=sync, horizon=horizon,
                    )
                    ref = extract_bubbles_reference(
                        tl, min_duration_ms=min_ms,
                        include_sync_spans=sync, horizon=horizon,
                    )
                    assert fast == ref


def test_sweep_line_merges_identical_adjacent_sets():
    """Two disjoint idle spans of the same device set separated by a
    zero-net-change edge group stay one bubble only when truly
    contiguous — a device handing off to another splits the bubble."""
    tl = Timeline([_iv(0, 10, 0), _iv(10, 20, 1)], 2)
    bubbles = extract_bubbles(tl, min_duration_ms=0.0)
    assert [(b.start, b.end, b.devices) for b in bubbles] == [
        (0.0, 10.0, (1,)),
        (10.0, 20.0, (0,)),
    ]
