"""Instruction-lowering tests (Fig. 7 step 6)."""

import pytest

from repro.core import FillItem, Op, format_streams, lower_timeline
from repro.errors import ScheduleError
from repro.schedule import StageExec, simulate
from repro.schedule.onef1b import build_1f1b


def _timeline(S=2, M=2, sync=5.0):
    stages = [
        StageExec(index=i, fwd_ms=10, bwd_ms=20, send_fwd_ms=1,
                  send_bwd_ms=1, sync_ms=sync)
        for i in range(S)
    ]
    return simulate(build_1f1b(stages, M), S)


def test_lowering_produces_per_device_streams():
    tl = _timeline()
    streams = lower_timeline(tl)
    assert set(streams) == {0, 1}
    for dev, stream in streams.items():
        ops = [i.op for i in stream]
        assert ops.count(Op.FORWARD) == 2
        assert ops.count(Op.BACKWARD) == 2
        assert Op.ALLREDUCE_GRADS in ops
        # Optimiser step closes the stream.
        assert ops[-1] == Op.OPTIMIZER_STEP


def test_comm_becomes_send_recv_pairs():
    tl = _timeline()
    streams = lower_timeline(tl)
    sends = [i for i in streams[0] if i.op == Op.SEND and i.args.get("dir") == "fwd"]
    recvs = [i for i in streams[1] if i.op == Op.RECV and i.args.get("dir") == "fwd"]
    assert len(sends) == len(recvs) == 2
    assert all(s.args["peer"] == 1 for s in sends)
    assert all(r.args["peer"] == 0 for r in recvs)


def test_instruction_order_matches_execution():
    tl = _timeline()
    streams = lower_timeline(tl)
    # On device 0: both forwards precede the first backward (warm-up).
    ops0 = [i.op for i in streams[0] if i.op in (Op.FORWARD, Op.BACKWARD)]
    assert ops0[:2] == [Op.FORWARD, Op.FORWARD]


def test_fill_items_lowered_to_nt_forward():
    tl = _timeline()
    items = [FillItem("enc", 3, 32.0, 5.0, bubble_index=0, partial=True)]
    bubbles = {0: (12.0, (1,))}
    streams = lower_timeline(tl, items, bubbles)
    nt = [i for i in streams[1] if i.op == Op.NT_FORWARD]
    assert len(nt) == 1
    assert nt[0].args["component"] == "enc"
    assert nt[0].args["samples"] == 32.0


def test_fill_items_require_bubble_metadata():
    tl = _timeline()
    items = [FillItem("enc", 0, 32.0, 5.0, bubble_index=7)]
    with pytest.raises(ScheduleError):
        lower_timeline(tl, items, None)
    with pytest.raises(ScheduleError):
        lower_timeline(tl, items, {0: (0.0, (0,))})  # bubble 7 unknown


def test_format_streams_renders():
    tl = _timeline()
    text = format_streams(lower_timeline(tl))
    assert "device 0:" in text
    assert "forward" in text
    assert "allreduce_grads" in text
