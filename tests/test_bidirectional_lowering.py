"""Instruction lowering of bidirectional (CDM) timelines."""

from repro.core import Op, lower_timeline
from repro.schedule import StageExec, simulate
from repro.schedule.bidirectional import build_bidirectional


def _stages(S=2, f=10.0, b=20.0):
    return [
        StageExec(index=i, fwd_ms=f, bwd_ms=b, send_fwd_ms=1,
                  send_bwd_ms=1, sync_ms=2)
        for i in range(S)
    ]


def test_bidirectional_timeline_lowers_per_device():
    tasks = build_bidirectional(_stages(), _stages(), 2)
    tl = simulate(tasks, 2)
    streams = lower_timeline(tl)
    assert set(streams) == {0, 1}
    for dev, stream in streams.items():
        ops = [i.op for i in stream]
        # Each device runs forwards/backwards of both pipelines:
        # 2 pipelines x 2 micro-batches each.
        assert ops.count(Op.FORWARD) == 4
        assert ops.count(Op.BACKWARD) == 4
        # Two all-reduces: one per pipeline's resident stage.
        assert ops.count(Op.ALLREDUCE_GRADS) == 2
        assert ops[-1] == Op.OPTIMIZER_STEP


def test_bidirectional_send_recv_symmetry():
    tasks = build_bidirectional(_stages(), _stages(), 2)
    tl = simulate(tasks, 2)
    streams = lower_timeline(tl)
    sends = sum(1 for s in streams.values() for i in s if i.op == Op.SEND)
    recvs = sum(1 for s in streams.values() for i in s if i.op == Op.RECV)
    assert sends == recvs
    # Down pipeline ships 0->1, up pipeline 1->0: both devices send.
    assert any(i.op == Op.SEND for i in streams[0])
    assert any(i.op == Op.SEND for i in streams[1])
