"""The concurrent planning service: coalescing, error handling, and
the JSON-lines TCP protocol.

Everything here runs the thread-pool service on tiny configurations
(2 GPUs) so the whole file stays inside the fast suite.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.service import PlanRequest, PlanResponse, PlanService
from repro.service.server import serve

SMALL = PlanRequest(model="sd", gpus=2, batch=32)


def test_plan_and_result_store():
    with PlanService() as svc:
        first = svc.plan(SMALL)
        assert first.ok and first.throughput > 0 and first.config_label
        again = svc.plan(SMALL)
        assert again == first
        metrics = svc.metrics()
        assert metrics["requests"] == 2
        # the repeat was answered from the result store, not re-planned
        assert metrics["result_store"]["hits"] == 1
        assert metrics["latency_s"]["count"] == 1


def test_identical_inflight_requests_coalesce():
    with PlanService() as svc:
        futures = [svc.submit(SMALL) for _ in range(4)]
        responses = [f.result() for f in futures]
        assert all(r == responses[0] for r in responses)
        metrics = svc.metrics()
        shared = (
            metrics["coalesced_inflight"] + metrics["result_store"]["hits"]
        )
        assert shared == 3, metrics
        assert metrics["latency_s"]["count"] == 1


def test_distinct_requests_are_not_coalesced():
    with PlanService() as svc:
        a = svc.plan(SMALL)
        b = svc.plan(PlanRequest(model="sd", gpus=2, batch=64))
        assert a.ok and b.ok and a != b
        metrics = svc.metrics()
        assert metrics["coalesced_inflight"] == 0
        assert metrics["latency_s"]["count"] == 2


def test_infeasible_plan_is_an_ok_false_response():
    with PlanService() as svc:
        resp = svc.plan(PlanRequest(model="unknown-model", gpus=2, batch=32))
        assert isinstance(resp, PlanResponse)
        assert not resp.ok and "unknown model" in resp.error


def test_request_validation():
    with pytest.raises(ServiceError, match="unknown request fields"):
        PlanRequest.from_dict({"model": "sd", "bogus": 1})
    assert PlanRequest.from_dict({"model": "sd", "gpus": 2}) == PlanRequest(
        model="sd", gpus=2
    )


class _Server:
    """One serve() loop on an ephemeral port, shut down on exit."""

    def __enter__(self):
        self.service = PlanService()
        ready = threading.Event()
        self.port = 0

        def on_ready(port):
            self.port = port
            ready.set()

        self.thread = threading.Thread(
            target=serve,
            args=(self.service, "127.0.0.1", 0),
            kwargs={"ready_cb": on_ready},
        )
        self.thread.start()
        assert ready.wait(30)
        return self

    def __exit__(self, *exc):
        try:
            self.ask({"op": "shutdown"})
        except OSError:
            pass
        self.thread.join(30)
        assert not self.thread.is_alive()

    def ask(self, msg: dict) -> dict:
        with socket.create_connection(("127.0.0.1", self.port), 30) as sock:
            sock.settimeout(60)
            sock.sendall(json.dumps(msg).encode() + b"\n")
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)

    def ask_lines(self, msgs: list[dict | bytes]) -> list[dict]:
        """Send every message (a dict, or a raw line as bytes) on one
        connection; read one reply each."""
        with socket.create_connection(("127.0.0.1", self.port), 30) as sock:
            sock.settimeout(60)
            sock.sendall(b"".join(
                (m if isinstance(m, bytes) else json.dumps(m).encode()) + b"\n"
                for m in msgs
            ))
            reader = sock.makefile("rb")
            return [json.loads(reader.readline()) for _ in msgs]


def test_server_protocol(tmp_path):
    with _Server() as srv:
        out = srv.ask({"op": "plan", "model": "sd", "gpus": 2, "batch": 32})
        assert out["ok"] and out["throughput"] > 0

        sweep = srv.ask(
            {"op": "sweep", "model": "sd", "gpus": 2, "batches": [32, 64]}
        )
        assert [r["request"]["batch"] for r in sweep["results"]] == [32, 64]
        assert all(r["ok"] for r in sweep["results"])
        # batch 32 was answered from the result store of the first plan
        assert sweep["results"][0]["throughput"] == out["throughput"]

        stats = srv.ask({"op": "stats"})["metrics"]
        assert stats["requests"] == 3
        assert stats["result_store"]["hits"] >= 1

        snap = srv.ask({"op": "snapshot", "path": str(tmp_path / "c.snap")})
        assert snap["written"]["chains"] > 0
        assert (tmp_path / "c.snap").exists()

        err = srv.ask({"op": "definitely-not-an-op"})
        assert err["op"] == "error" and "unknown op" in err["error"]
        err = srv.ask({"op": "plan", "bogus": True})
        assert err["op"] == "error" and "unknown request fields" in err["error"]
        err = srv.ask({"op": "sweep", "batches": []})
        assert err["op"] == "error" and "batches" in err["error"]


#: fields PlanRequest.from_dict rejects before any planning starts
MALFORMED_FIELDS = [
    {"gpus": 0},
    {"gpus": "x"},
    {"gpus": True},
    {"gpus": 2.5},
    {"batch": float("nan")},
    {"batch": float("inf")},
    {"batch": -64},
    {"batch": "64"},
    {"heterogeneous": "yes"},
    {"self_conditioning": 1},
    {"self_conditioning": 1.0},
    {"fill_strategy": "psychic"},
    {"fill_strategy": ["greedy"]},
    {"model": ["sd"]},
]


#: well-formed, but rejected by the cluster builder (not a p4de tiling)
BAD_PLAN_FIELDS = MALFORMED_FIELDS + [{"gpus": 12}]


@pytest.mark.parametrize("fields", MALFORMED_FIELDS, ids=repr)
def test_request_validation_rejects_bad_fields(fields):
    with pytest.raises(ServiceError):
        PlanRequest.from_dict({"model": "sd", "gpus": 2, "batch": 32, **fields})


def _bad_lines(tmp_path) -> list[dict | bytes]:
    """Lines that never reach a plan: undecodable bytes, one line over
    the server's 64 KiB stream limit, and a snapshot into a missing
    directory."""
    return [
        b'{"op": "\xff"}',
        b'{"op": "plan", "model": "' + b"x" * (1 << 17) + b'"}',
        {"op": "snapshot", "path": str(tmp_path / "missing" / "c.snap")},
    ]


def test_server_answers_every_bad_request_and_stays_up(tmp_path):
    """Each bad plan or bad line on one connection gets exactly one error
    reply, in order, and a valid plan afterwards is answered correctly.

    Regression: ``gpus: 0`` and ``gpus: 12`` used to raise SystemExit
    from the CLI's cluster builder inside the worker, which stopped the
    server loop; ``batch: NaN``, invalid UTF-8, an over-long line and an
    unwritable snapshot path dropped the connection with no reply."""
    base = {"op": "plan", "model": "sd", "gpus": 2, "batch": 32}
    lines = _bad_lines(tmp_path)
    with _Server() as srv:
        replies = srv.ask_lines(
            [{**base, **fields} for fields in BAD_PLAN_FIELDS] + lines + [base]
        )
        assert len(replies) == len(BAD_PLAN_FIELDS) + len(lines) + 1
        for fields, reply in zip(BAD_PLAN_FIELDS, replies):
            failed = reply["op"] == "error" or not reply["ok"]
            assert failed and reply["error"], (fields, reply)
        for reply in replies[len(BAD_PLAN_FIELDS):-1]:
            assert reply["op"] == "error" and reply["error"], reply
        assert replies[-1]["ok"] and replies[-1]["throughput"] > 0
        with PlanService() as fresh:
            expect = fresh.plan(SMALL)
        assert replies[-1]["throughput"] == expect.throughput
        assert replies[-1]["config_label"] == expect.config_label
