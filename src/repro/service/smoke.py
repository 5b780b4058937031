"""CI smoke test: ``python -m repro.service.smoke``.

Starts ``repro serve`` on an ephemeral port, opens three concurrent
connections — two sending the *same* plan request, one a distinct
batch — and asserts that

* all three get valid answers (the identical pair byte-identical),
* the service coalesced the duplicate (in-flight share or result-store
  hit, whichever the race produced),
* three malformed lines — invalid UTF-8, a line over the server's
  64 KiB limit, a snapshot into a missing directory — get one error
  reply each on a single connection, and a ``stats`` request after
  them is answered correctly,
* ``{"op": "shutdown"}`` stops the server cleanly.

Exit status 0 on success; any assertion or timeout exits non-zero.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import tempfile
import threading

from .planservice import PlanService
from .server import serve

HOST = "127.0.0.1"
#: small on purpose: 2 GPUs keeps profiling + planning to ~a second
REQ = {"op": "plan", "model": "sd", "gpus": 2, "batch": 32}
DISTINCT = {**REQ, "batch": 64}
TIMEOUT_S = 120.0


def _ask_lines(port: int, lines: list[bytes]) -> list[dict]:
    """Send raw lines on one connection; read one JSON reply per line."""
    with socket.create_connection((HOST, port), timeout=TIMEOUT_S) as sock:
        sock.settimeout(TIMEOUT_S)
        sock.sendall(b"".join(line + b"\n" for line in lines))
        with sock.makefile("rb") as reader:
            return [json.loads(reader.readline()) for _ in lines]


def _ask(port: int, msg: dict) -> dict:
    return _ask_lines(port, [json.dumps(msg).encode()])[0]


def _malformed_lines(tmp: str) -> list[bytes]:
    missing = os.path.join(tmp, "missing", "c.snap")
    return [
        b'{"op": "\xff"}',
        b'{"op": "plan", "model": "' + b"x" * (1 << 17) + b'"}',
        json.dumps({"op": "snapshot", "path": missing}).encode(),
    ]


def main() -> int:
    service = PlanService()
    ready = threading.Event()
    port_box: dict[str, int] = {}

    def _on_ready(port: int) -> None:
        port_box["port"] = port
        ready.set()

    server = threading.Thread(
        target=serve,
        args=(service, HOST, 0),
        kwargs={"ready_cb": _on_ready},
    )
    server.start()
    try:
        assert ready.wait(30), "server did not start"
        port = port_box["port"]

        answers: list = [None, None, None]

        def _client(i: int, msg: dict) -> None:
            answers[i] = _ask(port, msg)

        threads = [
            threading.Thread(target=_client, args=(0, REQ)),
            threading.Thread(target=_client, args=(1, REQ)),
            threading.Thread(target=_client, args=(2, DISTINCT)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
            assert not t.is_alive(), "client timed out"

        for ans in answers:
            assert ans is not None and ans["ok"], f"plan failed: {ans}"
            assert ans["throughput"] > 0
        assert answers[0] == answers[1], "identical requests must agree"
        assert answers[2]["request"]["batch"] == 64

        with tempfile.TemporaryDirectory() as tmp:
            bad = _malformed_lines(tmp)
            replies = _ask_lines(port, bad + [b'{"op": "stats"}'])
        for line, reply in zip(bad, replies):
            assert reply["op"] == "error" and reply["error"], (line[:40], reply)
        assert replies[-1]["op"] == "stats", replies[-1]
        stats = replies[-1]["metrics"]
        assert stats["requests"] == 3, stats
        shared = (
            stats["coalesced_inflight"] + stats["result_store"]["hits"]
        )
        assert shared >= 1, f"duplicate request was not coalesced: {stats}"
        assert stats["latency_s"]["count"] == 2, (
            "exactly two evaluations expected (one per distinct config): "
            f"{stats}"
        )
    except BaseException:
        # best-effort shutdown so the thread does not hang the process
        try:
            _ask(port_box.get("port", 0), {"op": "shutdown"})
        except OSError:
            pass
        server.join(10)
        raise
    ans = _ask(port, {"op": "shutdown"})
    assert ans.get("ok"), f"shutdown not acknowledged: {ans}"
    server.join(30)
    assert not server.is_alive(), "server did not stop"
    print("service smoke: ok (coalesced duplicate, malformed lines "
          "answered, clean shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
