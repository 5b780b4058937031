"""JSON-lines TCP front-end for :class:`PlanService` (``repro serve``).

Protocol: one JSON object per line, answered with one JSON object per
line.  Operations (``"op"`` field, default ``"plan"``):

``plan``
    Remaining fields are :class:`PlanRequest` fields
    (``{"op": "plan", "model": "sd", "gpus": 8, "batch": 256}``).
``sweep``
    Like ``plan`` but ``"batches"`` is a list; the batches are
    submitted concurrently and one response carries all results.
``stats``
    Returns :meth:`PlanService.metrics`.
``snapshot``
    ``{"op": "snapshot", "path": ...}`` persists the warm caches.
``shutdown``
    Acknowledges, then stops the server loop cleanly.

Every line gets exactly one reply: a line that is not a JSON object
(including invalid UTF-8), is longer than :data:`LINE_LIMIT` bytes, or
whose request fails (a bad field, an unwritable snapshot path) is
answered with ``{"op": "error", "error": ...}`` and the connection
stays open.

Every connection is served concurrently (asyncio); the blocking
planner work runs on the service's executor, so identical requests
from different connections coalesce inside :class:`PlanService`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

from ..errors import ReproError, ServiceError
from .planservice import PlanRequest, PlanService

#: longest request line the server reads (asyncio's default stream limit)
LINE_LIMIT = 1 << 16


async def _answer(service: PlanService, msg: dict) -> dict:
    op = msg.pop("op", "plan")
    if op == "plan":
        req = PlanRequest.from_dict(msg)
        resp = await asyncio.wrap_future(service.submit(req))
        return {"op": "plan", **resp.as_dict()}
    if op == "sweep":
        batches = msg.pop("batches", None)
        if not isinstance(batches, list) or not batches:
            raise ServiceError('"sweep" needs a non-empty "batches" list')
        reqs = [PlanRequest.from_dict({**msg, "batch": b}) for b in batches]
        futures = [asyncio.wrap_future(service.submit(r)) for r in reqs]
        responses = await asyncio.gather(*futures)
        return {"op": "sweep", "results": [r.as_dict() for r in responses]}
    if op == "stats":
        return {"op": "stats", "metrics": service.metrics()}
    if op == "snapshot":
        path = msg.get("path")
        if not path:
            raise ServiceError('"snapshot" needs a "path"')
        return {"op": "snapshot", "written": service.snapshot(path)}
    if op == "shutdown":
        return {"op": "shutdown", "ok": True}
    raise ServiceError(f"unknown op {op!r}")


async def _next_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line: ``b""`` at end of stream, ``None`` for a
    line over :data:`LINE_LIMIT`, which is consumed through its newline
    so the following line is read intact."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # a last line without newline, or b"" at EOF
    except asyncio.LimitOverrunError:
        pass
    while True:
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return None


async def serve_async(
    service: PlanService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready_cb: Callable[[int], None] | None = None,
) -> None:
    """Run the server until a client sends ``{"op": "shutdown"}``.

    ``ready_cb`` receives the bound port once listening — with
    ``port=0`` this is how callers learn the ephemeral port.
    """
    stop = asyncio.Event()

    async def handle(reader, writer):
        try:
            while True:
                line = await _next_line(reader)
                if line == b"":
                    break
                shutdown = False
                try:
                    if line is None:
                        raise ServiceError(
                            f"request line longer than {LINE_LIMIT} bytes"
                        )
                    msg = json.loads(line)
                    if not isinstance(msg, dict):
                        raise ServiceError("request must be a JSON object")
                    shutdown = msg.get("op") == "shutdown"
                    out = await _answer(service, msg)
                except (ReproError, ValueError, TypeError, OSError) as exc:
                    # ValueError covers JSON and UTF-8 decoding errors;
                    # OSError an unwritable snapshot path.
                    out = {"op": "error", "error": str(exc)}
                writer.write(json.dumps(out).encode() + b"\n")
                await writer.drain()
                if shutdown:
                    stop.set()
                    break
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host, port, limit=LINE_LIMIT)
    bound = server.sockets[0].getsockname()[1]
    if ready_cb is not None:
        ready_cb(bound)
    async with server:
        await stop.wait()
    service.shutdown()


def serve(
    service: PlanService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready_cb: Callable[[int], None] | None = None,
) -> None:
    """Blocking entry point (used by ``repro serve`` and the tests)."""
    asyncio.run(serve_async(service, host, port, ready_cb=ready_cb))
