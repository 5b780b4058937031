"""``serve-zipf``: closed-loop JSON-lines traffic to ``repro serve``.

Each episode starts ``serve()`` with a fresh :class:`PlanService` on a
thread of this process, as ``repro.service.smoke`` does, opens one
client connection and drives one seeded Zipf request stream through it,
sending each request only after the previous answer arrived.  One
client, not two: the planner holds the interpreter lock, so a second
caller adds no throughput, and a cold plan's latency then depends on
which other cold plan it happened to overlap, which made run-to-run
spread several times that of one client.  Episodes repeat until the
run has measured for ``seconds``.  Latencies are in reference
milliseconds (see :class:`common.HostSpeed`); the client times the
reference slice after each answer, while the server idles.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.service.planservice import PlanRequest, PlanService
from repro.service.server import serve

from .common import (REF_NOMINAL_MS, HostSpeed, Outcome, Result, answer,
                     geomean, load_expected, median, peak_rss_mb, tail)
from .tracer import (Tracer, cache_metrics, coverage_errors, spans_path,
                     summarise)
from .workloads import serve_catalogue, serve_stream

clock = time.perf_counter

HOST = "127.0.0.1"
TIMEOUT_S = 120.0
#: episodes a run makes at least (36 first-seen samples each: tail p90)
MIN_EPISODES = 3
#: memo-hit plans per catalogue entry after each untraced episode
WARM_REPS = 5


class Client:
    """One JSON-lines connection; ``ask`` waits for the answer."""

    def __init__(self, port: int):
        self.sock = socket.create_connection((HOST, port), timeout=TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def ask(self, msg: dict) -> dict:
        self.sock.sendall(json.dumps(msg).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Episode:
    setup_s: float = 0.0
    #: sum of the stream's round trips, wall and reference
    wall_s: float = 0.0
    ref_wall_s: float = 0.0
    #: client round trip of each entry's first request, wall and reference
    first_ms: dict = field(default_factory=dict)
    first_ref_ms: list = field(default_factory=list)
    repeat_ms: list = field(default_factory=list)
    answered: int = 0
    throughputs: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    #: memo-hit plan() times in reference ms
    warm_ms: list = field(default_factory=list)
    #: reference slice times (see :class:`HostSpeed`)
    ticks_ms: list = field(default_factory=list)


def _check_reply(entry, reply, expected: dict, outcome: Outcome) -> bool:
    model, gpus, batch = entry
    key = f"{model}/{gpus}/{batch}"
    if not reply or not reply.get("ok"):
        return outcome.check(f"no plan in reply {reply!r}", key)
    got = answer(reply["config_label"], reply["throughput"])
    return outcome.check(
        None if got == expected[key] else
        f"answer {got} != expected {expected[key]}", key)


def _drive(stream, client: Client, speed: HostSpeed) -> list:
    """Send the stream, closed loop; return ``(round-trip seconds,
    wall-to-reference factor, reply)`` per request."""
    records = []
    for model, gpus, batch in stream:
        t = clock()
        try:
            reply = client.ask({"op": "plan", "model": model, "gpus": gpus,
                                "batch": batch})
        except (OSError, ValueError) as exc:
            reply = {"ok": False, "error": repr(exc)}
        rtt = clock() - t
        records.append((rtt, speed.tick(), reply))
    return records


def _warm_plans(service: PlanService, expected: dict, outcome: Outcome,
                speed: HostSpeed) -> list[float]:
    """Memo-hit ``plan()`` on the service's warm planners: the path a
    request takes once its result left the bounded result store.  The
    service has no public call that bypasses its result store, so the
    planner pool is reached directly."""
    out = []
    for _ in range(WARM_REPS):
        rep = []
        for model, gpus, batch in serve_catalogue():
            req = PlanRequest(model=model, gpus=gpus, batch=batch)
            planner = service._pool.planner(req)
            t0 = clock()
            plan = planner.plan(batch).plan
            rep.append((clock() - t0) * 1e3)
            key = f"{model}/{gpus}/{batch}"
            got = answer(plan.config_label, plan.throughput)
            outcome.check(None if got == expected[key] else
                          f"warm answer {got} != expected {expected[key]}",
                          f"warm {key}")
        scale = speed.tick()
        out.extend(ms * scale for ms in rep)
    return out


def episode(stream, expected: dict, outcome: Outcome,
            warm: bool) -> Episode:
    """One fresh server, one stream, a clean shutdown."""
    gc.collect()
    ep = Episode()
    service = PlanService()
    ready = threading.Event()
    port_box: dict[str, int] = {}

    def on_ready(port: int) -> None:
        port_box["port"] = port
        ready.set()

    t0 = clock()
    server = threading.Thread(target=serve, args=(service, HOST, 0),
                              kwargs={"ready_cb": on_ready})
    server.start()
    client = None
    try:
        if not ready.wait(TIMEOUT_S):
            raise RuntimeError("server did not start")
        client = Client(port_box["port"])
        ep.setup_s = clock() - t0
        speed = HostSpeed()
        records = _drive(stream, client, speed)
        for entry, (rtt, scale, reply) in zip(stream, records):
            ok = _check_reply(entry, reply, expected, outcome)
            ep.answered += ok
            ep.wall_s += rtt
            ep.ref_wall_s += rtt * scale
            if entry in ep.first_ms:
                ep.repeat_ms.append(rtt * 1e3)
            else:
                ep.first_ms[entry] = rtt * 1e3
                ep.first_ref_ms.append(rtt * 1e3 * scale)
                if ok:
                    ep.throughputs[entry] = reply["throughput"]
        ep.stats = client.ask({"op": "stats"})["metrics"]
        if warm:
            ep.warm_ms = _warm_plans(service, expected, outcome, speed)
        ep.ticks_ms = speed.ticks_ms
    finally:
        if client is not None:
            client.close()
        if ready.is_set():
            closer = Client(port_box["port"])
            try:
                closer.ask({"op": "shutdown"})
            finally:
                closer.close()
        server.join(TIMEOUT_S)
    if server.is_alive():
        raise RuntimeError("server did not stop")
    return ep


def _warm_up() -> None:
    """Untimed: imports and lazy set-up on the smallest request."""
    with PlanService() as service:
        service.plan(PlanRequest(model="sd", gpus=8, batch=64))


def run(workload: str, seed: int, seconds: float, trace: bool,
        t_start: float) -> Result:
    import_s = clock() - t_start
    expected = load_expected("serve.json")
    outcome = Outcome()
    _warm_up()
    if trace:
        return _run_traced(seed, expected, outcome, seconds)

    episodes: list[Episode] = []
    t0 = clock()
    while len(episodes) < MIN_EPISODES or clock() - t0 < seconds:
        stream = serve_stream(seed, len(episodes))
        episodes.append(episode(stream, expected, outcome, warm=True))

    first = [ms for ep in episodes for ms in ep.first_ref_ms]
    pct, tail_ms = tail(first)
    last = episodes[-1]
    # set-up has no slices around it; the host drifts over minutes, so
    # the run's median slice stands for it
    setup_factor = REF_NOMINAL_MS / median([ms for ep in episodes
                                            for ms in ep.ticks_ms])
    metrics = {
        "setup_s": setup_factor * (import_s + median([ep.setup_s
                                                      for ep in episodes])),
        "plan_p50_ms": median(first),
        "plan_tail_ms": tail_ms,
        "plans_per_s": (sum(ep.answered for ep in episodes)
                        / sum(ep.ref_wall_s for ep in episodes)),
        "warm_plan_p50_ms": median([ms for ep in episodes
                                    for ms in ep.warm_ms]),
        "selected_throughput_sps": geomean(list(last.throughputs.values())),
        "peak_rss_mb": peak_rss_mb(),
    }
    repeats = sum(len(ep.repeat_ms) for ep in episodes)
    raw_first = [ms for ep in episodes for ms in ep.first_ms.values()]
    notes = [f"plan_tail_ms is p{pct:g} of {len(first)} first-seen requests "
             f"({len(episodes)} episodes of {len(stream)} requests, "
             f"{repeats / (repeats + len(first)):.1%} repeats); "
             f"setup_s = (imports {import_s:.3f} s + median server start) "
             f"x {setup_factor:.3f}",
             f"latencies in reference ms, wall ms x "
             f"{median(first) / median(raw_first):.3f} at the median; raw "
             f"wall median first-seen round trip {median(raw_first):.1f} ms"]
    return Result(metrics, outcome, notes)


def _run_traced(seed, expected, outcome, seconds) -> Result:
    """Alternate untraced and traced episodes; per-layer metrics are
    medians over the traced ones, overhead is traced minus untraced."""
    plain_walls, traced_walls, layers = [], [], []
    t0 = clock()
    while not traced_walls or clock() - t0 < seconds:
        # both episodes of a pair run the same stream
        stream = serve_stream(seed, len(traced_walls))
        plain_walls.append(
            episode(stream, expected, outcome, warm=False).wall_s)
        with Tracer() as tracer:
            ep = episode(stream, expected, outcome, warm=False)
        traced_walls.append(ep.wall_s)
        outcome.check(coverage_errors(tracer, "serve-zipf"), "trace coverage")
        layers.append({**tracer.layer_metrics(),
                       **cache_metrics(ep.stats["cache"]),
                       **_service_metrics(ep, tracer)})
    tracer.write_spans(spans_path("serve-zipf", seed))
    values, notes = summarise(layers, median(plain_walls) * 1e3,
                              median(traced_walls) * 1e3, "episode")
    return Result(values, outcome, notes)


def _service_metrics(ep: Episode, tracer: Tracer) -> dict:
    stats = ep.stats
    exec_ms = {req: times[0] * 1e3 for req, times in tracer.exec_s.items()}
    overhead = [
        rtt - exec_ms[PlanRequest(model=m, gpus=g, batch=b)]
        for (m, g, b), rtt in ep.first_ms.items()
        if PlanRequest(model=m, gpus=g, batch=b) in exec_ms
    ]
    return {
        "service.requests": stats["requests"],
        "service.result_hits": stats["result_store"]["hits"],
        "service.coalesced": stats["coalesced_inflight"],
        "service.exec_p50_ms": median(list(exec_ms.values())),
        "service.repeat_p50_ms": median(ep.repeat_ms),
        "server.overhead_ms": median(overhead),
    }
