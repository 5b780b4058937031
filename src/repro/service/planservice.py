"""Concurrent planning service on top of :class:`PlannerCaches`.

The service answers "plan model X on G GPUs at batch B" requests.  Three
mechanisms keep a request stream cheap:

* **Result store** — completed responses live in a bounded LRU keyed by
  the full :class:`PlanRequest`, so repeats of a finished configuration
  never re-enter the executor.
* **In-flight coalescing** — identical requests that arrive while the
  first is still being evaluated share its future (one evaluation, many
  responses).  The ``coalesced`` counter and the result-store hit
  counters together are the service's coalescing evidence.
* **Warm caches** — with ``workers == 0`` evaluations run on a thread
  pool sharing the service's :class:`PlannerCaches` (safe: every store
  locks mutation, entries are pure functions of their keys).  With
  ``workers > 0`` they fan out to a process pool whose workers each
  build their own caches, seeded from the ``snapshot`` file on first
  use of each profile, and ship their cache telemetry back with every
  response for :meth:`PlanService.metrics` to aggregate.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from ..catalog import build_cluster, build_model, group_sizes
from ..core import (
    DiffusionPipePlanner,
    PlannerCaches,
    PlannerOptions,
    fill_strategy_names,
)
from ..errors import ReproError, ServiceError
from ..profiling import Profiler

#: request fields accepted from the wire (everything of PlanRequest)
REQUEST_FIELDS = (
    "model",
    "gpus",
    "batch",
    "heterogeneous",
    "fill_strategy",
    "self_conditioning",
)


@dataclass(frozen=True)
class PlanRequest:
    """One planning question; also the coalescing key, so it is frozen
    and fully value-typed."""

    model: str = "sd"
    gpus: int = 8
    batch: int = 256
    heterogeneous: bool = False
    fill_strategy: str = "greedy"
    self_conditioning: bool | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "PlanRequest":
        """Build a request from wire fields, checking each one's type
        and range; any violation raises :class:`ServiceError`."""
        unknown = set(data) - set(REQUEST_FIELDS)
        if unknown:
            raise ServiceError(f"unknown request fields: {sorted(unknown)}")
        req = cls(**data)
        # ``type(...) in`` rather than isinstance: bool is an int subclass.
        checks = (
            ("model", type(req.model) is str, "a string"),
            ("gpus", type(req.gpus) is int and req.gpus >= 2,
             "an integer >= 2"),
            ("batch", type(req.batch) in (int, float)
             and math.isfinite(req.batch) and req.batch > 0,
             "a finite number > 0"),
            ("heterogeneous", type(req.heterogeneous) is bool, "a boolean"),
            ("self_conditioning", req.self_conditioning is None
             or type(req.self_conditioning) is bool, "a boolean or null"),
            ("fill_strategy", req.fill_strategy in fill_strategy_names(),
             f"one of {fill_strategy_names()}"),
        )
        for field, ok, requirement in checks:
            if not ok:
                raise ServiceError(
                    f"{field} must be {requirement}, "
                    f"got {getattr(req, field)!r}"
                )
        return req


@dataclass(frozen=True)
class PlanResponse:
    """Outcome of one request.  ``ok=False`` carries the planner error
    (e.g. every configuration OOMs) instead of raising, so a sweep can
    mix feasible and infeasible batches."""

    request: PlanRequest
    ok: bool
    config_label: str = ""
    throughput: float = 0.0
    iteration_ms: float = 0.0
    bubble_ratio_filled: float = 0.0
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "request": self.request.__dict__,
            "ok": self.ok,
            "config_label": self.config_label,
            "throughput": self.throughput,
            "iteration_ms": self.iteration_ms,
            "bubble_ratio_filled": self.bubble_ratio_filled,
            "error": self.error,
        }


class _PlannerPool:
    """Lazily-built planners keyed by the planner-defining request
    fields, all sharing one :class:`PlannerCaches`.

    Holding the planners (and through them the :class:`ProfileDB`
    instances) keeps the weak-keyed per-profile cache tables alive for
    the service's lifetime.  When a ``snapshot`` path is given, each
    newly profiled model merges the snapshot's entries for that profile
    into the shared caches before its first evaluation.
    """

    def __init__(self, caches: PlannerCaches, snapshot: str | None = None):
        self.caches = caches
        self.snapshot = snapshot
        self._lock = threading.Lock()
        self._planners: dict[tuple, DiffusionPipePlanner] = {}

    def planner(self, req: PlanRequest) -> DiffusionPipePlanner:
        key = (
            req.model,
            req.gpus,
            req.heterogeneous,
            req.fill_strategy,
            req.self_conditioning,
        )
        with self._lock:
            planner = self._planners.get(key)
        if planner is not None:
            return planner
        # Built outside the lock: profiling dominates and is pure, so
        # two threads racing on a new key at worst profile twice; the
        # setdefault below keeps exactly one planner (and profile).
        model = build_model(req.model, req.self_conditioning)
        cluster = build_cluster(req.gpus)
        profile = Profiler(cluster).profile(model)
        if self.snapshot is not None:
            self.caches.load(self.snapshot, [profile])
        planner = DiffusionPipePlanner(
            model,
            cluster,
            profile,
            options=PlannerOptions(
                group_sizes=group_sizes(cluster),
                heterogeneous_replication=req.heterogeneous,
                fill_strategy=req.fill_strategy,
            ),
            caches=self.caches,
        )
        with self._lock:
            return self._planners.setdefault(key, planner)

    def profiles(self) -> list:
        with self._lock:
            planners = list(self._planners.values())
        seen: dict[int, object] = {}
        for p in planners:
            seen.setdefault(id(p.profile), p.profile)
        return list(seen.values())


class PlanService:
    """Concurrent front-end over the planner.

    Parameters
    ----------
    workers:
        ``0`` (default) evaluates on an in-process thread pool sharing
        ``caches``; ``> 0`` fans out to that many worker *processes*,
        each seeded from ``snapshot``.
    snapshot:
        Path of a :meth:`PlannerCaches.snapshot` file used to warm the
        shared caches (thread mode) or every worker (process mode).
    caches:
        Explicit cache instance; defaults to a fresh private one, so a
        service never leaks entries into :func:`default_caches`.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        snapshot: str | None = None,
        caches: PlannerCaches | None = None,
        max_threads: int = 4,
        result_max: int = 1024,
    ):
        from ..core.lru import LruStore

        self.caches = caches if caches is not None else PlannerCaches()
        self.workers = workers
        self._pool = _PlannerPool(self.caches, snapshot)
        self._lock = threading.Lock()
        self._inflight: dict[PlanRequest, Future] = {}
        self._results = LruStore(result_max, name="service.results")
        self._latencies: list[float] = []
        self._worker_stats: dict[int, dict] = {}
        self.requests = 0
        self.coalesced = 0
        if workers > 0:
            self._executor: ThreadPoolExecutor | ProcessPoolExecutor = (
                ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(snapshot,),
                )
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=max_threads, thread_name_prefix="planservice"
            )

    # -- request path --------------------------------------------------------

    def submit(self, req: PlanRequest) -> "Future[PlanResponse]":
        """Enqueue one request; identical in-flight or completed
        requests are answered without a new evaluation."""
        with self._lock:
            self.requests += 1
            done = self._results.get(req)
            if done is not None:
                fut: Future = Future()
                fut.set_result(done)
                return fut
            fut = self._inflight.get(req)
            if fut is not None:
                self.coalesced += 1
                return fut
            fut = Future()
            self._inflight[req] = fut
        t0 = time.perf_counter()
        if self.workers > 0:
            inner = self._executor.submit(_worker_plan, req)
        else:
            inner = self._executor.submit(_evaluate, self._pool, req)
        inner.add_done_callback(
            lambda f, req=req, fut=fut, t0=t0: self._finish(req, fut, t0, f)
        )
        return fut

    def _finish(self, req, fut, t0, inner: Future) -> None:
        latency = time.perf_counter() - t0
        try:
            result = inner.result()
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(req, None)
                self._latencies.append(latency)
            fut.set_exception(exc)
            return
        if self.workers > 0:
            resp, pid, stats = result
        else:
            resp, pid, stats = result, None, None
        with self._lock:
            self._inflight.pop(req, None)
            self._latencies.append(latency)
            self._results.put(req, resp)
            if pid is not None:
                self._worker_stats[pid] = stats
        fut.set_result(resp)

    def plan(self, req: PlanRequest) -> PlanResponse:
        """Synchronous :meth:`submit`."""
        return self.submit(req).result()

    def sweep(self, reqs: list[PlanRequest]) -> list[PlanResponse]:
        """Submit a batch of requests and gather all responses."""
        return [f.result() for f in [self.submit(r) for r in reqs]]

    # -- maintenance / introspection -----------------------------------------

    def snapshot(self, path) -> dict:
        """Persist the service's warm caches (thread mode; in process
        mode only the coordinator's caches are visible here)."""
        return self.caches.snapshot(path)

    def metrics(self) -> dict:
        """Per-request latency plus cache and coalescing statistics."""
        with self._lock:
            lat = sorted(self._latencies)
            results = self._results.stats().as_dict()
            worker_stats = dict(self._worker_stats)
            requests, coalesced = self.requests, self.coalesced
        n = len(lat)

        def q(p: float) -> float:
            return lat[min(n - 1, int(p * n))] if n else 0.0

        return {
            "requests": requests,
            "coalesced_inflight": coalesced,
            "result_store": results,
            "latency_s": {
                "count": n,
                "mean": sum(lat) / n if n else 0.0,
                "p50": q(0.50),
                "p95": q(0.95),
                "max": lat[-1] if n else 0.0,
            },
            "cache": self.caches.stats().as_dict(),
            "workers": {
                "processes": self.workers,
                "stats": worker_stats,
            },
        }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _evaluate(pool: _PlannerPool, req: PlanRequest) -> PlanResponse:
    """One planner evaluation; planner errors become ``ok=False``."""
    try:
        planner = pool.planner(req)
        plan = planner.plan(req.batch).plan
    except ReproError as exc:
        return PlanResponse(request=req, ok=False, error=str(exc))
    return PlanResponse(
        request=req,
        ok=True,
        config_label=plan.config_label,
        throughput=plan.throughput,
        iteration_ms=plan.iteration_ms,
        bubble_ratio_filled=plan.bubble_ratio_filled,
    )


# -- process-pool workers ----------------------------------------------------
#
# Each worker process owns a private PlannerCaches (never the default
# instance) plus a planner pool; the snapshot seeds every profile the
# worker ends up building.  Workers return their *cumulative* cache
# stats keyed by pid, so the coordinator's merge (latest report per
# pid, summed across pids) is double-count-free.

_WORKER_POOL: _PlannerPool | None = None


def _worker_init(snapshot: str | None) -> None:
    global _WORKER_POOL
    _WORKER_POOL = _PlannerPool(PlannerCaches(), snapshot)


def _worker_plan(req: PlanRequest):
    assert _WORKER_POOL is not None, "worker used before _worker_init"
    resp = _evaluate(_WORKER_POOL, req)
    return resp, os.getpid(), _WORKER_POOL.caches.stats().as_dict()
