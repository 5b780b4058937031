"""Spans and counters recorded around the planner's layer boundaries.

The tracer wraps public callables from the outside: module attributes
that ``repro.core.planner`` looks up at call time, methods on the
classes the planner and the service call through, and every registered
schedule family's ``build``.  Nothing in ``src/`` knows it is traced.
Leaving the ``with`` block restores every patched attribute exactly, so
an untraced run executes unmodified code.

A span records name, start, end, parent span and plan id.  Parents come
from a thread-local stack, so spans opened on the service's executor
threads nest under the ``plan`` span of their own thread.  A plan id is
assigned by each ``DiffusionPipePlanner.plan`` call and inherited by
every span it opens.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    plan_id: int | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _evaluate_hook(tracer: "Tracer", result: Any) -> None:
    if result is None:
        tracer.counts["planner.infeasible"] += 1


def _memory_hook(tracer: "Tracer", result: Any) -> None:
    if not result.fits:
        tracer.counts["memory.oom"] += 1


def _build_hook(tracer: "Tracer", result: Any) -> None:
    tracer.counts["schedule.tasks"] += len(result)


def _bubbles_hook(tracer: "Tracer", result: Any) -> None:
    tracer.counts["bubbles.found"] += len(result)


def _fill_hook(tracer: "Tracer", result: Any) -> None:
    tracer.sums["fill.filled_device_ms"] += result.filled_device_time_ms
    tracer.sums["fill.bubble_device_ms"] += result.bubble_device_time_ms


clock = time.perf_counter

SUBMIT = "PlanService.submit"
#: counts yielded candidates rather than opening spans (a generator)
CANDIDATES = "DiffusionPipePlanner.candidate_configs"
#: every registered family's ``build``, counted as one boundary
FAMILY_BUILD = "ScheduleFamily.build"

#: (module path, attribute path, span name, result hook).  The planner's
#: module namespace is patched, not the defining modules, because that
#: is where the planner looks the names up; ``pipeline_memory_report``
#: is imported inside ``evaluate`` on each call, so its defining module
#: is the lookup site.
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.profiling.profiler", "Profiler.profile", "profiling", None),
    ("repro.core.planner", "DiffusionPipePlanner.plan", "plan", None),
    ("repro.core.planner", "DiffusionPipePlanner.evaluate", "evaluate",
     _evaluate_hook),
    ("repro.core.planner", "partition_backbone", "partition", None),
    ("repro.core.planner", "partition_cdm", "partition", None),
    ("repro.memory.estimator", "pipeline_memory_report", "memory",
     _memory_hook),
    ("repro.core.planner", "simulate", "simulate", None),
    ("repro.core.planner", "extract_bubbles", "bubbles", _bubbles_hook),
    ("repro.core.filling", "BubbleFiller.fill", "fill", _fill_hook),
    ("repro.core.planner", "compose_iteration", "compose", None),
    ("repro.service.planservice", SUBMIT, "submit", None),
)

#: every layer span that can sit directly under ``evaluate``
CHILD_LAYERS = ("partition", "memory", "schedule", "simulate", "bubbles",
                "fill", "compose")


class Tracer:
    """Install with ``with Tracer() as t:``; read ``spans``, ``counts``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        #: calls per patched attribute path (the coverage guard's input)
        self.boundary_calls: Counter = Counter()
        #: request -> submit-to-done seconds of submits that executed
        self.exec_s: dict[Any, list[float]] = {}
        self._ids = itertools.count(1)
        self._plan_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, bool, Any]] = []

    # -- span recording ------------------------------------------------------

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, boundary: str) -> tuple[Span, list]:
        stack = self._stack()
        parent, plan_id = stack[-1] if stack else (None, None)
        if name == "plan":
            plan_id = next(self._plan_ids)
        span = Span(next(self._ids), name, clock(), 0.0, parent, plan_id)
        stack.append((span.id, plan_id))
        with self._lock:
            self.boundary_calls[boundary] += 1
        return span, stack

    def _close(self, span: Span, stack: list) -> None:
        span.end = clock()
        stack.pop()
        with self._lock:
            self.spans.append(span)
            self.counts[f"{span.name}.calls"] += 1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, boundary: str,
              hook: Callable | None):
        tracer = self

        def traced(*args, **kwargs):
            span, stack = tracer._open(name, boundary)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                with tracer._lock:
                    tracer.counts[f"{name}.failed"] += 1
                raise
            finally:
                tracer._close(span, stack)
            if hook is not None:
                with tracer._lock:
                    hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_candidates(self, fn: Callable):
        tracer = self

        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                with tracer._lock:
                    tracer.boundary_calls[CANDIDATES] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_submit(self, fn: Callable):
        tracer = self
        inner = self._wrap(fn, "submit", SUBMIT, None)

        def traced(service, req):
            t0 = clock()
            fut = inner(service, req)
            if not fut.done():
                def done(_f, req=req, t0=t0):
                    dt = clock() - t0
                    with tracer._lock:
                        tracer.exec_s.setdefault(req, []).append(dt)
                fut.add_done_callback(done)
            return fut

        traced.__wrapped__ = fn
        return traced

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner: object, attr: str, new: Any) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        import importlib

        from repro.schedule.families import SCHEDULE_FAMILIES

        try:
            for module, path, name, hook in BOUNDARIES:
                owner: object = importlib.import_module(module)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                # A missing name raises here: the traced run must not
                # go on without a layer it was asked to time.
                original = getattr(owner, attr)
                if path == SUBMIT:
                    self._patch(owner, attr, self._wrap_submit(original))
                else:
                    self._patch(owner, attr,
                                self._wrap(original, name, path, hook))
            planner_cls = importlib.import_module(
                "repro.core.planner").DiffusionPipePlanner
            self._patch(planner_cls, CANDIDATES.split(".")[1],
                        self._wrap_candidates(planner_cls.candidate_configs))
            for cls in dict.fromkeys(SCHEDULE_FAMILIES.values()):
                self._patch(cls, "build", self._wrap(
                    cls.build, "schedule", FAMILY_BUILD, _build_hook))
        except BaseException:
            self._unpatch()
            raise
        return self

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, own, value = self._restore.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, oldest first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    # -- aggregation ---------------------------------------------------------

    def busy_ms(self) -> Counter:
        """Summed span duration per span name."""
        out: Counter = Counter()
        with self._lock:
            for s in self.spans:
                out[s.name] += s.ms
        return out

    def evaluate_self_ms(self) -> float:
        """``evaluate`` span time not covered by its direct child spans."""
        with self._lock:
            spans = list(self.spans)
        child_ms: Counter = Counter()
        for s in spans:
            if s.parent is not None and s.name in CHILD_LAYERS:
                child_ms[s.parent] += s.ms
        return sum(s.ms - child_ms[s.id] for s in spans
                   if s.name == "evaluate")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and busy times of everything recorded."""
        busy = self.busy_ms()
        calls = self.counts
        filled = self.sums["fill.filled_device_ms"]
        bubble = self.sums["fill.bubble_device_ms"]
        return {
            "profiling.calls": calls["profiling.calls"],
            "profiling.busy_ms": busy["profiling"],
            "planner.candidates": self.boundary_calls[CANDIDATES],
            "planner.evaluated": calls["evaluate.calls"],
            "planner.infeasible": calls["planner.infeasible"],
            "planner.evaluate_ms": busy["evaluate"],
            "planner.self_ms": self.evaluate_self_ms(),
            "partition.calls": calls["partition.calls"],
            "partition.busy_ms": busy["partition"],
            "partition.failed": calls["partition.failed"],
            "memory.calls": calls["memory.calls"],
            "memory.busy_ms": busy["memory"],
            "memory.oom": calls["memory.oom"],
            "schedule.build_calls": calls["schedule.calls"],
            "schedule.build_ms": busy["schedule"],
            "schedule.tasks": calls["schedule.tasks"],
            "simulate.calls": calls["simulate.calls"],
            "simulate.busy_ms": busy["simulate"],
            "bubbles.calls": calls["bubbles.calls"],
            "bubbles.busy_ms": busy["bubbles"],
            "bubbles.found": calls["bubbles.found"],
            "fill.calls": calls["fill.calls"],
            "fill.busy_ms": busy["fill"],
            "fill.fill_fraction": filled / bubble if bubble > 0 else 0.0,
            "compose.calls": calls["compose.calls"],
            "compose.busy_ms": busy["compose"],
        }


#: where traced runs leave the spans of their last traced unit of work
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"


def spans_path(workload: str, seed: int) -> Path:
    return SPANS_DIR / f"{workload}-seed{seed}.spans.jsonl"


#: stores whose hit ratios are reported (``fills.*`` only serve lookahead)
CACHE_STORES = ("partition", "evals", "timelines", "chains", "cdm",
                "prefixes", "kernel_plans", "comm")


def cache_metrics(stats: dict) -> dict[str, float]:
    """Hit ratios and total entries from ``CacheStats.as_dict()``."""
    stores = stats["stores"]
    out = {}
    for name in CACHE_STORES:
        s = stores[name]
        total = s["hits"] + s["misses"]
        out[f"cache.{name}.hit_ratio"] = s["hits"] / total if total else 0.0
    out["cache.entries"] = sum(s["entries"] for s in stores.values())
    return out


#: per-layer metrics of the service layer, zero on the sweeps
SERVICE_METRICS = ("service.requests", "service.result_hits",
                   "service.coalesced", "service.exec_p50_ms",
                   "service.repeat_p50_ms", "server.overhead_ms")


_PIPELINE = (
    "Profiler.profile",
    "DiffusionPipePlanner.plan",
    "DiffusionPipePlanner.evaluate",
    CANDIDATES,
    "pipeline_memory_report",
    "simulate",
    "extract_bubbles",
    "BubbleFiller.fill",
    "compose_iteration",
    FAMILY_BUILD,
)

#: boundaries each workload must reach; zero calls on one fails the run
EXPECTED_BOUNDARIES = {
    "sd-sc-sweep": _PIPELINE + ("partition_backbone",),
    "cdm-lsun-sweep": _PIPELINE + ("partition_cdm",),
    "serve-zipf": _PIPELINE + ("partition_backbone", "partition_cdm", SUBMIT),
}


def coverage_errors(tracer: Tracer, workload: str) -> list[str]:
    return [f"traced boundary {b} recorded no calls"
            for b in EXPECTED_BOUNDARIES[workload]
            if tracer.boundary_calls[b] == 0]


#: layer spans whose share of evaluate time the traced run prints
SHARE_OF_EVALUATE = ("partition.busy_ms", "memory.busy_ms",
                     "schedule.build_ms", "simulate.busy_ms",
                     "bubbles.busy_ms", "fill.busy_ms", "compose.busy_ms",
                     "planner.self_ms")


def summarise(layers: list[dict], plain_ms: float, traced_ms: float,
              unit_of_work: str) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over the traced units of work,
    the tracing overhead (traced minus untraced wall time of one unit),
    and report lines with each layer's share of evaluate time."""
    values = {name: float(statistics.median(d[name] for d in layers))
              for name in layers[0]}
    overhead_ms = traced_ms - plain_ms
    values["trace.overhead_ms"] = overhead_ms
    values["trace.overhead_share"] = overhead_ms / plain_ms
    evaluate_ms = values["planner.evaluate_ms"]
    shares = ", ".join(f"{name}={values[name] / evaluate_ms:.1%}"
                       for name in SHARE_OF_EVALUATE)
    notes = [
        f"per-layer metrics: per {unit_of_work}, median of "
        f"{len(layers)} traced",
        f"share of evaluate time: {shares}",
        f"tracing overhead: {overhead_ms:.1f} ms per {unit_of_work} "
        f"({overhead_ms / plain_ms:.1%} of {plain_ms:.1f} ms untraced)",
    ]
    return values, notes
