"""Rule ``determinism``: planner outputs are pure functions of inputs.

DiffusionPipe's correctness harnesses — golden ``float.hex`` baselines,
snapshot replay, the differential fill oracles — all assert *bit
identity*: the same model/cluster/batch must produce the same plan, in
the same order, in every process.  Four bug classes silently break that
while passing every functional test, so ``core/``, ``schedule/``,
``harness/`` and ``oracles/`` (an oracle that depends on the hash seed
checks nothing) ban them statically:

* **wall-clock values** — ``time.time()`` / ``time.monotonic()`` /
  ``time.perf_counter()`` (and their ``_ns`` twins, ``datetime.now``):
  a timestamp that reaches a plan, a memo key or a serialized report
  differs on every run.  (The service layer measures latency with
  ``perf_counter`` — telemetry, not plan content — and is out of scope.)
* **unseeded randomness** — module-level ``random.*`` and
  ``np.random.*`` draws share process-global state; construct a seeded
  ``random.Random(seed)`` or ``np.random.default_rng(seed)`` instead.
  A bare ``np.random.default_rng()`` is equally banned: with no seed it
  pulls OS entropy, so two workers building "the same" plan disagree.
* **``id()``** — CPython addresses differ across processes; an ``id()``
  in a sort key or cache key reorders output between the service's
  workers and the coordinator.
* **set iteration feeding ordered output** — ``for x in set(...)``,
  ``list(set(...))``, ``tuple(...)``/``enumerate(...)``/``.join(...)``
  over a set, or a list comprehension over one: with string keys the
  order depends on the per-process hash seed.  Array construction is
  the same bug with a numpy spelling — ``np.array(...)`` /
  ``np.asarray(...)`` / ``np.fromiter(...)`` over a set bakes hash-seed
  order into element positions, and every vectorised consumer downstream
  inherits it.  ``sorted(set(...))`` is the deterministic spelling and
  is not flagged; for order-preserving dedup use ``dict.fromkeys(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule

#: clock attributes, per base name (the ``time`` module and the
#: ``datetime`` module/class)
CLOCKS = {
    "time": frozenset({
        "time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
        "perf_counter_ns",
    }),
    "datetime": frozenset({"now", "utcnow", "today"}),
}

#: ordered-output constructors over an unordered set (``sorted`` and
#: ``min``/``max`` are order-insensitive and deliberately absent)
ORDERING_CALLS = frozenset({"list", "tuple", "enumerate"})

#: numpy array constructors whose element order is the iteration order
#: of their first argument
NP_ARRAY_CALLS = frozenset({"array", "asarray", "fromiter"})

#: the conventional and the canonical spelling of the numpy module
NUMPY_NAMES = frozenset({"np", "numpy"})

#: seeded-generator machinery allowed under ``np.random`` — everything
#: else there (``rand``, ``shuffle``, ``seed``, ...) is a draw from, or
#: a mutation of, numpy's process-global legacy state
NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence"})


def _is_set_expr(node: ast.expr) -> bool:
    """A value of set type, syntactically: ``set(...)``/``frozenset(...)``
    calls, set literals, set comprehensions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_np_random(node: ast.expr) -> bool:
    """The expression ``np.random`` / ``numpy.random``, syntactically."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in NUMPY_NAMES
    )


@register_rule("determinism")
class DeterminismRule:
    name = "determinism"
    description = (
        "no wall-clock values, unseeded random, id() keys, or "
        "set-iteration-ordered output in core/, schedule/, harness/, "
        "oracles/"
    )
    scope = ("core/*", "schedule/*", "harness/*", "oracles/*")
    exclude = ()

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            yield from self._clocks_and_random(src, node)
            yield from self._np_random(src, node)
            yield from self._id_calls(src, node)
            yield from self._set_ordering(src, node)

    # -- wall clocks and process-global randomness ---------------------------

    def _clocks_and_random(self, src, node) -> Iterator[Finding]:
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base = node.value.id
            if node.attr in CLOCKS.get(base, ()):
                yield src.finding(
                    node, self.name,
                    f"{base}.{node.attr} is a wall-clock value; plans and "
                    "memo keys must be pure functions of their inputs",
                )
            elif base == "random" and node.attr != "Random":
                yield src.finding(
                    node, self.name,
                    f"random.{node.attr} draws from process-global state; "
                    "use a seeded random.Random(seed) instance",
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield src.finding(
                node, self.name,
                "importing from the random module pulls process-global "
                "state; construct a seeded random.Random(seed) instead",
            )

    # -- numpy randomness outside a seeded Generator -------------------------

    def _np_random(self, src, node) -> Iterator[Finding]:
        if isinstance(node, ast.Attribute) and _is_np_random(node.value):
            if node.attr not in NP_RANDOM_ALLOWED:
                yield src.finding(
                    node, self.name,
                    f"np.random.{node.attr} uses numpy's process-global "
                    "legacy state; draw from a seeded "
                    "np.random.default_rng(seed) Generator",
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "default_rng"
            and _is_np_random(node.func.value)
            and not node.args
            and not node.keywords
        ):
            yield src.finding(
                node, self.name,
                "np.random.default_rng() without a seed pulls OS entropy; "
                "pass an explicit seed",
            )
        elif isinstance(node, ast.ImportFrom) and node.module == (
            "numpy.random"
        ):
            bad = sorted(
                a.name for a in node.names
                if a.name not in NP_RANDOM_ALLOWED
            )
            if bad:
                yield src.finding(
                    node, self.name,
                    f"importing {', '.join(bad)} from numpy.random pulls "
                    "process-global state; use a seeded "
                    "np.random.default_rng(seed) Generator",
                )

    # -- id() as a key -------------------------------------------------------

    def _id_calls(self, src, node) -> Iterator[Finding]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            yield src.finding(
                node, self.name,
                "id() is a process-local address; unfit for sort or "
                "cache keys that feed reproducible output",
            )

    # -- set iteration feeding ordered output --------------------------------

    def _set_ordering(self, src, node) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
            node.iter
        ):
            yield src.finding(
                node, self.name,
                "iterating a set in a for loop orders output by the "
                "per-process hash seed; use sorted(...) or "
                "dict.fromkeys(...) for order-preserving dedup",
            )
        elif isinstance(node, ast.ListComp) and _is_set_expr(
            node.generators[0].iter
        ):
            yield src.finding(
                node, self.name,
                "a list comprehension over a set inherits hash-seed "
                "order; use sorted(...) or dict.fromkeys(...)",
            )
        elif isinstance(node, ast.Call):
            func = node.func
            direct = (
                isinstance(func, ast.Name)
                and func.id in ORDERING_CALLS
            )
            join = isinstance(func, ast.Attribute) and func.attr == "join"
            np_ctor = (
                isinstance(func, ast.Attribute)
                and func.attr in NP_ARRAY_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id in NUMPY_NAMES
            )
            if (
                (direct or join or np_ctor)
                and node.args
                and _is_set_expr(node.args[0])
            ):
                if direct:
                    what = func.id
                elif np_ctor:
                    what = f"np.{func.attr}"
                else:
                    what = "str.join"
                yield src.finding(
                    node, self.name,
                    f"{what}() over a set orders output by the "
                    "per-process hash seed; sort first",
                )
