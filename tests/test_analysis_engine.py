"""Tests for the :mod:`repro.analysis` rule engine.

Each rule gets a firing fixture and a near-miss (the closest legal
spelling) on a tmp tree whose layout mimics the package, so the scope
globs are exercised with the real package-relative paths
(``core/x.py``, ``service/x.py``, ...).  The engine itself is covered
for suppressions (used, stale, unknown-id, rule-subset), the JSON
finding schema, registry errors, and the two acceptance gates: the
shipped tree is clean, and a full run stays under the 2 s budget.
"""

from __future__ import annotations

import json
import textwrap
import time

import pytest

from repro.analysis import (
    Finding,
    analyze,
    get_rule,
    rule_names,
)
from repro.cli import main
from repro.errors import ConfigurationError


def run(tmp_path, rel, code, rules):
    """Write ``code`` at package-relative ``rel`` and analyze the tree."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return analyze(paths=[tmp_path], rule_names_=rules)


# -- registry ---------------------------------------------------------------


def test_rule_catalog():
    assert rule_names() == (
        "cache-globals",
        "determinism",
        "float-equality",
        "lock-discipline",
        "oracle-imports",
        "registry-bypass",
    )
    for name in rule_names():
        rule = get_rule(name)
        assert rule.name == name
        assert rule.description
        assert rule.scope


def test_unknown_rule_matches_registry_error_style():
    with pytest.raises(ConfigurationError, match="unknown analysis rule"):
        get_rule("nope")
    with pytest.raises(ConfigurationError, match="registered:"):
        analyze(rule_names_=["nope"])


# -- cache-globals ----------------------------------------------------------


def test_cache_globals_fires_on_name_and_ctor(tmp_path):
    findings = run(tmp_path, "core/fresh.py", """\
        from collections import OrderedDict

        _NEW_CACHE = {}
        store = OrderedDict()
        """, ["cache-globals"])
    assert [f.rule for f in findings] == ["cache-globals"] * 2
    assert findings[0].path == "core/fresh.py"
    assert findings[0].line == 3


def test_cache_globals_near_misses(tmp_path):
    findings = run(tmp_path, "core/fresh.py", """\
        CHAIN_CACHE_MAX_TABLES = 4      # public capacity constant

        def build():
            _LOCAL_CACHE = {}           # function-local, not module state
            return _LOCAL_CACHE
        """, ["cache-globals"])
    assert findings == []


def test_cache_globals_scope_is_core_only(tmp_path):
    findings = run(tmp_path, "harness/fresh.py", "_NEW_CACHE = {}\n",
                   ["cache-globals"])
    assert findings == []


# -- registry-bypass --------------------------------------------------------


def test_registry_bypass_fires_on_builder_imports(tmp_path):
    findings = run(tmp_path, "harness/bad.py", """\
        from repro.schedule.onef1b import build_1f1b
        from ..schedule import build_gpipe
        import repro.schedule.zerobubble
        """, ["registry-bypass"])
    assert len(findings) >= 3
    assert all(f.rule == "registry-bypass" for f in findings)


def test_registry_bypass_near_misses(tmp_path):
    findings = run(tmp_path, "harness/ok.py", """\
        from repro.schedule import get_family
        from repro.baselines.gpipe import GPipeBaseline  # not a builder
        """, ["registry-bypass"])
    assert findings == []


def test_registry_bypass_skips_schedule_package(tmp_path):
    findings = run(tmp_path, "schedule/families.py",
                   "from .onef1b import build_1f1b\n", ["registry-bypass"])
    assert findings == []


# -- oracle-imports ---------------------------------------------------------


def test_oracle_imports_fires_on_every_spelling(tmp_path):
    findings = run(tmp_path, "core/bad.py", """\
        from repro.oracles import simulate_reference
        from repro.oracles.partition import chain_table_reference, het_table_reference
        from ..oracles import LookaheadReferenceFill
        from .. import oracles
        from repro import oracles as o
        import repro.oracles.simulator
        """, ["oracle-imports"])
    assert [f.rule for f in findings] == ["oracle-imports"] * 6
    assert [f.line for f in findings] == [1, 2, 3, 4, 5, 6]


def test_oracle_imports_near_misses(tmp_path):
    findings = run(tmp_path, "core/ok.py", """\
        from .partition_kernels import _fold_reference  # production fold
        from ..schedule import simulate
        from .core import oracles_note  # a different name entirely
        import oracles  # not the repro package
        """, ["oracle-imports"])
    assert findings == []


def test_oracle_imports_skips_oracles_package(tmp_path):
    findings = run(tmp_path, "oracles/filling.py",
                   "from ..oracles.partition import x\n", ["oracle-imports"])
    assert findings == []


# -- lock-discipline --------------------------------------------------------

LOCKED_CLASS = """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._data = {}
            self._log = []

        def bad_write(self, k, v):
            self._data[k] = v

        def bad_mutator(self, x):
            self._log.append(x)

        def good(self, k, v):
            with self._lock:
                self._data[k] = v
                self._log.append(v)

        def read(self, k):
            return self._data.get(k)
    """


def test_lock_discipline_fires_outside_lock(tmp_path):
    findings = run(tmp_path, "service/state.py", LOCKED_CLASS,
                   ["lock-discipline"])
    msgs = [f.message for f in findings]
    assert len(findings) == 2
    assert any("bad_write" in m and "writes self._data" in m for m in msgs)
    assert any("bad_mutator" in m and ".append()" in m for m in msgs)


def test_lock_discipline_ignores_unlocked_classes(tmp_path):
    findings = run(tmp_path, "service/plain.py", """\
        class Plain:
            def set(self, v):
                self._v = v
        """, ["lock-discipline"])
    assert findings == []


def test_lock_discipline_scope(tmp_path):
    # same class outside service/ and core/caches|lru: out of scope
    findings = run(tmp_path, "core/planner.py", LOCKED_CLASS,
                   ["lock-discipline"])
    assert findings == []


# -- determinism ------------------------------------------------------------


def test_determinism_fires_on_each_bug_class(tmp_path):
    findings = run(tmp_path, "core/impure.py", """\
        import random
        import time

        def stamp():
            return time.time()

        def shuffle(xs):
            random.shuffle(xs)

        def key(obj):
            return id(obj)

        def dedup(xs):
            return list(set(xs))

        def walk(xs):
            for x in set(xs):
                print(x)
        """, ["determinism"])
    assert len(findings) == 5
    assert {f.rule for f in findings} == {"determinism"}


def test_determinism_near_misses(tmp_path):
    findings = run(tmp_path, "core/pure.py", """\
        import random

        def rng(seed):
            return random.Random(seed)

        def dedup(xs):
            return sorted(set(xs))

        def dedup_keep_order(xs):
            return list(dict.fromkeys(xs))
        """, ["determinism"])
    assert findings == []


def test_determinism_covers_elastic_path(tmp_path):
    """The elastic module lives under ``core/`` precisely so the
    determinism rule covers it: a replan triggered by device churn must
    still be a pure function of (model, cluster, batch), so a wall
    clock leaking into an elastic event or session is flagged like any
    other planner impurity."""
    findings = run(tmp_path, "core/elastic.py", """\
        import time

        def event_stamp():
            return time.monotonic()
        """, ["determinism"])
    assert len(findings) == 1
    assert findings[0].rule == "determinism"
    assert findings[0].path.endswith("core/elastic.py")


def test_determinism_covers_oracles(tmp_path):
    findings = run(tmp_path, "oracles/partition.py", """\
        def frontier_order(states):
            return list(set(states))
        """, ["determinism"])
    assert [f.rule for f in findings] == ["determinism"]


def test_determinism_scope_excludes_service(tmp_path):
    # the service layer's latency telemetry may read wall clocks
    findings = run(tmp_path, "service/telemetry.py",
                   "import time\nNOW = time.perf_counter()\n",
                   ["determinism"])
    assert findings == []


def test_determinism_fires_on_numpy_global_randomness(tmp_path):
    findings = run(tmp_path, "core/rng.py", """\
        import numpy as np
        from numpy.random import shuffle

        def noise(n):
            return np.random.rand(n)

        def reseed():
            np.random.seed(0)

        def entropy_rng():
            return np.random.default_rng()
        """, ["determinism"])
    assert len(findings) == 4
    assert {f.rule for f in findings} == {"determinism"}
    msgs = [f.message for f in findings]
    assert any("np.random.rand" in m for m in msgs)
    assert any("np.random.seed" in m for m in msgs)
    assert any("shuffle" in m and "numpy.random" in m for m in msgs)
    assert any("without a seed" in m for m in msgs)


def test_determinism_numpy_near_misses(tmp_path):
    findings = run(tmp_path, "core/rng_ok.py", """\
        import numpy as np
        from numpy.random import Generator, SeedSequence

        def rng(seed):
            return np.random.default_rng(seed)

        def rng_kw(seed):
            return np.random.default_rng(seed=seed)

        def typed(g: np.random.Generator):
            return g

        def dedup(xs):
            return np.array(sorted(set(xs)))
        """, ["determinism"])
    assert findings == []


def test_determinism_fires_on_array_construction_over_set(tmp_path):
    findings = run(tmp_path, "core/arr.py", """\
        import numpy as np

        def build(xs):
            return np.array(set(xs))

        def build2(xs):
            return np.asarray({x + 1 for x in xs})

        def build3(xs):
            return np.fromiter(frozenset(xs), dtype=float)
        """, ["determinism"])
    assert len(findings) == 3
    assert all("hash seed" in f.message for f in findings)
    assert [f.line for f in findings] == [4, 7, 10]


# -- float-equality ---------------------------------------------------------


def test_float_equality_fires(tmp_path):
    findings = run(tmp_path, "core/cmp.py", """\
        def f(x, a, b, c):
            if x == 0.5:
                return 1
            return a / b != c
        """, ["float-equality"])
    assert len(findings) == 2
    assert all(f.rule == "float-equality" for f in findings)


def test_float_equality_near_misses(tmp_path):
    findings = run(tmp_path, "core/cmp.py", """\
        def f(x, a, b):
            if x == 5:          # integer compare
                return 1
            return a <= 0.5 or b >= 0.5   # ordering, not equality
        """, ["float-equality"])
    assert findings == []


def test_float_equality_exempts_equivalence_module(tmp_path):
    findings = run(tmp_path, "engine/equivalence.py",
                   "def eq(a):\n    return a == 0.5\n", ["float-equality"])
    assert findings == []


# -- suppressions -----------------------------------------------------------


def test_suppression_on_line_and_line_above(tmp_path):
    findings = run(tmp_path, "core/s.py", """\
        def f(obj, x):
            a = id(obj)  # repro: allow[determinism] memo key, never serialized
            # repro: allow[determinism] same, annotated above
            b = id(x)
            return a, b
        """, ["determinism"])
    assert findings == []


def test_one_comment_may_carry_several_ids(tmp_path):
    findings = run(tmp_path, "core/s.py", """\
        def f(obj):
            # repro: allow[determinism, float-equality] fixture
            return id(obj) == 0.5
        """, ["determinism", "float-equality"])
    assert findings == []


def test_stale_suppression_is_reported(tmp_path):
    findings = run(tmp_path, "core/s.py", """\
        def f(x):
            return x + 1  # repro: allow[determinism] nothing here anymore
        """, ["determinism"])
    assert [f.rule for f in findings] == ["unused-suppression"]
    assert "matches no finding" in findings[0].message


def test_unknown_rule_id_in_suppression_is_reported(tmp_path):
    findings = run(tmp_path, "core/s.py",
                   "X = 1  # repro: allow[no-such-rule] typo\n",
                   ["determinism"])
    assert [f.rule for f in findings] == ["unused-suppression"]
    assert "unknown rule" in findings[0].message


def test_rule_subset_does_not_misreport_other_suppressions(tmp_path):
    # the lock-discipline allow is only checkable when that rule runs
    findings = run(tmp_path, "core/s.py", """\
        def f(x):
            return x  # repro: allow[lock-discipline] checked by another rule
        """, ["determinism"])
    assert findings == []


def test_docstring_mention_is_not_a_suppression(tmp_path):
    findings = run(tmp_path, "core/s.py", '''\
        """Syntax doc: write # repro: allow[determinism] to sanction."""

        X = 1
        ''', ["determinism"])
    assert findings == []


# -- finding schema ---------------------------------------------------------


def test_finding_json_round_trip():
    finding = Finding(path="core/x.py", line=7, rule="determinism",
                      message="id() is a process-local address")
    payload = json.loads(json.dumps(finding.as_dict()))
    assert Finding.from_dict(payload) == finding
    assert finding.format() == (
        "core/x.py:7: [determinism] id() is a process-local address"
    )


def test_findings_sort_by_path_then_line(tmp_path):
    findings = run(tmp_path, "core/two.py", """\
        def f(a, obj):
            x = a == 0.5
            y = id(obj)
            return x, y
        """, ["determinism", "float-equality"])
    assert [(f.line, f.rule) for f in findings] == [
        (2, "float-equality"), (3, "determinism"),
    ]


# -- acceptance gates -------------------------------------------------------


def test_shipped_tree_is_clean_and_fast():
    start = time.perf_counter()
    findings = analyze()
    elapsed = time.perf_counter() - start
    assert findings == [], "\n".join(f.format() for f in findings)
    assert elapsed < 2.0, f"analyze() took {elapsed:.2f}s (budget 2s)"


# -- CLI --------------------------------------------------------------------


def test_cli_analyze_clean_tree(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_analyze_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert name in out


def test_cli_analyze_unknown_rule(capsys):
    assert main(["analyze", "--rule", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown analysis rule" in err


def test_cli_analyze_findings_exit_one(capsys, tmp_path):
    bad = tmp_path / "core"
    bad.mkdir()
    (bad / "impure.py").write_text("import time\nT = time.time()\n")
    rc = main(["analyze", str(tmp_path), "--rule", "determinism"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "core/impure.py:2" in out
    assert "[determinism]" in out


def test_cli_analyze_json_schema(capsys, tmp_path):
    bad = tmp_path / "core"
    bad.mkdir()
    (bad / "impure.py").write_text("import time\nT = time.time()\n")
    rc = main(["analyze", str(tmp_path), "--rule", "determinism", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["determinism"]
    assert payload["count"] == len(payload["findings"]) == 1
    finding = Finding.from_dict(payload["findings"][0])
    assert finding.path == "core/impure.py"
    assert finding.line == 2
