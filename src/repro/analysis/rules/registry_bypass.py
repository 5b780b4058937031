"""Rule ``registry-bypass``: schedule builders are registry-only.

The :class:`~repro.schedule.families.ScheduleFamily` refactor routed
every consumer (planner, baselines, harness) through
:func:`repro.schedule.get_family`; the builder modules
(``repro.schedule.onef1b`` etc.) and their ``build_*`` functions are an
implementation detail of the ``schedule`` package.  This rule fails on
any import of a builder module or builder function outside
``repro/schedule/``, so a future change cannot quietly bypass the
registry (and with it the planner's ``--schedule`` plumbing, cache
identity and memory-window dispatch).

Formerly the ad-hoc walker in ``tests/test_no_direct_builder_imports.py``;
the test is now a thin wrapper over this rule (its companion test still
asserts these hardcoded lists cover every registered family).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule

#: builder submodules of repro.schedule — private to the package
BUILDER_MODULES = frozenset({
    "onef1b", "gpipe", "bidirectional", "interleaved", "zerobubble",
})
#: the builder entry points those modules define
BUILDER_NAMES = frozenset({
    "build_1f1b",
    "build_gpipe",
    "build_bidirectional",
    "build_interleaved",
    "build_zerobubble",
})


def _is_builder_module(module: str | None) -> bool:
    """True for ``repro.schedule.<builder>`` in any spelling (absolute
    or relative: ``..schedule.gpipe`` parses as module ``schedule.gpipe``).
    Requires the ``schedule`` parent so e.g. ``baselines.gpipe`` — a
    different module that happens to share a builder's name — passes."""
    if not module:
        return False
    parts = module.split(".")
    return (
        len(parts) >= 2
        and parts[-2] == "schedule"
        and parts[-1] in BUILDER_MODULES
    )


def iter_imports(tree: ast.AST) -> Iterator[tuple[ast.stmt, str, bool]]:
    """``(statement, dotted path, relative)`` for everything an import
    brings in: ``import a.b`` gives ``a.b``; ``from a import b`` gives
    ``a`` and ``a.b`` (``b`` may be a submodule or a name).  Relative
    imports give the path without its leading dots and ``relative=True``
    (``from .. import x`` gives just ``x``).  Shared by every rule that
    polices imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, False
        elif isinstance(node, ast.ImportFrom):
            relative = node.level > 0
            base = node.module or ""
            if base:
                yield node, base, relative
            for alias in node.names:
                path = f"{base}.{alias.name}" if base else alias.name
                yield node, path, relative


@register_rule("registry-bypass")
class RegistryBypassRule:
    name = "registry-bypass"
    description = (
        "schedule builders are reached via repro.schedule.get_family "
        "only; no direct builder imports outside schedule/"
    )
    scope = ("*",)
    exclude = ("schedule/*",)

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node, path, _ in iter_imports(src.tree):
            if _is_builder_module(path):
                # ``from ..schedule.onef1b import ...`` / ``import ...``
                yield src.finding(
                    node, self.name,
                    f"imports builder module {path!r}; go through "
                    "repro.schedule.get_family",
                )
            elif path.rsplit(".", 1)[-1] in BUILDER_NAMES:
                # ``from ..schedule import build_1f1b``
                yield src.finding(
                    node, self.name,
                    f"imports builder {path.rsplit('.', 1)[-1]!r}; go "
                    "through repro.schedule.get_family",
                )
