"""Rule ``oracle-imports``: the reference oracles are test-only.

:mod:`repro.oracles` holds the straightforward originals the optimised
production paths are differentially tested against.  They exist to
check the production path, not to be a second engine: a production
module that imports one is either running the slow path or keeping a
dead one alive.  This rule flags any import of ``repro.oracles`` (any
spelling) outside the ``oracles`` package itself.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule
from .registry_bypass import iter_imports


def _is_oracle_path(path: str, relative: bool) -> bool:
    """``repro.oracles[...]``, or a relative path starting at
    ``oracles`` (``from ..oracles import x``, ``from .. import oracles``)."""
    parts = path.split(".")
    if relative:
        return parts[0] == "oracles"
    return parts[:2] == ["repro", "oracles"]


@register_rule("oracle-imports")
class OracleImportsRule:
    name = "oracle-imports"
    description = (
        "repro.oracles is imported only by tests and benchmarks; no "
        "production module imports it"
    )
    scope = ("*",)
    exclude = ("oracles/*",)

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        flagged = None
        for node, path, relative in iter_imports(src.tree):
            if node is not flagged and _is_oracle_path(path, relative):
                flagged = node
                yield src.finding(
                    node, self.name,
                    f"imports {path!r}; repro.oracles is for tests and "
                    "benchmarks only",
                )
