"""Rule ``system-exit``: only the CLI entry points end the process.

Library code reports failure by raising a :mod:`repro.errors`
exception, which the CLI maps to a message and an exit code.  A
``SystemExit`` raised inside the planner, a service handler or a
harness would instead tear down whatever process imported it — a
worker pool, ``repro serve``, a test runner.  This rule flags
``raise SystemExit``, ``sys.exit`` and ``from sys import exit``
everywhere in the package except ``cli.py``, ``__main__.py`` and the
bodies of ``if __name__ == "__main__":`` blocks (script entry points
such as ``service/smoke.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule


def _is_main_guard(node: ast.AST) -> bool:
    """``if __name__ == "__main__":`` (either operand order)."""
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    test = node.test
    if len(test.ops) != 1 or not isinstance(test.ops[0], ast.Eq):
        return False
    sides = (test.left, test.comparators[0])
    return any(
        isinstance(s, ast.Name) and s.id == "__name__" for s in sides
    ) and any(
        isinstance(s, ast.Constant) and s.value == "__main__" for s in sides
    )


def _outside_main_guards(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node except those inside a main guard's body (its ``else``
    branch runs on import, so it stays checked)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if _is_main_guard(node):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _names_system_exit(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and node.id == "SystemExit"


@register_rule("system-exit")
class SystemExitRule:
    name = "system-exit"
    description = (
        "no raise SystemExit / sys.exit outside cli.py, __main__.py and "
        "if __name__ == '__main__' blocks; library code raises repro "
        "errors"
    )
    scope = ("*",)
    exclude = ("cli.py", "__main__.py")

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in _outside_main_guards(src.tree):
            if isinstance(node, ast.Raise) and _names_system_exit(node.exc):
                what = "raise SystemExit"
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "exit"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                what = "sys.exit"
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "sys"
                and any(a.name == "exit" for a in node.names)
            ):
                what = "from sys import exit"
            else:
                continue
            yield src.finding(
                node, self.name,
                f"{what} ends the importing process; raise a repro.errors "
                "exception and let the CLI choose the exit code",
            )
