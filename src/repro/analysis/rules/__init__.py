"""Built-in invariant rules.

Importing this package registers every rule with the engine registry
(the same import-for-effect pattern the ``FillStrategy`` and
``ScheduleFamily`` registries use).  Adding a rule means adding a
module here with a ``@register_rule("my-rule")`` class and importing it
below — nothing else in the engine or CLI changes.
"""

from . import (  # noqa: F401  (import-for-effect: registry population)
    cache_globals,
    determinism,
    float_equality,
    lock_discipline,
    oracle_imports,
    registry_bypass,
)

__all__ = [
    "cache_globals",
    "determinism",
    "float_equality",
    "lock_discipline",
    "oracle_imports",
    "registry_bypass",
]
