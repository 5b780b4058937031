"""Pipeline schedules: task graphs, builders and the event simulator.

Schedule construction goes through the :mod:`~repro.schedule.families`
registry — ``get_family(name).build(...)`` — so the planner, baselines
and harness share one code path per family.  The direct builder names
(``build_1f1b``, ``build_gpipe``, ``build_bidirectional``,
``build_interleaved``, ``build_zerobubble``) and
``BIDIRECTIONAL_COMM_SCALE`` remain importable for existing callers and
the builders' own unit tests, but are **deprecated** as a public
surface and no longer listed in ``__all__``; an AST gate
(``tests/test_no_direct_builder_imports.py``) keeps production code off
them outside this package.
"""

from .bidirectional import BIDIRECTIONAL_COMM_SCALE, build_bidirectional
from .families import (
    SCHEDULE_FAMILIES,
    ScheduleFamily,
    get_family,
    register_schedule_family,
    schedule_family_names,
)
from .gpipe import build_gpipe
from .interleaved import build_interleaved
from .onef1b import build_1f1b
from .simulator import simulate
from .stages import StageExec, validate_stages
from .tasks import (
    COMPUTE_KINDS,
    Task,
    TaskKind,
    device_resource,
    link_resource,
    sync_resource,
    validate_task_graph,
)
from .timeline import IdleSpan, Interval, Timeline
from .zerobubble import build_zerobubble

__all__ = [
    # the registry is the public construction surface
    "SCHEDULE_FAMILIES",
    "ScheduleFamily",
    "get_family",
    "register_schedule_family",
    "schedule_family_names",
    # simulation + data types
    "simulate",
    "StageExec",
    "validate_stages",
    "COMPUTE_KINDS",
    "Task",
    "TaskKind",
    "device_resource",
    "link_resource",
    "sync_resource",
    "validate_task_graph",
    "IdleSpan",
    "Interval",
    "Timeline",
    # deprecated direct names (use get_family(...).build instead):
    # BIDIRECTIONAL_COMM_SCALE, build_bidirectional, build_gpipe,
    # build_1f1b, build_interleaved, build_zerobubble
]
