"""Pipeline schedules: task graphs, builders and the event simulator.

Schedule construction goes through the :mod:`~repro.schedule.families`
registry — ``get_family(name).build(...)`` — so the planner, baselines
and harness share one code path per family.  Every family's builder is
the FIFO task-graph core of :mod:`~repro.schedule.onef1b`: 1F1B itself,
GPipe (no in-flight window, forwards-first dispatch), bidirectional
(two 1F1B graphs on mirrored device orders), interleaved (1F1B over a
round-robin chunk chain) and zero-bubble (1F1B with split backwards).
The builder modules are private to this package; an AST gate
(``repro analyze``'s ``registry-bypass`` rule) keeps code outside it
off them, and tests import them by module path.

:data:`BIDIRECTIONAL_COMM_SCALE` is exported because the CDM partition
DP must price communication with the same factor the bidirectional
schedule simulates.
"""

from .bidirectional import BIDIRECTIONAL_COMM_SCALE
from .families import (
    SCHEDULE_FAMILIES,
    ScheduleFamily,
    get_family,
    register_schedule_family,
    schedule_family_names,
)
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

__all__ = [
    # the registry is the public construction surface
    "SCHEDULE_FAMILIES",
    "ScheduleFamily",
    "get_family",
    "register_schedule_family",
    "schedule_family_names",
    "BIDIRECTIONAL_COMM_SCALE",
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
]
