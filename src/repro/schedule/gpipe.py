"""GPipe schedule builder (Huang et al. 2019).

GPipe runs *all* forward micro-batches through the pipeline, then all
backward micro-batches (Fig. 2's schedule without the 1F1B
interleaving).  There is no in-flight window: every micro-batch's
activations stay alive until its backward, which is what gives GPipe its
higher memory footprint.  The graph is the FIFO core's
(:func:`~repro.schedule.onef1b.build_1f1b`) with forwards-first
dispatch.

The paper evaluates GPipe with equal-layer-count partitioning, 2 stages
and 4 micro-batches (§6, Baselines); the equal partitioning itself lives
in :mod:`repro.baselines.gpipe`.
"""

from __future__ import annotations

from typing import Sequence

from .onef1b import build_1f1b
from .stages import StageExec
from .tasks import Task


def build_gpipe(
    stages: Sequence[StageExec],
    num_micro_batches: int,
    *,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
) -> list[Task]:
    """Build the GPipe task graph (all forwards, then all backwards)."""
    return build_1f1b(
        stages,
        num_micro_batches,
        self_conditioning=self_conditioning,
        feedback_ms=feedback_ms,
        forwards_first=True,
    )
