"""Interleaved-1F1B schedule builder (Megatron-style virtual stages).

Each device hosts ``v`` non-contiguous *chunks* of the layer chain:
chunk ``c`` of ``v * D`` total runs on device ``c mod D``, so device 0
hosts chunks ``0, D, 2D, ...``.  The pipeline then runs plain FIFO-1F1B
over the chunk chain — every warm-up and cool-down ramp is paid in
per-chunk stage time (``~1/v`` of the contiguous stage time), which is
what shrinks the fill/drain bubbles, at the cost of ``v``-fold more
inter-stage traffic.

Because :func:`build_1f1b` already separates chain position from device
placement (``device_order``), the interleaved family is exactly 1F1B
over the chunk chain with a round-robin placement; dispatch priorities
(micro-batch first, forward before backward) give each device the
interleaved ordering over its chunks' slots.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from .onef1b import build_1f1b
from .stages import StageExec, validate_stages
from .tasks import Task


def build_interleaved(
    chunks: Sequence[StageExec],
    num_micro_batches: int,
    num_devices: int,
    *,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
) -> list[Task]:
    """Build the interleaved-1F1B task graph.

    ``chunks`` is the *chunk* chain (length ``v * num_devices``, in
    pipeline order); chunk ``c`` is placed on device ``c mod
    num_devices``.  Chunk costs must already be per-chunk (the planner
    subdivides each contiguous stage's layer range).
    """
    chunks = validate_stages(chunks)
    if num_devices <= 0:
        raise ConfigurationError("num_devices must be positive")
    if len(chunks) % num_devices != 0:
        raise ConfigurationError(
            f"interleaved schedule needs a whole number of chunks per "
            f"device (got {len(chunks)} chunks on {num_devices} devices)"
        )
    return build_1f1b(
        chunks,
        num_micro_batches,
        self_conditioning=self_conditioning,
        feedback_ms=feedback_ms,
        device_order=[c % num_devices for c in range(len(chunks))],
    )
