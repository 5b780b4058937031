"""Bidirectional (Chimera-style) schedule builder for cascaded models.

Two backbones pipeline over the *same* device chain in opposite
directions (§4.2, Fig. 3): the "down" backbone's stage ``s`` runs on
device ``s`` while the "up" backbone's stage ``s`` runs on device
``S - 1 - s``.  Each backbone runs its own FIFO-1F1B schedule; the
device's dispatch interleaves them, and each pipeline's micro-batches
slot into the other's bubbles.

Communication durations are doubled relative to the unidirectional case
because the two pipelines compete for link resources (the paper's
factor-2 enlargement, §4.2).  :data:`BIDIRECTIONAL_COMM_SCALE` is the one
definition of that factor; the CDM partition DP imports it too, so the
DP's objective and the simulated schedule price the same links.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from .onef1b import build_1f1b
from .stages import StageExec, validate_stages
from .tasks import Task

#: the paper enlarges communication time by 2x for bidirectional pipelines
BIDIRECTIONAL_COMM_SCALE = 2.0


def build_bidirectional(
    stages_down: Sequence[StageExec],
    stages_up: Sequence[StageExec],
    num_micro_batches: int,
) -> list[Task]:
    """Build the combined task graph of a two-backbone bidirectional pipeline.

    Both stage chains must have the same length (they share the device
    chain) and both pipelines run ``num_micro_batches``.  Devices are
    numbered 0..S-1; the down pipeline maps stage ``s`` to device ``s``,
    the up pipeline maps stage ``s`` to device ``S - 1 - s``.
    """
    down = validate_stages(stages_down)
    up = validate_stages(stages_up)
    if len(down) != len(up):
        raise ConfigurationError(
            f"bidirectional pipelines need equal stage counts "
            f"(got {len(down)} and {len(up)})"
        )
    S = len(down)
    for i in range(S):
        # Chain position i hosts down stage i and up stage S-1-i on the
        # same physical devices, so their replica counts must agree —
        # heterogeneous partitions assign one count per position.
        if down[i].replicas != up[S - 1 - i].replicas:
            raise ConfigurationError(
                f"co-located stages disagree on replication at device {i}: "
                f"down stage {i} has {down[i].replicas} replicas, up stage "
                f"{S - 1 - i} has {up[S - 1 - i].replicas}"
            )
    tasks = build_1f1b(
        down,
        num_micro_batches,
        id_prefix="dn/",
        comm_scale=BIDIRECTIONAL_COMM_SCALE,
    )
    tasks += build_1f1b(
        up,
        num_micro_batches,
        id_prefix="up/",
        device_order=range(S - 1, -1, -1),
        comm_scale=BIDIRECTIONAL_COMM_SCALE,
    )
    return tasks
