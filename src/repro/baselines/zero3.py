"""ZeRO-3 (ZeRO Infinity stage 3) baseline.

ZeRO-3 shards parameters, gradients and optimiser states across the
data-parallel world.  The price is communication: every layer's fp16
parameters are all-gathered before its forward and again before its
backward, and gradients leave via reduce-scatter instead of all-reduce.

Cost model per iteration:

    compute(local)                      (same as DDP)
  + allgather(world, P16)  * 2          (forward + backward re-gather)
  + reduce_scatter(world, P16)          (gradient shard exchange)

where ``P16`` is the total fp16 trainable-parameter bytes.  Memory drops
to ``states / world + largest layer working set + activations``.
"""

from __future__ import annotations

from ..memory.estimator import data_parallel_memory_report
from ..core.plan import MemoryReport
from .data_parallel import DataParallelBaseline


class Zero3Baseline(DataParallelBaseline):
    """DeepSpeed ZeRO-3."""

    name = "DeepSpeed-ZeRO-3"

    def param_bytes_fp16(self) -> float:
        """Total fp16 trainable-parameter bytes."""
        return sum(
            self.model.components[n].param_bytes for n in self.model.backbone_names
        )

    def sync_ms(self) -> float:
        """All communication exposed by parameter/gradient sharding."""
        ranks = list(range(self.cluster.world_size))
        p16 = self.param_bytes_fp16()
        gather = self.collectives.allgather(ranks, p16)
        scatter = self.collectives.reduce_scatter(ranks, self.grad_bytes())
        return 2.0 * gather + scatter

    def memory(self, local_batch: float) -> MemoryReport:
        return data_parallel_memory_report(
            self.model,
            local_batch,
            capacity_bytes=self.cluster.min_memory_bytes(),
            zero3=True,
            world_size=self.cluster.world_size,
        )
