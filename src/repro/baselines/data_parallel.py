"""DeepSpeed-style distributed data parallelism (DDP) baseline.

Every device hosts the full model and processes ``global_batch / world``
samples per iteration: the frozen encoders forward, the backbone(s)
forward+backward (twice forward under self-conditioning, in
expectation), then a gradient all-reduce over the world.

The sync cost uses the calibrated ring all-reduce of
:class:`repro.cluster.CollectiveModel`, whose two calibration curves
were fitted to the paper's Table 2; the iteration model
``compute + sync`` (no bucketing overlap) is exactly the accounting
Table 2 uses ("ratio of parameter synchronization time to the
end-to-end time of a training iteration").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.collectives import CollectiveModel
from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from ..memory.estimator import data_parallel_memory_report
from ..core.plan import MemoryReport


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of one baseline configuration."""

    name: str
    global_batch: float
    local_batch: float
    compute_ms: float
    sync_ms: float
    iteration_ms: float
    throughput: float           # samples / second
    memory: MemoryReport | None
    oom: bool
    notes: tuple[str, ...] = ()

    @property
    def sync_share(self) -> float:
        """Table 2's metric: sync time / iteration time."""
        if self.iteration_ms <= 0:
            return 0.0
        return self.sync_ms / self.iteration_ms


def _oom_result(
    name: str, global_batch: float, local_batch: float, memory: MemoryReport
) -> BaselineResult:
    return BaselineResult(
        name=name,
        global_batch=global_batch,
        local_batch=local_batch,
        compute_ms=float("inf"),
        sync_ms=float("inf"),
        iteration_ms=float("inf"),
        throughput=0.0,
        memory=memory,
        oom=True,
        notes=("out of memory",),
    )


class DataParallelBaseline:
    """Vanilla DDP (DeepSpeed without ZeRO)."""

    name = "DeepSpeed"

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        profile: ProfileDB,
        *,
        collectives: CollectiveModel | None = None,
    ):
        self.model = model
        self.cluster = cluster
        self.profile = profile
        self.collectives = collectives or CollectiveModel(cluster)

    # -- cost pieces -----------------------------------------------------------

    def compute_ms(self, local_batch: float) -> float:
        """Per-device compute: frozen encoders + backbone train step."""
        if local_batch <= 0:
            raise ConfigurationError("local batch must be positive")
        total = 0.0
        for comp in self.model.non_trainable:
            total += self.profile.component_fwd_ms(comp.name, local_batch)
        sc_extra = (
            self.model.self_conditioning_prob if self.model.self_conditioning else 0.0
        )
        for name in self.model.backbone_names:
            fwd = self.profile.component_fwd_ms(name, local_batch)
            total += self.profile.component_train_ms(name, local_batch)
            total += sc_extra * fwd
        return total

    def grad_bytes(self) -> float:
        """Total gradient bytes all-reduced per iteration."""
        total = 0.0
        for name in self.model.backbone_names:
            comp = self.model.components[name]
            total += comp.grad_bytes
        return total

    def sync_ms(self) -> float:
        """World-wide gradient all-reduce time."""
        ranks = list(range(self.cluster.world_size))
        return self.collectives.allreduce(ranks, self.grad_bytes())

    def memory(self, local_batch: float) -> MemoryReport:
        return data_parallel_memory_report(
            self.model,
            local_batch,
            capacity_bytes=self.cluster.min_memory_bytes(),
            zero3=False,
            world_size=self.cluster.world_size,
        )

    # -- evaluation --------------------------------------------------------------

    def run(self, global_batch: float) -> BaselineResult:
        world = self.cluster.world_size
        if global_batch <= 0 or global_batch % world != 0:
            raise ConfigurationError(
                f"global batch {global_batch} must be a positive multiple "
                f"of world size {world}"
            )
        local = global_batch / world
        memory = self.memory(local)
        if not memory.fits:
            return _oom_result(self.name, global_batch, local, memory)
        compute = self.compute_ms(local)
        sync = self.sync_ms()
        iteration = compute + sync
        return BaselineResult(
            name=self.name,
            global_batch=global_batch,
            local_batch=local,
            compute_ms=compute,
            sync_ms=sync,
            iteration_ms=iteration,
            throughput=global_batch / iteration * 1e3,
            memory=memory,
            oom=False,
        )
