"""SPP baseline (Luo et al. 2022).

SPP solves a dynamic program to optimise model partitioning and searches
the same pipeline hyper-parameters as DiffusionPipe — so we reuse
DiffusionPipe's own planner — but it pipelines *only the backbone*: no
bubble filling, with the non-trainable part executing serially before
the pipeline (§6 Baselines, Fig. 9 top).
"""

from __future__ import annotations

from dataclasses import replace

from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from ..core.planner import (
    DiffusionPipePlanner,
    EvaluatedConfig,
    PlannerCaches,
    PlannerOptions,
)
from .data_parallel import BaselineResult, _oom_result


class SPPBaseline:
    """Optimal pipeline planning without bubble filling.

    ``caches`` may be the :class:`PlannerCaches` of a DiffusionPipe
    planner evaluating the same model/profile — SPP's partitions are
    identical, so sharing skips the whole DP search.
    """

    name = "SPP"

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        profile: ProfileDB,
        options: PlannerOptions | None = None,
        caches: PlannerCaches | None = None,
    ):
        if len(model.backbone_names) != 1:
            raise ConfigurationError(
                "SPP does not support pipelining multiple models (§6)"
            )
        base = options or PlannerOptions()
        self.options = replace(base, enable_bubble_filling=False)
        self.planner = DiffusionPipePlanner(
            model, cluster, profile, options=self.options, caches=caches
        )
        self.model = model
        self.cluster = cluster

    def evaluate(self, global_batch: float) -> EvaluatedConfig:
        """The best SPP configuration for a global batch."""
        return self.planner.plan(global_batch)

    def run(self, global_batch: float) -> BaselineResult:
        try:
            ev = self.evaluate(global_batch)
        except ConfigurationError:
            # Every configuration OOMed or was infeasible.
            from ..core.plan import MemoryReport

            cap = self.cluster.min_memory_bytes()
            return _oom_result(
                self.name,
                global_batch,
                0.0,
                MemoryReport(peak_bytes=float("inf"), capacity_bytes=cap),
            )
        plan = ev.plan
        return BaselineResult(
            name=self.name,
            global_batch=global_batch,
            local_batch=plan.partition.micro_batch,
            compute_ms=plan.pipeline_ms,
            sync_ms=0.0,
            iteration_ms=plan.iteration_ms,
            throughput=plan.throughput,
            memory=plan.memory,
            oom=False,
            notes=(plan.config_label,),
        )

    def bubble_ratio(self, global_batch: float) -> float:
        """Fig. 14's metric for SPP."""
        ev = self.evaluate(global_batch)
        return ev.plan.bubble_ratio_unfilled
