"""Seeded inputs of the benchmark workloads.

Everything the program sees is made here from ``--seed``: the profile
noise seed of the sweeps and the request stream of ``serve-zipf``.  The
same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: multiplicative log-normal jitter of the profiler's measurements (the
#: ``Profiler`` docstring's realistic run-to-run level)
PROFILE_NOISE_STD = 0.02

#: p4de machine counts of the fig13 grids
MACHINE_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class SweepSpec:
    """One fig13 sweep: a model factory and its per-scale batch grid."""

    name: str
    model_factory: Callable
    batches: dict
    noise_seed: int

    def cells(self) -> list[tuple[int, int]]:
        """(machines, batch) grid cells in sweep order."""
        return [(m, b) for m in MACHINE_COUNTS for b in self.batches[8 * m]]


def sweep_spec(workload: str, seed: int) -> SweepSpec:
    from repro.harness.throughput import CDM_LSUN_BATCHES, SD_BATCHES
    from repro.models import zoo

    if workload == "sd-sc-sweep":
        return SweepSpec(
            workload,
            lambda: zoo.stable_diffusion_v2_1(self_conditioning=True),
            dict(SD_BATCHES),
            seed,
        )
    if workload == "cdm-lsun-sweep":
        return SweepSpec(workload, zoo.cdm_lsun, dict(CDM_LSUN_BATCHES), seed)
    raise ValueError(f"not a sweep workload: {workload!r}")


# -- serve-zipf ---------------------------------------------------------------

SERVE_MODELS = ("sd", "controlnet", "cdm-lsun")
SERVE_GPUS = (8, 16, 32)
#: Zipf exponent of the request popularity
ZIPF_S = 1.1
#: requests per episode before rounding each entry's share
STREAM_TARGET = 200


def serve_catalogue() -> list[tuple[str, int, int]]:
    """The 36 fixed (model, gpus, batch) requests, paper batch grids."""
    from repro.harness.throughput import CDM_LSUN_BATCHES, SD_BATCHES

    grids = {"sd": SD_BATCHES, "controlnet": SD_BATCHES,
             "cdm-lsun": CDM_LSUN_BATCHES}
    return [(m, g, b) for m in SERVE_MODELS for g in SERVE_GPUS
            for b in grids[m][g]]


def zipf_counts(n: int) -> list[int]:
    """Requests per popularity rank: Zipf shares of :data:`STREAM_TARGET`,
    at least one each, so every catalogue entry is planned cold once an
    episode."""
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]
    norm = sum(weights)
    return [max(1, round(STREAM_TARGET * w / norm)) for w in weights]


def serve_stream(seed: int, episode: int) -> list[tuple[str, int, int]]:
    """The request order of one episode of a run.

    The seed and the episode number shuffle which entry holds which
    popularity rank and the order of the requests.  Each episode of a
    run gets its own order, so a run averages over several interleavings
    of the two clients' cold requests.  The counts per rank are fixed:
    every episode plans the same 36 entries cold and the repeat share is
    constant.
    """
    rng = random.Random(f"{seed}/{episode}")
    catalogue = serve_catalogue()
    ranked = catalogue[:]
    rng.shuffle(ranked)
    stream = [entry for entry, k in zip(ranked, zipf_counts(len(ranked)))
              for _ in range(k)]
    rng.shuffle(stream)
    return stream
