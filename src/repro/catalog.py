"""Named models and cluster shapes: what ``repro <command> --model/--gpus``
and a ``repro serve`` request resolve to.

The CLI and :mod:`repro.service` share these builders.  They raise
:class:`~repro.errors.ConfigurationError`, never ``SystemExit``: a bad
service request must not stop the server, and the CLI's ``main()``
turns any :class:`~repro.errors.ReproError` into a one-line exit.
"""

from __future__ import annotations

from typing import Callable

from .cluster import p4de_cluster, single_node
from .errors import ConfigurationError, ReproError
from .models import zoo

MODELS: dict[str, Callable] = {
    "sd": zoo.stable_diffusion_v2_1,
    "controlnet": zoo.controlnet_v1_0,
    "cdm-lsun": zoo.cdm_lsun,
    "cdm-imagenet": zoo.cdm_imagenet,
    "dit": zoo.dit_xl,
}


def build_model(name: str, self_conditioning: bool | None):
    """The zoo model registered under ``name``; ``self_conditioning``
    None keeps the model's default (cascaded models ignore it)."""
    if name not in MODELS:
        raise ConfigurationError(
            f"unknown model {name!r}; options: {sorted(MODELS)}"
        )
    factory = MODELS[name]
    if name in ("cdm-lsun", "cdm-imagenet"):
        return factory()
    if self_conditioning is None:
        return factory()
    return factory(self_conditioning=self_conditioning)


def parse_speed_factors(items) -> dict[int, float] | None:
    """``RANK=FACTOR`` pairs into the ClusterSpec override mapping."""
    if not items:
        return None
    out: dict[int, float] = {}
    for item in items:
        rank, sep, factor = item.partition("=")
        try:
            if not sep:
                raise ValueError
            out[int(rank)] = float(factor)
        except ValueError:
            raise ConfigurationError(
                f"--speed-factors entries look like RANK=FACTOR "
                f"(e.g. 0=0.5), got {item!r}"
            ) from None
    return out


def build_cluster(gpus: int, speed_factors=None):
    """Multiples of 8 GPUs map to p4de machines; smaller or odd counts
    model one NVSwitch node — e.g. ``--gpus 6`` plans the non-divisible
    clusters the heterogeneous DPs exist for."""
    if gpus < 2:
        raise ConfigurationError("--gpus must be at least 2")
    if gpus > 8 and gpus % 8:
        raise ConfigurationError(
            "--gpus beyond one machine must be a multiple of 8 (p4de)"
        )
    factors = parse_speed_factors(speed_factors)
    try:
        if gpus % 8 == 0:
            return p4de_cluster(gpus // 8, speed_factors=factors)
        return single_node(gpus, speed_factors=factors)
    except ReproError as exc:
        # Out-of-range ranks, non-positive factors.
        raise ConfigurationError(f"invalid --speed-factors: {exc}") from exc


def group_sizes(cluster) -> tuple[int, ...]:
    """Pipeline-group menu: sizes within the paper's practical range
    (groups fit one machine) that tile both the world and the machine.

    Groups are contiguous rank blocks, so a size that does not divide
    the per-machine device count would make some groups straddle the
    inter-node link while the planner prices every group off the first
    (intra-node) one — e.g. D=6 on 24 p4de GPUs.  Requiring ``d |
    devices_per_machine`` keeps every group on one machine.
    """
    world = cluster.world_size
    per = cluster.devices_per_machine
    return tuple(
        d
        for d in range(2, min(world, per) + 1)
        if world % d == 0 and per % d == 0
    )
