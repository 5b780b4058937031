"""Shared fixtures for the unit/integration test suite."""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro import oracles
from repro.cluster import a100_80gb, single_node
from repro.core import partition_kernels
from repro.models.zoo import (
    cascaded_model,
    long_layer_model,
    two_encoder_model,
    uniform_model,
)
from repro.profiling import ProfileDB, Profiler


@pytest.fixture
def device():
    return a100_80gb()


@pytest.fixture
def cluster4():
    return single_node(4)


@pytest.fixture
def cluster8():
    return single_node(8)


@pytest.fixture
def uniform():
    """8 uniform backbone layers @10 ms, 6 encoder layers @4 ms (B=64)."""
    return uniform_model()


@pytest.fixture
def uniform_profile(uniform, cluster8):
    return Profiler(cluster8).profile(uniform)


@pytest.fixture
def two_encoder():
    return two_encoder_model()


@pytest.fixture
def two_encoder_profile(two_encoder, cluster8):
    return Profiler(cluster8).profile(two_encoder)


@pytest.fixture
def cascaded():
    return cascaded_model()


@pytest.fixture
def cascaded_profile(cascaded, cluster8):
    return Profiler(cluster8).profile(cascaded)


@pytest.fixture
def long_layer():
    return long_layer_model()


@pytest.fixture
def long_layer_profile(long_layer, cluster8):
    return Profiler(cluster8).profile(long_layer)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_synthetic_db(
    backbone_times=((10.0, 20.0),) * 8,
    encoder_times=((4.0, 0.0),) * 6,
    batches=(1.0, 64.0),
) -> ProfileDB:
    """A hand-built ProfileDB: 'backbone' trainable + 'encoder' frozen."""
    return ProfileDB.from_layer_times(
        {"backbone": list(backbone_times), "encoder": list(encoder_times)},
        batches=batches,
        trainable={"backbone": True, "encoder": False},
    )


# -- oracles at the production call sites ------------------------------------

#: production DP table builder -> the repro.oracles recursion it must match
DP_TABLE_ORACLES = {
    "het_table_array": oracles.het_table_reference,
    "cdm_table_array": oracles.cdm_table_reference,
}


@contextmanager
def reference_dp_tables():
    """Build every partition DP table with the pure-Python oracles.

    The partitioners look the builders up on ``partition_kernels`` at
    call time, so everything above them — memo wrappers, objective
    selection, backtracking, the planner — runs unchanged on the
    oracle's tables.  Pair with a fresh ``PlannerCaches``: table keys
    do not name the engine that built them.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name, oracle in DP_TABLE_ORACLES.items():
            mp.setattr(partition_kernels, name, oracle)
        yield


def dp_engine(name: str):
    """``"array"`` (production) or ``"reference"`` (oracle) tables."""
    return reference_dp_tables() if name == "reference" else nullcontext()
