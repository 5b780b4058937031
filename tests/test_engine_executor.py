"""Pipeline executor and equivalence tests (§3.2's claim, numerically)."""

import numpy as np
import pytest

from repro.engine import (
    SGD,
    Adam,
    DataParallelPipelineTrainer,
    InstructionEngine,
    PipelineTrainer,
    SingleDeviceTrainer,
    clone_chain,
    compare_dp_pipeline_to_dp,
    compare_pipeline_to_single,
    cross_iteration_equivalence,
    mlp_chain,
    split_micro_batches,
)
from repro.engine.equivalence import max_param_diff
from repro.core.instructions import lower_timeline
from repro.errors import EngineError
from repro.schedule import StageExec, simulate
from repro.schedule.gpipe import build_gpipe
from repro.schedule.onef1b import build_1f1b


@pytest.fixture
def rng():
    return np.random.default_rng(1)


@pytest.fixture
def data(rng):
    return rng.normal(size=(8, 4)), rng.normal(size=(8, 2))


def test_split_micro_batches(data):
    x, y = data
    micro = split_micro_batches(x, y, 4)
    assert len(micro) == 4
    assert all(mx.shape == (2, 4) for mx, _ in micro)
    with pytest.raises(EngineError):
        split_micro_batches(x, y, 3)
    with pytest.raises(EngineError):
        split_micro_batches(x, y[:4], 2)


def test_pipeline_equals_single_device(rng, data):
    chain = mlp_chain("m", [4, 8, 8, 2], rng)
    x, y = data
    for boundaries, micro in [([2], 2), ([2, 4], 4), ([1, 3], 8)]:
        diff = compare_pipeline_to_single(
            chain, boundaries, x, y, num_micro=micro, steps=3
        )
        assert diff < 1e-12, (boundaries, micro, diff)


def test_pipeline_loss_matches_single(rng, data):
    chain = mlp_chain("m", [4, 6, 2], rng)
    x, y = data
    single = SingleDeviceTrainer(clone_chain(chain))
    pipe = PipelineTrainer(clone_chain(chain), [2], num_micro=2)
    l_single = single.step(x, y)
    l_pipe = pipe.step(x, y)
    assert l_pipe == pytest.approx(l_single, rel=1e-12)


def test_dp_pipeline_equals_single(rng, data):
    chain = mlp_chain("m", [4, 8, 2], rng)
    x, y = data
    diff = compare_dp_pipeline_to_dp(
        chain, [2], x, y, num_micro=2, replicas=2, steps=2
    )
    assert diff < 1e-12


def test_momentum_and_adam_preserve_equivalence(rng, data):
    chain = mlp_chain("m", [4, 8, 2], rng)
    x, y = data
    for factory in (lambda: SGD(lr=0.03, momentum=0.9), lambda: Adam(lr=1e-2)):
        single = SingleDeviceTrainer(clone_chain(chain), optimizer=factory())
        pipe = PipelineTrainer(
            clone_chain(chain), [2], num_micro=4, optimizer_factory=factory
        )
        for _ in range(3):
            single.step(x, y)
            pipe.step(x, y)
        assert max_param_diff(
            single.chain.param_vector(), pipe.param_vector()
        ) < 1e-12


def test_cross_iteration_equivalence_exact():
    assert cross_iteration_equivalence() == 0.0


def test_pipeline_trainer_validation(rng):
    chain = mlp_chain("m", [4, 8, 2], rng)
    with pytest.raises(EngineError):
        PipelineTrainer(chain, [2, 2])   # non-increasing boundaries
    with pytest.raises(EngineError):
        DataParallelPipelineTrainer(chain, [2], replicas=0)


def test_instruction_engine_matches_reference(rng, data):
    """Lowered 1F1B and GPipe programs both train identically to a
    single device."""
    x, y = data
    for builder, M in [(build_1f1b, 2), (build_gpipe, 4)]:
        chain = mlp_chain(f"m{M}", [4, 6, 2], rng)
        ref = SingleDeviceTrainer(clone_chain(chain), optimizer=SGD(lr=0.05))
        stages_meta = [
            StageExec(index=i, fwd_ms=1, bwd_ms=2, send_fwd_ms=0.1,
                      send_bwd_ms=0.1, sync_ms=0.5)
            for i in range(2)
        ]
        tl = simulate(builder(stages_meta, M), 2)
        streams = lower_timeline(tl)
        eng = InstructionEngine(
            [chain.slice(0, 2), chain.slice(2, 3)],
            streams,
            optimizer_factory=lambda: SGD(lr=0.05),
        )
        xs = np.split(x, M)
        ys = np.split(y, M)
        eng.run(dict(enumerate(xs)), dict(enumerate(ys)))
        ref.step(x, y)
        got = np.concatenate(
            [eng.stages[0].chain.param_vector(), eng.stages[1].chain.param_vector()]
        )
        assert max_param_diff(got, ref.chain.param_vector()) < 1e-12


def test_instruction_engine_deadlock_detection(rng, data):
    """A RECV with no matching SEND must raise, not hang."""
    from repro.core.instructions import Instruction, Op

    x, y = data
    chain = mlp_chain("m", [4, 6, 2], rng)
    streams = {
        0: [Instruction(Op.RECV, 0, {"micro_batch": 0, "dir": "bwd", "peer": 1})],
        1: [],
    }
    eng = InstructionEngine([chain.slice(0, 2), chain.slice(2, 3)], streams)
    with pytest.raises(EngineError, match="deadlock"):
        eng.run({0: x[:4]}, {0: y[:4]})


def test_optimizer_validation():
    with pytest.raises(EngineError):
        SGD(lr=0)
    with pytest.raises(EngineError):
        SGD(lr=0.1, momentum=1.0)
    with pytest.raises(EngineError):
        Adam(lr=-1)


def test_training_reduces_loss(rng):
    """Sanity: the pipeline actually learns a linear map."""
    true_w = rng.normal(size=(4, 2))
    x = rng.normal(size=(64, 4))
    y = x @ true_w
    chain = mlp_chain("m", [4, 16, 2], rng)
    pipe = PipelineTrainer(chain, [2], num_micro=4,
                           optimizer_factory=lambda: SGD(lr=0.1))
    first = pipe.step(x, y)
    for _ in range(60):
        last = pipe.step(x, y)
    assert last < first * 0.2
