"""ModelSpec (component DAG) tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.models import ComponentSpec, LayerSpec, ModelSpec


def _comp(name, trainable=False, deps=()):
    layers = [
        LayerSpec(
            name=f"{name}_l0", flops_per_sample=1e9, param_bytes=1e6,
            trainable=trainable,
        )
    ]
    return ComponentSpec(name, layers, trainable=trainable, depends_on=deps)


def test_basic_model():
    m = ModelSpec(
        "m",
        [_comp("enc"), _comp("bb", trainable=True, deps=("enc",))],
        backbone_names=("bb",),
    )
    assert m.backbone.name == "bb"
    assert [c.name for c in m.non_trainable] == ["enc"]
    assert m.trainable_param_bytes == 1e6
    assert m.frozen_param_bytes == 1e6


def test_backbone_validation():
    with pytest.raises(ConfigurationError):
        ModelSpec("m", [_comp("enc")], backbone_names=())
    with pytest.raises(ConfigurationError):
        ModelSpec("m", [_comp("enc")], backbone_names=("missing",))
    with pytest.raises(ConfigurationError):
        # Backbone must be trainable.
        ModelSpec("m", [_comp("enc")], backbone_names=("enc",))


def test_multi_backbone_access():
    m = ModelSpec(
        "m",
        [_comp("a", trainable=True), _comp("b", trainable=True)],
        backbone_names=("a", "b"),
    )
    assert len(m.backbones) == 2
    with pytest.raises(ConfigurationError):
        _ = m.backbone  # ambiguous


def test_cycle_detection():
    a = _comp("a", deps=("b",))
    b = _comp("b", deps=("a",))
    bb = _comp("bb", trainable=True)
    with pytest.raises(ConfigurationError):
        ModelSpec("m", [a, b, bb], backbone_names=("bb",))


def test_unknown_dependency():
    with pytest.raises(ConfigurationError):
        ModelSpec(
            "m",
            [_comp("enc", deps=("ghost",)), _comp("bb", trainable=True)],
            backbone_names=("bb",),
        )


def test_topological_order_respects_deps():
    m = ModelSpec(
        "m",
        [
            _comp("c", deps=("b",)),
            _comp("b", deps=("a",)),
            _comp("a"),
            _comp("bb", trainable=True),
        ],
        backbone_names=("bb",),
    )
    order = m.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")
    assert [c.name for c in m.non_trainable] == ["a", "b", "c"]


TOPO_ORDER_SCRIPT = """
from repro.models.zoo import timed_component
from repro.models import ModelSpec
frozen = [timed_component(f"enc{i}", [1.0]) for i in range(8)]
bb = timed_component("bb", [1.0], trainable=True,
                     depends_on=[c.name for c in reversed(frozen)])
print([c.name for c in ModelSpec("m", [bb] + frozen, ("bb",)).non_trainable])
"""


def test_topological_order_ignores_hash_seed():
    """Regression: predecessors were passed to the sorter as sets, so
    the frozen-component order (which the lookahead fill search keys
    on) changed with PYTHONHASHSEED and so did lookahead's plans."""
    src = Path(__file__).resolve().parents[1] / "src"
    orders = set()
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", TOPO_ORDER_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        orders.add(out.stdout)
    assert len(orders) == 1, orders


def test_ready_after():
    m = ModelSpec(
        "m",
        [
            _comp("a"),
            _comp("b", deps=("a",)),
            _comp("bb", trainable=True, deps=("a", "b")),
        ],
        backbone_names=("bb",),
    )
    assert [c.name for c in m.ready_after(set())] == ["a"]
    assert [c.name for c in m.ready_after({"a"})] == ["b"]
    assert m.ready_after({"a", "b"}) == []


def test_self_conditioning_prob_validation():
    with pytest.raises(ConfigurationError):
        ModelSpec(
            "m",
            [_comp("bb", trainable=True)],
            backbone_names=("bb",),
            self_conditioning=True,
            self_conditioning_prob=1.5,
        )


def test_duplicate_components_rejected():
    with pytest.raises(ConfigurationError):
        ModelSpec(
            "m",
            [_comp("bb", trainable=True), _comp("bb", trainable=True)],
            backbone_names=("bb",),
        )
