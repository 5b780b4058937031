"""Fuzzed differential of the planner's bounded search.

``plan()`` fills a candidate only while an upper bound on its
throughput can still beat the best found so far;
``candidate_plans()`` evaluates every candidate in full.  On random synthetic
models, clusters and options both must name the same plan, bit for
bit, with ties going to the first candidate in ``candidate_configs``
order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.errors import ConfigurationError
from repro.models import ModelSpec
from repro.models.zoo import timed_component
from repro.profiling import Profiler

layer_ms = st.floats(1.0, 30.0, allow_nan=False, allow_infinity=False)


@st.composite
def planning_case(draw):
    cascaded = draw(st.booleans())
    schedule = (
        "auto" if cascaded
        else draw(st.sampled_from(
            ("auto", "gpipe", "interleaved", "zerobubble")))
    )
    chunked = schedule == "interleaved"
    encoder = timed_component(
        "encoder", draw(st.lists(layer_ms, min_size=1, max_size=5))
    )
    names = ("bb_a", "bb_b") if cascaded else ("bb",)
    backbones = [
        timed_component(
            name, draw(st.lists(layer_ms, min_size=4, max_size=8)),
            trainable=True, depends_on=("encoder",),
        )
        for name in names
    ]
    model = ModelSpec(
        "fuzzed", [encoder, *backbones], names,
        self_conditioning=not cascaded and draw(st.booleans()),
    )
    devices = draw(st.sampled_from((4, 6, 8)))
    speed = {}
    if not chunked and draw(st.booleans()):
        speed = {draw(st.integers(0, devices - 1)): draw(
            st.sampled_from((0.5, 0.8)))}
    cluster = single_node(devices, speed_factors=speed)
    options = PlannerOptions(
        max_stages=4,
        micro_batch_counts=(1, 2, 3, 4),
        schedule=schedule,
        heterogeneous_replication=not chunked and draw(st.booleans()),
        enable_bubble_filling=draw(st.booleans()),
        check_memory=False,
    )
    batch = draw(st.sampled_from((24, 48, 96)))
    return model, cluster, options, batch


@given(planning_case())
@settings(max_examples=25, deadline=None)
def test_searched_plan_equals_exhaustive_argmax(case):
    model, cluster, options, batch = case
    profile = Profiler(cluster).profile(model)

    def planner():
        return DiffusionPipePlanner(model, cluster, profile, options,
                                    caches=PlannerCaches())

    candidates = planner().candidate_plans(batch)
    try:
        got = planner().plan(batch).plan
    except ConfigurationError:
        assert candidates == []
        return
    want = max(candidates, key=lambda ev: ev.plan.throughput).plan
    assert got.config_label == want.config_label
    assert float.hex(got.throughput) == float.hex(want.throughput)
    assert got == want
