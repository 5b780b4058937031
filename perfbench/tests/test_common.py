"""Host-speed scaling of the reported latencies."""

from perfbench.common import REF_NOMINAL_MS, HostSpeed, reference_slice


def test_reference_slice_is_a_fixed_job():
    assert reference_slice() == reference_slice()


def test_factor_is_nominal_over_the_slices_around_a_block():
    speed = HostSpeed()
    assert len(speed.ticks_ms) == 1
    factor = speed.tick()
    assert factor == REF_NOMINAL_MS / ((speed.ticks_ms[0]
                                        + speed.ticks_ms[1]) / 2)
