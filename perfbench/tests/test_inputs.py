"""Generated inputs are a function of the seed alone."""

from perfbench.common import tail
from perfbench.sweeps import profile_model
from perfbench.workloads import (serve_catalogue, serve_stream, sweep_spec,
                                 zipf_counts)


def test_profile_noise_is_deterministic_per_seed():
    for workload in ("sd-sc-sweep", "cdm-lsun-sweep"):
        _, a = profile_model(sweep_spec(workload, 7))
        _, b = profile_model(sweep_spec(workload, 7))
        _, c = profile_model(sweep_spec(workload, 8))
        # fingerprint: a digest over every measured value
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


def test_request_stream_is_deterministic_per_seed():
    assert serve_stream(3, 0) == serve_stream(3, 0)
    assert serve_stream(3, 0) != serve_stream(4, 0)
    assert serve_stream(3, 0) != serve_stream(3, 1)


def test_seed_only_reorders_which_entries_are_popular():
    catalogue = serve_catalogue()
    assert len(catalogue) == len(set(catalogue)) == 36
    for seed in range(20):
        stream = serve_stream(seed, seed % 3)
        # every entry is planned cold once an episode, whatever the seed
        assert set(stream) == set(catalogue)
        assert sorted(stream.count(e) for e in catalogue) == sorted(
            zipf_counts(len(catalogue)))


def test_repeat_share_stays_in_stated_range():
    for seed in range(50):
        stream = serve_stream(seed, seed % 3)
        repeats = len(stream) - len(set(stream))
        assert 0.78 <= repeats / len(stream) <= 0.86


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail(range(1, 101)) == (90.0, 90.0)
    assert tail(range(1, 100))[0] == 75.0
    assert tail(range(1, 1000)) == (90.0, 900.0)
    assert tail(range(1, 1001)) == (99.0, 990.0)
