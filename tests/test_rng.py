import numpy as np

from levy_groups.rng import RngStream


def test_same_key_replays_identical_draws():
    a = RngStream(12345, 7).generator.standard_normal(100)
    b = RngStream(12345, 7).generator.standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(12345, 0).generator.standard_normal(100)
    b = RngStream(12345, 1).generator.standard_normal(100)
    assert not np.array_equal(a, b)
    # same stream id under a different seed also differs
    c = RngStream(54321, 0).generator.standard_normal(100)
    assert not np.array_equal(a, c)


def test_negative_and_large_ids_wrap_to_64_bits():
    s = RngStream(-1, 1 << 70)
    assert 0 <= s.seed < 1 << 64
    assert 0 <= s.stream_id < 1 << 64
