"""Determinism and independence of the keyed random streams."""

import numpy as np

from qaoalab import rng


def test_derive_key_is_deterministic():
    assert rng.derive_key(7, rng.STREAM_SAMPLE) == rng.derive_key(7, rng.STREAM_SAMPLE)
    assert rng.derive_key(7, rng.STREAM_SAMPLE, 3) == rng.derive_key(7, rng.STREAM_SAMPLE, 3)


def test_derive_key_separates_paths():
    keys = {
        rng.derive_key(7, rng.STREAM_SAMPLE),
        rng.derive_key(7, rng.STREAM_TRAJECTORY),
        rng.derive_key(8, rng.STREAM_SAMPLE),
        rng.derive_key(7, rng.STREAM_SAMPLE, 0),
        rng.derive_key(7, rng.STREAM_SAMPLE, 1),
        rng.derive_key(7),
    }
    assert len(keys) == 6


def test_key_range_is_64_bit():
    for seed in (0, 1, 2**63, -5):
        key = rng.derive_key(seed, rng.STREAM_EVAL, 12345)
        assert 0 <= key < 2**64


def test_generator_reproducible():
    a = rng.generator(42, rng.STREAM_TRAJECTORY, 9).random(16)
    b = rng.generator(42, rng.STREAM_TRAJECTORY, 9).random(16)
    assert np.array_equal(a, b)


def test_generator_shot_substreams_differ():
    a = rng.generator(42, rng.STREAM_TRAJECTORY, 0).random(16)
    b = rng.generator(42, rng.STREAM_TRAJECTORY, 1).random(16)
    assert not np.array_equal(a, b)


def test_child_seed_stable_and_distinct():
    s0 = rng.child_seed(99, rng.STREAM_CELL, 0)
    assert s0 == rng.child_seed(99, rng.STREAM_CELL, 0)
    cells = {rng.child_seed(99, rng.STREAM_CELL, i) for i in range(100)}
    assert len(cells) == 100


def test_streams_are_statistically_disjoint():
    # identical seeds on different streams should not correlate
    a = rng.generator(5, rng.STREAM_SAMPLE).random(4096)
    b = rng.generator(5, rng.STREAM_READOUT).random(4096)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.1


def test_derive_keys_matches_derive_key_elementwise():
    shots = np.arange(300)
    keys = rng.derive_keys(-7, rng.STREAM_TRAJECTORY, shots)
    assert [int(k) for k in keys] == [
        rng.derive_key(-7, rng.STREAM_TRAJECTORY, i) for i in range(300)
    ]
    nested = rng.derive_keys(keys, rng.STREAM_TWIRL)
    assert [int(k) for k in nested] == [
        rng.derive_key(rng.derive_key(-7, rng.STREAM_TRAJECTORY, i), rng.STREAM_TWIRL)
        for i in range(300)
    ]
