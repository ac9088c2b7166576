"""Determinism and independence of the keyed random streams, and their one source."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qaoalab import rng
from qaoalab.optim import random_qaoa_starts
from qaoalab.statevec import sample_draws


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


def test_derive_key_stable_and_distinct_per_cell():
    s0 = rng.derive_key(99, rng.STREAM_CELL, 0)
    assert s0 == rng.derive_key(99, rng.STREAM_CELL, 0)
    cells = {rng.derive_key(99, rng.STREAM_CELL, i) for i in range(100)}
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


# Every draw of the package is a raw Philox word that an ``rng`` rule
# turns into a value; numpy's ``Generator`` is the independent reference
# that each rule must equal, bit for bit.

SEEDS = [0, 1, 7, 2**63, 2**64 - 1]


@pytest.mark.parametrize("shots", [1, 17, 4096])
def test_sample_draws_are_generator_random_row_by_row(shots):
    draws = sample_draws(SEEDS, shots)
    assert draws.shape == (len(SEEDS), shots)
    for seed, row in zip(SEEDS, draws):
        assert row.tobytes() == rng.generator(seed, rng.STREAM_SAMPLE).random(shots).tobytes()


def uniform_starts(p, k, seed):
    """The starts as ``Generator.uniform`` drew them, start by start."""
    gen = rng.generator(seed, rng.STREAM_INIT)
    return [np.concatenate([gen.uniform(0.0, math.pi, size=p), gen.uniform(0.0, 2.0 * math.pi, size=p)])
            for _ in range(k)]


@pytest.mark.parametrize("seed", SEEDS + [404])
@pytest.mark.parametrize("p", [1, 2, 5, 8])
@pytest.mark.parametrize("k", [1, 3, 12])
def test_random_starts_are_the_generator_uniform_loop(p, k, seed):
    starts = random_qaoa_starts(p, k, seed)
    assert [x.tobytes() for x in starts] == [x.tobytes() for x in uniform_starts(p, k, seed)]


@pytest.mark.parametrize("p", [2**-60, 1e-9, 0.005, 0.05, 0.5, 1 - 2**-53, 1.0])
def test_below_is_generator_random_below_p(p):
    for j in range(20):
        key = rng.derive_key(j, rng.STREAM_READOUT, j)
        expected = np.random.Generator(np.random.Philox(key=key)).random(4096) < p
        assert rng.below(rng.words(key, 4096), p).tobytes() == expected.tobytes()


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 130])
def test_words_are_a_row_of_philox_raw(count):
    for key in SEEDS:
        words = rng.words(key, count)
        assert words.dtype == np.uint64
        assert words.tobytes() == rng.philox_raw([key], count)[0].tobytes()


def test_no_package_path_draws_from_a_numpy_generator():
    # only rng.generator names np.random.Generator, no function calls a
    # Generator's drawing method, and no module but rng names np.random
    found = []
    for path in sorted(Path(rng.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "rng.py":
            generator = next(node for node in tree.body
                             if isinstance(node, ast.FunctionDef) and node.name == "generator")
            exempt = set(map(id, ast.walk(generator)))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "Generator":
                found.append(f"{where} names Generator")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("random", "uniform", "integers")):
                found.append(f"{where} calls .{node.func.attr}")
            if (path.name != "rng.py" and isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{where} names np.random")
    assert found == []
