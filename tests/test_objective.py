"""Energy scoring and the optimizer-facing objective closure."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoalab import objective, rng, statevec
from qaoalab.ansatz import QaoaParams, build_qaoa_circuit, qaoa_state
from qaoalab.graph import MaxCutInstance
from qaoalab.noise import NoiseConfig, sample_noisy, sample_noisy_tallies
from qaoalab.objective import (
    energy_from_counts,
    energy_from_tally,
    evaluate_qaoa,
    make_objective,
)
from qaoalab.optim import MinimizeProblem, minimize
from qaoalab.statevec import Counts, StateVector, sample_counts, sample_tally

from test_noise import BATCH_CONFIGS

PINNED_DEPTH5_THETA = (
    2.083, 2.048, 1.792, 1.564, 1.387,
    2.281, 5.962, 1.789, 3.563, 5.646,
)
PINNED_DEPTH5_ENERGY = -2.6219281271254555


def kron_reference_energy(instance, params) -> float:
    """Independent dense-matrix evaluation of the ansatz energy.

    Builds the full 2^n x 2^n unitaries with Kronecker products, never
    touching the simulator kernels under test.
    """
    n = instance.n
    eye = np.eye(2, dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)

    def embed(mat, q):
        factors = [eye] * n
        factors[q] = mat
        return functools.reduce(np.kron, factors)

    def rx(theta, q):
        return embed(
            math.cos(theta / 2) * eye - 1j * math.sin(theta / 2) * x, q
        )

    dim = 1 << n
    # diagonal of the cut observable, and the per-edge phase unitary
    cut_diag = np.zeros(dim)
    for i in range(dim):
        bits = format(i, f"0{n}b")
        cut_diag[i] = sum(
            w for (u, v), w in zip(instance.edges, instance.weights)
            if bits[u] != bits[v]
        )
    state = functools.reduce(np.kron, [h @ np.array([1, 0], dtype=complex)] * n)
    for beta, gamma in zip(params.betas, params.gammas):
        phase = np.ones(dim, dtype=complex)
        for (u, v), w in zip(instance.edges, instance.weights):
            for i in range(dim):
                bits = format(i, f"0{n}b")
                sign = -1.0 if bits[u] != bits[v] else 1.0
                phase[i] *= np.exp(-1j * w * gamma * sign)
        state = phase * state
        mixer = functools.reduce(np.matmul, [rx(2 * beta, q) for q in range(n)])
        state = mixer @ state
    return float(-(np.abs(state) ** 2) @ cut_diag)


# -- energy from counts ------------------------------------------------------


def test_energy_single_optimal_bitstring(canonical):
    assert energy_from_counts(Counts({"00011": 100}, 100), canonical) == -6.0


def test_energy_uniform_counts(canonical):
    counts = Counts({format(i, "05b"): 4 for i in range(32)}, 128)
    assert energy_from_counts(counts, canonical) == pytest.approx(-3.0)


def test_energy_mixed_counts(canonical):
    counts = Counts({"00000": 50, "00011": 50}, 100)
    assert energy_from_counts(counts, canonical) == pytest.approx(-3.0)


def test_energy_validation(canonical):
    with pytest.raises(ValueError):
        energy_from_counts(Counts({"00011": 99}, 100), canonical)
    with pytest.raises(ValueError):
        energy_from_counts(Counts({"0001": 100}, 100), canonical)
    with pytest.raises(ValueError):
        energy_from_counts(Counts({"0001x": 100}, 100), canonical)
    with pytest.raises(ValueError):
        energy_from_counts(Counts({"00011": 101, "00000": -1}, 100), canonical)


def test_energy_bounds_random_counts(canonical):
    gen = np.random.default_rng(2)
    for _ in range(20):
        raw = gen.integers(0, 50, size=32)
        raw[0] += 1
        counts = Counts(
            {format(i, "05b"): int(c) for i, c in enumerate(raw) if c > 0},
            int(raw.sum()),
        )
        e = energy_from_counts(counts, canonical)
        assert -canonical.total_weight <= e <= 0.0


def test_energy_complement_invariance(canonical):
    flip = str.maketrans("01", "10")
    counts = Counts({"00111": 30, "10001": 70}, 100)
    flipped = Counts({b.translate(flip): c for b, c in counts.counts.items()}, 100)
    assert energy_from_counts(counts, canonical) == pytest.approx(
        energy_from_counts(flipped, canonical)
    )


# -- evaluate_qaoa --------------------------------------------------------------


def test_exact_evaluation_reports_no_shots(canonical):
    sample = evaluate_qaoa(canonical, QaoaParams((0.3,), (0.9,)))
    assert sample.shots == 0 and sample.counts is None
    assert -6.0 <= sample.energy <= 0.0


def test_sampled_evaluation_carries_counts(canonical):
    sample = evaluate_qaoa(
        canonical, QaoaParams((0.3,), (0.9,)), "sampled", shots=256, seed=4
    )
    assert sample.shots == 256
    assert sum(sample.counts.counts.values()) == 256


def test_sampled_counts_are_built_on_first_read(canonical):
    params = QaoaParams((0.3,), (0.9,))
    sample = evaluate_qaoa(canonical, params, "sampled", shots=300, seed=8)
    expected = sample_counts(qaoa_state(canonical, params), 300, 8)
    assert sample.counts == expected
    assert sample.counts is sample.counts
    assert sample.energy == energy_from_counts(expected, canonical)


@pytest.mark.parametrize("mode,kwargs,message", [
    ("approximate", {"shots": 16, "seed": 1},
     "mode must be one of ('exact', 'sampled', 'noisy'), got 'approximate'"),
    ("sampled", {"shots": 16}, "mode 'sampled' requires shots and seed"),
    ("noisy", {"seed": 1, "noise": NoiseConfig()}, "mode 'noisy' requires shots and seed"),
    ("noisy", {"shots": 16, "seed": 1}, "mode 'noisy' requires a noise config"),
])
def test_evaluation_rejects_an_incomplete_mode(canonical, mode, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_qaoa(canonical, QaoaParams((0.3,), (0.9,)), mode, **kwargs)


# against sample_noisy on the gate list, which test_noise.py pins to its per-shot reference
@pytest.mark.parametrize("noise", [
    NoiseConfig(p1q=0.005, p2q=0.025, p_readout=0.05, twirling=True, dd=True),
    NoiseConfig(epsilon_coherent=0.05, sigma_dephase=0.1, dd=True, dd_sequence="XY4"),
    *(pytest.param(config, id=name) for name, config in sorted(BATCH_CONFIGS.items())),
])
def test_noisy_evaluation_scores_the_noisy_counts(canonical, noise):
    params = QaoaParams((0.3, 1.1), (0.9, 2.0))
    circuit = build_qaoa_circuit(canonical, params)
    for seed in range(3):
        sample = evaluate_qaoa(canonical, params, "noisy", shots=200, seed=seed, noise=noise)
        counts = sample_noisy(circuit, noise, 200, seed)
        assert sample.shots == 200
        assert sample.counts == counts
        assert sample.energy == energy_from_counts(counts, canonical)


def test_sampled_objective_formats_no_bitstring(monkeypatch, canonical):
    thetas = [np.array([0.3, 0.5, 0.7, 1.1]), np.array([1.2, 0.1, 2.5, 0.4])]
    reference = make_objective(canonical, 2, "sampled", shots=512, seed=5)
    want = [reference(t[None])[0] for t in thetas]

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled evaluation formatted bitstrings")

    monkeypatch.setattr(objective, "counts_from_tally", refuse)
    monkeypatch.setattr(statevec, "counts_from_tally", refuse)
    f = make_objective(canonical, 2, "sampled", shots=512, seed=5)
    assert [f(t[None])[0] for t in thetas] == want


def test_tally_energy_rejects_a_tally_of_another_size(canonical):
    with pytest.raises(ValueError, match="does not fit"):
        energy_from_tally(np.ones(16, dtype=np.int64), canonical)
    with pytest.raises(ValueError, match="no shots"):
        energy_from_tally(np.zeros(32, dtype=np.int64), canonical)


@st.composite
def weighted_instances(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.floats(-3.0, 3.0).filter(lambda w: w != int(w))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return MaxCutInstance(n, tuple(edges), tuple(weights))


@st.composite
def states(draw, n):
    """A random state on n qubits; ``sparse`` zeroes about half the amplitudes."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    if draw(st.booleans()):
        amps[gen.random(1 << n) < 0.5] = 0.0
        amps[gen.integers(1 << n)] = 1.0
    return StateVector(n, amps)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_tally_energy_equals_counts_energy(data):
    instance = data.draw(weighted_instances())
    state = data.draw(states(instance.n))
    shots = data.draw(st.integers(1, 5000))
    seed = data.draw(st.integers(0, 2**64 - 1))
    tally = sample_tally(state, shots, seed)
    counts = sample_counts(state, shots, seed)
    assert energy_from_tally(tally, instance) == energy_from_counts(counts, instance)


def test_sampled_energy_approaches_exact(canonical):
    params = QaoaParams((1.1,), (5.2,))
    exact = evaluate_qaoa(canonical, params).energy
    shots = 100000
    sampled = evaluate_qaoa(canonical, params, "sampled", shots=shots, seed=17).energy
    # energy is a mean of per-shot cut values bounded by [0, 6]
    sigma_bound = 6.0 / (2 * math.sqrt(shots))
    assert abs(sampled - exact) <= 4 * sigma_bound


def test_pinned_depth5_energy_regression(canonical):
    params = QaoaParams.from_vector(np.array(PINNED_DEPTH5_THETA))
    assert evaluate_qaoa(canonical, params).energy == pytest.approx(
        PINNED_DEPTH5_ENERGY, abs=1e-12
    )


def test_pinned_depth5_energy_against_kron_reference(canonical):
    # second, simulator-independent route to the same number
    params = QaoaParams.from_vector(np.array(PINNED_DEPTH5_THETA))
    assert kron_reference_energy(canonical, params) == pytest.approx(
        PINNED_DEPTH5_ENERGY, abs=1e-9
    )


def test_kron_reference_agrees_at_random_angles(canonical):
    gen = np.random.default_rng(8)
    for _ in range(3):
        params = QaoaParams.from_vector(gen.uniform(0, 2 * math.pi, size=4))
        assert evaluate_qaoa(canonical, params).energy == pytest.approx(
            kron_reference_energy(canonical, params), abs=1e-9
        )


def test_weighted_instance_energy():
    instance = MaxCutInstance(n=2, edges=((0, 1),), weights=(3.0,))
    assert energy_from_counts(Counts({"01": 10}, 10), instance) == -3.0


# -- objective closure ------------------------------------------------------------


def test_objective_validates_shape(canonical):
    objective = make_objective(canonical, 2)
    with pytest.raises(ValueError):
        objective(np.zeros(3))


def test_objective_exact_is_deterministic(canonical):
    objective = make_objective(canonical, 1)
    theta = np.array([[0.4, 1.3]])
    assert objective(theta)[0] == objective(theta)[0]


def test_objective_sampled_reseeds_each_evaluation(canonical):
    objective = make_objective(canonical, 1, "sampled", shots=128, seed=3)
    theta = np.array([[0.4, 1.3]])
    values = {objective(theta)[0] for _ in range(4)}
    assert len(values) > 1


def test_objective_sampled_reproducible_across_closures(canonical):
    theta = np.array([[0.4, 1.3]])
    a = make_objective(canonical, 1, "sampled", shots=128, seed=3)
    b = make_objective(canonical, 1, "sampled", shots=128, seed=3)
    assert [a(theta)[0] for _ in range(3)] == [b(theta)[0] for _ in range(3)]


@pytest.mark.parametrize("p, mode, kwargs", [
    (1, "bogus", {}),
    (1, "sampled", {}),
    (1, "sampled", {"shots": 16}),
    (1, "noisy", {"shots": 16, "seed": 1}),
    (True, "exact", {}),
    (1.0, "exact", {}),
    (-1, "exact", {}),
])
def test_objective_checks_inputs_when_built(canonical, p, mode, kwargs):
    with pytest.raises(ValueError, match=r"^(mode|p) "):
        make_objective(canonical, p, mode, **kwargs)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 11, 14])
@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_batched_exact_energies_equal_evaluate_qaoa(n, p):
    gen = np.random.default_rng([n, p, 0xE0])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:3 * n // 2])
    instance = MaxCutInstance(n, edges, tuple(gen.uniform(0.5, 2.0, len(edges))))
    thetas = gen.uniform(-2.0 * math.pi, 2.0 * math.pi, (6, 2 * p))
    energies = make_objective(instance, p)(thetas)
    assert energies.shape == (6,)
    for theta, energy in zip(thetas, energies.tolist()):
        assert energy == evaluate_qaoa(instance, QaoaParams.from_vector(theta)).energy


def test_noisy_batch_runs_each_point_at_its_own_seed(canonical):
    noise = NoiseConfig(p1q=0.01, p2q=0.02, p_readout=0.03)
    thetas = np.array([[0.3, 0.9], [1.1, 0.2], [0.3, 0.9]])
    energies = make_objective(canonical, 1, "noisy", shots=64, seed=21, noise=noise)(thetas)
    for j, (theta, energy) in enumerate(zip(thetas, energies.tolist())):
        seed = rng.child_seed(21, rng.STREAM_EVAL, j)
        assert energy == evaluate_qaoa(canonical, QaoaParams.from_vector(theta), "noisy",
                                       shots=64, seed=seed, noise=noise).energy


@pytest.mark.parametrize("mode, kwargs", [
    ("exact", {}),
    ("sampled", {"shots": 16, "seed": 1}),
    ("noisy", {"shots": 16, "seed": 1,
               "noise": NoiseConfig(p1q=0.1, p_readout=0.1, twirling=True, dd=True)}),
])
def test_an_empty_batch_gives_an_empty_result(canonical, mode, kwargs):
    f = make_objective(canonical, 2, mode, **kwargs)
    assert f(np.zeros((0, 4))).shape == (0,)
    if mode == "exact":
        with pytest.raises(ValueError, match="^mode 'exact' draws no shots$"):
            f.engine.tallies(np.zeros((0, 4)), [])
    else:
        assert f.engine.tallies(np.zeros((0, 4)), []).shape == (0, 32)
    if mode == "noisy":
        circuit = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.9,)))
        assert sample_noisy_tallies(circuit, kwargs["noise"], 16, []).shape == (0, 32)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_objective_rejects_non_finite_angles(canonical, bad):
    with pytest.raises(ValueError, match="^thetas: angles must be finite"):
        make_objective(canonical, 1)(np.array([[0.1, 0.2], [bad, 0.3]]))


def test_trace_records_are_ordered(canonical):
    objective = make_objective(canonical, 1)
    trace = minimize("cobyla", MinimizeProblem(objective, np.array([0.1, 1.0]), max_evals=7)).trace
    assert len(trace) == 7
    assert [r.index for r in trace.records] == list(range(7))
    assert all(len(r.theta) == 2 for r in trace.records)
    assert trace.energies() == [r.energy for r in trace.records]
    for r in trace.records:
        assert r.energy == evaluate_qaoa(canonical, QaoaParams.from_vector(np.array(r.theta))).energy
