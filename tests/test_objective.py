"""Energy scoring and the optimizer-facing objective closure."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoalab import ansatz, objective, rng, statevec, trajectories
from qaoalab.ansatz import BATCH_AMPLITUDES, Circuit, QaoaParams, build_qaoa_circuit, run_circuit
from qaoalab.graph import MaxCutInstance
from qaoalab.noise import NoiseConfig, sample_noisy
from qaoalab.objective import (
    Engine,
    energy_from_counts,
    energy_from_tally,
    evaluate_qaoa,
    make_objective,
)
from qaoalab.optim import MinimizeProblem, minimize
from qaoalab.statevec import (counts_from_tally, expectation_cut, measure_rows, sample_counts, sample_draws,
                              simulate_ops)

from exact_reference import qaoa_states
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
    assert energy_from_counts({"00011": 100}, canonical) == -6.0


def test_energy_uniform_counts(canonical):
    counts = {format(i, "05b"): 4 for i in range(32)}
    assert energy_from_counts(counts, canonical) == pytest.approx(-3.0)


def test_energy_mixed_counts(canonical):
    counts = {"00000": 50, "00011": 50}
    assert energy_from_counts(counts, canonical) == pytest.approx(-3.0)


def test_energy_validation(canonical):
    with pytest.raises(ValueError):
        energy_from_counts({"0001": 100}, canonical)
    with pytest.raises(ValueError):
        energy_from_counts({"0001x": 100}, canonical)
    with pytest.raises(ValueError):
        energy_from_counts({"00011": 101, "00000": -1}, canonical)


def test_energy_bounds_random_counts(canonical):
    gen = np.random.default_rng(2)
    for _ in range(20):
        raw = gen.integers(0, 50, size=32)
        raw[0] += 1
        counts = {format(i, "05b"): int(c) for i, c in enumerate(raw) if c > 0}
        e = energy_from_counts(counts, canonical)
        assert -sum(canonical.weights) <= e <= 0.0


def test_energy_complement_invariance(canonical):
    flip = str.maketrans("01", "10")
    counts = {"00111": 30, "10001": 70}
    flipped = {b.translate(flip): c for b, c in counts.items()}
    assert energy_from_counts(counts, canonical) == pytest.approx(
        energy_from_counts(flipped, canonical)
    )


# -- evaluate_qaoa --------------------------------------------------------------


def test_exact_evaluation_reports_no_shots(canonical):
    sample = evaluate_qaoa(canonical, QaoaParams((0.3,), (0.9,)))
    assert sample.shots == 0 and sample.tally is None
    assert -6.0 <= sample.energy <= 0.0


def test_sampled_evaluation_carries_counts(canonical):
    sample = evaluate_qaoa(
        canonical, QaoaParams((0.3,), (0.9,)), "sampled", shots=256, seed=4
    )
    assert sample.shots == 256
    assert sum(counts_from_tally(sample.tally).values()) == 256


def test_sampled_counts_are_the_histogram_of_the_tally(canonical):
    params = QaoaParams((0.3,), (0.9,))
    sample = evaluate_qaoa(canonical, params, "sampled", shots=300, seed=8)
    amps = qaoa_states(canonical, params.to_vector()[None])[0]
    expected = sample_counts(amps, 300, 8)
    assert counts_from_tally(sample.tally) == expected
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
        assert counts_from_tally(sample.tally) == counts
        assert sample.energy == energy_from_counts(counts, canonical)


def test_sampled_objective_formats_no_bitstring(monkeypatch, canonical):
    thetas = [np.array([0.3, 0.5, 0.7, 1.1]), np.array([1.2, 0.1, 2.5, 0.4])]
    reference = make_objective(canonical, 2, "sampled", shots=512, seed=5)
    want = [reference(t[None])[0] for t in thetas]

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled evaluation formatted bitstrings")

    monkeypatch.setattr(statevec, "counts_from_tally", refuse)
    f = make_objective(canonical, 2, "sampled", shots=512, seed=5)
    assert [f(t[None])[0] for t in thetas] == want


def test_tally_energy_rejects_a_tally_of_another_size(canonical):
    with pytest.raises(ValueError, match="does not fit"):
        energy_from_tally(np.ones(16, dtype=np.int64), canonical)
    with pytest.raises(ValueError, match="no shots"):
        energy_from_tally(np.zeros(32, dtype=np.int64), canonical)


# the same edge at a weight whose shot sums overflow, and at that weight times 2**-64
HUGE = MaxCutInstance(2, ((0, 1),), (1e308,))
HUGE_DOWN = MaxCutInstance(2, ((0, 1),), (1e308 * 2.0**-64,))


def test_a_sum_beyond_the_float_range_is_scored_in_scaled_values():
    tally = np.array([300, 200, 250, 250])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning, too
        energy = energy_from_tally(tally, HUGE)
        assert energy_from_counts(statevec.counts_from_tally(tally), HUGE) == energy
    # scaling by a power of two is exact: the bits are those of the scaled-down weights
    assert energy == energy_from_tally(tally, HUGE_DOWN) * 2.0**64 == -0.45e308


@pytest.mark.parametrize("mode, noise", [("sampled", None), ("noisy", NoiseConfig()),
                                         ("noisy", NoiseConfig(p_readout=0.1))])
def test_an_engine_scores_shots_beyond_the_float_range_in_scaled_values(mode, noise):
    # at p = 0 the state does not depend on the weights, so both engines draw the same shots
    seeds = [3, 4, 5]
    energies = Engine(HUGE, 0, mode, shots=1000, noise=noise)(np.zeros((3, 0)), seeds)
    down = Engine(HUGE_DOWN, 0, mode, shots=1000, noise=noise)(np.zeros((3, 0)), seeds)
    assert np.isfinite(energies).all()
    assert energies.tolist() == (down * 2.0**64).tolist()


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
    return amps


def draw_tally(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The tally of one probability row's shots, its seed's draws located in the order drawn."""
    return np.bincount(measure_rows(probs[None], sample_draws([seed], shots))[0], minlength=probs.size)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_tally_energy_equals_counts_energy(data):
    instance = data.draw(weighted_instances())
    state = data.draw(states(instance.n))
    shots = data.draw(st.integers(1, 5000))
    seed = data.draw(st.integers(0, 2**64 - 1))
    tally = draw_tally(np.abs(state) ** 2, shots, seed)
    counts = sample_counts(state, shots, seed)
    assert energy_from_tally(tally, instance) == energy_from_counts(counts, instance)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_counts_score_as_their_tally_bit_for_bit_in_any_key_order(order):
    # on non-integer weights a sum's last bits depend on the order of its terms
    gen = np.random.default_rng(52)
    n = 10
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(20):
        edges = tuple(pairs[i] for i in np.sort(gen.choice(len(pairs), 20, replace=False)))
        instance = MaxCutInstance(n, edges, tuple(gen.uniform(-2, 3, len(edges)).tolist()))
        tally = gen.integers(0, 6, 1 << n)  # about a sixth of the keys count 0
        keys = statevec.bitstrings(np.arange(1 << n), n).tolist()
        keys = keys[::-1] if order == "reversed" else gen.permutation(keys).tolist()
        counts = {key: int(tally[int(key, 2)]) for key in keys}
        assert energy_from_counts(counts, instance) == energy_from_tally(tally, instance)


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
    assert energy_from_counts({"01": 10}, instance) == -3.0


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
        seed = rng.derive_key(21, rng.STREAM_EVAL, j)
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
    for shots in {kwargs.get("shots"), 16}:
        engine = Engine(canonical, 2, mode, shots=shots, noise=kwargs.get("noise"))
        tallies = engine.tallies(np.zeros((0, 4)), [])
        assert tallies.shape == (0, 32) and tallies.dtype.kind == "i"
    if mode == "noisy":
        circuit = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.9,)))
        for noise in (kwargs["noise"], NoiseConfig(p_readout=0.1)):
            plan = trajectories.Plan(circuit, noise)
            for angles in (np.zeros((0, len(plan.columns))), []):
                shots = trajectories.sample(plan, 16, [], angles)
                assert shots.shape == (0, 16) and shots.dtype.kind == "i"


@pytest.mark.parametrize("n", [7, 14])
def test_an_empty_batch_gives_an_empty_result_with_the_mixer_in_blocks(n):
    # from n = 7 the mixer runs in several blocks, each reshaped to the batch's rows
    instance = MaxCutInstance(n, tuple((u, u + 1) for u in range(n - 1)))
    assert make_objective(instance, 2)(np.zeros((0, 4))).shape == (0,)
    assert Engine(instance, 2)(np.zeros((0, 4)), []).shape == (0,)
    sampled = Engine(instance, 2, "sampled", shots=16)
    assert sampled(np.zeros((0, 4)), []).shape == (0,)
    tallies = sampled.tallies(np.zeros((0, 4)), [])
    assert tallies.shape == (0, 1 << n) and tallies.dtype.kind == "i"
    # a batch whose every row overflows leaves no row to sample
    assert np.isnan(sampled(np.array([[0.3, 0.1, 1e308, 1e308]]), [1])).all()


@pytest.mark.parametrize("mode, kwargs", [
    ("exact", {}),
    ("sampled", {"shots": 8}),
    ("noisy", {"shots": 8, "noise": NoiseConfig(p1q=0.1, p_readout=0.1)}),
])
@pytest.mark.parametrize("rows, seeds", [(1, [1, 2]), (2, [1]), (2, [])])
def test_engine_wants_one_seed_per_row(canonical, mode, kwargs, rows, seeds):
    engine = Engine(canonical, 1, mode, **kwargs)
    message = f"seeds: expected one per row, got {len(seeds)} for {rows} rows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        engine(np.zeros((rows, 2)), seeds)


def test_engine_rejects_an_unknown_mode_when_built(canonical):
    with pytest.raises(ValueError, match=r"^mode must be one of .*, got 'bogus'$"):
        Engine(canonical, 1, "bogus")


@pytest.mark.parametrize("mode, kwargs, message", [
    ("sampled", {}, "mode 'sampled' requires shots and seed"),
    ("noisy", {"noise": NoiseConfig()}, "mode 'noisy' requires shots and seed"),
    ("noisy", {"shots": 8}, "mode 'noisy' requires a noise config"),
], ids=["sampled-no-shots", "noisy-no-shots", "noisy-no-noise"])
def test_engine_refuses_a_mode_without_its_inputs_when_built(canonical, mode, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Engine(canonical, 1, mode, **kwargs)


@pytest.mark.parametrize("mode, kwargs", [
    ("exact", {"shots": 8}),
    ("sampled", {"shots": 8}),
    ("noisy", {"shots": 8, "noise": NoiseConfig(p1q=0.1, p_readout=0.1)}),
])
@pytest.mark.parametrize("seed", [None, True, 1.5])
def test_engine_refuses_a_row_that_draws_shots_without_an_integer_seed(canonical, mode, kwargs,
                                                                        seed):
    engine = Engine(canonical, 1, mode, **kwargs)
    message = (f"mode {mode!r} requires shots and seed" if seed is None
               else f"seed must be an integer in [0, 2**64), got {seed!r}")
    calls = [engine.tallies] if mode == "exact" else [engine.tallies, engine]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(np.zeros((2, 2)), [3, seed])
    if mode == "exact":  # exact energies draw no shots, so their seeds are ignored
        assert engine(np.zeros((2, 2)), [3, seed]).shape == (2,)


def test_a_sampled_search_without_a_seed_is_refused(canonical):
    problem = MinimizeProblem(Engine(canonical, 1, "sampled", shots=8), np.zeros(2))
    with pytest.raises(ValueError, match="^mode 'sampled' requires shots and seed$"):
        minimize("cobyla", problem)


@pytest.mark.parametrize("seed, message", [
    (None, "mode 'noisy' requires shots and seed"),
    (-1, "seed must be an integer in [0, 2**64), got -1"),
], ids=["no-seed", "negative-seed"])
@pytest.mark.parametrize("entry", ["evaluate_qaoa", "make_objective"])
def test_a_noisy_entry_refuses_a_bad_seed_before_it_builds_a_plan(canonical, monkeypatch,
                                                                  entry, seed, message):
    def no_plan(*args):
        raise AssertionError("a trajectories.Plan was built before the seed was checked")

    monkeypatch.setattr(trajectories, "Plan", no_plan)
    kwargs = {"shots": 8, "seed": seed, "noise": NoiseConfig(p1q=0.1)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if entry == "evaluate_qaoa":
            evaluate_qaoa(canonical, QaoaParams((0.3,), (0.9,)), "noisy", **kwargs)
        else:
            make_objective(canonical, 1, "noisy", **kwargs)


@pytest.mark.parametrize("mode", ["bogus", ["noisy"]])
def test_an_entry_without_a_seed_refuses_a_bad_mode_by_the_mode_rule(canonical, mode):
    # the seed is checked first, and a mode that is no run mode draws nothing,
    # so the engine refuses the mode itself
    message = f"mode must be one of ('exact', 'sampled', 'noisy'), got {mode!r}"
    for call in (lambda: evaluate_qaoa(canonical, QaoaParams((0.3,), (0.9,)), mode, shots=8),
                 lambda: make_objective(canonical, 1, mode, shots=8)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("n", [5, 7, 14])
@pytest.mark.parametrize("k", [1, 3])
def test_exact_tallies_equal_sampled_tallies(n, k):
    gen = np.random.default_rng([n, k, 0x7A])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:3 * n // 2])
    instance = MaxCutInstance(n, edges, tuple(gen.uniform(0.5, 2.0, len(edges))))
    thetas = gen.uniform(-math.pi, math.pi, (k, 4))
    seeds = [int(s) for s in gen.integers(0, 2**63, k)]
    exact = Engine(instance, 2, "exact", shots=300).tallies(thetas, seeds)
    sampled = Engine(instance, 2, "sampled", shots=300).tallies(thetas, seeds)
    assert exact.shape == (k, 1 << n) and exact.dtype == sampled.dtype
    assert np.array_equal(exact, sampled)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 11, 14])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_engine_rows_equal_the_state_path_bit_for_bit(n, p):
    gen = np.random.default_rng([n, p, 0x5A])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:3 * n // 2])
    instance = MaxCutInstance(n, edges, tuple(gen.uniform(0.5, 2.0, len(edges))))
    # one row, and one row more than a pass of BATCH_AMPLITUDES half-state amplitudes holds
    for k in (1, max(1, BATCH_AMPLITUDES >> (n - 1)) + 1):
        thetas = gen.uniform(-2.0 * math.pi, 2.0 * math.pi, (k, 2 * p))
        seeds = [int(x) for x in gen.integers(0, 2**64, k, dtype=np.uint64)]
        states = list(qaoa_states(instance, thetas))
        exact = Engine(instance, p)(thetas, seeds).tolist()
        assert exact == [-expectation_cut(state, instance) for state in states]
        sampled = Engine(instance, p, "sampled", shots=64)
        tallies = [draw_tally(np.abs(state) ** 2, 64, seed) for state, seed in zip(states, seeds)]
        assert sampled(thetas, seeds).tolist() == [energy_from_tally(t, instance) for t in tallies]
        assert np.array_equal(sampled.tallies(thetas, seeds), np.array(tallies))


# -- plain results ----------------------------------------------------------------


def assert_histogram(counts, n: int, shots: int):
    assert type(counts) is dict and sum(counts.values()) == shots
    assert all(type(c) is int and c > 0 for c in counts.values())
    assert all(type(b) is str and len(b) == n and not set(b) - {"0", "1"} for b in counts)


@pytest.mark.parametrize("value, dtype", [(1.5, float), (-2, np.int64), (True, bool)])
def test_energy_from_tally_refuses_a_tally_by_the_tally_rule(canonical, value, dtype):
    tally = np.zeros(32, dtype=dtype)
    tally[3] = value  # each scored -6.0 before it was checked
    with pytest.raises(ValueError, match="^tally must be a 1-D integer array of 2\\^n counts >= 0"):
        energy_from_tally(tally, canonical)
    with pytest.raises(ValueError, match="^tally must be a 1-D integer array"):
        energy_from_tally(tally.tolist(), canonical)


@pytest.mark.parametrize("mode, noise", [("exact", None), ("sampled", None), ("noisy", NoiseConfig()),
                                         ("noisy", NoiseConfig(p_readout=0.1))])
def test_a_row_whose_cost_products_overflow_scores_nan(mode, noise):
    # 2 * gamma * 1e308 overflows at gamma = 3, and noisy 1e308 * gamma too
    thetas = np.array([[0.5, 0.0], [0.5, 3.0], [0.5, 0.25]])
    engine = Engine(HUGE, 1, mode, shots=64, noise=noise)
    energies = engine(thetas, [1, 2, 3])
    assert np.isfinite(energies[[0, 2]]).all() and math.isnan(energies[1])
    assert energies[[0, 2]].tolist() == engine(thetas[[0, 2]], [1, 3]).tolist()
    with pytest.raises(ValueError, match="^thetas: row 1's cost products overflow"):
        engine.tallies(thetas, [1, 2, 3])
    assert engine.tallies(thetas[[0, 2]], [1, 3]).sum(axis=1).tolist() == [64, 64]


def test_an_overflowing_row_scores_nan_in_one_pass_and_across_passes():
    # a lone row and a batch one row past a pass: NaN, finite neighbours, no warning
    for k in (1, 3, BATCH_AMPLITUDES // ansatz.half_plan(HUGE).half + 1):
        thetas = np.tile([0.5, 0.25], (k, 1))
        thetas[-1, 1] = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = Engine(HUGE, 1)(thetas, [None] * k)
        assert math.isnan(energies[-1]) and np.isfinite(energies[:-1]).all()


def test_the_largest_cut_value_decides_which_rows_overflow():
    # gammas a few ulps either side of where 2 * gamma * 1e308 overflows: the
    # sampled engine skips exactly the rows whose exact phases come out NaN
    edge = float(np.finfo(float).max) / 2.0 / 1e308
    gammas = [edge]
    for _ in range(3):
        gammas = [np.nextafter(gammas[0], 0.0)] + gammas + [np.nextafter(gammas[-1], 1.0)]
    thetas = np.array([[0.5, g] for g in gammas])
    exact = Engine(HUGE, 1)(thetas, [None] * len(thetas))
    sampled = Engine(HUGE, 1, "sampled", shots=8)(thetas, list(range(len(thetas))))
    assert 0 < np.isnan(exact).sum() < len(thetas)
    assert np.isnan(sampled).tolist() == np.isnan(exact).tolist()


def test_states_are_amplitude_arrays_and_histograms_bitstring_dicts(canonical):
    circuit = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.9,)))
    noise = NoiseConfig(p2q=0.05, p_readout=0.02)
    for state in (simulate_ops(circuit.n, circuit.ops), run_circuit(circuit, "exact")):
        assert type(state) is np.ndarray and state.shape == (32,) and state.dtype == complex
    assert_histogram(sample_counts(run_circuit(circuit, "exact"), 48, 1), 5, 48)
    assert_histogram(sample_noisy(circuit, noise, 40, 2), 5, 40)
    assert_histogram(run_circuit(circuit, "sampled", shots=24, seed=3), 5, 24)
    assert_histogram(run_circuit(circuit, "noisy", shots=24, seed=3, noise=noise), 5, 24)
    for mode in ("sampled", "noisy"):
        sample = evaluate_qaoa(canonical, QaoaParams((0.3,), (0.9,)), mode, shots=36, seed=4,
                               noise=noise if mode == "noisy" else None)
        assert_histogram(counts_from_tally(sample.tally), 5, 36)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("n", [1, 5, 11])
def test_sample_tally_is_the_engine_tally_row_bit_for_bit(mode, n):
    gen = np.random.default_rng([n, 0x7A])
    instance = MaxCutInstance(n, tuple((u, u + 1) for u in range(n - 1)))
    thetas = gen.uniform(-math.pi, math.pi, (3, 4))
    seeds = [int(x) for x in gen.integers(0, 2**64, 3, dtype=np.uint64)]
    probs = ansatz.qaoa_probabilities(ansatz.half_plan(instance), thetas)
    tallies = Engine(instance, 2, mode, shots=96).tallies(thetas, seeds)
    for q, seed, tally in zip(probs, seeds, tallies):
        assert tally.tolist() == draw_tally(q, 96, seed).tolist()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_engine_calls_build_no_state(monkeypatch, canonical, mode):
    # the engine scores the probabilities of evolved halves; the package's one
    # builder of a full state is the gate path's simulate_ops
    def refuse(*args, **kwargs):
        raise AssertionError("an engine call built a state")

    for module in (statevec, ansatz, objective):
        monkeypatch.setattr(module, "simulate_ops", refuse, raising=False)
    engine = Engine(canonical, 2, mode, shots=32)
    thetas = np.array([[0.3, 0.5, 0.7, 1.1], [1.2, 0.1, 2.5, 0.4]])
    assert engine(thetas, [1, 2]).shape == (2,)
    assert engine.tallies(thetas, [1, 2]).sum() == 64


def test_an_exact_engine_without_shots_scores_energies_but_draws_no_tallies(canonical):
    engine = Engine(canonical, 1, "exact")
    assert engine(np.zeros((1, 2)), [3]).shape == (1,)
    with pytest.raises(ValueError, match="^shots"):
        engine.tallies(np.zeros((1, 2)), [3])


def test_a_dd_noisy_engine_dresses_its_circuit_once(canonical, monkeypatch):
    noise = NoiseConfig(p1q=0.01, sigma_dephase=0.1, twirling=True, dd=True, dd_sequence="XY4")
    engine = Engine(canonical, 2, "noisy", shots=16, noise=noise)
    engine(np.full((1, 4), 0.3), [1])
    built = []
    post_init = Circuit.__post_init__

    def counted(circuit):
        built.append(circuit)
        post_init(circuit)

    monkeypatch.setattr(Circuit, "__post_init__", counted)
    engine(np.full((2, 4), 0.7), [2, 3])
    assert built == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_objective_rejects_non_finite_angles(canonical, bad):
    with pytest.raises(ValueError, match="^thetas: angles must be finite"):
        make_objective(canonical, 1)(np.array([[0.1, 0.2], [bad, 0.3]]))


def test_trace_records_are_ordered(canonical):
    problem = MinimizeProblem(Engine(canonical, 1), np.array([0.1, 1.0]), max_evals=7)
    result = minimize("cobyla", problem)
    assert len(result.energies) == 7
    assert result.thetas.shape == (7, 2)
    for theta, energy in zip(result.thetas.tolist(), result.energies.tolist()):
        assert energy == evaluate_qaoa(canonical, QaoaParams.from_vector(np.array(theta))).energy
