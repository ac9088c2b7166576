"""Circuit construction and execution for the layered ansatz."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoalab import harness, objective
from qaoalab.ansatz import (
    BATCH_AMPLITUDES,
    MIXER_BLOCK,
    ONE_QUBIT_DURATION,
    TWO_QUBIT_DURATION,
    Circuit,
    QaoaParams,
    _evolve_half,
    _mixer_weights,
    build_qaoa_circuit,
    half_plan,
    qaoa_angles,
    qaoa_probabilities,
    run_circuit,
)
from qaoalab.graph import MaxCutInstance
from qaoalab.objective import evaluate_qaoa
from qaoalab.statevec import GateOp, counts_from_tally, expectation_cut, simulate_ops

from exact_reference import evolve_half, qaoa_states
from test_golden import recorded_environment, regenerate


def gate_count(n: int, m: int, p: int) -> int:
    """Ops in a depth-p circuit on n qubits with m edges."""
    return n + p * (3 * m + n)


def exact_probs(instance, params) -> np.ndarray:
    circuit = build_qaoa_circuit(instance, params)
    state = run_circuit(circuit, "exact")
    return np.abs(state) ** 2


# -- parameter container ---------------------------------------------------


def test_params_round_trip():
    params = QaoaParams((0.1, 0.2), (1.5, 2.5))
    assert params.p == 2
    np.testing.assert_array_equal(params.to_vector(), [0.1, 0.2, 1.5, 2.5])
    assert QaoaParams.from_vector(params.to_vector()) == params


def test_params_vector_packs_betas_first():
    theta = QaoaParams((0.5,), (4.0,)).to_vector()
    assert theta[0] == 0.5 and theta[1] == 4.0


def test_params_length_mismatch():
    with pytest.raises(ValueError):
        QaoaParams((0.1,), (0.2, 0.3))
    with pytest.raises(ValueError):
        QaoaParams.from_vector([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_angles(canonical, bad):
    with pytest.raises(ValueError, match="^betas: "):
        QaoaParams((0.1, bad), (0.2, 0.3))
    with pytest.raises(ValueError, match="^gammas: "):
        QaoaParams.from_vector([0.1, 0.2, bad, 0.3])
    # so exact evaluation ends with that message, not a NaN energy
    with pytest.raises(ValueError, match="^betas: "):
        evaluate_qaoa(canonical, QaoaParams((bad,), (0.4,)), "exact")


# -- structure ---------------------------------------------------------------


def test_gate_count_examples(canonical):
    for p in (0, 1, 5):
        params = QaoaParams((0.3,) * p, (0.7,) * p)
        circuit = build_qaoa_circuit(canonical, params)
        assert len(circuit.ops) == gate_count(5, 6, p)
    assert gate_count(5, 6, 0) == 5
    assert gate_count(5, 6, 1) == 28
    assert gate_count(5, 6, 5) == 120


def test_gate_count_law_random_shapes():
    gen = np.random.default_rng(0)
    for _ in range(10):
        n = int(gen.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = int(gen.integers(1, len(pairs) + 1))
        p = int(gen.integers(0, 4))
        instance = MaxCutInstance(n=n, edges=tuple(pairs[:m]))
        circuit = build_qaoa_circuit(instance, QaoaParams((0.1,) * p, (0.2,) * p))
        assert len(circuit.ops) == n + p * (3 * m + n)


def test_layer_structure(canonical):
    params = QaoaParams((0.3,), (0.7,))
    ops = build_qaoa_circuit(canonical, params).ops
    assert [op.kind for op in ops[:5]] == ["H"] * 5
    # each edge contributes CNOT, RZ, CNOT; the mixer closes the layer
    for e in range(6):
        block = ops[5 + 3 * e : 8 + 3 * e]
        assert [op.kind for op in block] == ["CNOT", "RZ", "CNOT"]
        assert block[1].angle == pytest.approx(2 * 0.7)
        assert block[0].qubits == block[2].qubits
        assert block[1].qubits == (block[0].qubits[1],)
    mixer = ops[23:28]
    assert all(op.kind == "RX" and op.angle == pytest.approx(2 * 0.3) for op in mixer)


def test_durations(canonical):
    ops = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.7,))).ops
    for op in ops:
        expected = TWO_QUBIT_DURATION if op.kind == "CNOT" else ONE_QUBIT_DURATION
        assert op.duration == expected


def test_weighted_edge_scales_phase():
    instance = MaxCutInstance(n=2, edges=((0, 1),), weights=(2.0,))
    ops = build_qaoa_circuit(instance, QaoaParams((0.0,), (0.5,))).ops
    rz = [op for op in ops if op.kind == "RZ"]
    assert rz[0].angle == pytest.approx(2.0 * 2.0 * 0.5)


def test_batch_angles_are_the_products_the_circuit_carries():
    # a weighted graph: the RZ angle is 2 * (w * gamma), the weight times gamma
    # first; doubling is exact, so these are the bits of 2 * w * gamma too
    instance = MaxCutInstance(4, ((0, 1), (1, 2), (0, 3)), (0.3, 1.7, 2.25))
    thetas = np.random.default_rng(5).uniform(-4.0, 4.0, size=(6, 6))
    angles = qaoa_angles(instance, thetas)
    for theta, row in zip(thetas, angles.tolist()):
        betas, gammas = theta[:3].tolist(), theta[3:].tolist()
        expected = []
        for beta, gamma in zip(betas, gammas):
            expected += [2.0 * (w * gamma) for w in instance.weights] + [2.0 * beta] * 4
            assert expected[-7:-4] == [2.0 * w * gamma for w in instance.weights]
        assert row == expected
        circuit = build_qaoa_circuit(instance, QaoaParams.from_vector(theta))
        assert [op.angle for op in circuit.ops if op.kind in ("RX", "RZ")] == expected


def test_an_angle_overflows_only_where_the_angle_itself_does():
    # 2.0 * w would overflow first: inf at every gamma, and NaN at gamma = 0
    huge = MaxCutInstance(2, ((0, 1),), (1e308,))
    assert qaoa_angles(huge, np.array([[0.5, 0.25]])).tolist() == [[5e307, 1.0, 1.0]]
    assert qaoa_angles(huge, np.array([[0.5, 0.0]])).tolist() == [[0.0, 1.0, 1.0]]
    assert qaoa_angles(huge, np.zeros((3, 0))).shape == (3, 0)


def test_an_angle_beyond_the_float_range_is_refused_by_name():
    # 2 * (1e308 * 3.0) is no float: the circuit refuses it before any
    # simulation, and numpy warns of no overflow on the way
    huge = MaxCutInstance(2, ((0, 1),), (1e308,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^angle must be a finite number, got inf$"):
            build_qaoa_circuit(huge, QaoaParams((0.5,), (3.0,)))
        for angle in (math.inf, -math.inf, math.nan, True, "0.5"):
            with pytest.raises(ValueError, match="^angle must be a finite number"):
                simulate_ops(1, [GateOp("RZ", (0,), angle)])


def test_circuit_is_hashable(canonical):
    circuit = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.7,)))
    assert hash(circuit) == hash(Circuit(circuit.n, circuit.ops))
    # qubits given as lists are stored as tuples
    listed = Circuit(2, [GateOp("H", [0]), GateOp("CNOT", [0, 1]), GateOp("RX", (1,), 0.5)])
    tupled = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1)), GateOp("RX", (1,), 0.5)))
    assert all(type(op.qubits) is tuple for op in listed.ops)
    assert listed == tupled and hash(listed) == hash(tupled)


# -- semantics -----------------------------------------------------------------


def test_gamma_zero_energy_is_uniform(canonical):
    # no cost phase: the mixer acts on the uniform state, energy stays -3
    for beta in (0.0, 0.4, 1.1):
        e = evaluate_qaoa(canonical, QaoaParams((beta,), (0.0,))).energy
        assert e == pytest.approx(-3.0, abs=1e-9)


def test_beta_shift_by_pi_preserves_probabilities(canonical):
    base = QaoaParams((0.37,), (1.9,))
    shifted = QaoaParams((0.37 + math.pi,), (1.9,))
    np.testing.assert_allclose(
        exact_probs(canonical, base), exact_probs(canonical, shifted), atol=1e-9
    )


def test_p0_is_uniform(canonical):
    probs = exact_probs(canonical, QaoaParams((), ()))
    np.testing.assert_allclose(probs, np.full(32, 1 / 32), atol=1e-12)


# -- execution modes -------------------------------------------------------------


def test_run_modes_return_types(canonical):
    circuit = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.7,)))
    assert isinstance(run_circuit(circuit, "exact"), np.ndarray)
    sampled = run_circuit(circuit, "sampled", shots=64, seed=0)
    assert isinstance(sampled, dict)
    assert sum(sampled.values()) == 64


def test_run_mode_validation(canonical):
    circuit = build_qaoa_circuit(canonical, QaoaParams((0.3,), (0.7,)))
    with pytest.raises(ValueError):
        run_circuit(circuit, "approximate")
    with pytest.raises(ValueError):
        run_circuit(circuit, "sampled")
    with pytest.raises(ValueError):
        run_circuit(circuit, "noisy", shots=10, seed=0)


def test_sampled_matches_exact_distribution(canonical):
    params = QaoaParams((0.9,), (1.2,))
    probs = exact_probs(canonical, params)
    circuit = build_qaoa_circuit(canonical, params)
    shots = 100000
    counts = run_circuit(circuit, "sampled", shots=shots, seed=21)
    for i, p in enumerate(probs):
        observed = counts.get(format(i, "05b"), 0)
        sigma = math.sqrt(shots * p * (1 - p))
        assert abs(observed - shots * p) <= 4 * sigma + 1e-9


# -- gate-free state against the gate path ---------------------------------------


def assert_matches_gate_path(instance, params):
    """qaoa_states equals the simulated gate list up to a global phase."""
    fast = qaoa_states(instance, params.to_vector()[None])[0]
    ref = simulate_ops(instance.n, build_qaoa_circuit(instance, params).ops)
    assert fast.size == ref.size == 1 << instance.n
    assert abs(expectation_cut(fast, instance) - expectation_cut(ref, instance)) <= 1e-12
    np.testing.assert_allclose(
        np.abs(fast) ** 2, np.abs(ref) ** 2, rtol=0, atol=1e-12
    )
    assert abs(abs(np.vdot(fast, ref)) - 1.0) <= 1e-12


@st.composite
def weighted_instances(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(edges), max_size=len(edges)))
    return MaxCutInstance(n, tuple(edges), tuple(weights))


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)


@settings(max_examples=80, deadline=None)
@given(instance=weighted_instances(), layers=st.lists(st.tuples(angles, angles), max_size=5))
def test_gate_free_state_matches_gate_path(instance, layers):
    params = QaoaParams(tuple(b for b, _ in layers), tuple(g for _, g in layers))
    assert_matches_gate_path(instance, params)


# the mixer runs over nodes 1..n-1 in blocks of MIXER_BLOCK = 5 qubits: these
# sizes give n-1 every remainder mod 5 with zero, one or two full blocks. Up to
# n = 6 node 0's RX is folded into the one block; n = 1 has no block at all
@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 8, 9, 10, 11, 14])
@pytest.mark.parametrize("integer_weights", [True, False])
def test_gate_free_state_matches_gate_path_by_block_size(n, integer_weights):
    gen = np.random.default_rng(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:3 * n // 2])
    if integer_weights:
        weights = tuple(float(w) for w in gen.integers(1, 4, len(edges)))
    else:  # every weight distinct, so nearly every cut value is too
        weights = tuple(gen.uniform(0.5, 1.5, len(edges)))
    instance = MaxCutInstance(n, edges, weights)
    params = QaoaParams.from_vector(gen.uniform(-2.0 * math.pi, 2.0 * math.pi, 4))
    assert_matches_gate_path(instance, params)


def closed_form_p1_energy(instance, beta, gamma):
    """-<cut> at p = 1 from the closed form of <Z_u Z_v> for weighted graphs.

    Ozaeta, van Dam & McMahon, arXiv 2004.14666, in the engine's
    conventions: cost phase exp(2i*gamma*cut(x)), RX(2*beta) on every
    qubit. The products run over every other vertex k, with w = 0 for a
    non-edge. Nothing here is shared with the engine.
    """
    n = instance.n
    w = np.zeros((n, n))
    for (u, v), weight in zip(instance.edges, instance.weights):
        w[u, v] = w[v, u] = weight
    energy = 0.0
    for (u, v), weight in zip(instance.edges, instance.weights):
        others = [k for k in range(n) if k not in (u, v)]
        wu, wv = w[u, others], w[v, others]
        zz = (0.5 * math.sin(4 * beta) * math.sin(2 * gamma * weight)
              * (np.prod(np.cos(2 * gamma * wu)) + np.prod(np.cos(2 * gamma * wv)))
              - 0.5 * math.sin(2 * beta) ** 2
              * (np.prod(np.cos(2 * gamma * (wu + wv))) - np.prod(np.cos(2 * gamma * (wu - wv)))))
        energy -= weight * (1 - zz) / 2
    return energy


# the folded block (n <= 6), two blocks (n = 7..11), three (n = 12..14), a
# lone-qubit remainder (n = 17, 22) and the north star's scale (n = 20, 22)
@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 9, 11, 12, 14, 17, 20, 22])
def test_p1_energy_equals_the_closed_form(n):
    gen = np.random.default_rng([n, 0x34])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:int(gen.integers(1, len(pairs) + 1))])
    instance = MaxCutInstance(n, edges, tuple(gen.uniform(-2.0, 2.0, len(edges))))
    thetas = gen.uniform(-math.pi, math.pi, (4 if n < 20 else 2, 2))
    energies = objective.make_objective(instance, 1)(thetas)
    bound = 1e-12 * sum(abs(w) for w in instance.weights)
    for (beta, gamma), energy in zip(thetas, energies):
        assert abs(energy - closed_form_p1_energy(instance, beta, gamma)) <= bound


@pytest.mark.parametrize("seed", range(6))
def test_gate_path_state_is_complement_symmetric(seed):
    # the premise of qaoa_states' half state: psi(x) = psi(not x), negative weights too
    gen = np.random.default_rng([seed, 0xC0])
    n = int(gen.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:int(gen.integers(0, len(pairs) + 1))])
    instance = MaxCutInstance(n, edges, tuple(gen.uniform(-2.0, 2.0, len(edges))))
    p = int(gen.integers(1, 5))
    params = QaoaParams.from_vector(gen.uniform(-2.0 * math.pi, 2.0 * math.pi, 2 * p))
    amps = simulate_ops(n, build_qaoa_circuit(instance, params).ops)
    # complementing all n bits of a basis index reverses the amplitude array
    np.testing.assert_allclose(amps, amps[::-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_gate_free_state_is_exactly_symmetric(n):
    instance = MaxCutInstance(n, tuple((u, u + 1) for u in range(n - 1)),
                              tuple(0.5 - u for u in range(n - 1)))
    amps = qaoa_states(instance, np.array([[0.4, 1.3, 0.9, -2.2]]))[0]
    assert np.array_equal(amps, amps[::-1])
    uniform = qaoa_states(instance, np.zeros((1, 0)))[0]
    assert np.array_equal(uniform, np.full(1 << n, 2.0 ** (-0.5 * n), dtype=complex))


# -- the batched engine ------------------------------------------------------------


def engine_instance(n):
    gen = np.random.default_rng([n, 0xBA])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pairs[i] for i in gen.permutation(len(pairs))[:3 * n // 2])
    return MaxCutInstance(n, edges, tuple(float(w) for w in gen.integers(1, 4, len(edges))))


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 11, 14])
@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_batched_rows_equal_single_rows_bit_for_bit(n, p):
    instance = engine_instance(n)
    gen = np.random.default_rng([n, p, 0xBB])
    thetas = gen.uniform(-2.0 * math.pi, 2.0 * math.pi, (9, 2 * p))
    if p:
        # equal betas in one batch, and both signs of zero
        thetas[1:4, 0] = (0.0, -0.0, 0.0)
        thetas[5, :p] = thetas[4, :p]
    plan = half_plan(instance)
    alone = [qaoa_states(instance, row[None])[0].tobytes() for row in thetas]
    alone_probs = [qaoa_probabilities(plan, row[None])[0].tobytes() for row in thetas]
    # every batch size, each row at several positions (n = 11 packs 8 rows per pass)
    for k in (2, 4, 9):
        for shift in range(0, 9, 3):
            order = np.roll(np.arange(9), shift)[:k]
            states = qaoa_states(instance, thetas[order])
            probs = qaoa_probabilities(plan, thetas[order])
            assert states.shape == probs.shape == (k, 1 << n)
            assert [row.tobytes() for row in states] == [alone[i] for i in order]
            assert [row.tobytes() for row in probs] == [alone_probs[i] for i in order]


def test_batched_rows_equal_single_rows_across_passes(canonical):
    # 1100 rows of a 5-node instance take three passes of BATCH_AMPLITUDES
    thetas = np.random.default_rng(3).uniform(-math.pi, math.pi, (1100, 4))
    plan = half_plan(canonical)
    states = qaoa_states(canonical, thetas)
    probs = qaoa_probabilities(plan, thetas)
    for row, amps, q in zip(thetas, states, probs):
        assert qaoa_states(canonical, row[None])[0].tobytes() == amps.tobytes()
        assert qaoa_probabilities(plan, row[None])[0].tobytes() == q.tobytes()


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("p", range(6))
def test_one_pass_probabilities_equal_the_pass_loop_bit_for_bit(n, p):
    # a batch that fits one pass is squared and mirrored in one go; a batch one
    # row past BATCH_AMPLITUDES // half is written pass by pass, as the state is
    instance = engine_instance(n)
    plan = half_plan(instance)
    gen = np.random.default_rng([n, p, 0x1A])
    for k in (1, 2, 3, 12, BATCH_AMPLITUDES // plan.half + 1):
        thetas = gen.uniform(-2.0 * math.pi, 2.0 * math.pi, (k, 2 * p))
        thetas[::2, :p] = 0.0  # both signs of a zero beta
        thetas[1::3, :p] = -0.0
        expected = np.abs(qaoa_states(instance, thetas)) ** 2
        assert qaoa_probabilities(plan, thetas).tobytes() == expected.tobytes()


def assert_same_halves(plan, thetas):
    """``_evolve_half`` and ``qaoa_probabilities`` give the slow mixer path's bytes, signed zeros too.

    Like the golden files, the bytes hold under the kernels
    ``tests/golden/environment.json`` records; a failure names both sets
    when they differ.
    """
    want, got = evolve_half(plan, thetas), _evolve_half(plan, thetas)
    assert got.view(float).tobytes() == want.view(float).tobytes(), (
        f"halves differ by up to {np.abs(got - want).max():.3g}"
        f"{regenerate.kernel_difference(recorded_environment())}")
    q = np.abs(want) ** 2
    assert qaoa_probabilities(plan, thetas).tobytes() == np.concatenate([q, q[:, ::-1]], axis=1).tobytes(), (
        f"probabilities differ{regenerate.kernel_difference(recorded_environment())}")


# n = 2..6 fold node 0's RX into the one block; n = 7..17 run the block layouts
# (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (5, 5, 1) .. (5, 5, 5, 1)
@pytest.mark.parametrize("n", range(2, 18))
@pytest.mark.parametrize("p", range(4))
def test_the_halves_equal_the_slow_mixer_path_byte_for_byte(n, p):
    plan = half_plan(engine_instance(n))
    gen = np.random.default_rng([n, p, 0x5E])
    for k in (1, 3, BATCH_AMPLITUDES // plan.half + 1):  # the last batch runs past one pass at n <= 13
        thetas = gen.uniform(-2.0 * math.pi, 2.0 * math.pi, (k, 2 * p))
        if p:  # both signs of a zero beta
            thetas[-1, 0] = -0.0
            thetas[1:-1:2, :p] = 0.0
        assert_same_halves(plan, thetas)


def list_form_weights(beta, b, fold):
    """The mixer weights as Python's complex power and a list build them."""
    c, s = math.cos(beta), -1j * math.sin(beta)
    f = [c ** (b - d) * s ** d for d in range(b + 1)]
    if fold:
        f = [c * f[d] + s * f[b - d] for d in range(b + 1)]
    return f


MIXER_BETAS = np.random.default_rng(0x3E1).uniform(-8.0, 8.0, 100_000).tolist() + [
    0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 5e-324, 1e-160, 1e300]


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("b", range(1, MIXER_BLOCK + 1))
def test_written_out_mixer_weights_equal_the_list_form_bit_for_bit(b, fold):
    def packed(rows):
        parts = [x for row in rows for z in row for x in (z.real, z.imag)]
        return struct.pack(f"<{len(parts)}d", *parts)  # signed zeros count

    got = [_mixer_weights.__wrapped__(beta, b, fold) for beta in MIXER_BETAS]
    assert all(len(w) == b + 1 for w in got)
    assert packed(got) == packed(list_form_weights(beta, b, fold) for beta in MIXER_BETAS)


def forbid_gate_list(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the noiseless path built a gate list")

    # the harness takes its final counts from objective.evaluate_qaoa too
    monkeypatch.setattr(objective, "build_qaoa_circuit", refuse)


def test_noiseless_evaluation_builds_no_gate_list(monkeypatch, canonical):
    params = QaoaParams((0.3, 0.5), (0.7, 1.1))
    exact = evaluate_qaoa(canonical, params, "exact").energy
    sampled = evaluate_qaoa(canonical, params, "sampled", shots=64, seed=3)
    forbid_gate_list(monkeypatch)
    assert evaluate_qaoa(canonical, params, "exact").energy == exact
    again = evaluate_qaoa(canonical, params, "sampled", shots=64, seed=3)
    assert counts_from_tally(again.tally) == counts_from_tally(sampled.tally)


def test_noiseless_runs_build_no_gate_list(monkeypatch, tmp_path):
    forbid_gate_list(monkeypatch)
    for mode in ("exact", "sampled"):
        config = harness.parse_config({"p": 1, "mode": mode, "shots": 32, "max_evals": 8})
        artifacts = harness.run_experiment(config, tmp_path / mode)
        assert artifacts.summary["shots"] == 32


def test_sampled_evaluation_requires_shots_and_seed(canonical):
    params = QaoaParams((0.3,), (0.7,))
    with pytest.raises(ValueError, match="requires shots and seed"):
        evaluate_qaoa(canonical, params, "sampled", shots=10)
