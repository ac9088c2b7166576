"""Dense simulator kernels: gate semantics, sampling, validation."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qaoalab
from qaoalab import rng
from qaoalab.ansatz import Circuit
from qaoalab.graph import MaxCutInstance
from qaoalab.statevec import (
    GATE_KINDS,
    MAX_QUBITS,
    GateOp,
    apply_rows,
    bitstrings,
    counts_from_tally,
    expectation_cut,
    measure_rows,
    rotation_pairs,
    sample_counts,
    sample_draws,
    simulate_ops,
    zero_state,
)

SQ2 = 1.0 / math.sqrt(2.0)


def basis_state(n: int, bits: str) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return amps


def random_state(n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def uniform_state(n: int) -> np.ndarray:
    return simulate_ops(n, [GateOp("H", (q,)) for q in range(n)])


def random_ops(n: int, seed: int, count: int) -> list[GateOp]:
    """``count`` random gates on n qubits; from |0...0> they prepare a generic state."""
    gen = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        kind = gen.choice(["H", "X", "Y", "Z", "RX", "RZ", "CNOT"])
        if kind == "CNOT":
            ops.append(GateOp("CNOT", tuple(gen.choice(n, size=2, replace=False).tolist())))
        elif kind in ("RX", "RZ"):
            ops.append(GateOp(kind, (int(gen.integers(n)),), float(gen.uniform(0, 2 * math.pi))))
        else:
            ops.append(GateOp(kind, (int(gen.integers(n)),)))
    return ops


# -- single-gate semantics ----------------------------------------------------


def test_hadamard_on_zero():
    state = simulate_ops(1, [GateOp("H", (0,))])
    np.testing.assert_allclose(state, [SQ2, SQ2], atol=1e-8)


def test_cnot_flips_target_when_control_set():
    state = simulate_ops(2, [GateOp("X", (0,)), GateOp("CNOT", (0, 1))])
    np.testing.assert_allclose(state, basis_state(2, "11"), atol=1e-12)
    state = simulate_ops(2, [GateOp("X", (1,)), GateOp("CNOT", (0, 1))])
    np.testing.assert_allclose(state, basis_state(2, "01"), atol=1e-12)


def test_rz_full_turn_gives_minus_one_phase():
    state = simulate_ops(1, [GateOp("X", (0,)), GateOp("RZ", (0,), 2.0 * math.pi)])
    np.testing.assert_allclose(state, [0.0, -1.0], atol=1e-12)


def test_rz_is_diagonal():
    prepare = random_ops(3, 0, 24)
    before = simulate_ops(3, prepare)
    after = simulate_ops(3, prepare + [GateOp("RZ", (1,), 0.7)])
    np.testing.assert_allclose(
        np.abs(after), np.abs(before), atol=1e-12
    )


def test_pauli_y_action():
    state = simulate_ops(1, [GateOp("Y", (0,))])
    np.testing.assert_allclose(state, [0.0, 1j], atol=1e-12)


def test_rx_half_turn_is_bit_flip_up_to_phase():
    state = simulate_ops(1, [GateOp("RX", (0,), math.pi)])
    np.testing.assert_allclose(state, [0.0, -1j], atol=1e-12)


def test_delay_is_identity():
    prepare = random_ops(3, 1, 24)
    before = simulate_ops(3, prepare)
    after = simulate_ops(3, prepare + [GateOp("DELAY", (2,), None, 3.5)])
    np.testing.assert_allclose(after, before, atol=1e-15)


def test_involutions_square_to_identity():
    ops = [
        GateOp("H", (0,)),
        GateOp("X", (1,)),
        GateOp("Z", (2,)),
        GateOp("CNOT", (0, 2)),
    ]
    prepare = random_ops(3, 2, 24)
    before = simulate_ops(3, prepare)
    state = simulate_ops(3, prepare + [g for op in ops for g in (op, op)])
    np.testing.assert_allclose(state, before, atol=1e-12)


def test_bit_order_leftmost_is_qubit_zero():
    # flipping qubit 0 must toggle the leftmost bitstring character
    state = simulate_ops(3, [GateOp("X", (0,))])
    counts = sample_counts(state, 10, seed=0)
    assert set(counts) == {"100"}


def test_norm_preserved_by_random_circuits():
    state = simulate_ops(4, random_ops(4, 5, 60))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


# -- validation ----------------------------------------------------------------


def test_zero_state_bounds():
    with pytest.raises(ValueError):
        zero_state(0)
    with pytest.raises(ValueError):
        zero_state(MAX_QUBITS + 1)


@pytest.mark.parametrize(
    "op",
    [
        GateOp("SWAP", (0, 1)),
        GateOp("H", (0, 1)),
        GateOp("CNOT", (0,)),
        GateOp("CNOT", (1, 1)),
        GateOp("X", (5,)),
        GateOp("X", (0,), 1.0),
        GateOp("RZ", (0,)),
        GateOp("H", (0,), None, -1.0),
        GateOp("H", (0,), None, math.nan),
        GateOp("H", (0,), None, math.inf),
        GateOp("X", (True,)),
    ],
)
def test_malformed_gates_rejected(op):
    with pytest.raises(ValueError):
        simulate_ops(2, [op])
    with pytest.raises(ValueError):
        Circuit(2, (op,))


@pytest.mark.parametrize("n", [0, MAX_QUBITS + 1, True, 2.0])
def test_circuit_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError, match="qubit count"):
        Circuit(n, ())


def test_gate_kind_registry_contains_delay():
    assert "DELAY" in GATE_KINDS


# -- cut expectation ------------------------------------------------------------


def test_expectation_uniform_is_half_total_weight(canonical):
    assert expectation_cut(uniform_state(5), canonical) == pytest.approx(3.0, abs=1e-12)


def test_expectation_on_basis_states(canonical):
    assert expectation_cut(basis_state(5, "00011"), canonical) == pytest.approx(6.0)
    assert expectation_cut(basis_state(5, "00000"), canonical) == pytest.approx(0.0)


def test_expectation_size_mismatch(canonical):
    with pytest.raises(ValueError):
        expectation_cut(zero_state(3), canonical)


@pytest.mark.parametrize("state", [
    np.zeros(3, dtype=complex),
    np.zeros(1, dtype=complex),
    np.zeros(0, dtype=complex),
    np.zeros((1, 4), dtype=complex),
    [1.0, 0.0],
    np.broadcast_to(np.complex128(1.0), (1 << (MAX_QUBITS + 1),)),  # a view: no memory
], ids=["size-3", "size-1", "empty", "2-d", "list", "too-many-qubits"])
def test_a_state_is_a_flat_array_of_2_to_the_n_amplitudes(state):
    for call in (lambda: expectation_cut(state, MaxCutInstance(2, ((0, 1),))),
                 lambda: sample_counts(state, 4, seed=0)):
        with pytest.raises(ValueError, match=r"^state must be a 1-D array of 2\^n amplitudes"):
            call()


# -- sampling --------------------------------------------------------------------


def test_sampling_deterministic_basis_state():
    counts = sample_counts(basis_state(5, "11100"), 100, seed=1)
    assert counts == {"11100": 100}
    assert sum(counts.values()) == 100


def test_sampling_uniform_single_qubit_within_4_sigma():
    counts = sample_counts(uniform_state(1), 10000, seed=2)
    assert abs(counts["0"] - 5000) <= 200


def test_sampling_requires_positive_shots():
    with pytest.raises(ValueError):
        sample_counts(zero_state(1), 0, seed=0)


def test_sampling_reproducible():
    state = uniform_state(3)
    a = sample_counts(state, 500, seed=9)
    b = sample_counts(state, 500, seed=9)
    c = sample_counts(state, 500, seed=10)
    assert a == b
    assert a != c


def test_sampling_conserves_shots():
    counts = sample_counts(uniform_state(4), 1234, seed=3)
    assert sum(counts.values()) == 1234


def full_range_counts(tally, n):
    """The comprehension sample_counts used before counts_from_tally: every index, in order."""
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(tally) if c > 0}


@pytest.mark.parametrize("n", [1, 3, 8, 12])
@pytest.mark.parametrize("density", [0.001, 0.1, 1.0])
def test_counts_from_tally_matches_full_range_comprehension(n, density):
    gen = np.random.default_rng(n)
    tally = gen.integers(1, 5, size=1 << n) * (gen.random(1 << n) < density)
    tally[gen.integers(1 << n)] += 1
    counts = counts_from_tally(tally)
    reference = full_range_counts(tally, n)
    assert list(counts.items()) == list(reference.items())
    assert sum(counts.values()) == int(tally.sum())


@pytest.mark.parametrize("n", [1, 2, 5, 14, MAX_QUBITS])
def test_bitstrings_are_the_formatted_indices(n):
    gen = np.random.default_rng(n)
    idx = np.unique(np.concatenate([[0, 1, (1 << n) - 1], gen.integers(0, 1 << n, 4000)]))
    keys = bitstrings(idx, n)
    assert keys.tolist() == [format(int(i), f"0{n}b") for i in idx]
    assert keys.tolist() == sorted(keys.tolist())  # ascending indices, ascending keys
    assert bitstrings(idx[:0], n).tolist() == []


@pytest.mark.parametrize("tally, got", [
    (np.array([1, 2, 3]), "an array of int64 and shape (3,)"),
    (np.array([5]), "an array of int64 and shape (1,)"),
    (np.array([1, -2, 3, 0]), "a count of -2 at index 1"),
    (np.array([1.5, 2, 0, 0]), "an array of float64 and shape (4,)"),
    (np.array([True, False]), "an array of bool and shape (2,)"),
    (np.ones((2, 2), dtype=np.int64), "an array of int64 and shape (2, 2)"),
    (np.broadcast_to(np.int8(0), (2 << MAX_QUBITS,)), f"an array of int8 and shape ({2 << MAX_QUBITS},)"),
    ([1, 2], "list"),
])
def test_counts_from_tally_refuses_a_malformed_tally(tally, got):
    message = (f"tally must be a 1-D integer array of 2^n counts >= 0, n in 1..{MAX_QUBITS}, "
               f"got {got}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        counts_from_tally(tally)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64])
def test_counts_from_tally_takes_any_integer_counts_as_ints(dtype):
    counts = counts_from_tally(np.array([0, 3, 0, 1], dtype=dtype))
    assert counts == {"01": 3, "11": 1} and {type(c) for c in counts.values()} == {int}
    assert counts_from_tally(np.zeros(8, dtype=dtype)) == {}


def test_measure_rows_samples_each_row_as_if_alone():
    gen = np.random.default_rng(5)
    amps = np.stack([random_state(4, seed) for seed in range(64)])
    amps[::3] *= 1.0 + gen.random((22, 1))  # unnormalized rows sample the same
    probs = np.abs(amps) ** 2
    u = gen.random((64, 1))
    alone = np.concatenate([measure_rows(row[None], u[i:i + 1]) for i, row in enumerate(probs)])
    assert measure_rows(probs, u).tolist() == alone.tolist()


@pytest.mark.parametrize("draws", [3, 50])
def test_measure_rows_locates_many_draws_per_row_as_searchsorted(draws):
    gen = np.random.default_rng([draws, 0x5E])
    probs = np.abs(np.stack([random_state(5, seed) for seed in range(7)])) ** 2
    probs[1] *= 1e-3  # unnormalized
    probs[2, 20:] = 0.0  # trailing zeros: a draw near 1 is clipped to the last index
    u = gen.random((7, draws))
    u[:, 0] = np.nextafter(1.0, 0.0)
    u[::2] = np.sort(u[::2])  # sorted and unsorted rows alike
    cum = np.cumsum(probs, axis=1)
    expected = [[min(int(np.searchsorted(c, x * c[-1], side="right")), c.size - 1) for x in row]
                for c, row in zip(cum, u)]
    got = measure_rows(probs, u)
    assert got.shape == (7, draws) and got.tolist() == expected


def sparse_state(n: int, seed: int, density: float) -> np.ndarray:
    """A random state with most amplitudes zero; the last index always keeps mass."""
    gen = np.random.default_rng(seed)
    amps = random_state(n, seed) * (gen.random(1 << n) < density)
    amps[-1] += 0.1
    return amps / np.linalg.norm(amps)


def shot_order_outcomes(state: np.ndarray, shots: int, seed: int) -> list[int]:
    """Shot i's outcome, one searchsorted per draw in the order drawn."""
    u = rng.generator(seed, rng.STREAM_SAMPLE).random(shots)
    cum = np.cumsum(np.abs(state) ** 2)
    return [min(int(np.searchsorted(cum, x * cum[-1], side="right")), cum.size - 1) for x in u]


SAMPLER_STATES = [
    pytest.param(lambda: random_state(6, 1), id="dense"),
    pytest.param(lambda: sparse_state(8, 2, 0.05), id="sparse"),
    pytest.param(lambda: sparse_state(10, 3, 0.002), id="very-sparse"),
    pytest.param(lambda: basis_state(4, "1111"), id="last-index"),
    pytest.param(lambda: basis_state(4, "0000"), id="first-index"),
]


@pytest.mark.parametrize("make_state", SAMPLER_STATES)
def test_sample_tally_is_the_tally_of_shot_order_draws(make_state):
    # the draws and the shots of sample_draws, measure_rows and sample_counts
    state = make_state()
    probs = (np.abs(state) ** 2)[None]
    seeds = (0, 7, 2**63)
    draws = sample_draws(seeds, 600)
    for seed, row in zip(seeds, draws):
        reference = shot_order_outcomes(state, 600, seed)
        # draw i is shot i's, in the order drawn; sorted draws give the sorted shots
        assert measure_rows(probs, row[None])[0].tolist() == reference
        assert measure_rows(probs, np.sort(row)[None])[0].tolist() == sorted(reference)
        tally = np.bincount(reference, minlength=state.size)
        assert sample_counts(state, 600, seed) == counts_from_tally(tally)
        # the first k shots of a longer call are the shots of a k-shot call
        for k in (1, 17, 599):
            assert sample_draws([seed], k).tolist() == [row[:k].tolist()]
            prefix = np.bincount(reference[:k], minlength=state.size)
            assert sample_counts(state, k, seed) == counts_from_tally(prefix)


def test_sample_counts_formats_sample_tally():
    state = simulate_ops(4, (GateOp("H", (0,)), GateOp("H", (2,)), GateOp("RX", (3,), 0.4)))
    shots = measure_rows((np.abs(state) ** 2)[None], sample_draws([21], 777))
    tally = np.bincount(shots[0], minlength=16)
    assert tally.shape == (16,) and tally.sum() == 777
    assert sample_counts(state, 777, seed=21) == full_range_counts(tally, 4)


def test_the_sample_stream_is_read_only_by_the_draws_helper():
    # every measurement draw comes from sample_draws; a read or import of
    # the sample stream anywhere else in the package fails here
    found = []
    for path in sorted(Path(qaoalab.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if "STREAM_SAMPLE" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None)):
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.name}:{inside[-1] if inside else 'module'}")
    assert found == ["rng.py:module", "statevec.py:sample_draws"]


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_rotation_pairs_are_the_closed_forms(shape):
    # the engine and its reference read the same pairs, so the pairs
    # themselves are checked here against the gates' matrices
    angles = np.random.default_rng(len(shape)).uniform(-4 * math.pi, 4 * math.pi, shape)
    rz, rx = rotation_pairs("RZ", angles), rotation_pairs("RX", angles)
    assert rz.shape == rx.shape == shape + (2,)
    for theta, (z0, z1), (c, s) in zip(np.ravel(angles), rz.reshape(-1, 2), rx.reshape(-1, 2)):
        half = theta / 2
        np.testing.assert_allclose([z0, z1], [np.exp(-1j * half), np.exp(1j * half)], atol=1e-15)
        np.testing.assert_allclose(
            [[c, s], [s, c]],
            [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
            atol=1e-15)


def test_the_rotation_scalars_are_written_only_by_rotation_pairs():
    # an RZ's exp(0.5j * angle) and an RX's (cos, -1j sin) of half its angle
    # are written once, in rotation_pairs, which apply_rows and the noisy
    # engine both multiply by. The ansatz mixers are the one exception:
    # they take math.cos and math.sin of each beta as Python scalars,
    # cached per beta, and numpy's cos and sin need not round as math's do,
    # so reading the pairs could move the exact mode's bits
    def called(node, names):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and (getattr(func, "attr", None) in names
                                               or getattr(func, "id", None) in names)

    def imaginary(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Constant) and isinstance(node.value, complex)

    def halved(node):
        return getattr(node, "id", None) == "half" or (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and 0.5 in (getattr(node.left, "value", None), getattr(node.right, "value", None)))

    def rotation_scalar(node):
        if called(node, {"exp"}):  # exp of an imaginary multiple
            return any(imaginary(sub) for arg in node.args for sub in ast.walk(arg))
        if called(node, {"cos", "sin"}):  # cos or sin of half an angle
            return any(halved(arg) for arg in node.args)
        # -1j * sin(...)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(imaginary(a) and called(b, {"sin"})
                        for a, b in ((node.left, node.right), (node.right, node.left))))

    found = set()
    for path in sorted(Path(qaoalab.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if rotation_scalar(node):
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.add(f"{path.name}:{inside[-1] if inside else 'module'}")
    assert sorted(found) == ["ansatz.py:_evolve_half", "ansatz.py:_mixer_weights",
                             "statevec.py:rotation_pairs"]


def test_sampled_frequencies_match_exact_probabilities():
    # 4 sigma binomial bound per outcome at 1e5 shots
    state = simulate_ops(3, (
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        GateOp("CNOT", (0, 2)),
        GateOp("RX", (1,), 0.9),
    ))
    shots = 100000
    counts = sample_counts(state, shots, seed=12)
    probs = np.abs(state) ** 2
    for i, p in enumerate(probs):
        observed = counts.get(format(i, "03b"), 0)
        sigma = math.sqrt(shots * p * (1 - p))
        assert abs(observed - shots * p) <= 4 * sigma + 1e-9


def test_simulate_ops_runs_sequence():
    state = simulate_ops(2, (GateOp("X", (0,)), GateOp("CNOT", (0, 1))))
    np.testing.assert_allclose(state, basis_state(2, "11"), atol=1e-12)


def test_probabilities_helper():
    counts = sample_counts(uniform_state(2), 1000, seed=4)
    probs = {b: c / sum(counts.values()) for b, c in counts.items()}
    assert sum(probs.values()) == pytest.approx(1.0)


def test_expectation_weighted_instance():
    instance = MaxCutInstance(n=2, edges=((0, 1),), weights=(2.5,))
    assert expectation_cut(basis_state(2, "01"), instance) == pytest.approx(2.5)


def test_sampling_rejects_bool_shots():
    with pytest.raises(ValueError, match="shots"):
        sample_counts(uniform_state(2), True, seed=1)


def test_apply_rows_refuses_an_unknown_gate_kind():
    with pytest.raises(ValueError, match="^unknown gate kind 'T'$"):
        apply_rows(np.ones((2, 2), dtype=complex), 1, GateOp("T", (0,), None, 1.0))


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_apply_rows_matches_apply_bit_for_bit(kind):
    """The kernel on a (rows, 2^n) batch gives each row what it gives that row alone."""
    gen = np.random.default_rng(GATE_KINDS.index(kind))
    for n in (1, 3, 6):
        rows = gen.normal(size=(5, 1 << n)) + 1j * gen.normal(size=(5, 1 << n))
        qubits = (0, n - 1) if kind == "CNOT" else (int(gen.integers(n)),)
        if kind == "CNOT" and n == 1:
            continue
        for angle in ((0.0, 1.3, -7.9) if kind in ("RX", "RZ") else (None,)):
            op = GateOp(kind, qubits, angle)
            batched = apply_rows(rows, n, op)
            for r in range(rows.shape[0]):
                single = apply_rows(rows[r:r + 1].copy(), n, op)[0]
                assert np.array_equal(single.view(np.uint64), batched[r].view(np.uint64))
