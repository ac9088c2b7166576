"""Noise channels, twirling, scheduling, decoupling, readout."""

import ast
import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoalab import ansatz, noise, objective, rng, statevec, trajectories
from qaoalab.ansatz import Circuit, QaoaParams, build_qaoa_circuit
from qaoalab.graph import MaxCutInstance
from qaoalab.noise import (
    DD_SEQUENCES,
    PAULI_KINDS,
    Interval,
    NoiseConfig,
    Timeline,
    apply_readout_error,
    apply_trajectory_noise,
    insert_dd,
    sample_noisy,
    schedule_circuit,
    twirl_circuit,
)
from qaoalab.objective import energy_from_tally, evaluate_qaoa, make_objective
from qaoalab.statevec import GateOp, counts_from_tally, measure_rows, sample_counts, simulate_ops

import frame_reference
import noise_reference
from conftest import ground_mass


def probs_of(circuit: Circuit) -> np.ndarray:
    state = simulate_ops(circuit.n, circuit.ops)
    return np.abs(state) ** 2


def p1_circuit(canonical, grid_p1) -> Circuit:
    _, gamma, beta = grid_p1
    return build_qaoa_circuit(canonical, QaoaParams((beta,), (gamma,)))


def with_dd(circuit: Circuit, config: NoiseConfig) -> Circuit:
    if not config.dd:
        return circuit
    return insert_dd(circuit, config.dd_sequence)


def shot_circuit(base: Circuit, config: NoiseConfig, shot: int, seed: int) -> Circuit:
    """One shot's circuit from the reference: a fresh twirl and its trajectory realization."""
    twirl_seed = rng.derive_key(seed, rng.STREAM_TWIRL, shot) if config.twirling else None
    return noise_reference.apply_trajectory_noise(base, config, shot, seed, twirl_seed)


def reference_sample_noisy(circuit: Circuit, config: NoiseConfig, shots: int, seed: int) -> dict[str, int]:
    """The per-shot pipeline that sample_noisy batches, one shot at a time.

    Each shot builds its own circuit with ``noise_reference`` (DD once,
    then a fresh twirl and a trajectory realization), runs it through the
    dense simulator, draws one outcome and flips readout bits.
    """
    base = with_dd(circuit, config)
    u = rng.generator(seed, rng.STREAM_SAMPLE).random(shots)
    width = circuit.n
    tally: dict[str, int] = {}
    for i in range(shots):
        state = simulate_ops(base.n, shot_circuit(base, config, i, seed).ops)
        probs = np.abs(state) ** 2
        cum = np.cumsum(probs)
        outcome = int(np.searchsorted(cum, u[i] * cum[-1], side="right"))
        outcome = min(outcome, probs.size - 1)
        bits = format(outcome, f"0{width}b")
        if config.p_readout > 0:
            bits = noise_reference.apply_readout_error(bits, config.p_readout, i, seed)
        tally[bits] = tally.get(bits, 0) + 1
    return dict(sorted(tally.items()))


def mixed_circuit(n: int, length: int, seed: int) -> Circuit:
    """Seeded circuit over every gate kind, DELAY, Y and Z included."""
    gen = np.random.default_rng(seed)
    kinds = ("H", "X", "Y", "Z", "RX", "RZ", "DELAY") + (("CNOT",) * 3 if n > 1 else ())
    ops = [GateOp("H", (q,), None, 1.0) for q in range(n)]
    for _ in range(length):
        kind = kinds[gen.integers(len(kinds))]
        duration = float(gen.choice([0.5, 1.0, 2.0, 4.0]))
        if kind == "CNOT":
            u, v = (int(q) for q in gen.choice(n, 2, replace=False))
            ops.append(GateOp("CNOT", (u, v), None, duration))
        else:
            angle = float(gen.uniform(-3.0, 3.0)) if kind in ("RX", "RZ") else None
            ops.append(GateOp(kind, (int(gen.integers(n)),), angle, duration))
    return Circuit(n, tuple(ops))


def cnot_runs_circuit(n: int, seed: int) -> Circuit:
    """Seeded circuit of long CNOT runs on overlapping pairs, then an H and an RX layer.

    RZ ops and DELAY ops (idle time, so dephasing kicks) fall between the
    CNOTs, where they read a permuted state.
    """
    gen = np.random.default_rng(seed)
    ops = [GateOp("H", (q,), None, 1.0) for q in range(n)]
    for _ in range(3):
        for _ in range(10):
            u, v = (int(q) for q in gen.choice(n, 2, replace=False))
            ops.append(GateOp("CNOT", (u, v), None, 2.0))
            q = int(gen.integers(n))
            if gen.random() < 0.4:
                ops.append(GateOp("RZ", (q,), float(gen.uniform(-3.0, 3.0)), 1.0))
            elif gen.random() < 0.3:
                ops.append(GateOp("DELAY", (q,), None, 4.0))
        ops.append(GateOp("H", (int(gen.integers(n)),), None, 1.0))
        ops += [GateOp("RX", (q,), float(gen.uniform(-3.0, 3.0)), 1.0) for q in range(n)]
    return Circuit(n, tuple(ops))


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p1q": -0.1},
        {"p2q": 1.5},
        {"p_readout": 2.0},
        {"sigma_dephase": -1.0},
        {"dd_sequence": "CPMG"},
    ],
)
def test_noise_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        NoiseConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma_dephase": float("nan")},
        {"epsilon_coherent": float("inf")},
        {"twirling": "no"},
        {"dd": 1},
        {"p1q": True},
    ],
)
def test_noise_config_names_the_bad_field(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} "):
        NoiseConfig(**kwargs)


def test_dd_sequences_registry():
    assert DD_SEQUENCES["XpXm"] == ("X", "X")
    assert DD_SEQUENCES["XY4"] == ("X", "Y", "X", "Y")


# -- scheduling ----------------------------------------------------------------


def test_schedule_hh_cnot_has_no_idle():
    circuit = Circuit(2, (
        GateOp("H", (0,), None, 1.0),
        GateOp("H", (1,), None, 1.0),
        GateOp("CNOT", (0, 1), None, 4.0),
    ))
    tl = schedule_circuit(circuit)
    assert tl.makespan == 5.0
    assert tl.starts == (0.0, 0.0, 1.0)
    for q in (0, 1):
        assert tl.idle_intervals(q) == ()


def test_schedule_asap_exposes_idle_window():
    circuit = Circuit(2, (
        GateOp("H", (0,), None, 1.0),
        GateOp("CNOT", (0, 1), None, 4.0),
    ))
    tl = schedule_circuit(circuit)
    assert tl.idle_intervals(1) == (Interval(0.0, 1.0, None),)


def test_intervals_tile_the_makespan(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    tl = schedule_circuit(circuit)
    for q in range(circuit.n):
        intervals = tl.qubits[q]
        assert intervals[0].start == 0.0
        assert intervals[-1].end == tl.makespan
        for a, b in zip(intervals, intervals[1:]):
            assert a.end == b.start
        busy = sum(iv.end - iv.start for iv in intervals if iv.op_index is not None)
        idle = sum(iv.end - iv.start for iv in intervals if iv.op_index is None)
        assert busy + idle == pytest.approx(tl.makespan)


def test_two_qubit_ops_occupy_both_timelines(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    tl = schedule_circuit(circuit)
    for i, op in enumerate(circuit.ops):
        if op.kind != "CNOT":
            continue
        u, v = op.qubits
        iv_u = [iv for iv in tl.qubits[u] if iv.op_index == i]
        iv_v = [iv for iv in tl.qubits[v] if iv.op_index == i]
        assert iv_u == iv_v != []


def reference_schedule(circuit: Circuit) -> Timeline:
    """The ASAP list schedule computed straight from a circuit, with no cache."""
    ops = circuit.ops
    ready, starts = [0.0] * circuit.n, []
    for op in ops:
        s = max(ready[q] for q in op.qubits)
        starts.append(s)
        for q in op.qubits:
            ready[q] = s + op.duration
    makespan = max((s + op.duration for s, op in zip(starts, ops)), default=0.0)
    per_qubit = []
    for q in range(circuit.n):
        intervals, t = [], 0.0
        for s, i in sorted((s, i) for i, s in enumerate(starts) if q in ops[i].qubits):
            if s > t:
                intervals.append(Interval(t, s, None))
            end = s + ops[i].duration
            if end > s:
                intervals.append(Interval(s, end, i))
            t = max(t, end)
        if makespan > t:
            intervals.append(Interval(t, makespan, None))
        per_qubit.append(tuple(intervals))
    return Timeline(makespan, tuple(starts), tuple(per_qubit))


def test_schedule_ignores_angles(canonical):
    for theta in np.linspace(0.1, 2.9, 5):
        circuit = build_qaoa_circuit(canonical, QaoaParams((theta,) * 2, (2 * theta,) * 2))
        assert schedule_circuit(circuit) == reference_schedule(circuit)


def test_schedule_tells_durations_and_qubits_apart():
    one = Circuit(2, (GateOp("H", (0,), None, 1.0), GateOp("CNOT", (0, 1), None, 4.0)))
    slower = Circuit(2, (GateOp("H", (0,), None, 2.0), GateOp("CNOT", (0, 1), None, 4.0)))
    moved = Circuit(2, (GateOp("H", (1,), None, 1.0), GateOp("CNOT", (0, 1), None, 4.0)))
    for circuit in (one, slower, moved, mixed_circuit(4, 25, seed=2)):
        assert schedule_circuit(circuit) == reference_schedule(circuit)


@pytest.mark.parametrize("seed", range(4))
def test_schedule_matches_reference_with_zero_durations(seed):
    gen = np.random.default_rng(seed)
    base = mixed_circuit(5, 40, seed=seed)
    ops = tuple(op._replace(duration=0.0) if gen.random() < 0.3 else op for op in base.ops)
    circuit = Circuit(5, ops)
    assert schedule_circuit(circuit) == reference_schedule(circuit)


def test_schedule_rejects_negative_durations():
    with pytest.raises(ValueError, match=r"^duration must be a finite number >= 0, got -1.0$"):
        schedule_circuit(Circuit(1, (GateOp("H", (0,), None, -1.0),)))


# -- twirling --------------------------------------------------------------------


def test_twirl_preserves_output_distribution(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    ideal = probs_of(circuit)
    for seed in range(5):
        np.testing.assert_allclose(probs_of(twirl_circuit(circuit, seed)), ideal, atol=1e-9)


def test_twirl_leaves_cnot_free_circuit_alone():
    circuit = Circuit(2, (GateOp("H", (0,)), GateOp("RX", (1,), 0.3)))
    assert twirl_circuit(circuit, 7) is circuit


def test_twirl_inserts_only_pauli_wrappers(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    twirled = twirl_circuit(circuit, 3)
    base_kinds = [op for op in twirled.ops if op in circuit.ops or op.kind == "CNOT"]
    added = [op for op in twirled.ops if op.kind in PAULI_KINDS]
    assert len([op for op in twirled.ops if op.kind == "CNOT"]) == 12
    assert added
    assert all(op.duration == 1.0 and len(op.qubits) == 1 for op in added)
    assert len(base_kinds) + len(added) == len(twirled.ops)


def test_twirl_image_is_the_cnot_conjugation_of_every_pauli_pair():
    paulis = (
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for v in range(16):
        a, b = v >> 2, v & 3
        c, d = divmod(int(trajectories._TWIRL_IMAGE[v]), 4)
        conjugated = cnot @ np.kron(paulis[a], paulis[b]) @ cnot
        image = np.kron(paulis[c], paulis[d])
        assert np.allclose(conjugated, image) or np.allclose(conjugated, -image), v
        assert noise_reference._TWIRL_TABLE[(a, b)] == (c, d)


def test_twirl_deterministic_in_seed(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    assert twirl_circuit(circuit, 5).ops == twirl_circuit(circuit, 5).ops
    assert any(
        twirl_circuit(circuit, 5).ops != twirl_circuit(circuit, s).ops for s in range(6, 11)
    )


# -- dynamical decoupling -----------------------------------------------------------


def test_dd_preserves_output_distribution(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    ideal = probs_of(circuit)
    for sequence in ("XpXm", "XY4"):
        dressed = insert_dd(circuit, sequence)
        np.testing.assert_allclose(probs_of(dressed), ideal, atol=1e-9)


def test_dd_skips_windows_shorter_than_the_pulses():
    circuit = Circuit(2, (
        GateOp("H", (0,), None, 1.0),
        GateOp("CNOT", (0, 1), None, 4.0),
    ))
    # the 1.0-long idle on q1 cannot host two 1.0-long pulses
    dressed = insert_dd(circuit, "XpXm")
    assert dressed.ops == circuit.ops


def test_dd_fills_idle_windows_exactly(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    tl = schedule_circuit(circuit)
    dressed = insert_dd(circuit, "XpXm")
    added = [op for op in dressed.ops if op not in circuit.ops]
    assert added and all(op.kind in ("X", "DELAY") for op in added)
    # pulses plus spacers exactly cover each dressed window
    filled = sum(op.duration for op in added)
    eligible = sum(
        iv.end - iv.start
        for q in range(circuit.n)
        for iv in tl.idle_intervals(q)
        if (iv.end - iv.start) >= 2.0
    )
    assert filled == pytest.approx(eligible)
    assert schedule_circuit(dressed).makespan == tl.makespan


def test_dd_rejects_unknown_sequence(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    with pytest.raises(ValueError):
        insert_dd(circuit, "UDD")


# -- trajectory noise ------------------------------------------------------------------


def test_trajectory_identity_when_all_rates_zero(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    assert apply_trajectory_noise(circuit, NoiseConfig(), 0, 1) is circuit


def test_trajectory_certain_single_qubit_error():
    circuit = Circuit(1, (GateOp("H", (0,)),))
    for shot in range(20):
        noisy = apply_trajectory_noise(circuit, NoiseConfig(p1q=1.0), shot, 5)
        assert len(noisy.ops) == 2
        assert noisy.ops[0] == circuit.ops[0]
        assert noisy.ops[1].kind in PAULI_KINDS
        assert noisy.ops[1].duration == 0.0


def test_trajectory_coherent_sandwich_after_cnot():
    circuit = Circuit(2, (GateOp("CNOT", (0, 1), None, 4.0),))
    noisy = apply_trajectory_noise(circuit, NoiseConfig(epsilon_coherent=0.05), 0, 1)
    kinds = [op.kind for op in noisy.ops]
    assert kinds == ["CNOT", "CNOT", "RZ", "CNOT"]
    assert noisy.ops[2].angle == pytest.approx(0.1)
    assert all(op.duration == 0.0 for op in noisy.ops[1:])


def test_trajectory_dephasing_targets_idle_time():
    circuit = Circuit(2, (
        GateOp("H", (0,), None, 1.0),
        GateOp("CNOT", (0, 1), None, 4.0),
    ))
    noisy = apply_trajectory_noise(circuit, NoiseConfig(sigma_dephase=0.5), 0, 9)
    added = [op for op in noisy.ops if op not in circuit.ops]
    # only q1 idles (one window before the CNOT), so exactly one phase kick
    assert len(added) == 1
    assert added[0].kind == "RZ" and added[0].qubits == (1,) and added[0].duration == 0.0


@pytest.mark.parametrize("cnot_duration", [0.0, 1.0])
def test_dephasing_kick_precedes_the_next_op_whatever_its_duration(cnot_duration):
    # q1 idles until the CNOT starts at t=2; its kick goes just before the
    # CNOT, also when the CNOT takes no time. q0 idles after the CNOT.
    circuit = Circuit(2, (
        GateOp("H", (0,), None, 2.0),
        GateOp("CNOT", (0, 1), None, cnot_duration),
        GateOp("H", (1,), None, 1.0),
    ))
    noisy = apply_trajectory_noise(circuit, NoiseConfig(sigma_dephase=0.5), 0, 9)
    assert [(op.kind, op.qubits) for op in noisy.ops] == [
        ("H", (0,)), ("RZ", (1,)), ("CNOT", (0, 1)), ("H", (1,)), ("RZ", (0,)),
    ]
    delta = noise_reference.dephasing_rates(2, 0.5, 0, 9)
    assert noisy.ops[1].angle == 2.0 * delta[1] * 2.0
    assert noisy.ops[4].angle == 2.0 * delta[0] * 1.0


def test_sampled_dephasing_kick_precedes_a_zero_duration_cnot():
    # Kicked before the CNOT, q1's random phase entangles the qubits and
    # the final H on q0 reads 1 in about 43% of shots; kicked after the
    # CNOT, it would leave q0 in |+> and the H would always read 0.
    circuit = Circuit(2, (
        GateOp("H", (0,), None, 2.0),
        GateOp("H", (1,), None, 1.0),
        GateOp("CNOT", (0, 1), None, 0.0),
        GateOp("H", (0,), None, 1.0),
        GateOp("H", (1,), None, 1.0),
    ))
    config = NoiseConfig(sigma_dephase=1.0)
    counts = sample_noisy(circuit, config, 256, seed=4)
    assert counts == reference_sample_noisy(circuit, config, 256, 4)
    assert sum(c for bits, c in counts.items() if bits[0] == "1") > 64


def test_trajectory_deterministic_per_shot(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    config = NoiseConfig(p1q=0.2, p2q=0.2, sigma_dephase=0.1)
    a = apply_trajectory_noise(circuit, config, 3, 11)
    b = apply_trajectory_noise(circuit, config, 3, 11)
    c = apply_trajectory_noise(circuit, config, 4, 11)
    assert a.ops == b.ops
    assert a.ops != c.ops


# -- readout ---------------------------------------------------------------------------


def test_readout_edge_rates():
    assert apply_readout_error("01101", 0.0, 0, 1) == "01101"
    assert apply_readout_error("01101", 1.0, 0, 1) == "10010"


@pytest.mark.parametrize("bits", ["2a", "01x", b"01", ["0", "1"], "", "0 1", 101, None])
@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_readout_rejects_bits_that_are_not_a_bitstring(bits, rate):
    with pytest.raises(ValueError, match=rf"^bits must be a bitstring of 0 and 1, "
                                         rf"got {re.escape(repr(bits))}$"):
        apply_readout_error(bits, rate, 0, 1)


def test_readout_rejects_bad_rate():
    with pytest.raises(ValueError):
        apply_readout_error("0", -0.5, 0, 1)


@pytest.mark.parametrize("rate", [True, "0.5", math.nan])
def test_readout_rate_follows_the_noise_config_rule(rate):
    with pytest.raises(ValueError, match="^p_readout must be a finite number"):
        apply_readout_error("0101", rate, 0, 1)


def test_readout_flip_fraction_binomial():
    # 1e5 independent bit flips at p=0.05, checked against a 4 sigma bound
    p, shots, width = 0.05, 4000, 25
    flips = 0
    for shot in range(shots):
        out = apply_readout_error("0" * width, p, shot, 31)
        flips += out.count("1")
    total = shots * width
    sigma = math.sqrt(p * (1 - p) / total)
    assert abs(flips / total - p) <= 4 * sigma


def test_readout_deterministic_per_shot():
    assert apply_readout_error("00000", 0.5, 2, 7) == apply_readout_error("00000", 0.5, 2, 7)


# -- end-to-end noisy sampling ------------------------------------------------------------


def test_sample_noisy_conserves_shots(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    config = NoiseConfig(p1q=0.01, p2q=0.02, p_readout=0.03, twirling=True, dd=True)
    counts = sample_noisy(circuit, config, 200, seed=6)
    assert sum(counts.values()) == 200
    assert all(len(bits) == 5 for bits in counts)


def test_sample_noisy_reproducible(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    config = NoiseConfig(p1q=0.01, p2q=0.02, sigma_dephase=0.05, twirling=True)
    a = sample_noisy(circuit, config, 150, seed=8)
    b = sample_noisy(circuit, config, 150, seed=8)
    assert a == b


def test_sample_noisy_noise_free_matches_ideal_sampler(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    ideal = sample_counts(simulate_ops(circuit.n, circuit.ops), 2000, seed=5)
    passthrough = sample_noisy(circuit, NoiseConfig(), 2000, seed=5)
    assert passthrough == ideal


def test_sample_noisy_validates_shots(canonical, grid_p1):
    with pytest.raises(ValueError):
        sample_noisy(p1_circuit(canonical, grid_p1), NoiseConfig(), 0, seed=1)
    with pytest.raises(ValueError, match="shots"):
        sample_noisy(p1_circuit(canonical, grid_p1), NoiseConfig(), True, seed=1)


def test_noisy_evaluation_refuses_a_state_without_mass(canonical):
    # a non-finite angle is refused before any state is built ...
    with pytest.raises(ValueError, match="^betas: "):
        evaluate_qaoa(canonical, QaoaParams((float("nan"),), (0.4,)), "noisy",
                      shots=16, seed=1, noise=NoiseConfig(p2q=0.1))
    # ... so the sampler's own guard is reached by a massless state, in one row or many
    with pytest.raises(ValueError, match="no probability mass"):
        sample_counts(np.zeros(32, dtype=complex), 16, 1)
    rows = np.ones((3, 32))
    rows[1] = np.nan
    for draws in (1, 4):  # one draw per row, and many
        with pytest.raises(ValueError, match="no probability mass"):
            measure_rows(rows, np.full((3, draws), 0.5))


# -- batched trajectories against the per-shot reference ----------------------------------

ORACLE_CONFIGS = {
    "p1q": NoiseConfig(p1q=0.2),
    "p2q": NoiseConfig(p2q=0.3),
    "readout": NoiseConfig(p_readout=0.2),
    "coherent-only": NoiseConfig(epsilon_coherent=0.3),
    "dephasing": NoiseConfig(sigma_dephase=0.4),
    "twirling": NoiseConfig(twirling=True),
    "twirl-dephasing": NoiseConfig(twirling=True, sigma_dephase=0.5),
    "dd-xpxm": NoiseConfig(dd=True, sigma_dephase=0.3),
    "dd-xy4": NoiseConfig(dd=True, dd_sequence="XY4", sigma_dephase=0.3, p1q=0.1),
    "all": NoiseConfig(p1q=0.1, p2q=0.2, p_readout=0.1, epsilon_coherent=0.2,
                       sigma_dephase=0.3, twirling=True, dd=True, dd_sequence="XY4"),
    "readout-certain": NoiseConfig(p_readout=1.0),
    "noise-free": NoiseConfig(),
}


@pytest.mark.parametrize("n", [1, 5, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_sample_noisy_matches_per_shot_reference(name, n):
    config = ORACLE_CONFIGS[name]
    circuit = mixed_circuit(n, 30, seed=n)
    shots = 24 if n == 8 else 48
    for seed in (0, 1, 2):
        expected = reference_sample_noisy(circuit, config, shots, seed)
        assert sample_noisy(circuit, config, shots, seed) == expected


def test_sample_noisy_matches_reference_on_qaoa_circuits(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    for config in (
        NoiseConfig(p1q=0.005, p2q=0.025, p_readout=0.05, twirling=True, dd=True),
        NoiseConfig(epsilon_coherent=0.05, twirling=True),
        NoiseConfig(sigma_dephase=0.1, dd=True, dd_sequence="XY4"),
    ):
        expected = reference_sample_noisy(circuit, config, 64, seed=3)
        assert sample_noisy(circuit, config, 64, seed=3) == expected


def row_keys(seeds, shots: int, twirling: bool) -> list:
    """The twirl, trajectory and dephasing keys of every row of a batch, point by point."""
    index = np.arange(shots)

    def keys(stream):
        return np.concatenate([rng.derive_keys(s, stream, index) for s in seeds])

    twirl = rng.derive_keys(keys(rng.STREAM_TWIRL), rng.STREAM_TWIRL) if twirling else None
    return [twirl, keys(rng.STREAM_TRAJECTORY), keys(rng.STREAM_DEPHASE)]


def plan_rows(circuit: Circuit, config: NoiseConfig, angles, seeds,
              shots: int) -> tuple[np.ndarray, np.ndarray]:
    """``shots`` rows per point from one ``Plan``, point j's under ``seeds[j]``: (amplitudes, probabilities).

    ``angles`` is (points, R), in the op order of ``circuit``, which the
    plan dresses with the config's DD pulses. The amplitudes are those of
    the framed reference, with its frames applied, and the probabilities
    the engine's, under its frames (``_frame_probs``). The engine's chunk
    must give the reference's final X frames exactly and its framed
    probabilities to within 1e-13 on the way: it leaves each row's power
    of 1j out and fuses the diagonals of a mask, which moves the last bits.
    """
    plan = trajectories.Plan(circuit, config)
    tables = trajectories._point_angles(plan, angles)
    keys = row_keys(seeds, shots, config.twirling)
    row_point = np.repeat(np.arange(len(seeds)), shots)
    amps, frame = frame_reference.run_rows(plan.n, trajectories._chunk_steps(plan, tables, *keys),
                                           row_point)
    engine_amps, x_frame = trajectories._run_chunk(plan, tables, *keys, row_point)
    assert np.array_equal(x_frame, frame & ((1 << plan.n) - 1))
    rows, probs = framed(amps, frame, plan.n), trajectories._frame_probs(engine_amps, x_frame, plan.n)
    np.testing.assert_allclose(probs, np.abs(rows) ** 2, rtol=0, atol=1e-13)
    return rows, probs


def assert_row_is_the_shot(rows: np.ndarray, probs: np.ndarray, r: int, single: np.ndarray):
    """Row r of ``plan_rows`` against the gate path's amplitudes ``single`` of its shot.

    The reference's amplitudes must equal them bit for bit (equal as
    floats: equal bits, up to the sign of a zero), and the engine's
    probabilities their squared moduli to within 1e-13.
    """
    assert np.array_equal(single.view(np.float64), rows[r].view(np.float64))
    np.testing.assert_allclose(probs[r], np.abs(single) ** 2, rtol=0, atol=1e-13)


UNITS = np.array([1, 1j, -1, -1j])


def framed(amps: np.ndarray, frame: np.ndarray, n: int) -> np.ndarray:
    """The reference's amplitudes with each row's frame applied: the rows' own states.

    Row r is 1j**e (-1)**popcount(i & z) a[i ^ m] for its frame (m, z,
    e), applied once to the rows whose frame is not the identity.
    """
    amps = amps.copy()
    low = (1 << n) - 1
    m, z, e = frame & low, (frame >> n) & low, (frame >> 2 * n) & 3
    sel = np.flatnonzero(m | z | e)
    if sel.size:
        idx = np.arange(1 << n)
        parity = np.array([bin(i).count("1") & 1 for i in range(1 << n)])
        part = np.take(amps, (sel << n)[:, None] + (idx ^ m[sel, None]))
        part *= UNITS[(e[sel, None] + 2 * parity[idx & z[sel, None]]) & 3]
        amps[sel] = part
    return amps


def own_angles(circuit: Circuit) -> np.ndarray:
    """The circuit's RX and RZ angles, in op order, as the (1, R) angles of one point."""
    return np.array([[op.angle for op in circuit.ops if op.kind in ("RX", "RZ")]])


def with_angles(circuit: Circuit, angles) -> Circuit:
    """``circuit`` with its RX and RZ angles, in op order, set to ``angles``."""
    angles = iter(angles)
    return Circuit(circuit.n, tuple(op._replace(angle=next(angles)) if op.kind in ("RX", "RZ")
                                    else op for op in circuit.ops))


def also(names: list, case: str) -> list:
    """Each name as it is, then with ``case``: (name, None) and (name, case) parameters."""
    return ([pytest.param(name, None, id=name) for name in names]
            + [pytest.param(name, case, id=f"{name}-{case}") for name in names])


@pytest.mark.parametrize("name, shape", also(["all", "twirl-dephasing", "dd-xy4", "coherent-only"],
                                             "cnot-runs"))
def test_batched_rows_equal_per_shot_amplitudes_bit_for_bit(name, shape):
    # Equal counts could hide last-bit differences that rarely move an
    # outcome; the reference's amplitudes must agree exactly, and the
    # engine's probabilities to within rounding. The CNOT runs leave the
    # engine's columns permuted under the RZs, kicks, ZZs and RXs.
    config = ORACLE_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9) if shape is None else cnot_runs_circuit(4, seed=9)
    base = with_dd(circuit, config)
    rows, probs = plan_rows(circuit, config, own_angles(circuit), [5], 12)
    for i in range(12):
        assert_row_is_the_shot(rows, probs, i, simulate_ops(base.n, shot_circuit(base, config, i, 5).ops))


@pytest.mark.parametrize("name, zeros", also(["all", "twirl-dephasing", "dd-xy4", "coherent-only",
                                              "p1q"], "signed-zeros"))
def test_two_point_rows_equal_per_shot_amplitudes_bit_for_bit(name, zeros):
    # Two points with different angles share one array: each row must hold
    # the state of its own point's shot circuit. With
    # ``zeros``, the points differ only in the sign of their zero angles,
    # whose sines differ in sign.
    config = ORACLE_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2, count))
    if zeros:
        angles[:, ::2] = 0.0
        angles[1] = np.where(angles[0] == 0.0, -0.0, angles[0])
    seeds, shots = [5, 8], 6
    rows, probs = plan_rows(circuit, config, angles, seeds, shots)
    for r, j in enumerate(np.repeat([0, 1], shots)):
        base = with_dd(with_angles(circuit, angles[j]), config)
        single = simulate_ops(base.n, shot_circuit(base, config, r % shots, seeds[j]).ops)
        assert_row_is_the_shot(rows, probs, r, single)


@st.composite
def small_circuits(draw):
    n = draw(st.integers(1, 4))
    kinds = ["H", "X", "Y", "Z", "RX", "RZ", "DELAY"] + (["CNOT"] if n > 1 else [])
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        duration = draw(st.sampled_from([0.0, 0.5, 1.0, 4.0]))
        if kind == "CNOT":
            u, v = draw(st.permutations(range(n)))[:2]
            ops.append(GateOp(kind, (u, v), None, duration))
        else:
            angle = draw(st.floats(-4.0, 4.0)) if kind in ("RX", "RZ") else None
            ops.append(GateOp(kind, (draw(st.integers(0, n - 1)),), angle, duration))
    return Circuit(n, tuple(ops))


noise_configs = st.builds(
    NoiseConfig,
    p1q=st.sampled_from([0.0, 0.1, 0.6]),
    p2q=st.sampled_from([0.0, 0.3, 1.0]),
    p_readout=st.sampled_from([0.0, 0.25]),
    epsilon_coherent=st.sampled_from([0.0, -0.4]),
    sigma_dephase=st.sampled_from([0.0, 0.7]),
    twirling=st.booleans(),
    dd=st.booleans(),
    dd_sequence=st.sampled_from(sorted(DD_SEQUENCES)),
)


def test_a_kick_place_no_row_idles_at_is_left_out_of_its_product():
    # Twirled and dephased, the trailing kick of qubit 0 is idle in every
    # row, as its long H ends last: the chunk leaves that kick out of its
    # diagonal step's product, and the Y before it changes no probability.
    circuit = Circuit(2, (GateOp("H", (0,), None, 1.0), GateOp("H", (1,), None, 1.0),
                          GateOp("CNOT", (0, 1), None, 2.0), GateOp("RZ", (1,), 0.3, 1.0),
                          GateOp("CNOT", (0, 1), None, 2.0), GateOp("Y", (0,), None, 1.0),
                          GateOp("H", (0,), None, 10.0)))
    config = ORACLE_CONFIGS["twirl-dephasing"]
    plan = trajectories.Plan(circuit, config)
    keys = row_keys([5], 12, True)
    twirl = trajectories._twirl_ids(trajectories._twirl_draws(keys[0], len(plan.slots) // 4))
    kicks, _ = trajectories._idle_kicks(plan.entries, 2, twirl)
    idle = {j for j, (_, _, dur) in enumerate(kicks) if not dur.any()}
    assert len(kicks) - 2 in idle
    assert len(kicks) - 2 in {kick for step in plan.program if step[0] == "D"
                              for _, _, kick in step[2]}
    rows, probs = plan_rows(circuit, config, own_angles(circuit), [5], 12)
    for i in range(12):
        assert_row_is_the_shot(rows, probs, i, simulate_ops(2, shot_circuit(circuit, config, i, 5).ops))


@settings(max_examples=40, deadline=None)
@given(circuit=small_circuits(), config=noise_configs, seed=st.integers(0, 2**32))
def test_sample_noisy_matches_reference_on_random_circuits(circuit, config, seed):
    expected = reference_sample_noisy(circuit, config, 12, seed)
    assert sample_noisy(circuit, config, 12, seed) == expected


@settings(max_examples=60, deadline=None)
@given(circuit=small_circuits(), config=noise_configs, seed=st.integers(0, 2**32),
       points=st.integers(1, 2), data=st.data())
def test_rows_equal_per_shot_amplitudes_bit_for_bit_on_random_circuits(circuit, config, seed,
                                                                        points, data):
    # One point runs the circuit's own angles; two points run their own
    # angles side by side. The Pauli frames meet every gate kind here: H
    # after an error Pauli, Y pulses and twirl Paulis, zero-duration ops.
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles, circuits = own_angles(circuit), [circuit]
    if points == 2:
        angle = st.floats(-4.0, 4.0)
        angles = np.array([[data.draw(angle) for _ in range(count)] for _ in range(2)])
        circuits = [with_angles(circuit, row) for row in angles]
    seeds, shots = [seed, seed ^ 1], 3
    rows, probs = plan_rows(circuit, config, angles, seeds[:points], shots)
    for r, j in enumerate(np.repeat(np.arange(points), shots)):
        base = with_dd(circuits[j], config)
        single = simulate_ops(base.n, shot_circuit(base, config, r % shots, seeds[j]).ops)
        assert_row_is_the_shot(rows, probs, r, single)


@settings(max_examples=60, deadline=None)
@given(circuit=small_circuits(), seed=st.integers(0, 2**32),
       sequence=st.sampled_from(sorted(DD_SEQUENCES)))
def test_twirl_and_dd_keep_the_output_distribution_of_random_circuits(circuit, seed, sequence):
    # Each twirl sandwich and each DD sequence composes to the identity up
    # to a global phase, DELAY ops included, in the rendered circuits and
    # in the engine's frames alike.
    ideal = probs_of(circuit)
    padded = insert_dd(circuit, sequence)
    for dressed in (twirl_circuit(circuit, seed), padded, twirl_circuit(padded, seed)):
        np.testing.assert_allclose(probs_of(dressed), ideal, rtol=0, atol=1e-12)
    config = NoiseConfig(twirling=True, dd=True, dd_sequence=sequence)
    _, probs = plan_rows(circuit, config, own_angles(circuit), [seed], 8)
    np.testing.assert_allclose(probs, np.broadcast_to(ideal, probs.shape), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(circuit=small_circuits(), config=noise_configs, seed=st.integers(0, 2**32),
       k=st.integers(1, 4), shots=st.integers(2, 6), data=st.data())
def test_every_tally_row_sums_to_its_shots(circuit, config, seed, k, shots, data):
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.array([[data.draw(st.floats(-4.0, 4.0)) for _ in range(count)]
                       for _ in range(k)])
    seeds = [seed + j for j in range(k)]
    plan = trajectories.Plan(circuit, config)
    whole = tallies_of(trajectories.sample(plan, shots, seeds, angles), circuit.n)
    # chunks of one row end between every two points and inside each; of
    # shots + 1 rows, inside a point
    for rows in (1, shots + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trajectories, "_CHUNK_BYTES", rows * (16 << circuit.n))
            chunked = tallies_of(trajectories.sample(plan, shots, seeds, angles), circuit.n)
        assert np.array_equal(chunked, whole)
    assert whole.shape == (k, 1 << circuit.n)
    assert whole.min() >= 0 and whole.sum(axis=1).tolist() == [shots] * k


def assert_views_equal_reference(circuit: Circuit, config: NoiseConfig, shot: int, seed: int):
    """twirl_circuit, apply_trajectory_noise and apply_readout_error against the reference."""
    base = with_dd(circuit, config)
    twirled = noise_reference.twirl_circuit(base, seed)
    assert twirl_circuit(base, seed).ops == twirled.ops
    for c in (base, twirled):
        expected = noise_reference.apply_trajectory_noise(c, config, shot, seed)
        assert apply_trajectory_noise(c, config, shot, seed).ops == expected.ops
    # one row with both draws: the circuit sample_noisy runs for this shot
    twirl_seed = rng.derive_key(seed, rng.STREAM_TWIRL, shot)
    row = trajectories.realize(base, config, shot, seed, twirl_seed=twirl_seed)
    assert row.ops == shot_circuit(base, replace(config, twirling=True), shot, seed).ops
    bits = format((seed + shot) % (1 << circuit.n), f"0{circuit.n}b")
    for p in (config.p_readout, 0.5):
        expected = noise_reference.apply_readout_error(bits, p, shot, seed)
        assert apply_readout_error(bits, p, shot, seed) == expected


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_realizations_equal_the_reference_op_for_op(name, n):
    circuit = mixed_circuit(n, 30, seed=n)
    for seed in (0, 1, 2):
        for shot in (0, 1, 7):
            assert_views_equal_reference(circuit, ORACLE_CONFIGS[name], shot, seed)


@settings(max_examples=40, deadline=None)
@given(circuit=small_circuits(), config=noise_configs, seed=st.integers(0, 2**32),
       shot=st.integers(0, 1000))
def test_realizations_equal_the_reference_on_random_circuits(circuit, config, seed, shot):
    assert_views_equal_reference(circuit, config, shot, seed)


@pytest.mark.parametrize("rows", [1, 3])
def test_counts_do_not_depend_on_chunk_size(monkeypatch, rows):
    circuit = mixed_circuit(5, 30, seed=4)
    configs = (ORACLE_CONFIGS["all"], ORACLE_CONFIGS["twirl-dephasing"], ORACLE_CONFIGS["readout"])
    whole = [sample_noisy(circuit, config, 10, seed=6) for config in configs]
    monkeypatch.setattr(trajectories, "_CHUNK_BYTES", rows * (16 << circuit.n))
    assert [sample_noisy(circuit, config, 10, seed=6) for config in configs] == whole


# -- batches of points through one engine call -------------------------------------

# the four settings of the noisy-p5 benchmark workload
NOISY_P5_SETTINGS = {
    "p5-ibm-bounds": NoiseConfig(p1q=0.005, p2q=0.025, p_readout=0.05),
    "p5-coherent-twirl": NoiseConfig(epsilon_coherent=0.05, twirling=True),
    "p5-dephase-xy4": NoiseConfig(sigma_dephase=0.1, dd=True, dd_sequence="XY4"),
    "p5-ibm-twirl-dd": NoiseConfig(p1q=0.005, p2q=0.025, p_readout=0.05, twirling=True,
                                   dd=True),
}
BATCH_CONFIGS = {**ORACLE_CONFIGS, **NOISY_P5_SETTINGS}


def cube_instance() -> MaxCutInstance:
    """The 3-cube: a 3-regular graph on 8 nodes, i joined to i ^ 1, i ^ 2 and i ^ 4."""
    return MaxCutInstance(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b])


# the noisy-p5 settings and heavy mixes: every noise at once under either DD
# sequence, a gate error at every site, and a coherent error alone
QAOA_ENGINE_CONFIGS = {**NOISY_P5_SETTINGS, "all-xy4": ORACLE_CONFIGS["all"],
                       "all-xpxm": replace(ORACLE_CONFIGS["all"], dd_sequence="XpXm"),
                       "p1q-certain": NoiseConfig(p1q=1.0, p2q=0.5, twirling=True, dd=True),
                       "coherent-only": ORACLE_CONFIGS["coherent-only"]}


@pytest.mark.parametrize("graph, p", [("canonical", 1), ("canonical", 3), ("canonical", 5),
                                      ("cube", 2)])
@pytest.mark.parametrize("name", sorted(QAOA_ENGINE_CONFIGS))
def test_the_engine_equals_the_framed_reference_on_qaoa_circuits(canonical, graph, p, name):
    # plan_rows checks the engine's final X frames against the reference's
    # exactly, and its framed probabilities to within 1e-13, on the circuits
    # the benchmark runs
    instance = canonical if graph == "canonical" else cube_instance()
    circuit = build_qaoa_circuit(instance, QaoaParams((0.0,) * p, (0.0,) * p))
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(p).uniform(-3.0, 3.0, size=(3, count))
    shots = 32 if graph == "canonical" else 8
    plan_rows(circuit, QAOA_ENGINE_CONFIGS[name], angles, [4, 9, 1], shots)


# (amplitude steps of the plan, steps of a 1280-row chunk's step list at seed 0)
NOISY_P5_STEPS = {"p5-ibm-bounds": (60, 300), "p5-coherent-twirl": (70, 420),
                  "p5-dephase-xy4": (109, 402), "p5-ibm-twirl-dd": (60, 904)}


@pytest.mark.parametrize("name", sorted(NOISY_P5_STEPS))
def test_a_noisy_p5_chunk_walks_only_its_amplitude_steps(canonical, name):
    # the engine walks the program's H, RX and diagonal steps, one diagonal
    # step per parity mask of a segment; the step list that realize renders,
    # and the reference walks, holds every Pauli, CNOT, DELAY, RZ, kick and
    # coherent ZZ of the chunk
    config = NOISY_P5_SETTINGS[name]
    plan = trajectories.Plan(build_qaoa_circuit(canonical, QaoaParams((0.0,) * 5, (0.0,) * 5)),
                             config)
    steps = trajectories._chunk_steps(plan, {}, *row_keys([0], 1280, config.twirling))
    assert (len(plan.program), len(steps)) == NOISY_P5_STEPS[name]


# the noisy-p5 settings, twirl with dephasing, every noise at once, a gate error
# at every site, a coherent error alone and no noise
TABLE_CONFIGS = {**NOISY_P5_SETTINGS, "twirl-dephasing": ORACLE_CONFIGS["twirl-dephasing"],
                 "all-xy4": ORACLE_CONFIGS["all"], "p1q-certain": QAOA_ENGINE_CONFIGS["p1q-certain"],
                 "coherent-only": ORACLE_CONFIGS["coherent-only"],
                 "noise-free": ORACLE_CONFIGS["noise-free"]}
PLAN_TABLES_SHA256 = "24e9c804b923d8acb4ca53c1fefaebbdff0eac00273c838357b981587d232b19"


def test_the_compiled_program_and_tables_are_pinned(canonical):
    # _compile's program, final gather, events, flips and frame tables of 54
    # plans (the configs x two graphs x p = 1, 3, 5), hashed in field order:
    # a rewrite of how _compile builds them must leave every entry as it was
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            digest.update(f"array {value.dtype.str} {value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (tuple, list)):
            digest.update(f"{type(value).__name__} {len(value)}".encode())
            for item in value:
                feed(item)
        else:
            digest.update(repr(value).encode())

    for config in TABLE_CONFIGS.values():
        for instance in (canonical, cube_instance()):
            for p in (1, 3, 5):
                plan = trajectories.Plan(
                    build_qaoa_circuit(instance, QaoaParams((0.0,) * p, (0.0,) * p)), config)
                for field in ("program", "final", "events", "const", "twirl_table", "site_table",
                              "flips", "flip_kick"):
                    feed(getattr(plan, field))
    assert digest.hexdigest() == PLAN_TABLES_SHA256


def tallies_of(shots: np.ndarray, n: int) -> np.ndarray:
    """The (k, 2^n) basis-index tallies of the (k, shots) rows of ``trajectories.sample``."""
    return np.array([np.bincount(row, minlength=1 << n) for row in shots]).reshape(len(shots), 1 << n)


def spy_tallies(monkeypatch):
    """Record the tallies ``make_objective`` scores, one array per engine call."""
    calls = []
    sample = trajectories.sample

    def spy(*args):
        shots = sample(*args)
        calls.append(tallies_of(shots, args[0].n))
        return shots

    monkeypatch.setattr(trajectories, "sample", spy)
    return calls


def assert_batch_equals_points(canonical, config, thetas, shots, seed, monkeypatch):
    """The objective's energies and tallies against ``evaluate_qaoa`` point by point."""
    calls = spy_tallies(monkeypatch)
    energies = make_objective(canonical, thetas.shape[1] // 2, "noisy", shots=shots, seed=seed,
                              noise=config)(thetas)
    assert len(calls) == 1 and calls[0].shape == (len(thetas), 32)
    for j, theta in enumerate(thetas):
        point = evaluate_qaoa(canonical, QaoaParams.from_vector(theta), "noisy", shots=shots,
                              seed=rng.derive_key(seed, rng.STREAM_EVAL, j), noise=config)
        assert energies[j] == point.energy
        assert np.array_equal(calls[0][j], point.tally)


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_noisy_objective_batch_equals_per_point_evaluations(canonical, monkeypatch, name, k):
    thetas = np.random.default_rng(k).uniform(0.0, 3.0, size=(k, 4))
    assert_batch_equals_points(canonical, BATCH_CONFIGS[name], thetas, 24, 13, monkeypatch)


@pytest.mark.parametrize("name", ["all", "dd-xy4", "readout", "noise-free", *NOISY_P5_SETTINGS])
def test_noisy_batch_chunks_end_inside_and_between_points(canonical, monkeypatch, name):
    # 6 shots a point and 4 rows a chunk: chunks end inside points 0, 1, 3
    # and 4, and between points 1 and 2 and points 3 and 4
    monkeypatch.setattr(trajectories, "_CHUNK_BYTES", 4 * (16 << 5))
    thetas = np.random.default_rng(7).uniform(0.0, 3.0, size=(5, 4))
    assert_batch_equals_points(canonical, BATCH_CONFIGS[name], thetas, 6, 2, monkeypatch)


def test_noisy_objective_makes_one_engine_call_per_batch(canonical, monkeypatch):
    calls = []
    engine = trajectories.sample
    monkeypatch.setattr(trajectories, "sample", lambda *a: calls.append(a) or engine(*a))
    fn = make_objective(canonical, 5, "noisy", shots=16, seed=3, noise=ORACLE_CONFIGS["all"])
    gen = np.random.default_rng(0)
    for k in (1, 9, 10, 1):
        fn(gen.uniform(0.0, 3.0, size=(k, 10)))
    assert [len(seeds) for _, _, seeds, _ in calls] == [1, 9, 10, 1]


def test_a_noisy_engine_plans_its_circuit_once(canonical, monkeypatch):
    # the layout and the DD pulses depend only on the engine's circuit and
    # noise config: they are worked out when the engine is built, never per call
    calls = {"_layout": 0, "_dressed": 0}
    for module, name in ((trajectories, "_layout"), (noise, "_dressed")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    engine = objective.Engine(canonical, 2, "noisy", shots=8, noise=ORACLE_CONFIGS["all"])
    assert calls == {"_layout": 1, "_dressed": 1}
    thetas = np.random.default_rng(1).uniform(0.0, 3.0, size=(3, 4))
    for k in (1, 2, 3):
        assert engine(thetas[:k], list(range(k))).shape == (k,)
    assert engine.tallies(thetas, [4, 5, 6]).shape == (3, 32)
    assert calls == {"_layout": 1, "_dressed": 1}


@pytest.mark.parametrize("sequence", sorted(DD_SEQUENCES))
def test_a_dd_plan_checks_no_op_again(monkeypatch, sequence):
    # the circuit checked its ops when it was built and the scheduler makes the
    # pulses, so a plan reads the dressed ops as they are
    circuit = mixed_circuit(4, 30, seed=9)
    dressed = insert_dd(circuit, sequence)

    def reached(n, op):
        raise AssertionError(f"{op} checked again")

    for module in (ansatz, statevec):
        monkeypatch.setattr(module, "check_gate", reached)
    plan = trajectories.Plan(circuit, NoiseConfig(sigma_dephase=0.1, dd=True, dd_sequence=sequence))
    assert [entry.op for entry in plan.entries] == list(dressed.ops)


@pytest.mark.parametrize("name", ["dd-xpxm", "dd-xy4", "all"])
def test_dd_plan_gives_each_point_its_own_angles(name):
    # DD pulses put the ops in start order; each point's angles, given in
    # the op order of the undressed circuit, must move with their ops
    config = ORACLE_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(11).uniform(-3.0, 3.0, size=(3, count))
    seeds, shots = [2, 9, 4], 16
    tallies = tallies_of(trajectories.sample(trajectories.Plan(circuit, config), shots, seeds,
                                             angles), circuit.n)
    for j, seed in enumerate(seeds):
        expected = reference_sample_noisy(with_angles(circuit, angles[j]), config, shots, seed)
        assert counts_from_tally(tallies[j]) == expected


def test_batch_angles_must_fit_the_rotations():
    circuit = mixed_circuit(3, 10, seed=1)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    for config in (NoiseConfig(), NoiseConfig(dd=True)):
        plan = trajectories.Plan(circuit, config)
        with pytest.raises(ValueError, match="do not fit"):
            trajectories.sample(plan, 4, [1, 2], np.zeros((2, count + 1)))
        with pytest.raises(ValueError, match="rows of angles"):
            trajectories.sample(plan, 4, [1, 2], np.zeros((3, count)))


# configs whose shots differ only by their point's angles: the plan runs one row per point
ONE_ROW_CONFIGS = {
    "none": NoiseConfig(),
    "coherent-only": NoiseConfig(epsilon_coherent=0.3),
    "readout-only": NoiseConfig(p_readout=0.2),
    "dd-without-dephasing": NoiseConfig(dd=True, dd_sequence="XY4", epsilon_coherent=0.2,
                                        p_readout=0.1),
}


@pytest.mark.parametrize("rows", [1, 5, 64])
@pytest.mark.parametrize("name", sorted(ONE_ROW_CONFIGS))
def test_one_row_per_point_gives_the_shots_of_one_row_per_shot(monkeypatch, name, rows):
    circuit = mixed_circuit(5, 40, seed=3)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(5).uniform(-3.0, 3.0, size=(4, count))
    seeds, shots = [3, 8, 1, 6], 12
    plan = trajectories.Plan(circuit, ONE_ROW_CONFIGS[name])
    assert not plan.per_shot
    one_row = trajectories.sample(plan, shots, seeds, angles)
    assert one_row.shape == (4, shots) and (np.diff(one_row, axis=1) >= 0).all()
    # the same plan, run as the rows of one array per chunk, one row per shot
    monkeypatch.setattr(trajectories, "_CHUNK_BYTES", rows * (16 << circuit.n))
    plan.per_shot = True
    assert np.array_equal(trajectories.sample(plan, shots, seeds, angles), one_row)


def test_one_row_per_point_runs_in_chunks(monkeypatch):
    rows = []
    run = trajectories._run_chunk

    def spy(*args):
        rows.append(len(args[-1]))
        return run(*args)

    circuit = mixed_circuit(5, 40, seed=3)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(9).uniform(-3.0, 3.0, size=(5, count))
    plan = trajectories.Plan(circuit, ONE_ROW_CONFIGS["dd-without-dephasing"])
    assert not plan.per_shot
    whole = trajectories.sample(plan, 24, [5, 1, 4, 2, 3], angles)
    monkeypatch.setattr(trajectories, "_run_chunk", spy)
    monkeypatch.setattr(trajectories, "_CHUNK_BYTES", 2 * (16 << circuit.n))
    assert np.array_equal(trajectories.sample(plan, 24, [5, 1, 4, 2, 3], angles), whole)
    assert rows == [2, 2, 1]


@pytest.mark.parametrize("name, per_point", [("none", True), ("readout-only", True),
                                             ("dd-without-dephasing", True), ("p1q", False),
                                             ("twirling", False), ("dephasing", False)])
def test_per_shot_decides_the_rows_a_batch_runs(monkeypatch, name, per_point):
    rows = []
    run = trajectories._run_chunk

    def spy(*args):
        rows.append(len(args[-1]))
        return run(*args)

    monkeypatch.setattr(trajectories, "_run_chunk", spy)
    circuit = mixed_circuit(4, 30, seed=2)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    plan = trajectories.Plan(circuit, {**ORACLE_CONFIGS, **ONE_ROW_CONFIGS}[name])
    assert plan.per_shot is not per_point
    trajectories.sample(plan, 64, [4, 5, 6], np.zeros((3, count)))
    assert rows == [3] if per_point else sum(rows) == 3 * 64


@pytest.mark.parametrize("config", [NoiseConfig(twirling=True, p2q=0.3, p_readout=0.1),
                                    NoiseConfig(twirling=True, p1q=0.2, dd=True)])
def test_a_plan_with_nothing_to_draw_runs_one_row_per_point(config):
    # twirling with no CNOT has no slot, and p2q with no CNOT, or p1q on
    # a circuit of DELAYs, has no error site: no shot differs from another
    circuit = Circuit(2, (GateOp("DELAY", (0,), None, 2.0), GateOp("DELAY", (1,), None, 1.0)))
    if config.p2q:
        circuit = Circuit(2, (GateOp("H", (0,), None, 1.0), GateOp("RZ", (1,), 0.4, 1.0)))
    plan = trajectories.Plan(circuit, config)
    assert not plan.slots and not plan.sites.size and not plan.per_shot
    angles = [[op.angle for op in circuit.ops if op.kind == "RZ"]] * 2
    expected = trajectories.Plan(circuit, NoiseConfig(p_readout=config.p_readout))
    assert np.array_equal(trajectories.sample(plan, 50, [3, 4], angles),
                          trajectories.sample(expected, 50, [3, 4], angles))


def idle_places(plan, twirl_keys) -> list:
    """The kick places of a twirled plan at which some row of ``twirl_keys`` idles, in order."""
    twirl = trajectories._twirl_ids(trajectories._twirl_draws(twirl_keys, len(plan.slots) // 4))
    kicks, _ = trajectories._idle_kicks(plan.entries, plan.n, twirl)
    return [kick for kick in kicks if kick[2].any()]


@pytest.mark.parametrize("twirling", [False, True])
def test_steps_carry_every_pauli_and_every_kick_by_one_kind(twirling):
    # every Pauli, a DD pulse or a Pauli gate of the circuit included, is a
    # "pauli" step; every kick, a DELAY's included, is one of _idle_kicks';
    # and a coherent ZZ follows each CNOT as a "zz" step, which carries the
    # plan's one ZZ table
    config = NoiseConfig(p1q=0.1, p2q=0.2, epsilon_coherent=0.3, sigma_dephase=0.4,
                         twirling=twirling, dd=True, dd_sequence="XY4")
    circuit = mixed_circuit(4, 30, seed=9)
    plan = trajectories.Plan(circuit, config)
    keys = row_keys([5], 16, twirling)
    tables = trajectories._point_angles(plan, own_angles(circuit))
    steps = trajectories._chunk_steps(plan, tables, *keys)
    entries = [e for e in plan.entries if e.op is not None]
    assert {"X", "Y", "DELAY"} <= {e.op.kind for e in entries}
    paulis = [e for e in plan.entries if e.op is None or e.op.kind in PAULI_KINDS]
    shared = [s for s in steps if s[0] == "pauli" and s[1] is None]
    assert [(s[3], s[4]) for s in shared] == [(e.qubits[0], e.duration) for e in paulis]
    assert all(s[1].kind not in PAULI_KINDS for s in steps if s[0] == "op")
    for before, after in zip(steps, steps[1:] + [None]):
        if before[0] == "op" and before[1].kind == "CNOT":
            assert after[:3] == ("zz", before[1], 0.3) and after[3] is tables["zz"]
    kicks = plan.kicks
    if twirling:
        kicks = idle_places(plan, keys[0])
    # a twirled plan lists every place a kick can go, an untwirled one only
    # the places its one schedule idles at
    assert (len(plan.kicks) > len(kicks)) is twirling
    assert [s[1] for s in steps if s[0] == "kick"] == [q for _, q, _ in kicks]
    delays = {(k + 1, e.qubits[0], e.duration) for k, e in enumerate(plan.entries)
              if e.op is not None and e.op.kind == "DELAY"}
    assert delays <= {(k, q, float(d[0])) for k, q, d in kicks if (d == d[0]).all()}


@pytest.mark.parametrize("name", ["dephasing", "dd-xy4", "twirl-dephasing", "p5-dephase-xy4"])
def test_kicks_of_one_qubit_and_duration_share_one_pairs_column(monkeypatch, name):
    # a chunk's kicks take their pairs from one rotation_pairs call, one
    # column per distinct (qubit, duration), each with its conjugates below
    # it in the kick's table; with twirling, the durations
    # differ per row (_idle_kicks' per-row walk), and the rows of this plan
    # give the probabilities of their rendered shots in
    # test_batched_rows_equal_per_shot_amplitudes_bit_for_bit[twirl-dephasing]
    config = BATCH_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9)
    plan = trajectories.Plan(circuit, config)
    tables = trajectories._point_angles(plan, own_angles(circuit))
    keys = row_keys([5], 12, config.twirling)
    calls = []
    pairs_of = trajectories.rotation_pairs
    monkeypatch.setattr(trajectories, "rotation_pairs",
                        lambda kind, angles: calls.append(kind) or pairs_of(kind, angles))
    steps = trajectories._chunk_steps(plan, tables, *keys)
    assert calls == ["RZ"]
    kicks = plan.kicks
    if config.twirling:
        kicks = idle_places(plan, keys[0])
    kick_steps = [s for s in steps if s[0] == "kick"]
    assert len(kick_steps) == len(kicks) > len({(q, d.tobytes()) for _, q, d in kicks})
    assert config.twirling == any((d != d[0]).any() for _, _, d in kicks)
    for (_, q, dur), step in zip(kicks, kick_steps):
        twins = [s for (_, p, d), s in zip(kicks, kick_steps) if p == q and np.array_equal(d, dur)]
        assert all(s[2] is step[2] and s[3] is step[3] for s in twins)
        pairs = pairs_of("RZ", step[2])
        assert step[3].tobytes() == np.concatenate([pairs, pairs.conjugate()]).tobytes()


@pytest.mark.parametrize("name", ["all", "coherent-only", "twirl-dephasing", "p5-dephase-xy4"])
def test_kick_and_zz_tables_are_rotation_pairs_over_their_conjugates(name):
    # every diagonal a row takes is read from a (2P, 2) table of P pairs over
    # their conjugates: a kick's P pairs are its rows' angles, a coherent
    # ZZ's are RZ(2 epsilon) at each of the P points
    config = BATCH_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9)
    plan = trajectories.Plan(circuit, config)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(3).uniform(-3.0, 3.0, size=(3, count))
    steps = trajectories._chunk_steps(plan, trajectories._point_angles(plan, angles),
                                      *row_keys([5, 8, 2], 4, config.twirling))

    def stacked(pairs):
        return np.concatenate([pairs, pairs.conjugate()]).tobytes()

    kicks = [step for step in steps if step[0] == "kick"]
    zzs = [step for step in steps if step[0] == "zz"]
    assert bool(kicks) == (config.sigma_dephase > 0)
    assert bool(zzs) == (config.epsilon_coherent != 0)
    for _, _, angle, table in kicks:
        assert table.tobytes() == stacked(statevec.rotation_pairs("RZ", angle))
    for _, _, epsilon, table in zzs:
        assert table.tobytes() == stacked(statevec.rotation_pairs("RZ", np.full(3, 2.0 * epsilon)))


@pytest.mark.parametrize("name", ["all", "coherent-only", "dd-xy4"])
def test_per_point_and_per_row_gathers_give_the_same_bits(name):
    # a diagonal step of per-point rotations that no frame flips multiplies
    # its terms' pairs per point and gathers over columns first when the
    # chunk has fewer points than rows, else per row: one shot of each of
    # three points takes the second way, two shots of one point the first,
    # and shot 0 of each point agrees bit for bit; under gate errors every
    # term may be flipped, and every step goes per row
    config = ORACLE_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9)
    plan = trajectories.Plan(circuit, config)
    assert any(step[0] == "D" and step[3] for step in plan.program) == (config.p1q == 0)
    count = sum(op.kind in ("RX", "RZ") for op in circuit.ops)
    angles = np.random.default_rng(4).uniform(-3.0, 3.0, size=(3, count))
    seeds = [5, 8, 2]

    def engine_rows(points, shots):
        tables = trajectories._point_angles(plan, angles[points])
        row_point = np.repeat(np.arange(len(points)), shots)
        keys = row_keys([seeds[j] for j in points], shots, config.twirling)
        return trajectories._run_chunk(plan, tables, *keys, row_point)[0]

    rows = engine_rows([0, 1, 2], 1)
    for j in range(3):
        assert np.array_equal(engine_rows([j], 2)[0].view(np.float64), rows[j].view(np.float64))


@pytest.mark.parametrize("name", ["all", "twirl-dephasing", "p5-dephase-xy4"])
def test_the_engine_and_its_reference_draw_a_chunk_by_one_call(monkeypatch, name):
    config = BATCH_CONFIGS[name]
    circuit = mixed_circuit(4, 30, seed=9)
    plan = trajectories.Plan(circuit, config)
    tables = trajectories._point_angles(plan, own_angles(circuit))
    keys = row_keys([5], 12, config.twirling)
    calls = []
    draw = trajectories._chunk_draws
    monkeypatch.setattr(trajectories, "_chunk_draws",
                        lambda *args: calls.append(args[0]) or draw(*args))
    trajectories._run_chunk(plan, tables, *keys, np.zeros(12, dtype=np.intp))
    assert calls == [plan]
    trajectories._chunk_steps(plan, tables, *keys)
    assert calls == [plan, plan]


def test_only_chunk_draws_calls_the_draw_rules():
    # the twirl, gate-error and dephasing draws of a chunk are made in one
    # place, which the engine and its reference share
    callers = []
    for path in sorted(Path(trajectories.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            callers += [f"{path.name}:{function.name}" for node in ast.walk(function)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("_gate_errors", "_twirl_draws", "_dephasing")]
    assert sorted(set(callers)) == ["trajectories.py:_chunk_draws"]
    assert len(callers) == 3


def test_run_chunk_multiplies_by_a_diagonal_in_one_statement():
    # an RZ, a dephasing kick and a coherent ZZ are terms of one diagonal
    # step of _run_chunk, which multiplies the amplitudes once (an RX's
    # other product takes a column of its pair), and no table of the
    # package is cached per epsilon
    package = Path(trajectories.__file__).parent
    tree = ast.parse((package / "trajectories.py").read_text(encoding="utf-8"))
    run_chunk = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_run_chunk")
    products = [node.lineno for node in ast.walk(run_chunk)
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                and isinstance(node.target, ast.Name) and node.target.id == "amps"
                and not isinstance(node.value, ast.Subscript)]
    assert len(products) == 1
    cached = [f"{path.name}:{node.name}" for path in sorted(package.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef)
              and any("cache" in ast.unparse(d) for d in node.decorator_list)
              and any("epsilon" in arg.arg for arg in node.args.args)]
    assert cached == []


def random_frames(gen, rows: int, n: int) -> np.ndarray:
    """Frames (m, z, e) of every kind: identity rows, odd and even e, any m and z."""
    m, z = gen.integers(0, 1 << n, rows), gen.integers(0, 1 << n, rows)
    e = gen.integers(0, 4, rows)
    m[::5] = z[::5] = e[::5] = 0
    return m | z << n | e << 2 * n


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("frames", ["mixed", "identity", "all-odd", "z-and-phase-only"])
def test_frame_probs_are_the_squared_moduli_of_the_framed_amplitudes_bit_for_bit(n, frames):
    # only a frame's X part reaches a measurement: its Z signs and power of
    # 1j change no modulus, bit for bit, signed zeros included
    gen = np.random.default_rng(n)
    rows = 40
    amps = gen.normal(size=(rows, 1 << n)) + 1j * gen.normal(size=(rows, 1 << n))
    amps[3, ::2] = 0.0
    amps[4] = -0.0 - 0.0j
    amps.imag[6] = -0.0
    frame = random_frames(gen, rows, n)
    low = (1 << n) - 1
    if frames == "identity":
        frame[:] = 0
    elif frames == "all-odd":
        frame = (frame & ~(3 << 2 * n)) | (gen.choice([1, 3], rows) << 2 * n)
    elif frames == "z-and-phase-only":
        frame &= ~low
    probs = trajectories._frame_probs(amps, frame, n)
    assert probs.tobytes() == (np.abs(framed(amps, frame, n)) ** 2).tobytes()


def test_the_engine_walks_no_frame_step():
    # a chunk reads every frame bit from its plan's tables: the program
    # holds only H, RX and diagonal steps, a diagonal step lists its terms
    # (a rotation key or a kick number, and a flip), and no frame walk is
    # left in src
    circuit = mixed_circuit(4, 30, seed=9)
    for config in BATCH_CONFIGS.values():
        plan = trajectories.Plan(circuit, config)
        assert {step[0] for step in plan.program} <= {"H", "RX", "D"}
        for step in plan.program:
            if step[0] == "D":
                assert step[2] and all((key is None) != (kick is None) for key, _, kick in step[2])
    package = Path(trajectories.__file__).parent
    names = {node.name for path in package.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)}
    assert not names & {"_run_rows", "_compose", "_pauli_tables", "_settle"}


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_a_segment_has_one_diagonal_step_per_parity_mask(canonical, name):
    # the diagonals between two mixing steps (H or RX) commute, so a segment
    # multiplies once per parity mask: its RZs, coherent ZZs and kicks are
    # the terms of those steps, each once, and nothing settles a row's
    # power of 1j
    config = BATCH_CONFIGS[name]
    qaoa = build_qaoa_circuit(canonical, QaoaParams((0.0,) * 3, (0.0,) * 3))
    for circuit in (mixed_circuit(4, 30, seed=9), cnot_runs_circuit(4, seed=9), qaoa):
        plan = trajectories.Plan(circuit, config)
        masks: list = []
        for step in plan.program:
            if step[0] != "D":
                masks = []
                continue
            assert step[1].tobytes() not in masks
            masks.append(step[1].tobytes())
        terms = [term for step in plan.program if step[0] == "D" for term in step[2]]
        kinds = [e.op.kind for e in plan.entries if e.op is not None]
        zz = kinds.count("CNOT") if config.epsilon_coherent else 0
        assert len(terms) == kinds.count("RZ") + zz + len(plan.kicks)
        assert sorted(kick for _, _, kick in terms if kick is not None) == list(range(len(plan.kicks)))
    tree = ast.parse(Path(trajectories.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, field) for node in ast.walk(tree) for field in ("id", "attr", "arg", "name")
             if isinstance(getattr(node, field, None), str)}
    assert not [name for name in names | set(trajectories.Plan.__slots__) if "settle" in name]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == 1j]


@pytest.mark.parametrize("odd_rows", ["none", "all", "some"])
def test_settle_gives_the_bits_of_the_masked_product(odd_rows):
    n, rows = 4, 24
    gen = np.random.default_rng(11)
    amps = gen.normal(size=(rows, 1 << n)) + 1j * gen.normal(size=(rows, 1 << n))
    amps[2, :3] = -0.0
    frame = random_frames(gen, rows, n) & ~(1 << 2 * n)
    odd = {"none": np.zeros(rows, dtype=np.int64), "all": np.ones(rows, dtype=np.int64),
           "some": gen.integers(0, 2, rows)}[odd_rows]
    frame |= odd << 2 * n
    expected, expected_frame = amps.copy(), frame - (odd << 2 * n)
    np.multiply(expected, 1j, out=expected, where=odd[:, None].astype(bool))
    frame_reference.settle(amps, frame, n)
    assert amps.tobytes() == expected.tobytes()
    assert np.array_equal(frame, expected_frame)


@pytest.mark.parametrize("name", ["none", "readout-only", "dd-without-dephasing", "all",
                                  *NOISY_P5_SETTINGS])
def test_a_noisy_engine_scores_its_own_tallies(canonical, name):
    config = {**BATCH_CONFIGS, **ONE_ROW_CONFIGS}[name]
    engine = objective.Engine(canonical, 2, "noisy", shots=40, noise=config)
    thetas = np.random.default_rng(4).uniform(0.0, 3.0, size=(3, 4))
    tallies = engine.tallies(thetas, [7, 8, 9])
    assert engine(thetas, [7, 8, 9]).tolist() == [energy_from_tally(t, canonical) for t in tallies]


# -- the draws, checked against the NoiseConfig docstring ---------------------------
# Seeds, row counts and bounds were fixed before the first run. Each
# binomial or mean bound is 4.5 standard deviations; each chi-square
# bound is the 0.9999 quantile for its degrees of freedom.

DRAW_ROWS = 20000
KEYS = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]


@pytest.mark.parametrize("as_list", [False, True])
@pytest.mark.parametrize("count", [*range(41), 130])
def test_substreams_read_each_key_as_a_fresh_philox(count, as_list):
    # every shot's substream is read by one vectorized Philox: each row,
    # in a call of many keys or of one, is the key's own numpy Philox
    keys = KEYS + np.random.default_rng(count).integers(0, 2**64, 20, dtype=np.uint64).tolist()
    words = rng.philox_raw(keys if as_list else np.array(keys, dtype=np.uint64), count)
    assert words.shape == (len(keys), count) and words.dtype == np.uint64
    for key, row in zip(keys, words):
        expected = np.random.Philox(key=key).random_raw(count)
        assert np.array_equal(row, expected)
        assert np.array_equal(rng.philox_raw([key], count), expected[None])


@pytest.mark.parametrize("rate", [0.005, 0.1, 0.6, 1.0])
@pytest.mark.parametrize("bound", [3, 15])
def test_decode_matches_the_scalar_replay(rate, bound):
    # the batched race over 60 sites, with rates that vary around the
    # given one, hits what the one-row scalar replay hits, row by row; a
    # race that reads 2 words at first must read again, wider
    gen = np.random.default_rng([int(rate * 1000), bound])
    keys = gen.integers(0, 2**64, size=40, dtype=np.uint64)
    p = np.minimum(1.0, rate * gen.choice([0.5, 1.0, 1.0], size=60))
    bounds = np.where(gen.random(60) < 0.5, bound, 3).astype(np.uint64)
    sites = np.arange(60)
    expected = [list(noise_reference.replay_errors(np.random.Philox(key=int(k)), p, bounds))
                for k in keys]
    for width in (2, 2 * (60 + 1)):
        plan = SimpleNamespace(sites=sites, reach=trajectories._reach(p), bound=bounds,
                               site_slot=np.full(60, -1), width=width)
        row, site, value = trajectories._gate_errors(plan, keys, None)
        assert np.all(np.diff(site) >= 0)
        got = [[] for _ in keys]
        for r, s, v in zip(row.tolist(), site.tolist(), value.tolist()):
            got[r].append((s, v))
        assert got == expected


def test_a_race_that_hits_no_site_draws_no_error():
    # at p1q 1e-12 no row of 64 hits the one H: no error step, and the
    # shots of a noise-free plan
    circuit = Circuit(1, (GateOp("H", (0,), None, 1.0),))
    plan = trajectories.Plan(circuit, NoiseConfig(p1q=1e-12))
    keys = row_keys([3], 64, False)[1]
    assert all(part.size == 0 for part in trajectories._gate_errors(plan, keys, None))
    shots = trajectories.sample(plan, 64, [3], np.zeros((1, 0)))
    assert np.array_equal(shots, trajectories.sample(trajectories.Plan(circuit, NoiseConfig()),
                                                     64, [3], np.zeros((1, 0))))


def error_hits(circuit: Circuit, config: NoiseConfig, seed: int):
    """The error Paulis of ``DRAW_ROWS`` shots: per gate, the rows hit and their Pauli picks.

    A hit on a one-qubit gate picks a Pauli id 1..3 (X, Y, Z); a hit on
    a CNOT picks 4a + b in 1..15 for Paulis a on its control and b on its
    target. Returns the steps and {entry: (rows, picks)}.
    """
    plan = trajectories.Plan(circuit, config)
    steps = trajectories._chunk_steps(plan, {}, *row_keys([seed], DRAW_ROWS, config.twirling))
    hits, entry, k = {}, -1, -1
    for step in steps:
        if step[0] == "op" or (step[0] == "pauli" and step[1] is None):
            k += 1
            continue
        if step[0] != "pauli":
            continue
        rows, ids = step[1], np.broadcast_to(step[2], len(step[1]))
        if k != entry:
            hits[k], entry = (rows, ids.copy()), k
        else:  # the target half of a CNOT's pair
            hits[k] = (rows, 4 * hits[k][1] + ids)
    return steps, hits


def binomial_ok(count: int, trials: int, p: float) -> bool:
    return abs(count - trials * p) <= 4.5 * math.sqrt(trials * p * (1 - p))


def chi_square(picks: np.ndarray, values: int) -> float:
    observed = np.bincount(picks - 1, minlength=values)
    expected = len(picks) / values
    return float(((observed - expected) ** 2 / expected).sum())


DRAW_CIRCUIT = Circuit(3, (
    GateOp("H", (0,), None, 1.0), GateOp("H", (1,), None, 1.0), GateOp("CNOT", (0, 1), None, 2.0),
    GateOp("RX", (2,), 0.3, 1.0), GateOp("DELAY", (2,), None, 2.0), GateOp("CNOT", (1, 2), None, 2.0),
    GateOp("Z", (1,), None, 1.0), GateOp("RZ", (0,), -0.7, 1.0), GateOp("CNOT", (2, 0), None, 2.0),
))


def test_each_gate_is_hit_at_its_own_rate_and_adjacent_gates_independently():
    p1q, p2q = 0.05, 0.2
    _, hits = error_hits(DRAW_CIRCUIT, NoiseConfig(p1q=p1q, p2q=p2q), seed=2027)
    rate = {"CNOT": p2q, "DELAY": 0.0}
    for k, op in enumerate(DRAW_CIRCUIT.ops):
        rows = hits.get(k, (np.zeros(0, dtype=int),))[0]
        p = rate.get(op.kind, p1q)
        assert len(set(rows.tolist())) == len(rows)
        assert binomial_ok(len(rows), DRAW_ROWS, p) if p else len(rows) == 0, (k, op, len(rows))
    # each pair of neighbouring gates with an error rate: both hit at p_i p_j
    ops = [k for k, op in enumerate(DRAW_CIRCUIT.ops) if op.kind != "DELAY"]
    for a, b in zip(ops, ops[1:]):
        both = np.intersect1d(hits[a][0], hits[b][0]).size
        p = rate.get(DRAW_CIRCUIT.ops[a].kind, p1q) * rate.get(DRAW_CIRCUIT.ops[b].kind, p1q)
        assert binomial_ok(both, DRAW_ROWS, p), (a, b, both)


def test_error_paulis_are_uniform_over_3_and_15():
    _, hits = error_hits(DRAW_CIRCUIT, NoiseConfig(p1q=0.3, p2q=0.6), seed=2028)
    one = np.concatenate([hits[k][1] for k, op in enumerate(DRAW_CIRCUIT.ops)
                          if op.kind not in ("CNOT", "DELAY")])
    two = np.concatenate([hits[k][1] for k, op in enumerate(DRAW_CIRCUIT.ops) if op.kind == "CNOT"])
    assert one.min() >= 1 and one.max() <= 3 and two.min() >= 1 and two.max() <= 15
    assert chi_square(one, 3) <= 18.42
    assert chi_square(two, 15) <= 42.58


def test_a_rate_of_one_hits_every_gate_of_every_shot():
    _, hits = error_hits(DRAW_CIRCUIT, NoiseConfig(p1q=1.0, p2q=1.0), seed=2029)
    for k, op in enumerate(DRAW_CIRCUIT.ops):
        if op.kind == "DELAY":
            assert k not in hits
        else:
            assert np.array_equal(np.sort(hits[k][0]), np.arange(DRAW_ROWS))


@pytest.mark.parametrize("p1q", [0.3, 1.0])
def test_an_empty_twirl_slot_is_never_hit(p1q):
    # a twirl slot is a one-qubit gate when its draw fills it, and nothing,
    # so no gate error, when its draw leaves it empty
    circuit = Circuit(2, (GateOp("H", (0,), None, 1.0), GateOp("CNOT", (0, 1), None, 2.0)))
    steps, hits = error_hits(circuit, NoiseConfig(p1q=p1q, twirling=True), seed=2030)
    entry = -1
    for step in steps:
        if step[0] == "op" or (step[0] == "pauli" and step[1] is None):
            entry += 1
        if step[0] == "pauli" and step[1] is None:  # a twirl slot: ids per row
            filled = np.flatnonzero(step[2])
            rows = hits.get(entry, (np.zeros(0, dtype=int),))[0]
            assert np.isin(rows, filled).all()
            if p1q == 1.0:
                assert np.array_equal(np.sort(rows), filled)
            else:
                assert binomial_ok(len(rows), len(filled), p1q)


def test_dephasing_rates_have_mean_0_and_standard_deviation_sigma():
    # a DELAY of duration d on qubit q is kicked by RZ(2 delta_q d), so each
    # kick gives one shot's delta_q; the rates of two qubits are independent
    n, sigma, d = 5, 0.3, 1.5
    circuit = Circuit(n, tuple(GateOp("DELAY", (q,), None, d) for q in range(n)))
    steps, _ = error_hits(circuit, NoiseConfig(sigma_dephase=sigma), seed=2031)
    kicks = {step[1]: step[2] / (2.0 * d) for step in steps if step[0] == "kick"}
    assert sorted(kicks) == list(range(n))
    for q, delta in kicks.items():
        assert abs(delta.mean()) <= 4.5 * sigma / math.sqrt(DRAW_ROWS)
        assert abs(delta.std() / sigma - 1.0) <= 4.5 / math.sqrt(2 * DRAW_ROWS)
    for a, b in ((0, 1), (1, 2), (3, 4)):
        assert abs(np.corrcoef(kicks[a], kicks[b])[0, 1]) <= 4.5 / math.sqrt(DRAW_ROWS)


def test_ground_mass_degrades_monotonically_in_p2q(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    shots = 8192
    masses, sigmas = [], []
    for p2q in (0.0, 0.01, 0.025, 0.05):
        counts = sample_noisy(circuit, NoiseConfig(p2q=p2q), shots, seed=14)
        m = ground_mass(counts)
        masses.append(m)
        sigmas.append(math.sqrt(max(m * (1 - m), 1e-12) / shots))
    for i in range(len(masses) - 1):
        slack = math.hypot(sigmas[i], sigmas[i + 1])
        assert masses[i + 1] <= masses[i] + slack


def test_twirling_and_dd_are_neutral_without_noise(canonical, grid_p1):
    circuit = p1_circuit(canonical, grid_p1)
    ideal = probs_of(circuit)
    dressed = insert_dd(circuit, "XpXm")
    for seed in range(3):
        combined = twirl_circuit(dressed, seed)
        np.testing.assert_allclose(probs_of(combined), ideal, atol=1e-9)
