"""The per-shot noise realizations, written with one Generator per substream.

``qaoalab.trajectories`` is the package's only definition of the per-shot
draws; ``noise.twirl_circuit``, ``noise.apply_trajectory_noise`` and
``noise.apply_readout_error`` render its event list for one shot. This
module keeps an independent, slow reference of the same three
realizations: each builds ``rng.generator`` for its substream and draws
op by op, and the twirl table comes from a numeric search over 4x4
matrices. ``replay_errors`` is the one-row, site-by-site replay of the
gate-error draws from raw words that ``trajectories._decode_errors``
does for all rows at once. Tests compare the engine and its views
against them.
"""

from __future__ import annotations

import numpy as np

from qaoalab import rng
from qaoalab.ansatz import ONE_QUBIT_DURATION, Circuit
from qaoalab.noise import PAULI_KINDS, NoiseConfig, schedule_circuit
from qaoalab.statevec import GateOp


def _build_twirl_table() -> dict[tuple[int, int], tuple[int, int]]:
    """For each Pauli pair P, the pair Q with CNOT (P kron P') CNOT = +/- Q.

    Computed numerically once; Pauli ids are 0..3 for I, X, Y, Z with the
    control qubit first in the kron product. Signs are dropped: the
    conjugated pair equals the original conjugation up to global phase.
    """
    paulis = (
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(4):
        for b in range(4):
            m = cnot @ np.kron(paulis[a], paulis[b]) @ cnot
            for c in range(4):
                for d in range(4):
                    cand = np.kron(paulis[c], paulis[d])
                    if np.allclose(m, cand) or np.allclose(m, -cand):
                        table[(a, b)] = (c, d)
                        break
                else:
                    continue
                break
            else:
                raise AssertionError(f"no Pauli image for pair ({a}, {b})")
    return table


_TWIRL_TABLE = _build_twirl_table()
_PAULI_BY_ID = {1: "X", 2: "Y", 3: "Z"}


def twirl_circuit(circuit: Circuit, seed: int) -> Circuit:
    """Wrap every CNOT in a random Pauli pair and its conjugation image.

    The sandwich leaves each CNOT's ideal action unchanged (up to global
    phase) while randomizing the sign of coherent errors attached to it.
    A circuit with no CNOTs is returned unchanged. Deterministic in
    (circuit, seed).
    """
    n_cnots = sum(1 for op in circuit.ops if op.kind == "CNOT")
    if n_cnots == 0:
        return circuit
    draws = rng.generator(seed, rng.STREAM_TWIRL).integers(0, 16, size=n_cnots)
    ops: list[GateOp] = []
    i = 0
    for op in circuit.ops:
        if op.kind != "CNOT":
            ops.append(op)
            continue
        a, b = int(draws[i]) >> 2, int(draws[i]) & 3
        c, d = _TWIRL_TABLE[(a, b)]
        i += 1
        control, target = op.qubits
        if a:
            ops.append(GateOp(_PAULI_BY_ID[a], (control,), None, ONE_QUBIT_DURATION))
        if b:
            ops.append(GateOp(_PAULI_BY_ID[b], (target,), None, ONE_QUBIT_DURATION))
        ops.append(op)
        if c:
            ops.append(GateOp(_PAULI_BY_ID[c], (control,), None, ONE_QUBIT_DURATION))
        if d:
            ops.append(GateOp(_PAULI_BY_ID[d], (target,), None, ONE_QUBIT_DURATION))
    return Circuit(circuit.n, tuple(ops))


# the 15 non-identity Pauli pairs are indexed 1..15 as (idx >> 2, idx & 3)


def apply_trajectory_noise(
    circuit: Circuit, config: NoiseConfig, shot_index: int, seed: int
) -> Circuit:
    """One shot's stochastic error realization as an expanded circuit.

    Draw order is fixed: per-qubit dephasing rates first, then one draw
    per gate in op order, so the result is a pure function of
    (circuit, config, shot_index, seed). Inserted ops carry duration 0.
    DELAY ops receive dephasing (they are idle time) but no gate noise.
    """
    stochastic = config.p1q > 0 or config.p2q > 0
    dephasing = config.sigma_dephase > 0
    coherent = config.epsilon_coherent != 0.0
    if not (stochastic or dephasing or coherent):
        return circuit
    gen = rng.generator(seed, rng.STREAM_TRAJECTORY, shot_index)
    deltas = gen.normal(0.0, config.sigma_dephase, size=circuit.n) if dephasing else None

    # Map each op to the idle time just before it on each of its qubits,
    # whatever the op's duration, plus each qubit's trailing idle time,
    # from the ASAP schedule.
    idle_before: dict[int, list[tuple[int, float]]] = {}
    trailing: list[tuple[int, float]] = []
    if dephasing:
        timeline = schedule_circuit(circuit)
        ready = [0.0] * circuit.n
        for idx, (op, start) in enumerate(zip(circuit.ops, timeline.starts)):
            for q in sorted(op.qubits):
                if start > ready[q]:
                    idle_before.setdefault(idx, []).append((q, start - ready[q]))
                ready[q] = start + op.duration
        trailing = [(q, timeline.makespan - t) for q, t in enumerate(ready)
                    if timeline.makespan > t]

    eps = config.epsilon_coherent
    ops: list[GateOp] = []
    for idx, op in enumerate(circuit.ops):
        for q, dur in idle_before.get(idx, ()):
            ops.append(GateOp("RZ", (q,), 2.0 * deltas[q] * dur, 0.0))
        ops.append(op)
        if op.kind == "DELAY":
            if dephasing and op.duration > 0:
                q = op.qubits[0]
                ops.append(GateOp("RZ", (q,), 2.0 * deltas[q] * op.duration, 0.0))
            continue
        if op.kind == "CNOT":
            if coherent:
                u, v = op.qubits
                ops.append(GateOp("CNOT", (u, v), None, 0.0))
                ops.append(GateOp("RZ", (v,), 2.0 * eps, 0.0))
                ops.append(GateOp("CNOT", (u, v), None, 0.0))
            if config.p2q > 0 and gen.random() < config.p2q:
                pick = int(gen.integers(1, 16))
                a, b = pick >> 2, pick & 3
                u, v = op.qubits
                if a:
                    ops.append(GateOp(_PAULI_BY_ID[a], (u,), None, 0.0))
                if b:
                    ops.append(GateOp(_PAULI_BY_ID[b], (v,), None, 0.0))
        else:
            if config.p1q > 0 and gen.random() < config.p1q:
                pick = int(gen.integers(0, 3))
                ops.append(GateOp(PAULI_KINDS[pick], op.qubits, None, 0.0))
    for q, dur in trailing:
        ops.append(GateOp("RZ", (q,), 2.0 * deltas[q] * dur, 0.0))
    return Circuit(circuit.n, tuple(ops))


def apply_readout_error(bits: str, p_readout: float, shot_index: int, seed: int) -> str:
    """Flip each measured bit independently with probability p_readout."""
    if not (0.0 <= p_readout <= 1.0):
        raise ValueError(f"p_readout must be in [0, 1], got {p_readout!r}")
    if p_readout == 0.0:
        return bits
    flips = rng.generator(seed, rng.STREAM_READOUT, shot_index).random(len(bits))
    return "".join(
        ("1" if b == "0" else "0") if f < p_readout else b
        for b, f in zip(bits, flips)
    )



def replay_errors(bitgen, p: np.ndarray, bound: np.ndarray):
    """Replay one shot's gate-error draws from the raw words of its stream.

    Site s draws ``random() < p[s]``, which takes one word. A hit then
    draws ``integers(0, bound[s])`` by Lemire's method from a 32-bit
    half word: the low half of a fresh word, or the high half left over
    from the previous such draw. Yields (site, value) per hit.
    """
    if len(p) == 0:
        return
    words = bitgen.random_raw(len(p) + 2)
    u = (words >> np.uint64(11)) * 2.0**-53
    pos = site = 0
    half = None
    while site < len(p):
        ahead = len(p) - site
        if pos + ahead >= len(words):
            words = np.concatenate([words, bitgen.random_raw(pos + ahead + 2 - len(words))])
            u = (words >> np.uint64(11)) * 2.0**-53
        hit = np.flatnonzero(u[pos:pos + ahead] < p[site:])
        if hit.size == 0:
            return
        site += int(hit[0])
        pos += int(hit[0]) + 1
        b = int(bound[site])
        while True:
            if half is None:
                word = int(words[pos])
                pos += 1
                x, half = word & 0xFFFFFFFF, word >> 32
            else:
                x, half = half, None
            m = x * b
            if m & 0xFFFFFFFF >= (1 << 32) % b:
                break
        yield site, m >> 32
        site += 1
