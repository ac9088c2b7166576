"""The per-shot noise realizations, written as scalar loops, one shot at a time.

``qaoalab.trajectories`` is the package's only definition of the per-shot
draws; ``noise.twirl_circuit``, ``noise.apply_trajectory_noise`` and
``noise.apply_readout_error`` render its event list for one shot. This
module keeps an independent, slow reference of the same realizations,
written from the draw protocol that ``noise.apply_trajectory_noise``
states: the twirl and the readout flips come from ``rng.generator`` for
their substream, and the gate errors and dephasing rates from one
``np.random.Philox`` per shot and substream, read a word at a time.
``replay_errors`` is the one-row race over the error sites that
``trajectories._gate_errors`` runs for all rows at once, and the twirl
table comes from a numeric search over 4x4 matrices. Tests compare the
engine and its views against them.
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


def _twirled(circuit: Circuit, seed: int) -> list:
    """The circuit's ops with each CNOT wrapped in its four twirl slots.

    A slot is (None, qubit) when the draw leaves it empty, else the slot's
    Pauli op; every other op is itself. The slots of a CNOT are, in order,
    before its control, before its target, after its control and after
    its target.
    """
    n_cnots = sum(1 for op in circuit.ops if op.kind == "CNOT")
    draws = rng.generator(seed, rng.STREAM_TWIRL).integers(0, 16, size=n_cnots)
    items: list = []
    i = 0
    for op in circuit.ops:
        if op.kind != "CNOT":
            items.append(op)
            continue
        a, b = int(draws[i]) >> 2, int(draws[i]) & 3
        c, d = _TWIRL_TABLE[(a, b)]
        i += 1
        control, target = op.qubits
        slots = [GateOp(_PAULI_BY_ID[pauli], (q,), None, ONE_QUBIT_DURATION) if pauli else (None, q)
                 for pauli, q in ((a, control), (b, target), (c, control), (d, target))]
        items += slots[:2] + [op] + slots[2:]
    return items


def twirl_circuit(circuit: Circuit, seed: int) -> Circuit:
    """Wrap every CNOT in a random Pauli pair and its conjugation image.

    The sandwich leaves each CNOT's ideal action unchanged (up to global
    phase) while randomizing the sign of coherent errors attached to it.
    A circuit with no CNOTs is returned unchanged. Deterministic in
    (circuit, seed).
    """
    if not any(op.kind == "CNOT" for op in circuit.ops):
        return circuit
    return Circuit(circuit.n, tuple(op for op in _twirled(circuit, seed) if isinstance(op, GateOp)))


def _unit(word: int) -> float:
    """U = ((w >> 11) + 1) * 2**-53, in (0, 1], of one word."""
    return ((word >> 11) + 1) * 2.0**-53


def dephasing_rates(n: int, sigma: float, shot_index: int, seed: int) -> list:
    """Shot ``shot_index``'s dephasing rates, normal(0, sigma) per qubit, by Box-Muller.

    Words 2j and 2j + 1 of the shot's dephasing substream give U1 in
    (0, 1] and U2 = (w >> 11) * 2**-53 in [0, 1); with R =
    sqrt(-2 log U1), qubit 2j gets sigma * R cos(2 pi U2) and qubit
    2j + 1 gets sigma * R sin(2 pi U2).
    """
    bitgen = np.random.Philox(key=rng.derive_key(seed, rng.STREAM_DEPHASE, shot_index))
    rates = []
    for _ in range((n + 1) // 2):
        radius = np.sqrt(-2.0 * np.log(_unit(int(bitgen.random_raw()))))
        angle = 2.0 * np.pi * ((int(bitgen.random_raw()) >> 11) * 2.0**-53)
        rates += [sigma * (radius * np.cos(angle)), sigma * (radius * np.sin(angle))]
    return rates[:n]


def replay_errors(bitgen, p, bound):
    """Race one shot's gate errors over sites of rates ``p``, from the words of ``bitgen``.

    Site s has rate -log(1 - p[s]), or 64 when p[s] = 1, which no draw
    passes. Each word w gives E = -log(U), U = _unit(w); the next hit is
    the first site whose cumulative rate exceeds the rate reached so far
    plus E, and the rate reached becomes that site's. After a hit, one
    word w gives its value, ((w >> 11) * bound[s]) >> 53. Yields
    (site, value) per hit, until a draw passes the last site.
    """
    reach, total = [], 0.0
    for q in p:
        total += 64.0 if q == 1.0 else -np.log1p(-q)
        reach.append(total)
    at, site = 0.0, 0
    while True:
        t = at + -np.log(_unit(int(bitgen.random_raw())))
        while site < len(reach) and not reach[site] > t:
            site += 1
        if site == len(reach):
            return
        yield site, ((int(bitgen.random_raw()) >> 11) * int(bound[site])) >> 53
        at = reach[site]
        site += 1


def apply_trajectory_noise(
    circuit: Circuit, config: NoiseConfig, shot_index: int, seed: int,
    twirl_seed: int | None = None,
) -> Circuit:
    """One shot's stochastic error realization as an expanded circuit.

    A gate error site follows each gate but DELAY, in op order: p2q after
    a CNOT, p1q after any other gate. The sites race as ``replay_errors``
    races them, on the shot's trajectory substream; the dephasing rates
    come from ``dephasing_rates``. With ``twirl_seed``, each CNOT is first
    twirled as ``twirl_circuit`` twirls it, and each of its four twirl
    slots is a p1q site, filled or not: a hit on an empty slot inserts
    nothing. Inserted error ops carry duration 0. DELAY ops receive
    dephasing (they are idle time) but no gate noise.
    """
    items = list(circuit.ops) if twirl_seed is None else _twirled(circuit, twirl_seed)
    ops_in = tuple(op for op in items if isinstance(op, GateOp))
    stochastic = config.p1q > 0 or config.p2q > 0
    dephasing = config.sigma_dephase > 0
    coherent = config.epsilon_coherent != 0.0
    if not (stochastic or dephasing or coherent):
        return circuit if twirl_seed is None else Circuit(circuit.n, ops_in)
    deltas = dephasing_rates(circuit.n, config.sigma_dephase, shot_index, seed) if dephasing else None

    # Map each op to the idle time just before it on each of its qubits,
    # whatever the op's duration, plus each qubit's trailing idle time,
    # from the ASAP schedule of the circuit the shot runs.
    idle_before: dict[int, list[tuple[int, float]]] = {}
    trailing: list[tuple[int, float]] = []
    if dephasing:
        timeline = schedule_circuit(Circuit(circuit.n, ops_in))
        ready = [0.0] * circuit.n
        for idx, (op, start) in enumerate(zip(ops_in, timeline.starts)):
            for q in sorted(op.qubits):
                if start > ready[q]:
                    idle_before.setdefault(idx, []).append((q, start - ready[q]))
                ready[q] = start + op.duration
        trailing = [(q, timeline.makespan - t) for q, t in enumerate(ready)
                    if timeline.makespan > t]

    # the error sites, in op order: (item index, rate, bound of the value)
    sites = []
    for i, item in enumerate(items):
        cnot = isinstance(item, GateOp) and item.kind == "CNOT"
        if isinstance(item, GateOp) and item.kind == "DELAY":
            continue
        p, bound = (config.p2q, 15) if cnot else (config.p1q, 3)
        if p > 0:
            sites.append((i, p, bound))
    bitgen = np.random.Philox(key=rng.derive_key(seed, rng.STREAM_TRAJECTORY, shot_index))
    hits = {sites[s][0]: value for s, value in
            replay_errors(bitgen, [p for _, p, _ in sites], [b for _, _, b in sites])}

    eps = config.epsilon_coherent
    ops: list[GateOp] = []
    idx = 0
    for i, item in enumerate(items):
        if not isinstance(item, GateOp):
            continue  # an empty twirl slot: a hit on it inserts nothing
        op = item
        for q, dur in idle_before.get(idx, ()):
            ops.append(GateOp("RZ", (q,), 2.0 * deltas[q] * dur, 0.0))
        idx += 1
        ops.append(op)
        if op.kind == "DELAY":
            if dephasing and op.duration > 0:
                q = op.qubits[0]
                ops.append(GateOp("RZ", (q,), 2.0 * deltas[q] * op.duration, 0.0))
            continue
        if op.kind == "CNOT" and coherent:
            u, v = op.qubits
            ops.append(GateOp("CNOT", (u, v), None, 0.0))
            ops.append(GateOp("RZ", (v,), 2.0 * eps, 0.0))
            ops.append(GateOp("CNOT", (u, v), None, 0.0))
        if i not in hits:
            continue
        pick = hits[i] + 1
        if op.kind == "CNOT":
            # the 15 non-identity Pauli pairs are indexed 1..15 as (pick >> 2, pick & 3)
            for q, pauli in zip(op.qubits, (pick >> 2, pick & 3)):
                if pauli:
                    ops.append(GateOp(_PAULI_BY_ID[pauli], (q,), None, 0.0))
        else:
            ops.append(GateOp(PAULI_KINDS[pick - 1], op.qubits, None, 0.0))
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
