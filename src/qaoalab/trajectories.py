"""Per-shot noise: the draws of every shot, and the batched engine that runs them.

This module is the one place that turns (seed, stream, shot) into twirl
Paulis, gate errors, dephasing kicks and readout flips. ``_events`` walks
the layout of a circuit once and draws, for each row (one per shot), its
twirl from the twirl substream and its dephasing rates and gate errors
from the trajectory substream. The result is one ordered event list:
gates every row shares, a Pauli per row, and a dephasing kick per row.

``sample`` is the engine behind ``noise.sample_noisy``. It merges each
run of Paulis in the event list into one frame per row and simulates a
(rows, 2^n) complex array, one row per shot of a chunk: each shared gate
is applied once to every row by ``statevec.apply_rows``, the kernel
``simulate_ops`` runs too, with the coherent ZZ error folded into each
CNOT. When no shot differs from another before measurement, the array
has a single row. ``realize`` renders one row of the same event list as
a ``Circuit``, which is what ``noise.twirl_circuit`` and
``noise.apply_trajectory_noise`` return, and ``_readout_flips`` gives
``noise.apply_readout_error`` its flips. Every row's amplitudes equal,
bit for bit, those of ``simulate_ops`` on that shot's rendered circuit.

``noise`` imports this module when it first needs it, so work that
never samples with noise does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import rng
from .ansatz import ONE_QUBIT_DURATION, Circuit
from .noise import PAULI_KINDS, NoiseConfig
from .statevec import GateOp, _bit_values, _cnot_perm, apply_rows, measure_rows, zero_state

# Bytes of amplitudes simulated at once: a chunk holds this many bytes'
# worth of shots (1024 at n = 5), and at least one.
_CHUNK_BYTES = 1 << 19

# Pauli ids 0..3 are I, X, Y, Z. A Pauli frame (m, z, e) of integer
# arrays, one entry per row, maps row r of a state to
#   psi'[i] = 1j**e[r] * (-1)**popcount(i & z[r]) * psi[i ^ m[r]].
# Every product of single-qubit Paulis is one frame, and applying a frame
# only moves amplitudes and multiplies them by +-1 or +-1j: it is exact,
# so a merged frame gives the same bits as its Paulis one by one.
_FRAME_M = np.array([0, 1, 1, 0])
_FRAME_Z = np.array([0, 0, 1, 1])
_FRAME_E = np.array([0, 0, 3, 0])
_UNITS = np.array([1, 1j, -1, -1j])
# the Pauli id of bits (m, z): the inverse of _FRAME_M and _FRAME_Z
_PAULI_ID = np.array([[0, 3], [1, 2]])


def _twirl_image() -> np.ndarray:
    """Twirl draw v = 4a + b (Paulis before the CNOT) -> 4c + d (after it).

    CNOT (P_a kron P_b) CNOT = +-(P_c kron P_d), control first. In Pauli
    bits, conjugation by a CNOT sets x_target ^= x_control and
    z_control ^= z_target; the sign is a global phase and is dropped.
    """
    control, target = np.arange(16) >> 2, np.arange(16) & 3
    xc, zc = _FRAME_M[control], _FRAME_Z[control]
    xt, zt = _FRAME_M[target], _FRAME_Z[target]
    return 4 * _PAULI_ID[xc, zc ^ zt] + _PAULI_ID[xt ^ xc, zt]


_TWIRL_IMAGE = _twirl_image()


class _Entry(NamedTuple):
    """One op of the twirled layout of a circuit.

    A base op carries ``op``; a twirl slot carries ``slot``, its column
    in ``_twirl_ids``, which each shot fills with its own Pauli or
    leaves empty.
    """

    qubits: tuple[int, ...]
    duration: float
    op: GateOp | None
    slot: int | None


def _layout(circuit: Circuit, twirling: bool) -> list[_Entry]:
    entries: list[_Entry] = []
    cnots = 0
    for op in circuit.ops:
        if not (twirling and op.kind == "CNOT"):
            entries.append(_Entry(op.qubits, op.duration, op, None))
            continue
        control, target = op.qubits
        slots = [_Entry((q,), ONE_QUBIT_DURATION, None, 4 * cnots + s)
                 for s, q in enumerate((control, target, control, target))]
        entries += slots[:2] + [_Entry(op.qubits, op.duration, op, None)] + slots[2:]
        cnots += 1
    return entries


@lru_cache(maxsize=64)
def _parities(n: int) -> np.ndarray:
    """popcount(i) & 1 for every basis index i."""
    par = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        par = np.concatenate([par, par ^ 1])
    par.flags.writeable = False
    return par


@lru_cache(maxsize=512)
def _zz_diag(n: int, control: int, target: int, epsilon: float) -> np.ndarray:
    """CNOT RZ(2 epsilon) CNOT as one diagonal.

    With a CNOT applied as ``a[perm]`` and perm an involution, the
    sandwich maps a to ``a * d[perm]``: the same products, bit for bit.
    """
    w = np.exp(0.5j * (2.0 * epsilon))
    d = np.where(_bit_values(n, target) == 1, w, w.conjugate())
    diag = d[_cnot_perm(n, control, target)]
    diag.flags.writeable = False
    return diag


class _Substreams:
    """One Philox, re-keyed for each shot's substream.

    Re-keying resets the counter and buffers to those of a fresh
    ``Philox(key=k)``, so the draws equal ``rng.generator``'s at a
    fraction of the cost of building a generator per shot.
    """

    def __init__(self):
        self.bitgen = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.bitgen)
        self._state = self.bitgen.state

    def seek(self, key) -> None:
        self._state["state"]["key"][:] = (key, 0)
        self.bitgen.state = self._state

    def raw(self, keys, count: int) -> np.ndarray:
        """The first ``count`` 64-bit words of each key's stream."""
        words = np.empty((len(keys), count), dtype=np.uint64)
        for r, key in enumerate(keys):
            self.seek(key)
            words[r] = self.bitgen.random_raw(count)
        return words


def _uniforms(words: np.ndarray) -> np.ndarray:
    """What ``Generator.random()`` makes of each word: its top 53 bits."""
    return (words >> np.uint64(11)) * 2.0**-53


def _replay_errors(bitgen, p: np.ndarray, bound: np.ndarray):
    """Replay one shot's gate-error draws from the raw words of its stream.

    Site s draws ``random() < p[s]``, which takes one word. A hit then
    draws ``integers(0, bound[s])`` by Lemire's method from a 32-bit
    half word: the low half of a fresh word, or the high half left over
    from the previous such draw. Yields (site, value) per hit.
    """
    if len(p) == 0:
        return
    words = bitgen.random_raw(len(p) + 2)
    u = _uniforms(words)
    pos = site = 0
    half = None
    while site < len(p):
        ahead = len(p) - site
        if pos + ahead >= len(words):
            words = np.concatenate([words, bitgen.random_raw(pos + ahead + 2 - len(words))])
            u = _uniforms(words)
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


def _idle_kicks(entries, present: np.ndarray, n: int) -> list:
    """Idle time that trajectory noise turns into dephasing kicks, per row.

    Walks the ASAP schedule of each row's own twirled circuit (row r
    holds the entries with ``present[r]``; an entry needs ``qubits`` and
    ``duration``). Returns (entry index, qubit,
    duration per row) in application order, with entry index
    ``len(entries)`` for trailing idle time. As ``NoiseConfig`` states,
    idle time goes to the next op on its qubit, whatever that op's
    duration, and idle time after a qubit's last op is trailing.
    """
    rows = present.shape[0]
    ready = np.zeros((rows, n))
    makespan = np.zeros(rows)
    kicks = []
    for k, entry in enumerate(entries):
        here = present[:, k]
        start = ready[:, list(entry.qubits)].max(axis=1)
        end = start + entry.duration
        for q in sorted(entry.qubits):
            dur = np.where(here, start - ready[:, q], 0.0)
            if dur.any():
                kicks.append((k, q, dur))
            ready[:, q] = np.where(here, end, ready[:, q])
        makespan = np.where(here, np.maximum(makespan, end), makespan)
    for q in range(n):
        dur = makespan - ready[:, q]
        if dur.any():
            kicks.append((len(entries), q, dur))
    return kicks


@lru_cache(maxsize=16)
def _shared_idle_kicks(n: int, timing: tuple) -> list:
    """``_idle_kicks`` of an untwirled circuit, the same for every shot."""
    entries = [_Entry(qubits, duration, None, None) for qubits, duration in timing]
    return _idle_kicks(entries, np.ones((1, len(entries)), dtype=bool), n)


def _twirl_ids(streams: _Substreams, keys: np.ndarray, n_cnots: int) -> np.ndarray:
    """Each shot's twirl Paulis as ids of shape (shots, 4 * CNOTs).

    CNOT j's four columns hold the Paulis before its control, before its
    target, after its control and after its target.
    """
    # integers(0, 16, size) takes 32-bit half words, the low half first,
    # keeps their top four bits, and never rejects.
    words = streams.raw(keys, (n_cnots + 1) // 2)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=-1)
    draws = (halves.reshape(len(keys), -1)[:, :n_cnots] >> np.uint64(28)).astype(np.int64)
    image = _TWIRL_IMAGE[draws]
    ids = np.stack([draws >> 2, draws & 3, image >> 2, image & 3], axis=-1)
    return ids.reshape(len(keys), -1)


def _merge_frames(ids: np.ndarray, bits: np.ndarray, starts: list, n: int) -> tuple:
    """Compose runs of single-qubit Paulis into one frame per run.

    ``ids`` (items, rows) holds each row's Pauli id per item, acting on
    the qubit whose basis-index bit is ``bits[item]``; run j is items
    ``starts[j]`` up to the next start. Applying frame (m1, z1, e1), then
    (m2, z2, e2), is the frame (m1 ^ m2, z1 ^ z2, e1 + e2 + 2 *
    parity(m2 & z1)), so a run's e picks up the parity of each item's m
    against the z of the items before it in the run. Returns (m, z, e),
    each of shape (runs, rows).
    """
    m = _FRAME_M[ids] * bits[:, None]
    z = _FRAME_Z[ids] * bits[:, None]
    e = _FRAME_E[ids]
    z_before = np.bitwise_xor.accumulate(z, axis=0) ^ z
    run_length = np.diff(starts + [ids.shape[0]])
    z_before ^= np.repeat(z_before[starts], run_length, axis=0)
    e = e + 2 * _parities(n)[m & z_before]
    return (
        np.bitwise_xor.reduceat(m, starts),
        np.bitwise_xor.reduceat(z, starts),
        np.add.reduceat(e, starts) & 3,
    )


def _trajectory_draws(streams: _Substreams, keys: np.ndarray, entries: list[_Entry],
                      present: np.ndarray, config: NoiseConfig, n: int):
    """Each row's dephasing rates and gate errors, from its trajectory key.

    A row draws ``normal(0, sigma_dephase, size=n)`` when dephasing, then
    one ``random()`` per gate error site of its own circuit, in op order;
    a hit is followed by the ``integers()`` draw of its Pauli. Returns
    deltas (rows, n) and {entry index: [(row, value), ...]} for the
    errors, where value is the result of the error's integers() draw.
    """
    rows = len(keys)
    # one random() per gate, in op order: p2q after a CNOT, p1q after any
    # other gate but DELAY; a hit is followed by the Pauli's integers()
    site_p = np.zeros(len(entries))
    bound = np.zeros(len(entries), dtype=np.int64)
    for k, entry in enumerate(entries):
        if entry.op is not None and entry.op.kind == "CNOT":
            site_p[k], bound[k] = config.p2q, 15
        elif entry.op is None or entry.op.kind != "DELAY":
            site_p[k], bound[k] = config.p1q, 3
    is_site = site_p > 0
    dephasing = config.sigma_dephase > 0
    deltas = np.zeros((rows, n))
    hits: dict[int, list] = {}
    if not (dephasing or is_site.any()):
        return deltas, hits
    for r, key in enumerate(keys):
        streams.seek(key)
        if dephasing:
            deltas[r] = streams.gen.normal(0.0, config.sigma_dephase, size=n)
        sites = np.flatnonzero(is_site & present[r])
        for s, value in _replay_errors(streams.bitgen, site_p[sites], bound[sites]):
            hits.setdefault(int(sites[s]), []).append((r, value))
    return deltas, hits


def _events(entries: list[_Entry], config: NoiseConfig, twirl_keys, trajectory_keys,
            streams: _Substreams, n: int) -> list:
    """Draw each row's twirl and noise and lay out what the rows run, in order.

    Row r draws its twirl from ``twirl_keys[r]`` (needed only when
    ``entries`` has twirl slots) and its dephasing and gate errors from
    ``trajectory_keys[r]``. Events are ("op", op) for a gate every row
    shares; ("pauli", ids, qubit, duration) for one Pauli id per row,
    0 for none: a twirl Pauli lasts ``ONE_QUBIT_DURATION``, an error
    Pauli 0; and ("kick", qubit, angle per row) for dephasing, which a
    single row gets only where it has idle time. A coherent ZZ error is
    left to whoever runs a CNOT.
    """
    rows = len(trajectory_keys)
    present = np.ones((rows, len(entries)), dtype=bool)
    n_cnots = sum(1 for e in entries if e.slot is not None) // 4
    twirl = None
    if n_cnots:
        twirl = _twirl_ids(streams, twirl_keys, n_cnots)
        for k, entry in enumerate(entries):
            if entry.slot is not None:
                present[:, k] = twirl[:, entry.slot] != 0

    dephasing = config.sigma_dephase > 0
    deltas, hits = _trajectory_draws(streams, trajectory_keys, entries, present, config, n)

    kicks_at: dict[int, list] = {}
    if dephasing:
        if n_cnots:
            kicks = _idle_kicks(entries, present, n)
        else:
            kicks = _shared_idle_kicks(n, tuple((e.qubits, e.duration) for e in entries))
        for k, q, dur in kicks:
            kicks_at.setdefault(k, []).append(("kick", q, 2.0 * deltas[:, q] * dur))

    events: list = []
    for k, entry in enumerate(entries):
        events += kicks_at.get(k, ())
        if entry.op is None:
            events.append(("pauli", twirl[:, entry.slot], entry.qubits[0], entry.duration))
        else:
            events.append(("op", entry.op))
            if entry.op.kind == "DELAY" and dephasing and entry.duration > 0:
                q = entry.qubits[0]
                events.append(("kick", q, 2.0 * deltas[:, q] * entry.duration))
        if k in hits:
            # both draws pick a non-identity Pauli: 1 + integers(0, 3) on a
            # one-qubit op, divmod(1 + integers(0, 15), 4) on a CNOT
            ids = np.zeros((rows, len(entry.qubits)), dtype=np.int64)
            for r, value in hits[k]:
                ids[r] = divmod(value + 1, 4) if len(entry.qubits) == 2 else value + 1
            for j, q in enumerate(entry.qubits):
                events.append(("pauli", ids[:, j], q, 0.0))
    events += kicks_at.get(len(entries), ())
    return events


def _chunk_steps(entries: list[_Entry], config: NoiseConfig, seed: int,
                 shots: range, streams: _Substreams, n: int) -> list:
    """The events of the chunk's shots, with each run of Paulis as one frame.

    Shot i twirls from ``child_seed(seed, STREAM_TWIRL, i)``, the seed
    ``realize`` takes as its ``twirl_seed``. Steps are ("op", op),
    ("frame", (m, z, e)) for per-row Paulis, and the dephasing kicks.
    """
    index = np.arange(shots.start, shots.stop)
    twirl_keys = None
    if config.twirling:
        twirl_keys = rng.derive_keys(rng.derive_keys(seed, rng.STREAM_TWIRL, index),
                                     rng.STREAM_TWIRL)
    trajectory_keys = rng.derive_keys(seed, rng.STREAM_TRAJECTORY, index)
    steps: list = []
    columns: list = []
    item_qubits: list[int] = []
    starts: list[int] = []
    for event in _events(entries, config, twirl_keys, trajectory_keys, streams, n):
        if event[0] != "pauli":
            steps.append(event)
            continue
        if not (steps and steps[-1][0] == "run"):
            starts.append(len(columns))
            steps.append(("run", len(starts) - 1))
        columns.append(event[1])
        item_qubits.append(event[2])
    if not columns:
        return steps

    bits = np.array([1 << (n - 1 - q) for q in item_qubits])
    frames = _merge_frames(np.stack(columns), bits, starts, n)
    out = []
    for step in steps:
        if step[0] == "run":
            frame = tuple(f[step[1]] for f in frames)
            if frame[0].any() or frame[1].any() or frame[2].any():
                out.append(("frame", frame))
        else:
            out.append(step)
    return out


def realize(circuit: Circuit, config: NoiseConfig, shot: int, seed: int,
            twirl_seed: int | None = None) -> Circuit:
    """One row of the event list as a circuit: one shot's realization.

    The row's dephasing and gate errors follow ``config``'s rates, drawn
    for ``shot`` under ``seed``; it is twirled, from ``twirl_seed``, only
    when that is given. Inserted ops have duration 0, but for twirl
    Paulis, and the coherent ZZ error is written after each CNOT as
    CNOT, RZ(2 epsilon) on the target, CNOT. ``circuit`` itself is
    returned when nothing is inserted.
    """
    entries = _layout(circuit, twirl_seed is not None)
    twirl_keys = None if twirl_seed is None else [rng.derive_key(twirl_seed, rng.STREAM_TWIRL)]
    trajectory_keys = [rng.derive_key(seed, rng.STREAM_TRAJECTORY, shot)]
    eps = config.epsilon_coherent
    ops: list[GateOp] = []
    for event in _events(entries, config, twirl_keys, trajectory_keys, _Substreams(), circuit.n):
        if event[0] == "op":
            op = event[1]
            ops.append(op)
            if op.kind == "CNOT" and eps != 0.0:
                u, v = op.qubits
                ops += [GateOp("CNOT", (u, v), None, 0.0), GateOp("RZ", (v,), 2.0 * eps, 0.0),
                        GateOp("CNOT", (u, v), None, 0.0)]
        elif event[0] == "pauli":
            _, ids, q, duration = event
            if ids[0]:
                ops.append(GateOp(PAULI_KINDS[ids[0] - 1], (q,), None, duration))
        else:
            ops.append(GateOp("RZ", (event[1],), float(event[2][0]), 0.0))
    if len(ops) == len(circuit.ops):
        return circuit
    return Circuit(circuit.n, tuple(ops))


def _run_rows(n: int, steps: list, rows: int, epsilon: float) -> np.ndarray:
    """Run ``steps`` on ``rows`` copies of |0...0>; returns the (rows, 2^n) amplitudes."""
    amps = np.tile(zero_state(n).amplitudes, (rows, 1))
    idx = np.arange(1 << n)
    sign = 2 * _parities(n)
    for step in steps:
        kind = step[0]
        if kind == "op":
            op = step[1]
            amps = apply_rows(amps, n, op)
            if epsilon != 0.0 and op.kind == "CNOT":
                amps = amps * _zz_diag(n, *op.qubits, epsilon)
            continue
        # A step leaves its identity rows (no Pauli, no idle time) alone;
        # it skips them only when they are most rows.
        if kind == "frame":
            m, z, e = step[1]
            sel = np.flatnonzero(m | z | e)
            if 2 * sel.size > rows:
                sel = np.arange(rows)
            m, z, e = m[sel, None], z[sel, None], e[sel, None]
            part = np.take(amps, (sel << n)[:, None] + (idx ^ m))
            if z.any() or e.any():
                part *= _UNITS[(e + sign[idx & z]) & 3]
        else:
            q, angle = step[1], step[2]
            sel = np.flatnonzero(angle)
            if 2 * sel.size > rows:
                sel = np.arange(rows)
            w = np.exp(0.5j * angle[sel])[:, None]
            part = amps[sel] * np.where(_bit_values(n, q) == 1, w, w.conjugate())
        if sel.size == rows:
            amps = part
        else:
            amps[sel] = part
    return amps


def _readout_flips(streams: _Substreams, seed: int, index, width: int, p: float) -> np.ndarray:
    """(shots, width) readout flips: bit j of shot i flips when the j-th
    ``random()`` of shot i's readout substream is below ``p``."""
    keys = np.atleast_1d(rng.derive_keys(seed, rng.STREAM_READOUT, index))
    return _uniforms(streams.raw(keys, width)) < p


def sample(base: Circuit, config: NoiseConfig, shots: int, seed: int) -> np.ndarray:
    """Basis-index tally of ``shots`` trajectories of ``base``, a circuit with any DD pulses in it."""
    n = base.n
    entries = _layout(base, config.twirling)
    per_shot = (
        any(e.slot is not None for e in entries)
        or config.p1q > 0 or config.p2q > 0 or config.sigma_dephase > 0
    )
    chunk = max(1, _CHUNK_BYTES // (16 << n)) if per_shot else shots
    u = rng.generator(seed, rng.STREAM_SAMPLE).random(shots)
    outcomes = np.empty(shots, dtype=np.int64)
    streams = _Substreams()
    for lo in range(0, shots, chunk):
        part = range(lo, min(lo + chunk, shots))
        steps = _chunk_steps(entries, config, seed, part, streams, n)
        rows = len(part) if any(step[0] != "op" for step in steps) else 1
        amps = _run_rows(n, steps, rows, config.epsilon_coherent)
        outcomes[part.start:part.stop] = measure_rows(amps, u[part.start:part.stop])
    if config.p_readout > 0:
        flips = _readout_flips(streams, seed, np.arange(shots), n, config.p_readout)
        outcomes ^= flips @ (1 << np.arange(n - 1, -1, -1))
    return np.bincount(outcomes, minlength=1 << n)
