"""Per-shot noise: the draws of every shot, and the batched engine that runs them.

This module is the one place that turns (seed, stream, shot) into twirl
Paulis, gate errors, dephasing kicks and readout flips. ``_chunk_steps``
walks the layout of a circuit once and draws, for each row (one per
shot), its twirl from the twirl substream and its dephasing rates and
gate errors from the trajectory substream. Each row's stream is read in
one numpy Philox call, and ``_decode_errors`` replays the gate-error
draws of all rows at once from those words, over one list of error
sites that every row shares but for the twirl slots it leaves empty.
The result is one ordered step list: gates every row shares, Paulis
per row (a twirl Pauli on every row, an error Pauli on the rows that
drew one) and a dephasing kick per row.

``sample`` is the engine behind ``noise.sample_noisy_tallies``. It takes
k points at once, each a seed and a row of RX and RZ angles for the
circuit, and runs their k * shots trajectories as the rows of one
(rows, 2^n) complex array, in chunks. ``_run_rows`` keeps a Pauli frame
per row (Knill, Nature 434, 2005; Gidney, arXiv 2103.02202): every
Pauli, be it a twirl Pauli, a DD pulse or a gate error, only updates
the frames and never touches the array. A CNOT or H is applied to every row by
``statevec.apply_rows``, the kernel ``simulate_ops`` runs too, and
passes the frames exactly. A rotation, a dephasing kick or the coherent
ZZ error folded into a CNOT runs on each row with its gate vectors, or
with their conjugates on the rows whose frame anticommutes with it;
each rotation runs through one ``statevec.apply_vectors`` call, with a
vector per row: its point's angle, or that vector's conjugate.
Each row's final frame is applied once, before measurement. When no
shot differs from another but by its point's angles, the array has a
single row per point. A point's draws depend only on its seed, so a
point's tally does not depend on the batch around it.

``realize`` renders one row of the same step list as a ``Circuit``,
which is what ``noise.twirl_circuit`` and ``noise.apply_trajectory_noise``
return, and ``_readout_flips`` gives ``noise.apply_readout_error`` its
flips. Every row's amplitudes equal, bit for bit, those of
``simulate_ops`` on that shot's rendered circuit: moving a Pauli past a
gate only permutes, negates or conjugates the factors of each product,
and a Y's factor 1j reaches the amplitudes before the next diagonal
product, as it does there (``_settle``).

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
from .statevec import (ROTATION_KINDS, GateOp, _bit_values, _cnot_perm, apply_rows, apply_vectors,
                       gate_vectors, measure_rows, zero_state)

# Bytes of amplitudes simulated at once: a chunk holds this many bytes'
# worth of shots (2048 at n = 5, so a 16-point batch of 128 shots), and
# at least one.
_CHUNK_BYTES = 1 << 20

# Pauli ids 0..3 are I, X, Y, Z. A row's Pauli frame (m, z, e) says that
# the row's state is
#   psi[i] = 1j**e * (-1)**popcount(i & z) * a[i ^ m],
# the operator 1j**e Z^z X^m applied to the row ``a`` of the array, with
# qubit q at bit n-1-q of m and z, as in a basis index. A frame is one
# integer: m in bits 0..n-1, z in bits n..2n-1 and e from bit 2n up, of
# which only the two low bits count (a sum that wraps keeps them).
_FRAME_M = np.array([0, 1, 1, 0], dtype=np.int64)
_FRAME_Z = np.array([0, 0, 1, 1], dtype=np.int64)
_FRAME_E = np.array([0, 0, 3, 0], dtype=np.int64)
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


@lru_cache(maxsize=512)
def _pauli_tables(n: int, q: int) -> tuple:
    """What a Pauli on qubit q, applied after a frame, does to it: (flip, phase).

    P Z^z X^m = (-1)**(m_P & z_q) * Z^(z ^ z_P) X^(m ^ m_P) times P's own
    phase, so id's bits are XORed in (``flip[id]``) and its phase is
    added (``phase[id + 4 * z_q]``, with z_q the frame's z bit of q).
    """
    s = n - 1 - q
    flip = _FRAME_M << s | _FRAME_Z << (n + s)
    phase = np.concatenate([_FRAME_E, _FRAME_E + 2 * _FRAME_M]) << 2 * n
    return flip, phase


def _compose(frame, ids, n: int, q: int):
    """The frames after Pauli ``ids`` on qubit q: one id per frame, or one for all."""
    flip, phase = _pauli_tables(n, q)
    return (frame ^ flip[ids]) + phase[ids + 4 * ((frame >> (2 * n - 1 - q)) & 1)]


class _Entry(NamedTuple):
    """One op of the twirled layout of a circuit.

    A base op carries ``op``; a twirl slot carries ``slot``, its column
    in ``_twirl_ids``, which each shot fills with its own Pauli or
    leaves empty. After ``_point_angles``, an RX or RZ carries
    ``vectors``, the ``gate_vectors`` of each point's own angle,
    stacked: row j is point j's.
    """

    qubits: tuple[int, ...]
    duration: float
    op: GateOp | None
    slot: int | None
    vectors: list | None = None


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
    par = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        par = np.concatenate([par, par ^ 1])
    par.flags.writeable = False
    return par


@lru_cache(maxsize=512)
def _zz_diags(n: int, control: int, target: int, epsilon: float) -> np.ndarray:
    """CNOT RZ(2 epsilon) CNOT as one diagonal, and its conjugate: shape (2, 2^n).

    With a CNOT applied as ``a[perm]`` and perm an involution, the
    sandwich maps a to ``a * d[perm]``: the same products, bit for bit.
    """
    w = np.exp(0.5j * (2.0 * epsilon))
    d = np.where(_bit_values(n, target) == 1, w, w.conjugate())[_cnot_perm(n, control, target)]
    diags = np.stack([d, d.conjugate()])
    diags.flags.writeable = False
    return diags


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
        self._key = self._state["state"]["key"]

    def seek(self, key) -> None:
        self._key[0] = key
        self.bitgen.state = self._state

    def raw(self, keys, count: int) -> np.ndarray:
        """The first ``count`` 64-bit words of each key's stream."""
        words = np.empty((len(keys), count), dtype=np.uint64)
        for r, key in enumerate(keys):
            self.seek(key)
            words[r] = self.bitgen.random_raw(count)
        return words


def _limit(p):
    """The largest raw word whose ``Generator.random()`` is below p, for rates 0 < p <= 1.

    ``random()`` is the word's top 53 bits times 2**-53, so it is below p
    exactly when those bits are below c = ceil(p * 2**53), that is, when
    the word is at most (c - 1) << 11 with its low 11 bits set. The
    bound c << 11 itself is 2**64 at p = 1, which no uint64 holds.
    """
    c = np.ceil(np.asarray(p) * 2.0**53).astype(np.uint64)
    return (c - np.uint64(1)) << np.uint64(11) | np.uint64(0x7FF)


def _decode_errors(read, limit: np.ndarray, bound: np.ndarray, columns, absent) -> tuple:
    """Replay the gate-error draws of every row at once, from the raw words of its stream.

    Row r has the sites of ``limit`` and ``bound``, in order, but site
    ``columns[j]`` where ``absent[r, j]`` (a (rows, len(columns)) mask).
    A site draws ``random() < p``, which takes one word and hits when
    the word is at most ``limit`` (``_limit(p)``). A hit then draws
    ``integers(0, bound)`` by Lemire's method from a 32-bit half word:
    the low half of a fresh word, or the high half left over from the
    row's previous such draw. ``read(width)`` gives the first ``width``
    words of every row's stream as a (rows, width) array; it is read
    again, wider, if some row's draws run past the words read. Returns
    (row, site, value) arrays of the hits, sorted by site and then row.
    """
    rows, sites = len(absent), len(limit)
    # before[r, j]: the sites that row r skips among columns[:j]
    before = np.zeros((rows, len(columns) + 1), dtype=np.int64)
    np.cumsum(absent, axis=1, out=before[:, 1:])
    # the ordinal that column j would have in row r never falls along the
    # row, so rows offset by r * span make one sorted array
    span = sites + 1
    ordinals = (columns - before[:, :-1] + np.arange(rows)[:, None] * span).ravel()

    def site_of(r, ordinal):
        # row r skips, before its ordinal-th site, the columns whose own
        # ordinal is at most that one
        j = np.searchsorted(ordinals, r * span + ordinal, side="right") - r * len(columns)
        return ordinal + before[r, j]

    count = sites - before[:, -1]
    width = int(count.max(initial=0)) + 8
    while True:
        hits = _decode_words(read(width), limit, bound, count, site_of)
        if hits is not None:
            return hits
        width *= 2


def _decode_words(words: np.ndarray, limit, bound, count, site_of):
    """``_decode_errors`` on one read; None when a row needs more words.

    Hits are rare, so the walk visits only the candidate words, those
    below the largest limit, one per row per step: the ordinal-th site
    of row r, ``site_of(r, ordinal)``, reads word ordinal + shift[r],
    where shift counts the words the row's integers() draws took so far.
    """
    rows, width = words.shape
    flat_words = words.ravel()
    # flat word positions r * width + w, and one past the last word
    candidates = np.append(np.flatnonzero(flat_words <= limit.max()), flat_words.size)
    shift = np.zeros(rows, dtype=np.int64)
    half = np.full(rows, -1, dtype=np.int64)  # the carried high half word, or -1
    live = np.flatnonzero(count)
    at = np.searchsorted(candidates, live * width)
    found: list[tuple] = []
    while live.size:
        flat = candidates[at]
        w = flat - live * width
        ordinal = w - shift[live]
        ok = (w < width) & (ordinal < count[live])
        ended = live[~ok]
        # a row ends with no hit left among its words; they must reach its last site
        if np.any(count[ended] + shift[ended] > width):
            return None
        live, at, flat, w, ordinal = live[ok], at[ok], flat[ok], w[ok], ordinal[ok]
        site = site_of(live, ordinal)
        hit = flat_words[flat] <= limit[site]
        at[~hit] += 1
        r, pos, s = live[hit], w[hit] + 1, site[hit]
        if r.size:
            values = _lemire(words, r, pos, half, bound[s])
            if values is None:
                return None
            shift[r] = pos - ordinal[hit] - 1
            at[hit] = np.searchsorted(candidates, r * width + pos)
            found.append((r, s, values))
    if not found:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    r, s, values = (np.concatenate(column) for column in zip(*found))
    order = np.lexsort((r, s))
    return r[order], s[order], values[order]


def _lemire(words: np.ndarray, r, pos, half, b):
    """One ``integers(0, b)`` draw for each row in ``r``, its next unread word at ``pos``.

    Takes the carried half word if the row has one, else the low half of
    a fresh word, whose high half it carries; redraws when Lemire's
    method rejects. Updates ``pos`` and ``half`` in place; None when a
    row runs out of words.
    """
    values = np.empty(r.size, dtype=np.int64)
    todo = np.arange(r.size)
    while todo.size:
        rows = r[todo]
        fresh = half[rows] < 0
        if np.any(pos[todo[fresh]] >= words.shape[1]):
            return None
        word = words[rows, np.where(fresh, pos[todo], 0)]
        x = np.where(fresh, (word & np.uint64(0xFFFFFFFF)).astype(np.int64), half[rows])
        half[rows] = np.where(fresh, (word >> np.uint64(32)).astype(np.int64), -1)
        pos[todo] += fresh
        m = x * b[todo]
        accept = m & 0xFFFFFFFF >= (1 << 32) % b[todo]
        values[todo[accept]] = m[accept] >> 32
        todo = todo[~accept]
    return values


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
    draws = (halves.reshape(len(keys), -1)[:, :n_cnots] >> np.uint64(28)).astype(np.int8)
    image = _TWIRL_IMAGE[draws]
    ids = np.stack([draws >> 2, draws & 3, image >> 2, image & 3], axis=-1)
    return ids.reshape(len(keys), -1)


def _trajectory_draws(streams: _Substreams, keys: np.ndarray, entries: list[_Entry],
                      twirl, config: NoiseConfig, n: int):
    """Each row's dephasing rates and gate errors, from its trajectory key.

    A row draws ``normal(0, sigma_dephase, size=n)`` when dephasing, then
    one ``random()`` per gate error site of its own circuit, in op order;
    a hit is followed by the ``integers()`` draw of its Pauli. The sites
    are the layout's but for the twirl slots that the row's ``twirl``
    ids (rows, slots) leave empty. Each key's words are read in one
    call, and ``_decode_errors`` replays the draws of all rows together.
    Returns deltas (rows, n) and the hits as (row, entry index, value)
    arrays, sorted by entry and then row, where value is the result of
    the error's integers() draw.
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
    dephasing = config.sigma_dephase > 0
    deltas = np.zeros((rows, n))
    sites = np.flatnonzero(site_p > 0)

    def read(width: int) -> np.ndarray:
        words = np.empty((rows, width), dtype=np.uint64)
        for r, key in enumerate(keys):
            streams.seek(key)
            if dephasing:
                deltas[r] = streams.gen.normal(0.0, config.sigma_dephase, size=n)
            if width:
                words[r] = streams.bitgen.random_raw(width)
        return words

    if sites.size == 0:
        if dephasing:
            read(0)
        empty = np.zeros(0, dtype=np.int64)
        return deltas, (empty, empty, empty)
    slot_sites = np.flatnonzero([entries[k].slot is not None for k in sites])
    # the twirl slots are sites all together or not at all, in slot order
    absent = twirl == 0 if slot_sites.size else np.zeros((rows, 0), dtype=bool)
    row, site, value = _decode_errors(read, _limit(site_p[sites]), bound[sites], slot_sites, absent)
    return deltas, (row, sites[site], value)


def _chunk_steps(entries: list[_Entry], config: NoiseConfig, twirl_keys, trajectory_keys,
                 streams: _Substreams, n: int) -> list:
    """Draw each row's twirl and noise and lay out what the rows run, in order.

    Row r draws its twirl from ``twirl_keys[r]`` (needed only when
    ``entries`` has twirl slots) and its dephasing and gate errors from
    ``trajectory_keys[r]``. Steps are ("op", op, vectors) for a gate
    every row shares, with ``vectors`` the entry's (None but for an RX
    or RZ after ``_point_angles``); ("pauli", rows, ids, qubit,
    duration) for one-qubit Paulis, an id for each listed row, or for
    every row when rows is None, 0 for none: a twirl Pauli on every row,
    lasting ``ONE_QUBIT_DURATION``, or the error Paulis of the rows that
    drew one, which last 0; and ("kick", qubit, angle per row) for
    dephasing, which a single row gets only where it has idle time. A
    coherent ZZ error is left to whoever runs a CNOT.
    """
    rows = len(trajectory_keys)
    slots = [k for k, e in enumerate(entries) if e.slot is not None]
    # slots are numbered in layout order
    twirl = _twirl_ids(streams, twirl_keys, len(slots) // 4) if slots else None
    dephasing = config.sigma_dephase > 0
    deltas, (hit_row, hit_entry, hit_value) = _trajectory_draws(
        streams, trajectory_keys, entries, twirl, config, n)
    hit_bounds = np.searchsorted(hit_entry, np.arange(len(entries) + 1)).tolist()

    kicks_at: dict[int, list] = {}
    if dephasing:
        if slots:
            present = np.ones((rows, len(entries)), dtype=bool)
            present[:, slots] = twirl != 0
            kicks = _idle_kicks(entries, present, n)
        else:
            kicks = _shared_idle_kicks(n, tuple((e.qubits, e.duration) for e in entries))
        for k, q, dur in kicks:
            kicks_at.setdefault(k, []).append(("kick", q, 2.0 * deltas[:, q] * dur))

    steps: list = []
    for k, entry in enumerate(entries):
        steps += kicks_at.get(k, ())
        if entry.op is None:
            steps.append(("pauli", None, twirl[:, entry.slot], entry.qubits[0], entry.duration))
        else:
            steps.append(("op", entry.op, entry.vectors))
            if entry.op.kind == "DELAY" and dephasing and entry.duration > 0:
                q = entry.qubits[0]
                steps.append(("kick", q, 2.0 * deltas[:, q] * entry.duration))
        lo, hi = hit_bounds[k], hit_bounds[k + 1]
        if hi > lo:
            # both draws pick a non-identity Pauli: 1 + integers(0, 3) on a
            # one-qubit op, divmod(1 + integers(0, 15), 4) on a CNOT
            pick = hit_value[lo:hi] + 1
            ids = (pick >> 2, pick & 3) if len(entry.qubits) == 2 else (pick,)
            for q, pid in zip(entry.qubits, ids):
                steps.append(("pauli", hit_row[lo:hi], pid, q, 0.0))
    steps += kicks_at.get(len(entries), ())
    return steps


def realize(circuit: Circuit, config: NoiseConfig, shot: int, seed: int,
            twirl_seed: int | None = None) -> Circuit:
    """One row of the step list as a circuit: one shot's realization.

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
    for step in _chunk_steps(entries, config, twirl_keys, trajectory_keys, _Substreams(),
                             circuit.n):
        kind = step[0]
        if kind == "op":
            op = step[1]
            ops.append(op)
            if op.kind == "CNOT" and eps != 0.0:
                u, v = op.qubits
                ops += [GateOp("CNOT", (u, v), None, 0.0), GateOp("RZ", (v,), 2.0 * eps, 0.0),
                        GateOp("CNOT", (u, v), None, 0.0)]
        elif kind == "pauli":
            _, _, ids, q, duration = step
            if ids[0]:
                ops.append(GateOp(PAULI_KINDS[ids[0] - 1], (q,), None, duration))
        else:
            ops.append(GateOp("RZ", (step[1],), float(step[2][0]), 0.0))
    if len(ops) == len(circuit.ops):
        return circuit
    return Circuit(circuit.n, tuple(ops))


def _settle(amps: np.ndarray, frame: np.ndarray, n: int) -> None:
    """Move an odd power of 1j out of each frame that holds one and into its row.

    ``simulate_ops`` applies a Y's 1j to the amplitudes, which trades
    their real and imaginary parts. Every step here gives the same bits
    either way, but for a product by a complex number with both parts
    nonzero, a diagonal: numpy may fuse one of its two products into the
    rounding of the sum, so the product must see the parts where
    ``simulate_ops`` has them. Updates ``amps`` and ``frame`` in place.
    """
    odd = (frame >> 2 * n) & 1
    np.multiply(amps, 1j, out=amps, where=odd[:, None].astype(bool))
    frame -= odd << 2 * n


def _row_vectors(vectors, flip: np.ndarray, row_point: np.ndarray) -> tuple:
    """Each row's gate vectors: its point's row of each stack, conjugated where ``flip``."""
    return tuple(np.take(np.concatenate([v, v.conjugate()]), flip * len(v) + row_point, axis=0)
                 for v in vectors)


def _run_rows(n: int, steps: list, row_point: np.ndarray, epsilon: float) -> np.ndarray:
    """Run ``steps`` on a copy of |0...0> per entry of ``row_point``; returns the amplitudes.

    Row r belongs to point ``row_point[r]``. Every RX and RZ step carries
    the stacked gate vectors of ``_point_angles``; each row takes its
    point's row of the stack, so every row gets the arithmetic of
    ``apply_rows`` at its own point's angle. The Paulis of the steps go
    into each row's frame, which is applied at the end.
    """
    rows = len(row_point)
    amps = np.tile(zero_state(n).amplitudes, (rows, 1))
    frame = np.zeros(rows, dtype=np.int64)
    odd = False  # whether a frame may hold an odd power of 1j
    for step in steps:
        kind = step[0]
        if kind == "pauli":
            sel, ids, q = step[1:4]
            if sel is None:
                frame = _compose(frame, ids, n, q)
            else:
                frame[sel] = _compose(frame[sel], ids, n, q)
            odd = True
            continue
        if odd and (kind == "kick" or step[1].kind == "RZ"
                    or (step[1].kind == "CNOT" and epsilon != 0.0)):
            _settle(amps, frame, n)  # amps is this function's own array
            odd = False
        if kind == "kick":
            q, angle = step[1], step[2]
            # a kick leaves the rows without idle time alone, unless they are few
            sel = np.flatnonzero(angle)
            every = 2 * sel.size > rows
            if every:
                sel = slice(None)
            w = np.exp(0.5j * angle[sel])
            # RZ(angle) on q: w where q's bit is 1, its conjugate where 0; an
            # X or Y of the frame on q turns it into RZ(-angle)
            w = np.where((frame[sel] >> (n - 1 - q)) & 1, w.conjugate(), w)
            diagonal = np.take(np.stack([w.conjugate(), w], axis=1), _bit_values(n, q), axis=1)
            if every:
                amps *= diagonal
            else:
                amps[sel] *= diagonal
            continue
        op, vectors = step[1], step[2]
        s = n - 1 - op.qubits[0]
        if op.kind in PAULI_KINDS:
            frame = _compose(frame, PAULI_KINDS.index(op.kind) + 1, n, op.qubits[0])
            odd = odd or op.kind == "Y"
        elif op.kind == "CNOT":
            amps = apply_rows(amps, n, op)
            # X on the control spreads to the target, Z on the target to the control
            t = n - 1 - op.qubits[1]
            frame ^= (((frame >> s) & 1) << t) | (((frame >> (n + t)) & 1) << (n + s))
            if epsilon != 0.0:
                # the ZZ rotation turns into its inverse, the conjugate
                # diagonal, past an X on just one of its qubits
                flip = ((frame >> s) ^ (frame >> t)) & 1
                diags = _zz_diags(n, *op.qubits, epsilon)
                amps *= np.take(diags, flip, axis=0)
        elif op.kind == "H":
            amps = apply_rows(amps, n, op)
            # H swaps the X and Z of its qubit, and H Y H = -Y
            mq, zq = (frame >> s) & 1, (frame >> (n + s)) & 1
            frame = (frame ^ (mq ^ zq) * (1 << s | 1 << (n + s))) + ((mq & zq) << (2 * n + 1))
        elif op.kind in ROTATION_KINDS:
            # RZ(angle) past an X or Y of its qubit is RZ(-angle), RX past a
            # Z or Y is RX(-angle): the conjugate vectors
            flip = (frame >> (s if op.kind == "RZ" else n + s)) & 1
            amps = apply_vectors(amps, n, op.qubits[0], _row_vectors(vectors, flip, row_point))
    # each row's frame, once: the row is 1j**e (-1)**popcount(i & z) a[i ^ m]
    low = (1 << n) - 1
    m, z, e = frame & low, (frame >> n) & low, (frame >> 2 * n) & 3
    sel = np.flatnonzero(m | z | e)
    if sel.size:
        idx = np.arange(1 << n)
        part = np.take(amps, (sel << n)[:, None] + (idx ^ m[sel, None]))
        part *= _UNITS[(e[sel, None] + 2 * _parities(n)[idx & z[sel, None]]) & 3]
        amps[sel] = part
    return amps


def _readout_flips(streams: _Substreams, keys, width: int, p: float) -> np.ndarray:
    """(shots, width) readout flips: bit j of shot i flips when the j-th
    ``random()`` of ``keys[i]``, shot i's readout substream, is below ``p`` > 0."""
    return streams.raw(keys, width) <= _limit(p)


def _point_angles(entries: list[_Entry], angles: np.ndarray, n: int) -> list[_Entry]:
    """Give the c-th RX or RZ entry the gate vectors of each point's angle ``angles[:, c]``."""
    rotations = [k for k, e in enumerate(entries) if e.op is not None and e.op.kind in ROTATION_KINDS]
    if angles.shape != (len(angles), len(rotations)):
        raise ValueError(f"angles of shape {angles.shape} do not fit {len(rotations)} rotations")
    entries = list(entries)
    # points of a simplex or gradient batch share most angles, so each
    # distinct (kind, qubit, angle) is computed once. A zero is never
    # looked up: 0.0 == -0.0, but their sines differ in sign
    memo: dict = {}
    for k, column in zip(rotations, angles.T.tolist()):
        op = entries[k].op
        vectors = []
        for angle in column:
            key = (op.kind, op.qubits[0], angle)
            found = memo.get(key) if angle else None
            if found is None:
                found = memo[key] = gate_vectors(n, op._replace(angle=angle))
            vectors.append(found)
        entries[k] = entries[k]._replace(vectors=tuple(np.stack(v) for v in zip(*vectors)))
    return entries


def sample(base: Circuit, config: NoiseConfig, shots: int, seeds, angles) -> np.ndarray:
    """Basis-index tallies, a (k, 2^n) array, of ``shots`` trajectories for each of k points.

    ``base`` is a circuit with any DD pulses in it. Point j runs it under
    ``seeds[j]``, with its RX and RZ angles, in op order, replaced by
    ``angles[j]`` of the (k, R) array ``angles``. The k points' shots are
    the rows of one chunked array, point j's at j * shots onwards, and
    shot i of point j draws its twirl, noise, measurement and readout
    flips from ``seeds[j]`` exactly as shot i of a one-point call does:
    each tally equals that call's.
    """
    n = base.n
    k = len(seeds)
    angles = np.asarray(angles, dtype=float)
    if len(angles) != k:
        raise ValueError(f"{len(angles)} rows of angles for {k} seeds")
    entries = _point_angles(_layout(base, config.twirling), angles, n)
    if k == 0:
        return np.zeros((0, 1 << n), dtype=np.int64)
    per_shot = (
        any(e.slot is not None for e in entries)
        or config.p1q > 0 or config.p2q > 0 or config.sigma_dephase > 0
    )
    total = k * shots
    index = np.arange(shots)

    def keys(stream: int) -> np.ndarray:
        return np.concatenate([rng.derive_keys(seed, stream, index) for seed in seeds])

    twirl_keys = rng.derive_keys(keys(rng.STREAM_TWIRL), rng.STREAM_TWIRL) if config.twirling else None
    trajectory_keys = keys(rng.STREAM_TRAJECTORY)
    u = np.concatenate([rng.generator(seed, rng.STREAM_SAMPLE).random(shots) for seed in seeds])
    point = np.repeat(np.arange(k), shots)
    chunk = max(1, _CHUNK_BYTES // (16 << n)) if per_shot else total
    outcomes = np.empty(total, dtype=np.int64)
    streams = _Substreams()
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        steps = _chunk_steps(entries, config, None if twirl_keys is None else twirl_keys[lo:hi],
                             trajectory_keys[lo:hi], streams, n)
        if any(step[0] != "op" for step in steps):
            amps = _run_rows(n, steps, point[lo:hi], config.epsilon_coherent)
            outcomes[lo:hi] = measure_rows(amps, u[lo:hi])
            continue
        # no shot differs from another but by its point's angles: one row per point
        row_point = np.unique(point[lo:hi])
        amps = _run_rows(n, steps, row_point, config.epsilon_coherent)
        for row, j in enumerate(row_point.tolist()):
            a, b = max(lo, j * shots), min(hi, (j + 1) * shots)
            outcomes[a:b] = measure_rows(amps[row:row + 1], u[a:b])
    if config.p_readout > 0:
        flips = _readout_flips(streams, keys(rng.STREAM_READOUT), n, config.p_readout)
        outcomes ^= flips @ (1 << np.arange(n - 1, -1, -1))
    return np.bincount(point * (1 << n) + outcomes, minlength=k << n).reshape(k, 1 << n)
