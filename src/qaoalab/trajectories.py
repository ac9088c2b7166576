"""Per-shot noise: the draws of every shot, and the batched engine that runs them.

This module is the one place that turns (seed, stream, shot) into twirl
Paulis, gate errors, dephasing kicks and readout flips. ``_events`` walks
the layout of a circuit once and draws, for each row (one per shot), its
twirl from the twirl substream and its dephasing rates and gate errors
from the trajectory substream. Each row's stream is read in one numpy
Philox call, and ``_decode_errors`` replays the gate-error draws of all
rows at once from those words. The result is one ordered event list:
gates every row shares, a twirl Pauli per row, the error Paulis of the
rows that drew one, and a dephasing kick per row.

``sample`` is the engine behind ``noise.sample_noisy_tallies``. It takes
k points at once, each a seed and the circuit's RX and RZ angles, and
runs their k * shots trajectories as the rows of one (rows, 2^n) complex
array, in chunks: each shared gate is applied once to every row by
``statevec.apply_rows``, the kernel ``simulate_ops`` runs too, each
rotation to every row at its own point's angle by
``statevec.apply_vectors``, and the coherent ZZ error is folded into
each CNOT. Each run of Paulis in the event list is merged into one frame
per row; the error Paulis enter the merge as sparse (row, entry, id)
triples. When no shot differs from another but by its point's angles,
the array has a single row per point. A point's draws depend only on its
seed, so a point's tally does not depend on the batch around it.
``realize`` renders one row of the same event list as a ``Circuit``,
which is what ``noise.twirl_circuit`` and ``noise.apply_trajectory_noise``
return, and ``_readout_flips`` gives ``noise.apply_readout_error`` its
flips. Every row's amplitudes equal, bit for bit, those of
``simulate_ops`` on that shot's rendered circuit.

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

# Pauli ids 0..3 are I, X, Y, Z. A Pauli frame (m, z, e) of integer
# arrays, one entry per row, maps row r of a state to
#   psi'[i] = 1j**e[r] * (-1)**popcount(i & z[r]) * psi[i ^ m[r]].
# Every product of single-qubit Paulis is one frame, and applying a frame
# only moves amplitudes and multiplies them by +-1 or +-1j: it is exact,
# so a merged frame gives the same bits as its Paulis one by one.
_FRAME_M = np.array([0, 1, 1, 0], dtype=np.int32)
_FRAME_Z = np.array([0, 0, 1, 1], dtype=np.int32)
_FRAME_E = np.array([0, 0, 3, 0], dtype=np.int32)
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
    leaves empty. An RX or RZ of a batch of points carries ``vectors``,
    the ``gate_vectors`` of each point's own angle, stacked: row j is
    point j's.
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


def _uniforms(words: np.ndarray) -> np.ndarray:
    """What ``Generator.random()`` makes of each word: its top 53 bits."""
    return (words >> np.uint64(11)) * 2.0**-53


def _decode_errors(read, p: np.ndarray, bound: np.ndarray, count: np.ndarray) -> tuple:
    """Replay the gate-error draws of every row at once, from the raw words of its stream.

    Row r has ``count[r]`` sites; ``p`` and ``bound`` list the sites of
    row 0, then of row 1, and so on, each row's in op order. Site s draws
    ``random() < p[s]``, which takes one word. A hit then draws
    ``integers(0, bound[s])`` by Lemire's method from a 32-bit half word:
    the low half of a fresh word, or the high half left over from the
    row's previous such draw. ``read(width)`` gives the first ``width``
    words of every row's stream as a (rows, width) array; it is read
    again, wider, if some row's draws run past the words read. Returns
    (row, site, value) arrays of the hits, in site order.
    """
    start = np.cumsum(count) - count
    width = int(count.max(initial=0)) + 8
    while True:
        hits = _decode_words(read(width), p, bound, count, start)
        if hits is not None:
            return hits
        width *= 2


def _decode_words(words: np.ndarray, p, bound, count, start):
    """``_decode_errors`` on one read; None when a row needs more words.

    Hits are rare, so the walk visits only the candidate words, those
    below the largest rate, one per row per step: site i of row r reads
    word i + shift[r], where shift counts the words the row's integers()
    draws took so far.
    """
    rows, width = words.shape
    u = _uniforms(words).ravel()
    # flat word positions r * width + w, and one past the last word
    candidates = np.append(np.flatnonzero(u < p.max(initial=0.0)), u.size)
    shift = np.zeros(rows, dtype=np.int64)
    half = np.full(rows, -1, dtype=np.int64)  # the carried high half word, or -1
    live = np.flatnonzero(count)
    at = np.searchsorted(candidates, live * width)
    found: list[tuple] = []
    while live.size:
        flat = candidates[at]
        w = flat - live * width
        site = w - shift[live]
        ok = (w < width) & (site < count[live])
        ended = live[~ok]
        # a row ends with no hit left among its words; they must reach its last site
        if np.any(count[ended] + shift[ended] > width):
            return None
        live, at, flat, w, site = live[ok], at[ok], flat[ok], w[ok], site[ok]
        hit = u[flat] < p[start[live] + site]
        at[~hit] += 1
        r, pos, s = live[hit], w[hit] + 1, start[live[hit]] + site[hit]
        if r.size:
            values = _lemire(words, r, pos, half, bound[s])
            if values is None:
                return None
            shift[r] = pos - site[hit] - 1
            at[hit] = np.searchsorted(candidates, r * width + pos)
            found.append((r, s, values))
    if not found:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    r, s, values = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(s)
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


def _merge_frames(ids: np.ndarray, qubits: list, starts: list, errors: list, n: int) -> tuple:
    """Compose runs of single-qubit Paulis into one frame per run.

    A run holds dense items, column t of ``ids`` (rows, items) giving
    each row's Pauli id on qubit ``qubits[t]`` (run j's are items
    ``starts[j]`` up to the next start), and sparse error Paulis, each
    (run, after, rows, ids, qubit): one id for each listed row, applied
    after the run's dense items before index ``after`` and after every
    earlier error of the list. Applying frame (m1, z1, e1), then (m2, z2,
    e2), is the frame (m1 ^ m2, z1 ^ z2, e1 + e2 + 2 * parity(m2 & z1)),
    so an item's e picks up the parity of its m against the z of the
    items before it in its run and row. Single-qubit Paulis meet only on
    a shared qubit, so an error needs only the dense z before it and the
    dense m after it in its run, read off running XORs, and the z of the
    earlier errors in its run and row. Returns (m, z, e), each of shape
    (runs, rows).
    """
    rows = len(ids)
    bits = 1 << (n - 1 - np.array(qubits, dtype=np.int32))
    m = _FRAME_M[ids] * bits
    z = _FRAME_Z[ids] * bits
    first = np.array(starts)
    last = np.append(first[1:], len(qubits))
    # running XORs and phase sums along each row, with a leading zero
    # column: item t's prefix is column t, a run's total the difference
    # of its ends
    cm = np.zeros((rows, len(qubits) + 1), dtype=np.int32)
    cz = np.zeros_like(cm)
    ce = np.zeros_like(cm)
    np.bitwise_xor.accumulate(m, axis=1, out=cm[:, 1:])
    np.bitwise_xor.accumulate(z, axis=1, out=cz[:, 1:])
    z_before = cz[:, :-1] ^ cz[:, np.repeat(first, last - first)]
    np.cumsum(_FRAME_E[ids] + 2 * _parities(n)[m & z_before], axis=1, out=ce[:, 1:])
    frame_m = (cm[:, last] ^ cm[:, first]).T.copy()
    frame_z = (cz[:, last] ^ cz[:, first]).T.copy()
    frame_e = (ce[:, last] - ce[:, first]).T.copy()
    if errors:
        run, after, rows_of, ids_of, qubit = zip(*errors)
        sizes = [r.size for r in rows_of]
        run, after, qubit = (np.repeat(column, sizes) for column in (run, after, qubit))
        row, pid = np.concatenate(rows_of), np.concatenate(ids_of)
        bit = 1 << (n - 1 - qubit)
        em, ez = _FRAME_M[pid] * bit, _FRAME_Z[pid] * bit
        dense_z_before = cz[row, after] ^ cz[row, first[run]]
        dense_m_after = cm[row, last[run]] ^ cm[row, after]
        # the z of the earlier errors of the same run and row: a running
        # XOR in (run, row, list order), less its value at the group start
        group = run * rows + row
        order = np.argsort(group, kind="stable")
        group = group[order]
        acc = np.bitwise_xor.accumulate(ez[order])
        exclusive = acc ^ ez[order]
        head = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        exclusive ^= np.repeat(exclusive[head], np.diff(np.append(head, group.size)))
        earlier = np.empty_like(exclusive)
        earlier[order] = exclusive
        parity = _parities(n)
        phase = _FRAME_E[pid] + 2 * (parity[em & dense_z_before] + parity[ez & dense_m_after]
                                     + parity[em & earlier])
        np.bitwise_xor.at(frame_m, (run, row), em)
        np.bitwise_xor.at(frame_z, (run, row), ez)
        np.add.at(frame_e, (run, row), phase)
    return frame_m, frame_z, frame_e & 3


def _trajectory_draws(streams: _Substreams, keys: np.ndarray, entries: list[_Entry],
                      present: np.ndarray, config: NoiseConfig, n: int):
    """Each row's dephasing rates and gate errors, from its trajectory key.

    A row draws ``normal(0, sigma_dephase, size=n)`` when dephasing, then
    one ``random()`` per gate error site of its own circuit, in op order;
    a hit is followed by the ``integers()`` draw of its Pauli. Each key's
    words are read in one call, and ``_decode_errors`` replays the draws
    of all rows together. Returns deltas (rows, n) and the hits as
    (row, entry index, value) arrays, sorted by row and then entry,
    where value is the result of the error's integers() draw.
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
    site_row, site_entry = np.nonzero(present & (site_p > 0))

    def read(width: int) -> np.ndarray:
        words = np.empty((rows, width), dtype=np.uint64)
        for r, key in enumerate(keys):
            streams.seek(key)
            if dephasing:
                deltas[r] = streams.gen.normal(0.0, config.sigma_dephase, size=n)
            if width:
                words[r] = streams.bitgen.random_raw(width)
        return words

    if site_entry.size == 0:
        if dephasing:
            read(0)
        empty = np.zeros(0, dtype=np.int64)
        return deltas, (empty, empty, empty)
    count = np.bincount(site_row, minlength=rows)
    row, site, value = _decode_errors(read, site_p[site_entry], bound[site_entry], count)
    return deltas, (row, site_entry[site], value)


def _events(entries: list[_Entry], config: NoiseConfig, twirl_keys, trajectory_keys,
            streams: _Substreams, n: int) -> tuple:
    """Draw each row's twirl and noise and lay out what the rows run, in order.

    Row r draws its twirl from ``twirl_keys[r]`` (needed only when
    ``entries`` has twirl slots) and its dephasing and gate errors from
    ``trajectory_keys[r]``. Returns the events and the (rows, slots) twirl
    ids, or None without twirl slots. Events are ("op", op, vectors) for a gate
    every row shares, with ``vectors`` its point-by-point gate vectors
    or None; ("pauli", ids, qubit, duration) for a twirl Pauli, one id
    per row, 0 for none, lasting ``ONE_QUBIT_DURATION``; ("errors",
    rows, ids, qubit) for the error Paulis of the listed rows on one
    qubit, which last 0; and ("kick", qubit, angle per row) for
    dephasing, which a single row gets only where it has idle time. A
    coherent ZZ error is left to whoever runs a CNOT.
    """
    rows = len(trajectory_keys)
    present = np.ones((rows, len(entries)), dtype=bool)
    n_cnots = sum(1 for e in entries if e.slot is not None) // 4
    twirl = None
    if n_cnots:
        # slots are numbered in layout order
        twirl = _twirl_ids(streams, twirl_keys, n_cnots)
        present[:, [k for k, e in enumerate(entries) if e.slot is not None]] = twirl != 0

    dephasing = config.sigma_dephase > 0
    deltas, (hit_row, hit_entry, hit_value) = _trajectory_draws(
        streams, trajectory_keys, entries, present, config, n)
    order = np.argsort(hit_entry, kind="stable")
    hit_row, hit_entry, hit_value = hit_row[order], hit_entry[order], hit_value[order]
    hit_bounds = np.searchsorted(hit_entry, np.arange(len(entries) + 1)).tolist()

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
            events.append(("op", entry.op, entry.vectors))
            if entry.op.kind == "DELAY" and dephasing and entry.duration > 0:
                q = entry.qubits[0]
                events.append(("kick", q, 2.0 * deltas[:, q] * entry.duration))
        lo, hi = hit_bounds[k], hit_bounds[k + 1]
        if hi > lo:
            # both draws pick a non-identity Pauli: 1 + integers(0, 3) on a
            # one-qubit op, divmod(1 + integers(0, 15), 4) on a CNOT
            pick = hit_value[lo:hi] + 1
            ids = (pick >> 2, pick & 3) if len(entry.qubits) == 2 else (pick,)
            for q, pid in zip(entry.qubits, ids):
                events.append(("errors", hit_row[lo:hi], pid, q))
    events += kicks_at.get(len(entries), ())
    return events, twirl


def _chunk_steps(entries: list[_Entry], config: NoiseConfig, twirl_keys, trajectory_keys,
                 streams: _Substreams, n: int) -> list:
    """The events of the chunk's rows, with each run of Paulis as one frame.

    Row r twirls from ``twirl_keys[r]`` and draws its noise from
    ``trajectory_keys[r]``. Steps are ("op", op, vectors), ("frame",
    rows, m, z, e) for per-row Paulis, rows None for all rows, and the
    dephasing kicks.
    """
    steps: list = []
    qubits: list[int] = []
    starts: list[int] = []
    errors: list = []
    events, twirl = _events(entries, config, twirl_keys, trajectory_keys, streams, n)
    for event in events:
        if event[0] not in ("pauli", "errors"):
            steps.append(event)
            continue
        if not (steps and steps[-1][0] == "run"):
            starts.append(len(qubits))
            steps.append(("run", len(starts) - 1))
        if event[0] == "pauli":
            qubits.append(event[2])
        else:
            errors.append((len(starts) - 1, len(qubits), *event[1:]))
    if not starts:
        return steps

    # the twirl Paulis are the dense items, one per slot in slot order
    if twirl is None:
        twirl = np.zeros((len(trajectory_keys), 0), dtype=np.int8)
    frames = _merge_frames(twirl, qubits, starts, errors, n)
    rows = len(trajectory_keys)
    # each run's rows with a Pauli, all at once: a run that moves most
    # rows keeps its whole frame, the others keep their rows' entries
    run_of, row_of = np.nonzero(frames[0] | frames[1] | frames[2])
    bounds = np.searchsorted(run_of, np.arange(len(starts) + 1)).tolist()
    picked = [f[run_of, row_of] for f in frames]
    out = []
    for step in steps:
        if step[0] != "run":
            out.append(step)
            continue
        lo, hi = bounds[step[1]], bounds[step[1] + 1]
        if 2 * (hi - lo) > rows:
            out.append(("frame", None, *(f[step[1]] for f in frames)))
        elif hi > lo:
            out.append(("frame", row_of[lo:hi], *(f[lo:hi] for f in picked)))
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
    events, _ = _events(entries, config, twirl_keys, trajectory_keys, _Substreams(), circuit.n)
    for event in events:
        kind = event[0]
        if kind == "op":
            op = event[1]
            ops.append(op)
            if op.kind == "CNOT" and eps != 0.0:
                u, v = op.qubits
                ops += [GateOp("CNOT", (u, v), None, 0.0), GateOp("RZ", (v,), 2.0 * eps, 0.0),
                        GateOp("CNOT", (u, v), None, 0.0)]
        elif kind == "pauli":
            _, ids, q, duration = event
            if ids[0]:
                ops.append(GateOp(PAULI_KINDS[ids[0] - 1], (q,), None, duration))
        elif kind == "errors":
            _, _, ids, q = event
            if ids[0]:
                ops.append(GateOp(PAULI_KINDS[ids[0] - 1], (q,), None, 0.0))
        else:
            ops.append(GateOp("RZ", (event[1],), float(event[2][0]), 0.0))
    if len(ops) == len(circuit.ops):
        return circuit
    return Circuit(circuit.n, tuple(ops))


def _run_rows(n: int, steps: list, row_point: np.ndarray, epsilon: float) -> np.ndarray:
    """Run ``steps`` on a copy of |0...0> per entry of ``row_point``; returns the amplitudes.

    Row r belongs to point ``row_point[r]``, and a point's rows are
    adjacent. A step's gate vectors, when it has them, are taken for
    each row from its point's row of the stack, so every row gets the
    arithmetic of ``apply_rows`` at its own point's angle.
    """
    rows = len(row_point)
    amps = np.tile(zero_state(n).amplitudes, (rows, 1))
    cuts = np.flatnonzero(np.diff(row_point)) + 1
    # [lo, hi, a, b]: rows lo..hi-1 are points a..b-1, in equal shares
    segments: list[list[int]] = []
    for lo, hi, point in zip([0, *cuts], [*cuts, rows], row_point[np.r_[0, cuts]].tolist()):
        last = segments[-1] if segments else None
        if last and last[3] == point and (hi - lo) * (point - last[2]) == last[1] - last[0]:
            last[1], last[3] = hi, point + 1
        else:
            segments.append([lo, hi, point, point + 1])
    idx = np.arange(1 << n)
    sign = 2 * _parities(n)
    for step in steps:
        kind = step[0]
        if kind == "op":
            op, vectors = step[1], step[2]
            if vectors is None:
                amps = apply_rows(amps, n, op)
            else:
                amps = apply_vectors(amps, n, op.qubits[0], [
                    (lo, hi, tuple(v[a:b] for v in vectors)) for lo, hi, a, b in segments])
            if epsilon != 0.0 and op.kind == "CNOT":
                amps = amps * _zz_diag(n, *op.qubits, epsilon)
            continue
        # A frame or kick leaves its identity rows (no Pauli, no idle time)
        # alone; it skips them only when they are most rows (a frame's
        # rows come with it from _chunk_steps).
        if kind == "frame":
            sel, m, z, e = step[1:]
            if sel is None:
                sel = np.arange(rows)
            part = np.take(amps, (sel << n)[:, None] + (idx ^ m[:, None]))
            if sel.size < rows:
                part *= _UNITS[(e[:, None] + sign[idx & z[:, None]]) & 3]
            elif z.any() or e.any():
                # across all rows, a run's Paulis take few distinct phases:
                # each distinct (z, e) row of units is built once
                key, which = np.unique((z << 2) | e, return_inverse=True)
                part *= _UNITS[((key & 3)[:, None] + sign[idx & (key >> 2)[:, None]]) & 3][which]
        else:
            q, angle = step[1], step[2]
            sel = np.flatnonzero(angle)
            if 2 * sel.size > rows:
                sel = np.arange(rows)
            w = np.exp(0.5j * angle[sel])
            # RZ(angle) on q: w where q's bit is 1, its conjugate where 0
            diagonal = np.stack([w.conjugate(), w], axis=1)[:, _bit_values(n, q)]
            if sel.size == rows:
                amps *= diagonal  # amps is this function's own array
                continue
            part = amps[sel] * diagonal
        if sel.size == rows:
            amps = part
        else:
            amps[sel] = part
    return amps


def _readout_flips(streams: _Substreams, keys, width: int, p: float) -> np.ndarray:
    """(shots, width) readout flips: bit j of shot i flips when the j-th
    ``random()`` of ``keys[i]``, shot i's readout substream, is below ``p``."""
    return _uniforms(streams.raw(keys, width)) < p


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


def sample(base: Circuit, config: NoiseConfig, shots: int, seeds, angles=None) -> np.ndarray:
    """Basis-index tallies, one row of length 2^n per point, of ``shots`` trajectories each.

    ``base`` is a circuit with any DD pulses in it. Point j runs it under
    ``seeds[j]``, with its RX and RZ angles, in op order, replaced by
    ``angles[j]`` when that is given. The k points' shots are the rows of
    one chunked array, point j's at j * shots onwards, and shot i of
    point j draws its twirl, noise, measurement and readout flips from
    ``seeds[j]`` exactly as shot i of a one-point call does: each tally
    equals that call's.
    """
    n = base.n
    k = len(seeds)
    entries = _layout(base, config.twirling)
    if angles is not None:
        angles = np.asarray(angles, dtype=float)
        if len(angles) != k:
            raise ValueError(f"{len(angles)} rows of angles for {k} seeds")
        entries = _point_angles(entries, angles, n)
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
