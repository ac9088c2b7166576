"""Per-shot noise: the draws of every shot, and the batched engine that runs them.

This module turns (seed, stream, shot) into every shot's twirl Paulis,
gate errors, dephasing kicks and readout flips, through the ``rng``
rules that make words into values. A ``Plan`` lays out a circuit, with
its DD pulses, once. ``_chunk_steps`` walks that
layout and draws, for each row (one per shot), its twirl from the twirl
substream, its gate errors from the trajectory substream and its
dephasing rates from the dephasing substream. Every row's words come
from one vectorized Philox (``rng.philox_raw``). Gate errors cost per
error, not per site: ``_gate_errors`` runs an exponential race over the
cumulative rates of the error sites, which every row shares, one word
to reach the next hit and one for its Pauli (Gidney, arXiv 2103.02202,
draws the gap to the next error the same way), and drops a hit on a
twirl slot that the row leaves empty. ``_dephasing`` takes the rates
by Box-Muller. The result is one ordered step list, one step kind per
effect (a shared gate, a Pauli, a dephasing kick, a coherent ZZ), and
it is all that ``_run_rows`` and ``realize`` read.

``sample`` is the noisy engine, on one plan per ``objective.Engine``.
It takes k points at once, each a seed and a row of RX and RZ angles
for the circuit, and runs their k * shots trajectories as the rows of
one (rows, 2^n) complex array, in chunks. ``_run_rows`` keeps a Pauli
frame per row (Knill, Nature 434, 2005; Gidney, arXiv 2103.02202): a
Pauli step only updates the frames. The rows share one array row
until the first step that treats them apart, so the H layer and the
CNOTs before it run once. An H runs through ``statevec.apply_rows``,
the kernel ``simulate_ops`` runs too. A CNOT moves no amplitude: it
goes into a pending index permutation, which every diagonal reads
through its inverse, and the columns return to basis order before the
next H or RX and at the end. H and CNOT pass the frames exactly. A
rotation, a dephasing kick or a coherent ZZ runs on every row, and
every factor it multiplies by is a ``statevec.rotation_pairs`` pair,
read by one rule from a (2P, 2) table of P pairs over their
conjugates: row r takes table row flip_r * P + base_r, where base_r
is its point, or for a kick the row itself, and flip_r is 1 when its
frame anticommutes with the rotation. RX, RZ and the coherent ZZ read
per-point tables from ``_point_angles``; a chunk's kicks read per-row
tables made by one call, one per distinct qubit and idle time. An RZ,
a kick and a ZZ are one diagonal, a Z rotation on the parity of one
or two qubits' bits. Every row's products are written into one
scratch array beside the amplitudes, so a step allocates no array of
them.
A row's final frame is never applied: only its X part moves a
probability, so ``_frame_probs`` reads each row's probabilities at
its flipped indices, and each chunk's shots are one
``statevec.measure_rows`` call on those and the rows' ``sample_draws``.
``sample`` returns each point's shots as ascending basis indices.
``plan.per_shot`` alone decides how many rows a point has: one per
shot, or, when no shot differs from another but by its point's angles,
one row that takes all of the point's draws. Either way a chunk holds
``_CHUNK_BYTES`` of amplitudes, or one row. A point's draws depend only
on its seed, so its shots do not depend on the batch around it.

``realize`` renders one row of the same step list as a ``Circuit``,
which is what ``noise.twirl_circuit`` and ``noise.apply_trajectory_noise``
return. A shot's readout flips are ``rng.below`` of its readout words,
as ``noise.apply_readout_error`` draws them. Every row's amplitudes,
with its final frame applied, equal, bit for bit, those of ``simulate_ops`` on that shot's rendered circuit:
moving a Pauli past a gate only permutes, negates or conjugates the
factors of each product, a pending permutation only moves where each
product happens, and a Y's factor 1j reaches the amplitudes before the
next diagonal product, as it does there (``_settle``). The frame's
signs and power of 1j then change no bit of a squared modulus, so the
probabilities a shot is drawn from are those of the rendered circuit.

``noise`` and ``objective`` import this module when they first need it,
so work that never samples with noise does not load it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import noise, rng
from .ansatz import ONE_QUBIT_DURATION, Circuit
from .noise import PAULI_KINDS, NoiseConfig
from .statevec import (ROTATION_KINDS, GateOp, _bit_values, _cnot_perm, _x_perm, apply_rows,
                       measure_rows, rotation_pairs, sample_draws, zero_state)

# Bytes of amplitudes simulated at once: a chunk holds this many bytes'
# worth of rows (2048 at n = 5, so a 16-point batch of 128 per-shot
# rows), and at least one.
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
# the Paulis of twirl draw v, in slot order: v >> 2, v & 3 and its image's
_TWIRL_SLOTS = np.stack([np.arange(16) >> 2, np.arange(16) & 3,
                         _TWIRL_IMAGE >> 2, _TWIRL_IMAGE & 3], axis=-1)


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
    leaves empty.
    """

    qubits: tuple[int, ...]
    duration: float
    op: GateOp | None
    slot: int | None


def _layout(ops, twirling: bool) -> list[_Entry]:
    entries: list[_Entry] = []
    cnots = 0
    for op in ops:
        if not (twirling and op.kind == "CNOT"):
            entries.append(_Entry(op.qubits, op.duration, op, None))
            continue
        control, target = op.qubits
        slots = [_Entry((q,), ONE_QUBIT_DURATION, None, 4 * cnots + s)
                 for s, q in enumerate((control, target, control, target))]
        entries += slots[:2] + [_Entry(op.qubits, op.duration, op, None)] + slots[2:]
        cnots += 1
    return entries


# A word w gives U = ((w >> 11) + 1) * 2**-53 in (0, 1], so E = -log(U) is at
# most 53 log 2 < 37: a site of rate 64 is never passed by a race.
_SURE = 64.0
_11, _53 = np.uint64(11), np.uint64(53)


def _unit(words: np.ndarray) -> np.ndarray:
    """U = ((w >> 11) + 1) * 2**-53 in (0, 1] of each word: never 0, so log(U) is finite."""
    return ((words >> _11) + np.uint64(1)) * 2.0**-53


def _reach(p: np.ndarray) -> np.ndarray:
    """The cumulative rates of sites hit with probabilities ``p``, in order.

    Site i has rate -log(1 - p_i), so an Exp(1) draw passes it with
    probability 1 - p_i; a site with p = 1 gets ``_SURE``, which no draw
    passes.
    """
    rate = -np.log1p(-np.where(p < 1.0, p, 0.0))
    rate[p == 1.0] = _SURE
    return np.cumsum(rate)


def _gate_errors(plan, keys: np.ndarray, twirl) -> tuple:
    """Each row's gate errors, by an exponential race over the plan's sites.

    A row reads the words of its trajectory key in turn. A word gives
    E = -log(U) (``_unit``), and the row's next hit is the first site
    whose cumulative rate (``plan.reach``) exceeds the row's position
    plus E; the position moves to that site's cumulative rate. The next
    word w picks the hit's Pauli, ((w >> 11) * bound) >> 53, below the
    site's ``plan.bound``. The race ends when E passes the last site. An
    exponential clock forgets how long it ran, so each site is hit with
    its own probability, independently of the others. A hit on a twirl
    slot that the row's ``twirl`` ids (rows, slots) leave empty is
    dropped. Every live row hits once a step, so all read the same word;
    those still racing when the words run out read again, wider.
    Returns (row, entry index, value) arrays of the hits, sorted by entry,
    of the one or more rows of ``keys``.
    """
    rows, reach = len(keys), plan.reach
    words = rng.philox_raw(keys, plan.width)
    live, at, pos = np.arange(rows), np.zeros(rows), 0
    found = []
    while live.size:
        if pos + 2 > words.shape[1]:
            words = np.empty((rows, 2 * words.shape[1]), dtype=np.uint64)
            words[live] = rng.philox_raw(keys[live], words.shape[1])
        site = np.searchsorted(reach, at - np.log(_unit(words[live, pos])), side="right")
        hit = site < len(reach)
        live, site = live[hit], site[hit]
        found.append((live, site, ((words[live, pos + 1] >> _11) * plan.bound[site]) >> _53))
        at, pos = reach[site], pos + 2
    row, site, value = (np.concatenate(column) for column in zip(*found))
    if twirl is not None:
        slot = plan.site_slot[site]
        keep = (slot < 0) | (twirl[row, slot] != 0)
        row, site, value = row[keep], site[keep], value[keep]
    order = np.argsort(site, kind="stable")
    return row[order], plan.sites[site[order]], value[order].astype(np.int64)


def _dephasing(keys: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """Each row's quasi-static dephasing rates, normal(0, sigma) per qubit: (rows, n).

    Box-Muller on the words of each row's dephasing key: words 2j and
    2j + 1 give U1 (``_unit``) and U2 (``rng.doubles``), and with
    R = sqrt(-2 log U1) the normals R cos(2 pi U2) and R sin(2 pi U2) of
    qubits 2j and 2j + 1, each times sigma.
    """
    words = rng.philox_raw(keys, n + n % 2)
    radius = np.sqrt(-2.0 * np.log(_unit(words[:, 0::2])))
    angle = 2.0 * np.pi * rng.doubles(words[:, 1::2])
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return sigma * normals.reshape(len(keys), -1)[:, :n]


def _idle_kicks(entries, n: int, twirl: np.ndarray | None = None) -> list:
    """Idle time that trajectory noise turns into dephasing kicks, per row.

    Walks the ASAP schedule of each row's own twirled circuit: every row
    holds every entry but the twirl slots, and row r holds slot j when
    ``twirl[r, j]`` is not 0; with no ``twirl``, there is one row. An
    entry needs ``qubits``, ``duration``, ``slot`` and ``op``. Returns
    (entry index, qubit, duration per row) in application order, a kick
    going just before its entry, with entry index ``len(entries)`` for
    trailing idle time. As ``NoiseConfig`` states, idle time goes to the
    next op on its qubit, whatever that op's duration, idle time after a
    qubit's last op is trailing, and DELAY k is kicked at k + 1. A
    one-qubit op starts when its qubit is ready, so only a two-qubit op
    (never a twirl slot) leaves one of its qubits idle.
    """
    rows = 1 if twirl is None else len(twirl)
    ready = [np.zeros(rows) for _ in range(n)]
    makespan = np.zeros(rows)  # never below any qubit's ready time
    kicks = []
    for k, entry in enumerate(entries):
        if len(entry.qubits) == 1:
            q = entry.qubits[0]
            if entry.slot is None:
                ready[q] = ready[q] + entry.duration
                if entry.op.kind == "DELAY" and entry.duration > 0:
                    kicks.append((k + 1, q, np.full(rows, entry.duration)))
            else:
                ready[q] = ready[q] + entry.duration * (twirl[:, entry.slot] != 0)
            np.maximum(makespan, ready[q], out=makespan)
            continue
        start = np.maximum(*(ready[q] for q in entry.qubits))
        end = start + entry.duration
        for q in sorted(entry.qubits):
            dur = start - ready[q]
            if dur.any():
                kicks.append((k, q, dur))
            ready[q] = end
        np.maximum(makespan, end, out=makespan)
    for q in range(n):
        dur = makespan - ready[q]
        if dur.any():
            kicks.append((len(entries), q, dur))
    return kicks


class Plan:
    """What ``sample`` needs of a circuit and a noise config, worked out once.

    The noisy twin of ``ansatz.HalfPlan``. ``entries`` lay out the
    circuit's ops with the config's DD pulses in it, twirled when the
    config twirls; no op is checked again, as the circuit checked its
    own and ``noise._dressed`` makes the pulses. ``rotations`` are its
    RX and RZ entries (``rx`` marks the RX ones), ``columns`` the angle
    column of each in the given circuit's op order (the pulses put
    the ops in start order), and ``slots`` its twirl slots. ``sites``
    are the entries that may draw a gate error, with the cumulative rate
    (``reach``) that ``_gate_errors`` races over, the ``bound`` of each
    Pauli value and the twirl slot of each (``site_slot``, -1 for none);
    ``width`` is the words a race reads at first. ``kicks`` is every
    shot's ``_idle_kicks`` when the config dephases and no twirl moves
    them, else None; ``per_shot``, whether the plan has twirl slots,
    error sites or dephasing, says whether the shots of a point differ
    at all, which alone decides how ``sample`` shares rows.
    """

    __slots__ = ("n", "config", "entries", "rotations", "rx", "columns", "slots", "sites",
                 "reach", "bound", "site_slot", "width", "kicks", "per_shot")

    def __init__(self, circuit: Circuit, config: NoiseConfig):
        ops, order = circuit.ops, range(len(circuit.ops))
        rotation = [op.kind in ROTATION_KINDS for op in ops]
        if config.dd:
            ops, order = noise._dressed(circuit, config.dd_sequence)
        rank = np.cumsum(rotation) - 1
        self.columns = np.array([rank[i] for i in order if rotation[i]], dtype=np.intp)
        self.n, self.config = circuit.n, config
        self.entries = entries = _layout(ops, config.twirling)
        self.rotations = [k for k, e in enumerate(entries)
                          if e.op is not None and e.op.kind in ROTATION_KINDS]
        self.rx = np.array([entries[k].op.kind == "RX" for k in self.rotations], dtype=bool)
        self.slots = [k for k, e in enumerate(entries) if e.slot is not None]
        # an error site per gate: p2q after a CNOT, p1q after any other gate
        # but DELAY and after every twirl slot, filled or not
        site_p = np.zeros(len(entries))
        bound = np.zeros(len(entries), dtype=np.uint64)
        for k, entry in enumerate(entries):
            if entry.op is not None and entry.op.kind == "CNOT":
                site_p[k], bound[k] = config.p2q, 15
            elif entry.op is None or entry.op.kind != "DELAY":
                site_p[k], bound[k] = config.p1q, 3
        self.sites = sites = np.flatnonzero(site_p > 0)
        self.reach, self.bound = _reach(site_p[sites]), bound[sites]
        self.site_slot = np.array([-1 if entries[k].slot is None else entries[k].slot
                                   for k in sites], dtype=np.intp)
        # words for a race of mean + 4 sd hits, two a hit and one to end it
        mean = site_p.sum()
        self.width = 2 * (math.ceil(mean + 4.0 * math.sqrt(mean)) + 1)
        dephasing = config.sigma_dephase > 0
        self.kicks = _idle_kicks(entries, self.n) if dephasing and not self.slots else None
        self.per_shot = bool(self.slots) or bool(sites.size) or dephasing


def _twirl_ids(keys: np.ndarray, n_cnots: int) -> np.ndarray:
    """Each shot's twirl Paulis as ids of shape (shots, 4 * CNOTs).

    CNOT j's four columns hold the Paulis before its control, before its
    target, after its control and after its target.
    """
    # integers(0, 16, size) takes 32-bit half words, the low half first,
    # keeps their top four bits, and never rejects.
    words = np.asarray(rng.philox_raw(keys, (n_cnots + 1) // 2), dtype="<u8")
    draws = words.view("<u4")[:, :n_cnots] >> np.uint32(28)
    return np.take(_TWIRL_SLOTS, draws, axis=0).reshape(len(keys), -1)


def _chunk_steps(plan: Plan, tables: dict, twirl_keys, trajectory_keys, dephase_keys) -> list:
    """Draw each row's twirl and noise and lay out what the rows run, in order.

    Row r draws its twirl from ``twirl_keys[r]``, its gate errors from
    ``trajectory_keys[r]`` and its dephasing rates from
    ``dephase_keys[r]``; each is needed only when the plan has twirl
    slots, error sites or dephasing. There is one step kind per effect:
    ("op", op, table) for a shared gate other than a Pauli, with the
    entry's table in ``tables`` (from ``_point_angles``) or None;
    ("pauli", rows, ids, qubit, duration) for every Pauli, with an id
    per listed row, or for all rows when rows is None, and 0 for none;
    ("kick", qubit, angle per row, table) for each of ``_idle_kicks``, 0
    on a row without idle time there, with the (2 * rows, 2) table of
    the RZ ``rotation_pairs`` of those angles over their conjugates:
    kicks of one qubit and one idle time share their angles and table,
    and one call makes the pairs of the chunk; and ("zz", cnot, epsilon,
    table) after each CNOT when the config has a coherent ZZ error, with
    the ``"zz"`` table in ``tables``. A Pauli gate or DD pulse is one id
    for all rows, with its own duration; a twirl slot holds an id per
    row and lasts ``ONE_QUBIT_DURATION``; a drawn error lists its rows
    and lasts 0.
    """
    n, entries, slots = plan.n, plan.entries, plan.slots
    # slots are numbered in layout order
    twirl = _twirl_ids(twirl_keys, len(slots) // 4) if slots else None
    if plan.sites.size:
        hit_row, hit_entry, hit_value = _gate_errors(plan, trajectory_keys, twirl)
    else:
        hit_row = hit_entry = hit_value = np.zeros(0, dtype=np.int64)
    hit_bounds = np.searchsorted(hit_entry, np.arange(len(entries) + 1)).tolist()

    kicks_at: dict[int, list] = {}
    if plan.config.sigma_dephase > 0:
        deltas = _dephasing(dephase_keys, n, plan.config.sigma_dephase)
        kicks = plan.kicks
        if kicks is None:  # each row idles where its own twirl leaves it
            kicks = _idle_kicks(entries, n, twirl)
        # one column of angles and of [pairs; conjugates] per distinct (qubit, duration)
        angle = {}
        for _, q, dur in kicks:
            if (q, dur.tobytes()) not in angle:
                angle[q, dur.tobytes()] = 2.0 * deltas[:, q] * dur
        angles = np.reshape(list(angle.values()), (len(angle), len(deltas)))
        pairs = rotation_pairs("RZ", angles)
        columns = dict(zip(angle, zip(angles, np.concatenate([pairs, pairs.conjugate()], 1))))
        for k, q, dur in kicks:
            kicks_at.setdefault(k, []).append(("kick", q, *columns[q, dur.tobytes()]))

    epsilon = plan.config.epsilon_coherent
    steps: list = []
    for k, entry in enumerate(entries):
        steps += kicks_at.get(k, ())
        op = entry.op
        if op is None:
            steps.append(("pauli", None, twirl[:, entry.slot], entry.qubits[0], entry.duration))
        elif op.kind in PAULI_KINDS:
            steps.append(("pauli", None, PAULI_KINDS.index(op.kind) + 1, op.qubits[0], op.duration))
        else:
            steps.append(("op", op, tables.get(k)))
            if op.kind == "CNOT" and epsilon != 0.0:
                steps.append(("zz", op, epsilon, tables.get("zz")))
        lo, hi = hit_bounds[k], hit_bounds[k + 1]
        if hi > lo:
            # a hit's value picks a non-identity Pauli: 1 + value (below 3)
            # on a one-qubit op, divmod(1 + value (below 15), 4) on a CNOT
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
    when that is given. A "kick" renders as an RZ of its angle and a
    "zz" as CNOT, RZ(2 epsilon) on the target, CNOT. Inserted ops have
    duration 0, but for twirl Paulis. ``circuit`` itself is returned
    when nothing is inserted.
    """
    plan = Plan(circuit, replace(config, dd=False, twirling=twirl_seed is not None))
    twirl_keys = None if twirl_seed is None else [rng.derive_key(twirl_seed, rng.STREAM_TWIRL)]
    keys = [rng.derive_keys(seed, stream, [shot])
            for stream in (rng.STREAM_TRAJECTORY, rng.STREAM_DEPHASE)]
    ops: list[GateOp] = []
    for step in _chunk_steps(plan, {}, twirl_keys, *keys):
        kind = step[0]
        if kind == "op":
            ops.append(step[1])
        elif kind == "pauli":
            _, _, ids, q, duration = step
            pid = np.ravel(ids)[0]
            if pid:
                ops.append(GateOp(PAULI_KINDS[pid - 1], (q,), None, duration))
        elif kind == "zz":
            (u, v), epsilon = step[1].qubits, step[2]
            ops += [GateOp("CNOT", (u, v), None, 0.0), GateOp("RZ", (v,), 2.0 * epsilon, 0.0),
                    GateOp("CNOT", (u, v), None, 0.0)]
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
    ``simulate_ops`` has them. With no odd row it returns at once, and
    with every row odd it multiplies the whole array: the same product
    per amplitude as the masked one. Updates ``amps`` and ``frame`` in
    place.
    """
    odd = frame & 1 << 2 * n
    if odd.any():
        np.multiply(amps, 1j, out=amps, where=True if odd.all() else odd[:, None] != 0)
        frame -= odd


def _run_rows(n: int, steps: list, row_point: np.ndarray) -> tuple:
    """Run ``steps`` on a copy of |0...0> per entry of ``row_point``: (amplitudes, frames).

    Row r belongs to point ``row_point[r]``. It reads nothing but the
    steps of ``_chunk_steps``. The rows share one array row until the
    first step that treats them apart, a rotation, a kick or a "zz", so
    an H or CNOT before it runs once. A CNOT only permutes amplitudes, so
    it leaves the array alone and goes into a pending permutation: basis
    index i of every row sits in column ``perm[i]``. A diagonal
    multiplies column j by its entry ``inv[j]``, with ``inv`` the
    inverse of ``perm``, so every amplitude meets the factor it meets in
    basis order, in the same operand order. The columns are put back in
    basis order before an H or RX, which mix them, and at the end. Every
    RX, RZ, kick and "zz" step carries a (2P, 2) table of P pairs over
    their conjugates, and row r takes table row flip_r * P + base_r:
    base_r is its point (``row_point[r]``), or r itself for a kick, and
    flip_r is 1 when its frame anticommutes with the rotation, so every
    row gets the arithmetic of ``apply_rows`` at its own angle. For an
    RX, flip_r is the frame's Z bit on the qubit. An RZ, a kick and a
    "zz" are one diagonal, a Z rotation on the parity of its qubits'
    bits: flip_r is the parity of the frame's X bits on them, and one
    statement multiplies every row by its pair at the parity of each
    column's basis index. A per-point table is gathered over columns
    first and a per-row one over rows first, which read the same
    values. A "pauli" step goes into its rows' frames. Every
    diagonal, the partner operand of an RX and the columns put back in
    basis order are written into one scratch array the shape of the
    amplitudes, with the two arrays trading places after a move, so a
    step allocates no array of amplitudes.

    Returns the (rows, 2^n) amplitudes ``a`` in basis order and each
    row's final frame, which are not applied: the row's state is
    1j**e (-1)**popcount(i & z) a[i ^ m], and only m changes what a
    measurement sees (``_frame_probs``).
    """
    rows = len(row_point)
    # the one row all rows share, until they split, and its scratch row
    amps, buf = zero_state(n)[None], np.empty((1, 1 << n), dtype=complex)
    frame = np.zeros(rows, dtype=np.int64)
    identity, own = np.arange(1 << n), np.arange(rows)  # own: a per-row table's rows
    perm = inv = identity

    def take(values, index, axis):
        """``np.take`` into ``buf``: every index is in range, and mode "raise" buffers ``out``."""
        return np.take(values, index, axis=axis, out=buf, mode="wrap")

    def in_basis(amps):
        """(amplitudes in basis order, scratch): the two trade places after a move."""
        moved = perm is not identity and (perm != identity).any()
        return (take(amps, perm, 1), amps) if moved else (amps, buf)

    # whether a frame may hold an odd power of 1j: set by every Pauli, as
    # _settle changes no bit of a row whose frame is even
    odd = False
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
        what = step[1].kind if kind == "op" else kind
        diagonal = what in ("kick", "zz", "RZ")
        rotation = diagonal or what == "RX"
        if len(amps) < rows and rotation:
            amps, buf = np.repeat(amps, rows, axis=0), np.empty((rows, 1 << n), dtype=complex)
        if odd and diagonal:
            _settle(amps, frame, n)  # amps is this function's own array
            odd = False
        if what in ("H", "RX"):
            amps, buf = in_basis(amps)
            perm = inv = identity
        qubits = (step[1],) if kind == "kick" else step[1].qubits
        s, t = n - 1 - qubits[0], n - 1 - qubits[-1]
        if what == "CNOT":
            cnot = _cnot_perm(n, *qubits)
            perm, inv = perm[cnot], cnot[inv]
            # X on the control spreads to the target, Z on the target to the control
            frame ^= (((frame >> s) & 1) << t) | (((frame >> (n + t)) & 1) << (n + s))
        elif what == "H":
            amps = apply_rows(amps, n, step[1])
            # H swaps the X and Z of its qubit, and H Y H = -Y
            mq, zq = (frame >> s) & 1, (frame >> (n + s)) & 1
            frame = (frame ^ (mq ^ zq) * (1 << s | 1 << (n + s))) + ((mq & zq) << (2 * n + 1))
        elif rotation:
            # past a frame that anticommutes with it, a rotation is its
            # inverse, the conjugate pair: an RX past a Z or Y on its qubit,
            # a Z rotation on the parity of its qubits past an odd number of
            # Xs and Ys on them
            table = step[-1]
            bits = frame >> n if what == "RX" else frame
            flip = bits >> s if s == t else bits >> s ^ bits >> t
            pick = (flip & 1) * (len(table) // 2) + (own if kind == "kick" else row_point)
            if what == "RX":
                # apply_rows' RX products, in place, with each of an RX's
                # two vectors held as its one value per row
                pair = np.take(table, pick, axis=0)
                flipped = take(amps, _x_perm(n, qubits[0]), 1)
                flipped *= pair[:, 1:]
                amps *= pair[:, :1]
                amps += flipped
                continue
            # the pair at the parity of each column's basis index, gathered over
            # columns first from a per-point table and over rows first from a
            # per-row one: the same values either way
            index = (pick, _bit_values(n, *qubits)[inv])
            axis = int(len(table) < 2 * rows)
            amps *= take(np.take(table, index[axis], axis=axis), index[1 - axis], 1 - axis)
    amps, _ = in_basis(amps)
    return np.repeat(amps, rows, axis=0) if len(amps) < rows else amps, frame


def _frame_probs(amps: np.ndarray, frame: np.ndarray, n: int) -> np.ndarray:
    """The (rows, 2^n) basis probabilities of ``_run_rows``' amplitudes under their frames.

    A frame's Z signs and power of 1j change no modulus, so row r's
    probability of index i is |a[i ^ m]|^2, with m the X part of its
    frame: the bits of ``np.abs`` of the framed amplitudes, squared.
    """
    probs = np.abs(amps) ** 2
    m = frame & ((1 << n) - 1)
    if not m.any():
        return probs
    index = (np.arange(len(m)) << n)[:, None] + (np.arange(1 << n) ^ m[:, None])
    return np.take(probs, index)


def _point_angles(plan: Plan, angles: np.ndarray) -> dict:
    """Each RX or RZ entry's scalars at every point, as a (2k, 2) table, and the ZZ's.

    Row j of the table is point j's ``rotation_pairs`` pair, and row
    k + j its conjugate, read for all entries and points at once by one
    call per kind, so ``apply_rows`` multiplies by the same bits. Entry
    ``plan.rotations[c]`` takes column ``plan.columns[c]`` of the (k, R)
    ``angles``. Key ``"zz"`` holds RZ(2 epsilon)'s pair at every point,
    the coherent ZZ of the plan's config, read in the same RZ call.
    """
    if angles.shape != (len(angles), len(plan.columns)):
        raise ValueError(f"angles of shape {angles.shape} do not fit {len(plan.columns)} rotations")
    zz = np.full(len(angles), 2.0 * plan.config.epsilon_coherent)
    angles, rx = np.column_stack([angles[:, plan.columns], zz]), np.append(plan.rx, False)
    pairs = np.empty(angles.shape + (2,), dtype=complex)
    pairs[:, rx] = rotation_pairs("RX", angles[:, rx])
    pairs[:, ~rx] = rotation_pairs("RZ", angles[:, ~rx])
    tables = np.concatenate([pairs, pairs.conjugate()])
    return {k: tables[:, c] for c, k in enumerate([*plan.rotations, "zz"])}


def sample(plan: Plan, shots: int, seeds, angles) -> np.ndarray:
    """Ascending basis-index shots, (k, shots), of ``shots`` trajectories for each of k points.

    Point j runs the plan's circuit under ``seeds[j]``, with the RX and
    RZ angles of the circuit it was built from, in op order, replaced by
    ``angles[j]`` of the (k, R) array ``angles``. Shot i of point j draws
    its twirl, noise, measurement and readout flips from ``seeds[j]``
    exactly as shot i of a one-point call does, and row j is sorted after
    the readout flips: each row equals that call's. The points' rows run
    in chunks of one array, each measured by one ``measure_rows`` call: a
    ``plan.per_shot`` plan has ``shots`` rows per point, point j's at
    j * shots onwards, each with its one draw, and any other one row per
    point with all of its ``shots`` draws. No seeds give a (0, shots)
    array.
    """
    n, config = plan.n, plan.config
    k = len(seeds)
    angles = np.asarray(angles, dtype=float)
    if len(angles) != k:
        raise ValueError(f"{len(angles)} rows of angles for {k} seeds")
    if k == 0:
        return np.zeros((0, shots), dtype=np.int64)
    tables = _point_angles(plan, angles)
    point_seeds, index = np.array(seeds, dtype=np.uint64)[:, None], np.arange(shots)

    def keys(stream: int) -> np.ndarray:
        return rng.derive_keys(point_seeds, stream, index).ravel()

    twirl_keys = rng.derive_keys(keys(rng.STREAM_TWIRL), rng.STREAM_TWIRL) if plan.slots else None
    trajectory_keys = keys(rng.STREAM_TRAJECTORY) if plan.sites.size else None
    dephase_keys = keys(rng.STREAM_DEPHASE) if config.sigma_dephase > 0 else None
    per_point = shots if plan.per_shot else 1  # array rows per point
    draws = sample_draws(seeds, shots).reshape(k * per_point, -1)
    point = np.repeat(np.arange(k), per_point)
    chunk = max(1, _CHUNK_BYTES // (16 << n))
    outcomes = np.empty(draws.shape, dtype=np.int64)
    for lo in range(0, len(draws), chunk):
        hi = lo + chunk
        steps = _chunk_steps(plan, tables, *(None if part is None else part[lo:hi] for part in
                                             (twirl_keys, trajectory_keys, dephase_keys)))
        probs = _frame_probs(*_run_rows(n, steps, point[lo:hi]), n)
        outcomes[lo:hi] = measure_rows(probs, draws[lo:hi])
    outcomes = outcomes.ravel()  # shot i of point j at j * shots + i
    if config.p_readout > 0:
        flips = rng.below(rng.philox_raw(keys(rng.STREAM_READOUT), n), config.p_readout)
        outcomes ^= flips @ (1 << np.arange(n - 1, -1, -1))
    return np.sort(outcomes.reshape(k, shots), axis=1)
