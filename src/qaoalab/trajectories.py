"""Per-shot noise: the draws of every shot, and the batched engine that runs them.

This module turns (seed, stream, shot) into every shot's twirl Paulis,
gate errors, dephasing kicks and readout flips, through the ``rng``
rules that make words into values. A row (one per shot) draws its twirl
from the twirl substream, its gate errors from the trajectory substream
and its dephasing rates from the dephasing substream, every row's words
from one vectorized Philox (``rng.philox_raw``). Gate errors cost per
error, not per site: ``_gate_errors`` runs an exponential race over the
cumulative rates of the error sites, which every row shares, one word
to reach the next hit and one for its Pauli (Gidney, arXiv 2103.02202,
draws the gap to the next error the same way), and drops a hit on a
twirl slot that the row leaves empty. ``_dephasing`` takes the rates by
Box-Muller. ``_chunk_draws`` alone makes a chunk's draws, with the
tables of its dephasing kicks, for the engine and its reference alike.

A ``Plan`` lays out a circuit, with its DD pulses, once, and compiles
it (``_compile``). Its amplitude program is the H, RX and diagonal
steps alone; an RZ, a dephasing kick and a coherent ZZ are each a
diagonal term, a Z rotation on the parity of one or two qubits' bits.
A Pauli, a CNOT or a DELAY touches no amplitude: each row keeps a Pauli
frame (Knill, Nature 434, 2005), and every update of the frame's X and
Z bits is an XOR, so everything the program reads of a frame is
linear over GF(2) in the Paulis put in: an RX reads its qubit's Z bit,
a diagonal term the parity of its qubits' X bits, and a measurement
the final X bits. These are a row's events. One backward pass over the
layout tells, for every place a Pauli goes, which events its X and Z
flip, a Y flipping those of both, as a detector error model does
(Gidney, arXiv 2103.02202); the plan folds that into a constant for
the circuit's own Paulis and DD pulses, 16 entries per twirled CNOT
and 3 or 15 per error site. A CNOT also goes into a pending index
permutation, which every diagonal reads through its inverse and an RX
reads its partner columns through; the columns return to basis order
before the next H and at the end. The diagonal terms of a segment
(those between two mixing steps, H or RX) commute, and those that read
one parity mask are one diagonal step: the phase polynomial of the
segment (Amy, Maslov & Mosca, arXiv 1303.2042).

``sample`` is the noisy engine, on one plan per ``objective.Engine``.
It takes k points at once, each a seed and a row of RX and RZ angles
for the circuit, and runs their k * shots trajectories as the rows of
one (rows, 2^n) complex array, in chunks (``_run_chunk``). A row's
event bits are the constant XOR its CNOTs' entries at its twirl draws
XOR its hits' entries, and the walk then runs the program only. The
rows share one array row until the first RX or diagonal, so the H
layer runs once. Every factor a rotation multiplies by is a
``statevec.rotation_pairs`` pair, read by one rule from a (2P, 2)
table of P pairs over their conjugates: row r takes table row flip_r *
P + base_r, where base_r is its point, or for a kick the row itself,
and flip_r is the event that says its frame anticommutes with the
rotation. RX, RZ and the coherent ZZ read per-point tables from
``_point_angles``; a chunk's kicks read per-row tables made by one
call, one per distinct qubit and idle time. A diagonal step multiplies
by the product of its terms' pairs, one multiply per step. Every
step's gathered factors are written into one scratch array beside the
amplitudes. A row's final frame is never applied: only its X part
moves a probability, so ``_frame_probs`` reads each row's
probabilities at its flipped indices, and each chunk's shots are one
``statevec.measure_rows`` call on those and the rows' ``sample_draws``.
``sample`` returns each point's shots as ascending basis indices.
``plan.per_shot`` alone decides how many rows a point has: one per
shot, or, when no shot differs from another but by its point's angles,
one row that takes all of the point's draws. Either way a chunk holds
``_CHUNK_BYTES`` of amplitudes, or one row. A point's draws depend only
on its seed, so its shots do not depend on the batch around it.

``_chunk_steps`` lays the same ``_chunk_draws`` out as one ordered
step list, one step kind per effect (a shared gate, a Pauli, a
dephasing kick, a coherent ZZ). It is the reference the engine is
checked against: the tests walk it with a frame per row, and
``realize`` renders one row of it as a ``Circuit``, which is what
``noise.twirl_circuit`` and ``noise.apply_trajectory_noise`` return. A
shot's readout flips are ``rng.below`` of its readout words, as
``noise.apply_readout_error`` draws them. Every row's probabilities,
under its final frame, equal those of ``simulate_ops`` on that shot's
rendered circuit to within rounding: moving a Pauli past a gate only
permutes, negates or conjugates the factors of each product, a pending
permutation only moves where each product happens, fusing a mask's
terms multiplies the same factors in another order, and a frame's
signs and power of 1j, which the engine never applies, change no
squared modulus. A shot can move only when its draw lies within that
rounding of a boundary of the cumulative probabilities.

``noise`` and ``objective`` import this module when they first need it,
so work that never samples with noise does not load it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache, reduce
from itertools import repeat
from operator import or_
from typing import NamedTuple

import numpy as np

from . import noise, rng
from .ansatz import ONE_QUBIT_DURATION, Circuit
from .noise import PAULI_KINDS, NoiseConfig
from .statevec import (ROTATION_KINDS, GateOp, _bit_values, _xor_perm, apply_rows,
                       measure_rows, rotation_pairs, sample_draws, zero_state)

# Bytes of amplitudes simulated at once: a chunk holds this many bytes'
# worth of rows (2048 at n = 5, so a 16-point batch of 128 per-shot
# rows), and at least one.
_CHUNK_BYTES = 1 << 20

# Pauli ids 0..3 are I, X, Y, Z: the X bit (m) and Z bit (z) of each
_FRAME_M = np.array([0, 1, 1, 0], dtype=np.int64)
_FRAME_Z = np.array([0, 0, 1, 1], dtype=np.int64)
# the Pauli id of bits (m, z): the inverse of _FRAME_M and _FRAME_Z
_PAULI_ID = np.array([[0, 3], [1, 2]])
# The largest |normal| of ``_dephasing``: sqrt(-2 log U1) with U1 >= 2**-53
# is at most sqrt(106 log 2) = 8.57167..., rounded up.
_MAX_NORMAL = 8.5718


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


# A word gives U in (0, 1] (``rng.units``), so E = -log(U) is at most
# 53 log 2 < 37: a site of rate 64 is never passed by a race.
_SURE = 64.0
_11, _53 = np.uint64(11), np.uint64(53)


def _reach(p: np.ndarray) -> np.ndarray:
    """The cumulative rates of sites hit with probabilities ``p``, in order.

    Site i has rate -log(1 - p_i), so an Exp(1) draw passes it with
    probability 1 - p_i; a site with p = 1 gets ``_SURE``, which no draw
    passes.
    """
    rate = -np.log1p(-np.where(p < 1.0, p, 0.0))
    rate[p == 1.0] = _SURE
    return np.cumsum(rate)


def _gate_errors(plan, keys: np.ndarray, draws) -> tuple:
    """Each row's gate errors, by an exponential race over the plan's sites.

    A row reads the words of its trajectory key in turn. A word gives
    E = -log(U) (``rng.units``), and the row's next hit is the first site
    whose cumulative rate (``plan.reach``) exceeds the row's position
    plus E; the position moves to that site's cumulative rate. The next
    word w picks the hit's Pauli, ((w >> 11) * bound) >> 53, below the
    site's ``plan.bound``. The race ends when E passes the last site. An
    exponential clock forgets how long it ran, so each site is hit with
    its own probability, independently of the others. A hit on a twirl
    slot that the row's twirl ``draws`` (rows, CNOTs; ``_twirl_draws``)
    leave empty is dropped. Every live row hits once a step, so all read the same word;
    those still racing when the words run out read again, wider.
    Returns (row, site, value) arrays of the hits, sorted by site (an
    index into ``plan.sites``), of the one or more rows of ``keys``.
    """
    rows, reach = len(keys), plan.reach
    words = rng.philox_raw(keys, plan.width)
    live, at, pos = np.arange(rows), np.zeros(rows), 0
    found = []
    while live.size:
        if pos + 2 > words.shape[1]:
            words = np.empty((rows, 2 * words.shape[1]), dtype=np.uint64)
            words[live] = rng.philox_raw(keys[live], words.shape[1])
        site = np.searchsorted(reach, at - np.log(rng.units(words[live, pos])), side="right")
        hit = site < len(reach)
        live, site = live[hit], site[hit]
        found.append((live, site, ((words[live, pos + 1] >> _11) * plan.bound[site]) >> _53))
        at, pos = reach[site], pos + 2
    row, site, value = (np.concatenate(column) for column in zip(*found))
    if draws is not None:
        slot = plan.site_slot[site]
        keep = (slot < 0) | (_TWIRL_SLOTS[draws[row, slot >> 2], slot & 3] != 0)
        row, site, value = row[keep], site[keep], value[keep]
    order = np.argsort(site, kind="stable")
    return row[order], site[order], value[order].astype(np.int64)


def _dephasing(keys: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """Each row's quasi-static dephasing rates, normal(0, sigma) per qubit: (rows, n).

    Box-Muller on the words of each row's dephasing key: words 2j and
    2j + 1 give U1 (``rng.units``) and U2 (``rng.doubles``), and with
    R = sqrt(-2 log U1) the normals R cos(2 pi U2) and R sin(2 pi U2) of
    qubits 2j and 2j + 1, each times sigma.
    """
    words = rng.philox_raw(keys, n + n % 2)
    radius = np.sqrt(-2.0 * np.log(rng.units(words[:, 0::2])))
    angle = 2.0 * np.pi * rng.doubles(words[:, 1::2])
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return sigma * normals.reshape(len(keys), -1)[:, :n]


def _idle_kicks(entries, n: int, twirl: np.ndarray) -> tuple:
    """Every place a dephasing kick can go, with each row's idle time there, and each row's makespan.

    Walks the ASAP schedule of each row's own twirled circuit: every row
    holds every entry but the twirl slots, and row r holds slot j when
    ``twirl[r, j]`` is not 0. An entry needs ``qubits``, ``duration``,
    ``slot`` and ``op``. Returns (kicks, makespan): ``kicks`` lists
    (entry index, qubit, duration per row) in application order, a kick
    going just before its entry, with entry index ``len(entries)`` for
    trailing idle time, and holds every place whatever the twirl, a row
    that does not idle there taking 0. As ``NoiseConfig`` states, idle
    time goes to the next op on its qubit, whatever that op's duration,
    idle time after a qubit's last op is trailing, and DELAY k is kicked
    at k + 1. A one-qubit op starts when its qubit is ready, so only a
    two-qubit op (never a twirl slot) leaves one of its qubits idle.
    """
    rows = len(twirl)
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
            kicks.append((k, q, start - ready[q]))
            ready[q] = end
        np.maximum(makespan, end, out=makespan)
    kicks += [(len(entries), q, makespan - ready[q]) for q in range(n)]
    return kicks, makespan


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
    ``width`` is the words a race reads at first. ``kicks`` lists the
    places a dephasing kick goes (``_idle_kicks``), empty when the
    config does not dephase: every place when the plan has twirl slots,
    as each row idles where its own twirl leaves it, else only those
    where the one schedule every row shares idles. ``per_shot``, whether
    the plan has twirl slots, error sites or dephasing, says whether the
    shots of a point differ at all, which alone decides how ``sample``
    shares rows. The rest is ``_compile``'s: the amplitude ``program``,
    one diagonal step per parity mask of each segment, and its ``final``
    gather, the count of ``events`` a row's frame bits hold, the tables
    that give them (``const``, ``twirl_table``, ``site_table``), and the
    events a chunk reads as flips (``flips``, with ``flip_kick`` marking
    a kick's). A dephasing config is refused when a kick's angle
    could overflow: a kick's angle is 2 delta d, with |delta| at most
    ``_MAX_NORMAL`` sigma and its idle time d at most the makespan with
    every twirl slot filled, which no row's own schedule exceeds.
    """

    __slots__ = ("n", "config", "entries", "rotations", "rx", "columns", "slots", "sites",
                 "reach", "bound", "site_slot", "width", "kicks", "per_shot", "program", "final",
                 "events", "const", "twirl_table", "site_table", "flips", "flip_kick")

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
        sigma = config.sigma_dephase
        self.per_shot = bool(self.slots) or bool(sites.size) or sigma > 0
        self.kicks = []
        if sigma > 0:
            # a schedule past the float range turns inf or NaN here, and is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                kicks, makespan = _idle_kicks(entries, self.n, np.ones((1, len(self.slots))))
            makespan = float(makespan[0])
            if not math.isfinite(2.0 * (_MAX_NORMAL * sigma) * makespan):
                raise ValueError(f"noise.sigma_dephase: 2 * {_MAX_NORMAL} * sigma_dephase * "
                                 f"makespan, the largest kick angle, must be finite, got "
                                 f"sigma_dephase {sigma!r} and makespan {makespan!r}")
            self.kicks = kicks if self.slots else [kick for kick in kicks if kick[2].any()]
        _compile(self)


@lru_cache(maxsize=512)
def _parity_values(n: int, mask: int) -> np.ndarray:
    """``_bit_values`` of the qubits whose index bits are set in ``mask``."""
    return _bit_values(n, *(n - 1 - b for b in range(n) if mask >> b & 1))


@lru_cache(maxsize=512)
def _linear_perm(n: int, images: tuple) -> np.ndarray:
    """The index map that is linear in the bits of an index and sends bit b to ``images[b]``."""
    index = np.arange(1 << n)
    perm = np.bitwise_xor.reduce([(index >> b & 1) * image for b, image in enumerate(images)])
    perm.flags.writeable = False
    return perm


def _words(masks: list, width: int) -> np.ndarray:
    """Python-int bit sets as rows of ``width`` uint64 words, bit i in word i // 64."""
    data = b"".join(map(int.to_bytes, masks, repeat(8 * width), repeat("little")))
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), width)


def _compile(plan: Plan) -> None:
    """Lay out the amplitude program of ``plan`` and the tables of its frame reads.

    The program is the H, RX and diagonal steps, in layout order. An H
    carries the gather that puts the columns back in basis order (None
    when the pending CNOT permutation is the identity), an RX the index
    of each column's partner under that permutation, and ``plan.final``
    is the last gather. The diagonal terms (RZ, coherent ZZ and each of
    ``plan.kicks``, a kick by its number there) of a segment, between
    two mixing steps, commute; those that read one parity mask through
    the permutation's inverse are one step, at the first one's place,
    with that mask's ``_bit_values``, its terms (rotation key or None,
    flip, kick number or None), and whether every term is a per-point
    rotation that no frame flips. A row's frame bits are events: bit
    j < n is the final X bit of qubit n-1-j, an RX reads its qubit's Z
    bit, and a diagonal term the parity of its qubits' X bits. Every
    frame update is an XOR, so each event is the XOR of what each
    inserted Pauli flips; one backward pass gives, for every place a
    Pauli goes, the events its X and Z flip (a Y flips both): a CNOT maps
    them by the transpose of its frame update, and an H swaps X and Z.
    A frame's power of 1j is a phase of the whole row, which no
    probability reads, and no event holds it. These fold into ``const``
    (the circuit's Paulis and DD pulses), ``twirl_table`` (CNOT c's 16
    twirl draws, its four slots together) and ``site_table`` (site s's 3
    or 15 error values), each entry a row of uint64 words. ``flips`` are
    the events a chunk reads as flip bits, but for those no entry sets
    (a flip that is always 0); ``flip_kick`` marks the flips of kicks,
    which pick per-row tables.
    """
    n, entries = plan.n, plan.entries
    kicks_at: dict[int, list] = {}
    for j, (k, q, _) in enumerate(plan.kicks):
        kicks_at.setdefault(k, []).append((j, q))
    sites = set(plan.sites.tolist())
    zz = plan.config.epsilon_coherent != 0.0

    # The backward pass. mx[q] and mz[q] are the events an X and a Z on
    # qubit q flip from here on, and a Y flips both. A Pauli goes after its
    # entry, and each place a Pauli goes appends its own snapshot of its
    # qubit's (mx, mz). The program's steps are gathered last first, with
    # their events.
    mx, mz, const = [1 << (n - 1 - q) for q in range(n)], [0] * n, 0
    xs, zs = [], []
    slot_snaps, site_snaps, steps = [], [], []
    events = n

    def diagonal(qubits, key, kick):
        nonlocal events
        for q in qubits:
            mx[q] ^= 1 << events
        steps.append(("D", qubits, key, events, kick))
        events += 1

    def snapshot(q) -> int:
        xs.append(mx[q])
        zs.append(mz[q])
        return len(xs) - 1

    def kicks_before(k):
        for j, q in reversed(kicks_at.get(k, ())):
            diagonal((q,), None, j)

    kicks_before(len(entries))
    for k in range(len(entries) - 1, -1, -1):
        entry = entries[k]
        op, qubits = entry.op, entry.qubits
        if op is None:  # a twirl slot, whose error site is the same place
            slot_snaps.append(snapshot(qubits[0]))
            if k in sites:
                site_snaps += -1, slot_snaps[-1]
            kicks_before(k)
            continue
        kind = op.kind
        if k in sites:
            site_snaps += ((snapshot(qubits[0]), snapshot(qubits[1])) if kind == "CNOT"
                           else (-1, snapshot(qubits[0])))
        if kind == "CNOT":
            if zz:
                diagonal(qubits, "zz", None)
            c, t = qubits
            mx[c] ^= mx[t]  # an X on the control reaches the target
            mz[t] ^= mz[c]  # and a Z on the target the control
            steps.append(("C", c, t))
        elif kind == "RZ":
            diagonal(qubits, k, None)
        elif kind == "H":
            q = qubits[0]
            mx[q], mz[q] = mz[q], mx[q]
            steps.append(("H", op))
        elif kind == "RX":
            q = qubits[0]
            mz[q] ^= 1 << events
            steps.append(("RX", q, k, events))
            events += 1
        elif kind != "DELAY":  # a Pauli gate or DD pulse
            q = qubits[0]
            const ^= (mx[q], mx[q] ^ mz[q], mz[q])[PAULI_KINDS.index(kind)]
        kicks_before(k)

    # the events some entry may set, a bit set of them all; any other reads
    # 0 in every row, and a chunk reads no bit of it
    live = reduce(or_, xs, const) | reduce(or_, zs, 0)
    flips, flip_kick = [], []

    def read(event: int, kick: bool) -> int | None:
        """The index in ``flips`` of ``event``, appended, or None when no entry sets it."""
        if not live >> event & 1:
            return None
        flips.append(event)
        flip_kick.append(kick)
        return len(flips) - 1

    # the forward pass: the program, under the pending CNOT permutation, which
    # is linear in the bits of an index: basis index e_b sits in column
    # images[b], and a diagonal on the parity mask M reads column j at the
    # parity of j & (XOR of parities[b], b in M). The diagonals of a segment
    # (those between two mixing steps) commute, and each mask's go into one
    # step, in the segment's first place, as its terms.
    identity = [1 << b for b in range(n)]
    images, parities, program, segment = identity[:], identity[:], [], {}

    def gather():
        """The columns of basis order under the pending permutation, or None for the identity."""
        moved = None if images == identity else _linear_perm(n, tuple(images))
        images[:], parities[:] = identity, identity
        return moved

    for step in reversed(steps):
        kind = step[0]
        if kind == "D":
            _, qubits, key, event, kick = step
            mask = 0
            for q in qubits:
                mask ^= parities[n - 1 - q]
            if mask not in segment:
                segment[mask] = []
                program.append(("D", _parity_values(n, mask), segment[mask]))
            segment[mask].append((key, read(event, kick is not None), kick))
        elif kind == "C":
            c, t = n - 1 - step[1], n - 1 - step[2]
            images[c] ^= images[t]
            parities[t] ^= parities[c]
        else:  # a mixing step, which ends the segment
            segment = {}
            if kind == "H":
                program.append(("H", step[1], gather()))
            else:
                program.append(("RX", _xor_perm(n, images[n - 1 - step[1]]), step[2],
                                read(step[3], False)))
    # a step of per-point rotations that no frame flips multiplies per point
    plan.program = [step if step[0] != "D" else
                    (*step, all(flip is None and kick is None for _, flip, kick in step[2]))
                    for step in program]
    plan.final = gather()
    plan.flips, plan.flip_kick = np.array(flips, dtype=np.intp), np.array(flip_kick, dtype=bool)

    width = (events + 63) // 64
    plan.events, plan.const = events, _words([const], width)[0]
    # each snapshot's table over Pauli ids I, X, Y, Z, and a last one of none
    x, z = _words(xs, width), _words(zs, width)
    table = np.zeros((len(xs) + 1, 4, width), dtype=np.uint64)
    table[:-1, 1], table[:-1, 2], table[:-1, 3] = x, x ^ z, z
    slots = table[slot_snaps[::-1]].reshape(-1, 4, 4, width)
    plan.twirl_table = np.bitwise_xor.reduce(slots[:, np.arange(4), _TWIRL_SLOTS], axis=2)
    # a hit's value u picks the Paulis (u + 1) >> 2 and (u + 1) & 3 of its
    # two qubits, a one-qubit site's first being none (snapshot -1, the last)
    pick = np.arange(1, 16)
    pairs = np.array(site_snaps[::-1], dtype=np.intp).reshape(-1, 2)  # reversed: (second, first)
    plan.site_table = table[pairs[:, 1]][:, pick >> 2] ^ table[pairs[:, 0]][:, pick & 3]


def _twirl_draws(keys: np.ndarray, n_cnots: int) -> np.ndarray:
    """Each shot's twirl draw v = 4a + b (``_TWIRL_SLOTS``) per CNOT: (shots, CNOTs)."""
    # integers(0, 16, size) takes 32-bit half words, the low half first,
    # keeps their top four bits, and never rejects.
    words = np.asarray(rng.philox_raw(keys, (n_cnots + 1) // 2), dtype="<u8")
    return words.view("<u4")[:, :n_cnots] >> np.uint32(28)


def _twirl_ids(draws: np.ndarray) -> np.ndarray:
    """The twirl Paulis of ``_twirl_draws`` as ids of shape (shots, 4 * CNOTs).

    CNOT j's four columns hold the Paulis before its control, before its
    target, after its control and after its target.
    """
    return np.take(_TWIRL_SLOTS, draws, axis=0).reshape(len(draws), -1)


def _kick_tables(kicks: list, deltas: np.ndarray) -> list:
    """Each kick's (angle per row, table): the RZ pairs of its angles over their conjugates.

    A kick of qubit q and idle time d turns row r's dephasing rate
    ``deltas[r, q]`` into the angle 2 delta d. Kicks of one qubit and one
    idle time share their angles and table, and one ``rotation_pairs``
    call makes the pairs of all.
    """
    angle = {}
    for _, q, dur in kicks:
        if (q, dur.tobytes()) not in angle:
            angle[q, dur.tobytes()] = 2.0 * deltas[:, q] * dur
    angles = np.reshape(list(angle.values()), (len(angle), len(deltas)))
    pairs = rotation_pairs("RZ", angles)
    columns = dict(zip(angle, zip(angles, np.concatenate([pairs, pairs.conjugate()], 1))))
    return [columns[q, dur.tobytes()] for _, q, dur in kicks]


_NO_HITS = (np.zeros(0, dtype=np.intp),) * 3


def _chunk_draws(plan: Plan, twirl_keys, trajectory_keys, dephase_keys) -> tuple:
    """A chunk's draws: (twirl draws, gate-error hits, each kick place's (angles, table) or None).

    Row r draws its twirl from ``twirl_keys[r]`` (``_twirl_draws``, None
    when the plan has no twirl slot), its gate errors from
    ``trajectory_keys[r]`` (``_gate_errors``' (row, site, value) arrays,
    empty when the plan has no error site) and its dephasing rates from
    ``dephase_keys[r]``. Each of ``plan.kicks`` gets ``_kick_tables``'
    (angle per row, table), with each row's idle time there from its own
    twirled schedule (``_idle_kicks``), or None where no row of the chunk
    idles; the list is empty when the config does not dephase. This is
    the one place a chunk draws, for the engine and its reference alike.
    """
    draws = _twirl_draws(twirl_keys, len(plan.slots) // 4) if plan.slots else None
    hits = _gate_errors(plan, trajectory_keys, draws) if plan.sites.size else _NO_HITS
    if not plan.kicks:
        return draws, hits, []
    kicks = plan.kicks if draws is None else _idle_kicks(plan.entries, plan.n, _twirl_ids(draws))[0]
    idles = [dur.any() for _, _, dur in kicks]  # whether some row idles there
    columns = iter(_kick_tables([kick for kick, idle in zip(kicks, idles) if idle],
                                _dephasing(dephase_keys, plan.n, plan.config.sigma_dephase)))
    return draws, hits, [next(columns) if idle else None for idle in idles]


def _chunk_steps(plan: Plan, tables: dict, twirl_keys, trajectory_keys, dephase_keys) -> list:
    """Lay out every gate and Pauli a chunk's rows meet, in order, from its ``_chunk_draws``.

    This is the reference step list: ``realize`` renders it, and the
    tests walk it with a frame per row to check ``_run_chunk``, which
    takes the same draws from the same call. There is one step kind per
    effect: ("op", op, table) for a shared gate other than a Pauli, with
    the entry's table in ``tables`` (from ``_point_angles``) or None;
    ("pauli", rows, ids, qubit, duration) for every Pauli, with an id
    per listed row, or for all rows when rows is None, and 0 for none;
    ("kick", qubit, angle per row, table) at each kick place some row
    idles at, 0 on a row without idle time there, with the (2 * rows, 2)
    table of the RZ ``rotation_pairs`` of those angles over their
    conjugates; and ("zz", cnot, epsilon, table) after each CNOT when
    the config has a coherent ZZ error, with the ``"zz"`` table in
    ``tables``. A Pauli gate or DD pulse is one id for all rows, with its
    own duration; a twirl slot holds an id per row and lasts
    ``ONE_QUBIT_DURATION``; a drawn error lists its rows and lasts 0.
    """
    entries = plan.entries
    draws, (hit_row, hit_site, hit_value), kick_tables = _chunk_draws(
        plan, twirl_keys, trajectory_keys, dephase_keys)
    twirl = None if draws is None else _twirl_ids(draws)
    hit_bounds = np.searchsorted(plan.sites[hit_site], np.arange(len(entries) + 1)).tolist()
    kicks_at: dict[int, list] = {}
    for (k, q, _), columns in zip(plan.kicks, kick_tables):
        if columns is not None:
            kicks_at.setdefault(k, []).append(("kick", q, *columns))

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


def _run_chunk(plan: Plan, tables: dict, twirl_keys, trajectory_keys, dephase_keys,
               row_point: np.ndarray) -> tuple:
    """Draw a chunk's rows and run the plan's program on them: (amplitudes, final X frames).

    Row r belongs to point ``row_point[r]`` and draws from entry r of
    each key array, by one ``_chunk_draws`` call, the call
    ``_chunk_steps`` makes too. Its event bits are the plan's ``const``,
    XOR its CNOTs' ``twirl_table`` entries at its twirl draws, XOR its
    hits' ``site_table`` entries, so no step of the walk touches a
    frame. The rows share one array row until the first RX or
    diagonal, so the H layer runs once. A CNOT moves no amplitude: basis
    index i of every row sits in column ``perm[i]`` of a pending
    permutation, each diagonal reads its entries through the inverse,
    an RX reads each column's partner through it, and an H first
    gathers the columns back in basis order. An H runs through
    ``statevec.apply_rows``. Every RX and diagonal term carries a (2P,
    2) table of P pairs over their conjugates, and row r takes table row
    flip_r * P + base_r: base_r is its point, or r itself for a kick,
    and flip_r its flip bit, so every row gets its own angle, its
    conjugate past a frame that anticommutes. An RX reads the pair as
    its two scalars, with ``apply_rows``' arithmetic. A diagonal step
    multiplies every row by the product of its terms' pairs at the
    parity of each column's basis index, once: a step of per-point
    rotations that no frame flips takes the product per point and
    gathers it over columns first when the chunk has fewer points than
    rows, and any other step takes it per row, (rows, 2), and gathers
    that; the same values either way. A kick place that no row of the
    chunk idles at (its kick table is None) is left out of the product.
    The factors of a step, the partner operand of an RX and the gathered
    columns are written into one scratch array, the two trading places
    after a gather.

    Returns the (rows, 2^n) amplitudes ``a`` in basis order and each
    row's final X frame m: the row's state is a[i ^ m] up to signs and a
    power of 1j per index, which no measurement sees (``_frame_probs``).
    """
    n, rows = plan.n, len(row_point)
    draws, (hit_row, hit_site, hit_value), kick_tables = _chunk_draws(
        plan, twirl_keys, trajectory_keys, dephase_keys)
    words = np.repeat(plan.const[None], rows, axis=0)
    if draws is not None:
        cnots = len(plan.twirl_table)
        # entry 16 c + v of the flat table is CNOT c's at draw v
        index = (draws + np.arange(0, 16 * cnots, 16, dtype=np.uint32)).T
        words ^= np.bitwise_xor.reduce(np.take(plan.twirl_table.reshape(16 * cnots, -1), index,
                                               axis=0), axis=0)
    np.bitwise_xor.at(words, hit_row, plan.site_table[hit_site, hit_value])
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=plan.events, bitorder="little")
    own, points = np.arange(rows), len(tables["zz"]) // 2
    # each flip's table rows: a kick's over its (2 * rows, 2) table, any
    # other's over the points' (2 * points, 2) one
    picks = np.ascontiguousarray(bits[:, plan.flips].T) * np.where(plan.flip_kick, rows,
                                                                    points)[:, None]
    picks += row_point
    if plan.flip_kick.any():
        picks[plan.flip_kick] += own - row_point

    amps, buf = zero_state(n)[None], np.empty((1, 1 << n), dtype=complex)

    def take(values, index, axis):
        """``np.take`` into ``buf``: every index is in range, and mode "raise" buffers ``out``."""
        return np.take(values, index, axis=axis, out=buf, mode="wrap")

    def pairs(key, flip, kick):
        """A diagonal term's pair in each row: (rows, 2)."""
        table, base = (tables[key], row_point) if kick is None else (kick_tables[kick][1], own)
        return np.take(table, base if flip is None else picks[flip], axis=0)

    for step in plan.program:
        kind = step[0]
        if kind == "H":
            if step[2] is not None:
                amps, buf = take(amps, step[2], 1), amps
            amps = apply_rows(amps, n, step[1])
            continue
        if kind == "D":
            # a kick place that no row of the chunk idles at has no table
            _, read, terms, per_point = step
            terms = [term for term in terms if term[2] is None or kick_tables[term[2]] is not None]
            if not terms:
                continue
        if len(amps) < rows:
            amps, buf = np.repeat(amps, rows, axis=0), np.empty((rows, 1 << n), dtype=complex)
        if kind == "RX":
            _, partner, key, flip = step
            # apply_rows' RX products, in place, with each of an RX's two
            # vectors held as its one value per row
            pair = pairs(key, flip, None)
            flipped = take(amps, partner, 1)
            flipped *= pair[:, 1:]
            amps *= pair[:, :1]
            amps += flipped
            continue
        # the product of the terms' pairs at the parity of each column's basis
        # index: per point and gathered over columns first when the points are
        # fewer than the rows, else per row; the same values either way
        if per_point and points < rows:
            table = reduce(np.multiply, [tables[key][:points] for key, _, _ in terms])
            factor = take(np.take(table, read, axis=1), row_point, 0)
        else:
            factor = take(reduce(np.multiply, [pairs(*term) for term in terms]), read, 1)
        amps *= factor
    if plan.final is not None:
        amps, buf = take(amps, plan.final, 1), amps
    if len(amps) < rows:
        amps = np.repeat(amps, rows, axis=0)
    return amps, (words[:, 0] & ((1 << n) - 1)).astype(np.int64)


def _frame_probs(amps: np.ndarray, frame: np.ndarray, n: int) -> np.ndarray:
    """The (rows, 2^n) basis probabilities of ``_run_chunk``'s amplitudes under their frames.

    A frame's Z signs and power of 1j change no modulus, so row r's
    probability of index i is |a[i ^ m]|^2, with m the X part of its
    frame, the low n bits of ``frame[r]``: the bits of ``np.abs`` of the
    framed amplitudes, squared.
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
    array. Each chunk draws its rows and runs the plan's program alone
    (``_run_chunk``); ``_chunk_steps``' step list, which ``realize``
    renders, is its reference.
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
        amps, frame = _run_chunk(plan, tables, *(None if part is None else part[lo:hi] for part in
                                                 (twirl_keys, trajectory_keys, dephase_keys)),
                                 point[lo:hi])
        probs = _frame_probs(amps, frame, n)
        outcomes[lo:hi] = measure_rows(probs, draws[lo:hi])
    outcomes = outcomes.ravel()  # shot i of point j at j * shots + i
    if config.p_readout > 0:
        flips = rng.below(rng.philox_raw(keys(rng.STREAM_READOUT), n), config.p_readout)
        outcomes ^= flips @ (1 << np.arange(n - 1, -1, -1))
    return np.sort(outcomes.reshape(k, shots), axis=1)
