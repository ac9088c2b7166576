"""Parametric noise channels and mitigation passes.

Noise is simulated as per-shot pure-state trajectories: each shot draws
its own twirl, stochastic Pauli insertions, quasi-static dephasing
rates, and readout flips, all from substreams keyed by (seed, stream,
shot) and read together for all shots by one vectorized Philox.
Inserted error ops carry zero duration so they never perturb timing.
qaoalab.trajectories makes every circuit draw, from one
trajectories.Plan of a circuit and a config (DD inserted once), and
runs the shots of k points together, each point its own seed and RX/RZ
angles; sample_noisy samples one point that way, into a bitstring
histogram (a ``dict[str, int]``). twirl_circuit and
apply_trajectory_noise render one shot of the same draws as a circuit;
simulating each shot's circuit on its own gives the probabilities the
engine draws that shot from, to within rounding (the engine multiplies
the same factors in another order and leaves out a phase of the whole
row). apply_readout_error flips one shot's bits by the same
``rng`` rule as the engine, without loading it.

Mitigation passes rewrite circuits:
  * twirl_circuit wraps every CNOT in a random Pauli pair and its
    conjugated partner, turning the coherent ZZ over-rotation into an
    incoherent average over shots.
  * schedule_circuit assigns start times (ASAP greedy list scheduling)
    and reports per-qubit busy/idle intervals.
  * insert_dd schedules a circuit and fills its idle windows with
    symmetric decoupling sequences whose net effect is the identity,
    echoing away quasi-static phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _checks, rng
from .ansatz import ONE_QUBIT_DURATION, Circuit
from .statevec import ROTATION_KINDS, GateOp, counts_from_tally

PAULI_KINDS = ("X", "Y", "Z")

DD_SEQUENCES: dict[str, tuple[str, ...]] = {
    "XpXm": ("X", "X"),
    "XY4": ("X", "Y", "X", "Y"),
}


@dataclass(frozen=True)
class NoiseConfig:
    """Error rates and mitigation switches.

    p1q / p2q: probability of a uniform random Pauli (pair) after each
    one-/two-qubit gate. p_readout: independent per-bit flip probability.
    epsilon_coherent: ZZ over-rotation angle appended after every CNOT;
    the ZZ is an RZ(2 epsilon), so 2 epsilon must be finite too.
    sigma_dephase: std-dev of the per-shot, per-qubit quasi-static
    dephasing rate applied over idle time. In the ASAP schedule, a
    qubit's idle time is kicked as one RZ just before the next op on
    that qubit, whatever that op's duration; idle time after a qubit's
    last op is trailing and kicked at the end of the circuit. A DELAY op
    is idle time too, kicked right after it. Each field is checked by
    its rule in ``_checks``, and each rate kept as the float that rule
    returns, so equal configs hash alike.
    """

    p1q: float = 0.0
    p2q: float = 0.0
    p_readout: float = 0.0
    epsilon_coherent: float = 0.0
    sigma_dephase: float = 0.0
    twirling: bool = False
    dd: bool = False
    dd_sequence: str = "XpXm"

    def __post_init__(self):
        for name, lo, hi in (("p1q", 0, 1), ("p2q", 0, 1), ("p_readout", 0, 1),
                             ("epsilon_coherent", None, None), ("sigma_dephase", 0, None)):
            object.__setattr__(self, name, _checks.real(getattr(self, name), name, lo, hi))
        if not math.isfinite(2.0 * self.epsilon_coherent):
            raise ValueError(f"epsilon_coherent: the ZZ angle 2 * epsilon_coherent must be "
                             f"finite, got epsilon_coherent {self.epsilon_coherent!r}")
        _checks.flag(self.twirling, "twirling")
        _checks.flag(self.dd, "dd")
        _checks.one_of(self.dd_sequence, sorted(DD_SEQUENCES), "dd_sequence")


# ---------------------------------------------------------------------------
# Pauli twirling
# ---------------------------------------------------------------------------


def twirl_circuit(circuit: Circuit, seed: int) -> Circuit:
    """Wrap every CNOT in a random Pauli pair and its conjugation image.

    The sandwich leaves each CNOT's ideal action unchanged (up to global
    phase) while randomizing the sign of coherent errors attached to it.
    A circuit with no CNOTs is returned unchanged. Deterministic in
    (circuit, seed): ``sample_noisy`` twirls each shot this way, from a
    twirl seed of the shot's own (see ``trajectories.realize``).
    """
    from . import trajectories  # loaded on first use

    _checks.of_type(circuit, Circuit, "circuit")
    return trajectories.realize(circuit, NoiseConfig(), 0, 0, twirl_seed=_checks.seed(seed))


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


class Interval(NamedTuple):
    """Half-open [start, end) slice of one qubit's timeline.

    op_index points into the circuit's ops for busy intervals and is
    None for idle ones.
    """

    start: float
    end: float
    op_index: int | None


@dataclass(frozen=True)
class Timeline:
    """Start times per op plus per-qubit interval decompositions."""

    makespan: float
    starts: tuple[float, ...]
    qubits: tuple[tuple[Interval, ...], ...]

    def idle_intervals(self, q: int) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.qubits[q] if iv.op_index is None)


def schedule_circuit(circuit: Circuit) -> Timeline:
    """ASAP greedy list schedule of a circuit.

    Every op starts at the max ready-time of its qubits. Per-qubit
    intervals tile [0, makespan] exactly. A timeline depends only on the
    qubit count and each op's qubits and duration, so circuits that
    differ only in gate kinds or angles share one.
    """
    n = _checks.of_type(circuit, Circuit, "circuit").n
    ready = [0.0] * n
    starts = []
    per_qubit: list[list[Interval]] = [[] for _ in range(n)]
    # an op starts once all its qubits are free, so each qubit's ops
    # arrive in start order and their intervals are appended in place
    for i, op in enumerate(circuit.ops):
        s = max(ready[q] for q in op.qubits)
        starts.append(s)
        end = s + op.duration
        for q in op.qubits:
            if s > ready[q]:
                per_qubit[q].append(Interval(ready[q], s, None))
            if end > s:
                per_qubit[q].append(Interval(s, end, i))
            ready[q] = end
    makespan = max(ready)
    for q in range(n):
        if makespan > ready[q]:
            per_qubit[q].append(Interval(ready[q], makespan, None))
    return Timeline(makespan, tuple(starts), tuple(map(tuple, per_qubit)))


# ---------------------------------------------------------------------------
# dynamical decoupling
# ---------------------------------------------------------------------------


def insert_dd(circuit: Circuit, sequence: str = "XpXm") -> Circuit:
    """Fill the idle windows of the circuit's ASAP schedule with a decoupling sequence.

    Pulses are centered with spacing fractions 1/(2k), 1/k, ..., 1/(2k)
    of the window's free time, realized as explicit DELAY ops so the
    placement survives rescheduling. A window shorter than the pulses
    themselves is left untouched. Each sequence composes to the identity
    (XY4 up to global phase), so the ideal circuit action is preserved,
    while a constant dephasing rate accumulated across the window is
    echoed to zero.
    """
    _checks.of_type(circuit, Circuit, "circuit")
    _checks.one_of(sequence, sorted(DD_SEQUENCES), "sequence")
    return Circuit(circuit.n, _dressed(circuit, sequence)[0])


def _dressed(circuit: Circuit, sequence: str) -> tuple[tuple[GateOp, ...], tuple[int, ...]]:
    """``insert_dd``'s ops, and the index in ``circuit.ops`` of each of its original ops, in order.

    A ``trajectories.Plan`` dresses its circuit this way once, when it
    is built, and reads the ops as they are: the circuit's were checked
    when it was built, and the pulses and delays are made here.
    """
    n, timeline = circuit.n, schedule_circuit(circuit)
    pulses = DD_SEQUENCES[sequence]
    k = len(pulses)
    pulse_dur = ONE_QUBIT_DURATION
    # (start, tiebreak, item); original ops keep their indices as tiebreak
    entries: list[tuple[float, int, int | GateOp]] = [
        (s, i, i) for i, s in enumerate(timeline.starts)
    ]
    counter = len(entries)
    for q in range(n):
        for iv in timeline.idle_intervals(q):
            free = (iv.end - iv.start) - k * pulse_dur
            if free < 0:
                continue
            head = free / (2 * k)
            mid = free / k
            t = iv.start
            for j, kind in enumerate(pulses):
                gap = head if j == 0 else mid
                if gap > 0:
                    entries.append((t, counter, GateOp("DELAY", (q,), None, gap)))
                    counter += 1
                t += gap
                entries.append((t, counter, GateOp(kind, (q,), None, pulse_dur)))
                counter += 1
                t += pulse_dur
            if head > 0:
                entries.append((t, counter, GateOp("DELAY", (q,), None, head)))
                counter += 1
    entries.sort(key=lambda e: (e[0], e[1]))
    ops = tuple(circuit.ops[item] if type(item) is int else item for _, _, item in entries)
    return ops, tuple(item for _, _, item in entries if type(item) is int)


# ---------------------------------------------------------------------------
# trajectory noise
# ---------------------------------------------------------------------------


def apply_trajectory_noise(
    circuit: Circuit, config: NoiseConfig, shot_index: int, seed: int
) -> Circuit:
    """One shot's stochastic error realization as an expanded circuit.

    The draws are a pure function of (circuit, config, shot_index,
    seed). Each qubit's dephasing rate is a normal(0, sigma_dephase)
    draw, by Box-Muller, from the shot's dephasing substream. Every gate
    but DELAY is an error site, of rate p2q after a CNOT and p1q after
    any other gate; the sites race on the shot's trajectory substream:
    each word w gives E = -log(U), U = ((w >> 11) + 1) * 2**-53, and the
    next hit is the first site whose cumulative -log(1 - p) exceeds the
    rate reached so far plus E (a p = 1 site is always hit). The word
    after a hit picks its Pauli uniformly, ((w >> 11) * b) >> 53 below
    b = 3 (X, Y, Z) or b = 15 (the non-identity pairs). So each site is
    hit independently with its own probability. Inserted ops carry
    duration 0. DELAY ops receive dephasing (they are idle time) but no
    gate noise. The config's twirling, dd and p_readout play no part
    here.
    """
    from . import trajectories  # loaded on first use

    _checks.of_type(circuit, Circuit, "circuit")
    _checks.of_type(config, NoiseConfig, "config")
    shot_index = _checks.integer(shot_index, "shot_index", 0)
    return trajectories.realize(circuit, config, shot_index, _checks.seed(seed))


def apply_readout_error(bits: str, p_readout: float, shot_index: int, seed: int) -> str:
    """Flip each measured bit independently with probability p_readout.

    Bit j flips when word j of the shot's (seed, readout, shot_index) key
    is ``rng.below`` p_readout: the flips the noisy engine draws for
    that shot.
    """
    _checks.bitstring(bits, "bits")
    _checks.real(p_readout, "p_readout", 0, 1)
    shot_index, seed = _checks.integer(shot_index, "shot_index", 0), _checks.seed(seed)
    flips = rng.below(rng.words(rng.derive_key(seed, rng.STREAM_READOUT, shot_index), len(bits)),
                      p_readout)
    return "".join(("1" if b == "0" else "0") if f else b for b, f in zip(bits, flips))


# ---------------------------------------------------------------------------
# noisy sampling
# ---------------------------------------------------------------------------


def sample_noisy(circuit: Circuit, config: NoiseConfig, shots: int, seed: int) -> dict[str, int]:
    """Monte Carlo bitstring counts under the full noise-and-mitigation pipeline.

    Per shot: (optional DD insertion, done once), optional fresh twirl,
    trajectory noise realization, statevector run, one measurement draw,
    optional readout flips. Shot i uses only draw i of each substream.
    ``trajectories.sample`` makes every draw, from one ``Plan``, and runs
    the shots together; the histogram of its shots, a
    ``dict[str, int]`` summing to ``shots``, is that of running each
    shot's circuit from ``trajectories.realize`` (at the shot's twirl
    seed) through ``simulate_ops``, then ``apply_readout_error``: each
    shot is drawn from that circuit's probabilities to within rounding,
    so it can differ only where its draw lies within rounding of a
    boundary of the cumulative probabilities. With
    twirling, each of a CNOT's four twirl slots is an error site of rate
    p1q whether its draw fills it or not, and a hit on an empty slot
    inserts nothing; so with gate errors, ``apply_trajectory_noise`` of
    a ``twirl_circuit`` draws the same distribution but other bits.
    """
    from . import trajectories  # loaded on first use

    _checks.of_type(circuit, Circuit, "circuit")
    _checks.of_type(config, NoiseConfig, "config")
    shots, seed = _checks.integer(shots, "shots", 1), _checks.seed(seed)
    angles = [[op.angle for op in circuit.ops if op.kind in ROTATION_KINDS]]
    outcomes = trajectories.sample(trajectories.Plan(circuit, config), shots, [seed], angles)[0]
    return counts_from_tally(np.bincount(outcomes, minlength=1 << circuit.n))
