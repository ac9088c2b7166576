"""Parametric noise channels and mitigation passes.

Noise is simulated as per-shot pure-state trajectories: each shot draws
its own twirl, stochastic Pauli insertions, quasi-static dephasing
rates, and readout flips, all from substreams keyed by (seed, stream,
shot). Inserted error ops carry zero duration so they never perturb
timing. This module makes no random draw: qaoalab.trajectories makes
them all. sample_noisy runs all the shots of a call together there, and
twirl_circuit, apply_trajectory_noise and apply_readout_error render one
shot of the same draws, as a circuit or as flipped bits; simulating
each shot's circuit on its own gives the same amplitudes, bit for bit.

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
from functools import lru_cache
from numbers import Real
from typing import NamedTuple

import numpy as np

from .ansatz import ONE_QUBIT_DURATION, Circuit
from .statevec import Counts, GateOp, check_shots, counts_from_tally

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
    epsilon_coherent: ZZ over-rotation angle appended after every CNOT.
    sigma_dephase: std-dev of the per-shot, per-qubit quasi-static
    dephasing rate applied over idle time. In the ASAP schedule, a
    qubit's idle time is kicked as one RZ just before the next op on
    that qubit, whatever that op's duration; idle time after a qubit's
    last op is trailing and kicked at the end of the circuit. A DELAY op
    is idle time too, kicked right after it.
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
        for name in ("p1q", "p2q", "p_readout", "epsilon_coherent", "sigma_dephase"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        for name in ("p1q", "p2q", "p_readout"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        if self.sigma_dephase < 0:
            raise ValueError(f"sigma_dephase must be >= 0, got {self.sigma_dephase!r}")
        for name in ("twirling", "dd"):
            v = getattr(self, name)
            if not isinstance(v, bool):
                raise ValueError(f"{name} must be true or false, got {v!r}")
        if not isinstance(self.dd_sequence, str) or self.dd_sequence not in DD_SEQUENCES:
            raise ValueError(
                f"dd_sequence must be one of {sorted(DD_SEQUENCES)}, got {self.dd_sequence!r}"
            )


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

    return trajectories.realize(circuit, NoiseConfig(), 0, 0, twirl_seed=seed)


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


@lru_cache(maxsize=256)
def _schedule_cached(n: int, slots: tuple) -> Timeline:
    """ASAP timeline of ops given as (qubits, duration) slots, in circuit order."""
    ready = [0.0] * n
    starts = []
    for qubits, duration in slots:
        s = max(ready[q] for q in qubits)
        starts.append(s)
        for q in qubits:
            ready[q] = s + duration
    makespan = max(ready)
    per_qubit: list[tuple[Interval, ...]] = []
    for q in range(n):
        busy = sorted(
            (s, i)
            for i, (s, (qubits, _)) in enumerate(zip(starts, slots))
            if q in qubits
        )
        intervals: list[Interval] = []
        t = 0.0
        for s, i in busy:
            if s > t:
                intervals.append(Interval(t, s, None))
            end = s + slots[i][1]
            if end > s:
                intervals.append(Interval(s, end, i))
            t = max(t, end)
        if makespan > t:
            intervals.append(Interval(t, makespan, None))
        per_qubit.append(tuple(intervals))
    return Timeline(makespan, tuple(starts), tuple(per_qubit))


def schedule_circuit(circuit: Circuit) -> Timeline:
    """ASAP greedy list schedule of a circuit.

    Every op starts at the max ready-time of its qubits. Per-qubit
    intervals tile [0, makespan] exactly. Timelines are cached by what
    they depend on: qubit count and each op's qubits and duration, so
    circuits that differ only in gate kinds or angles share one entry.
    """
    slots = tuple((op.qubits, op.duration) for op in circuit.ops)
    return _schedule_cached(circuit.n, slots)


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
    if sequence not in DD_SEQUENCES:
        raise ValueError(f"sequence must be one of {sorted(DD_SEQUENCES)}, got {sequence!r}")
    timeline = schedule_circuit(circuit)
    pulses = DD_SEQUENCES[sequence]
    k = len(pulses)
    pulse_dur = ONE_QUBIT_DURATION
    # (start, tiebreak, op); original ops keep their indices as tiebreak
    entries: list[tuple[float, int, GateOp]] = [
        (s, i, op) for i, (s, op) in enumerate(zip(timeline.starts, circuit.ops))
    ]
    counter = len(entries)
    for q in range(circuit.n):
        for iv in timeline.qubits[q]:
            if iv.op_index is not None:
                continue
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
    return Circuit(circuit.n, tuple(op for _, _, op in entries))


# ---------------------------------------------------------------------------
# trajectory noise
# ---------------------------------------------------------------------------


def apply_trajectory_noise(
    circuit: Circuit, config: NoiseConfig, shot_index: int, seed: int
) -> Circuit:
    """One shot's stochastic error realization as an expanded circuit.

    Draw order is fixed: per-qubit dephasing rates first, then one draw
    per gate in op order, so the result is a pure function of
    (circuit, config, shot_index, seed). Inserted ops carry duration 0.
    DELAY ops receive dephasing (they are idle time) but no gate noise.
    The config's twirling, dd and p_readout play no part here.
    """
    from . import trajectories  # loaded on first use

    return trajectories.realize(circuit, config, shot_index, seed)


def apply_readout_error(bits: str, p_readout: float, shot_index: int, seed: int) -> str:
    """Flip each measured bit independently with probability p_readout."""
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ValueError(f"bits must be a string of '0' and '1', got {bits!r}")
    if not (0.0 <= p_readout <= 1.0):
        raise ValueError(f"p_readout must be in [0, 1], got {p_readout!r}")
    if p_readout == 0.0:
        return bits
    from . import trajectories  # loaded on first use

    flips = trajectories._readout_flips(
        trajectories._Substreams(), seed, shot_index, len(bits), p_readout)[0]
    return "".join(("1" if b == "0" else "0") if f else b for b, f in zip(bits, flips))


# ---------------------------------------------------------------------------
# noisy sampling
# ---------------------------------------------------------------------------


def sample_noisy_tally(circuit: Circuit, config: NoiseConfig, shots: int,
                       seed: int) -> np.ndarray:
    """``sample_noisy`` as a basis-index tally of length 2^n, before formatting."""
    from . import trajectories  # loaded on first use

    check_shots(shots)
    if config.dd:
        circuit = insert_dd(circuit, config.dd_sequence)
    return trajectories.sample(circuit, config, shots, seed)


def sample_noisy(circuit: Circuit, config: NoiseConfig, shots: int, seed: int) -> Counts:
    """Monte Carlo counts under the full noise-and-mitigation pipeline.

    Per shot: (optional DD insertion, done once), optional fresh twirl,
    trajectory noise realization, statevector run, one measurement draw,
    optional readout flips. Shot i uses only draw i of each substream.
    ``qaoalab.trajectories`` makes every draw and runs the shots together
    as one (shots, 2^n) array; the counts equal those of running each
    shot's circuit from ``twirl_circuit`` (at the shot's twirl seed) and
    ``apply_trajectory_noise`` through ``simulate_ops``, then
    ``apply_readout_error``.
    """
    return counts_from_tally(sample_noisy_tally(circuit, config, shots, seed), circuit.n)
