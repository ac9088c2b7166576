"""Dense statevector simulation for few-qubit circuits.

Basis convention: qubit 0 occupies the most significant bit of the basis
index, so the leftmost character of a measured bitstring is qubit 0 and
therefore node 0 of the graph module. Qubit q's bit of index ``i`` is
``(i >> (n - 1 - q)) & 1``.

Gates are value objects (GateOp). One kernel, ``apply_rows``, applies a
gate to every row of a (rows, 2^n) array; ``simulate_ops`` and
``apply_gate`` run it on one row and the noisy trajectory engine on a
row per shot. It applies an RZ, H or RX as the products of its
``gate_vectors`` through ``apply_vectors``, which the noisy engine calls
with a vector per row to give each row its own angle. Index tables are
cached per (n, qubit), so repeated runs pay no setup cost.
``check_gate`` is the one op check, and ``measure_rows`` the one shot
sampler, on the same (rows, 2^n) layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import rng
from .graph import ENUMERATION_LIMIT, MaxCutInstance, cut_value_table

MAX_QUBITS = ENUMERATION_LIMIT

GATE_KINDS = ("H", "X", "Y", "Z", "RX", "RZ", "CNOT", "DELAY")
ROTATION_KINDS = ("RX", "RZ")
TWO_QUBIT_KINDS = ("CNOT",)

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


class GateOp(NamedTuple):
    """One circuit operation.

    DELAY is an explicit idle placeholder (identity with a duration); it
    lets decoupling pulses keep their timing if a circuit is rescheduled.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    duration: float = 1.0


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray


@dataclass
class Counts:
    """Measured bitstring histogram; keys are n-character bitstrings."""

    counts: dict[str, int]
    shots: int

    def probabilities(self) -> dict[str, float]:
        return {b: c / self.shots for b, c in self.counts.items()}


def check_qubit_count(n) -> None:
    """Reject anything but an int in 1..MAX_QUBITS (bool is an int subclass)."""
    if not isinstance(n, int) or isinstance(n, bool) or not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n!r}")


def zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    check_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


# ---------------------------------------------------------------------------
# cached index tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _bit_values(n: int, q: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx >> (n - 1 - q)) & 1
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=512)
def _x_perm(n: int, q: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    perm = idx ^ (1 << (n - 1 - q))
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=512)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    cbit = _bit_values(n, control)
    idx = np.arange(1 << n, dtype=np.int64)
    perm = np.where(cbit == 1, idx ^ (1 << (n - 1 - target)), idx)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=512)
def _y_phase(n: int, q: int) -> np.ndarray:
    # After the bit-flip permutation, indices with the bit set received
    # an amplitude from |0>: factor +i; the others from |1>: factor -i.
    phase = np.where(_bit_values(n, q) == 1, 1j, -1j)
    phase.flags.writeable = False
    return phase


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def apply_rows(amps: np.ndarray, n: int, op: GateOp) -> np.ndarray:
    """Apply one op to every row of a C-ordered (rows, 2^n) array.

    Returns a new array, or ``amps`` itself for DELAY. Each row gets the
    same floating-point operations whatever the number of rows, so a
    batch of trajectories gives, bit for bit, the amplitudes of running
    each row alone. Results stay C-ordered (``np.take`` rather than
    ``amps[:, perm]``, which returns Fortran order), so a multiply by a
    broadcast (2^n,) vector runs row by row: numpy's complex multiply can
    round the last bit differently when it instead runs along a column
    against one broadcast scalar.
    """
    kind = op.kind
    if kind in ("RZ", "H", "RX"):
        return apply_vectors(amps, n, op.qubits[0], gate_vectors(n, op))
    if kind == "CNOT":
        c, t = op.qubits
        return np.take(amps, _cnot_perm(n, c, t), axis=1)
    if kind == "X":
        return np.take(amps, _x_perm(n, op.qubits[0]), axis=1)
    if kind == "Y":
        return np.take(amps, _x_perm(n, op.qubits[0]), axis=1) * _y_phase(n, op.qubits[0])
    if kind == "Z":
        sign = np.where(_bit_values(n, op.qubits[0]) == 1, -1.0, 1.0)
        return amps * sign
    if kind == "DELAY":
        return amps
    raise ValueError(f"unknown gate kind {kind!r}")


def gate_vectors(n: int, op: GateOp) -> tuple[np.ndarray, ...]:
    """The (2^n,) vectors that ``apply_rows`` multiplies by for an RZ, H or RX.

    RZ is diagonal: (diagonal,). H and RX mix each amplitude with its
    partner across the qubit: (diagonal, off-diagonal), where entry i
    holds mat[b, b] and mat[b, 1 - b] for b the qubit's bit of i.
    """
    q = op.qubits[0]
    bit = _bit_values(n, q)
    if op.kind == "RZ":
        w = np.exp(0.5j * op.angle)
        return (np.where(bit == 1, w, w.conjugate()),)
    if op.kind == "H":
        mat = _H
    else:
        half = 0.5 * op.angle
        mat = np.array(
            [[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]]
        )
    return mat[bit, bit], mat[bit, 1 - bit]


def apply_vectors(amps: np.ndarray, n: int, q: int, vectors) -> np.ndarray:
    """``amps`` times a diagonal, plus ``amps`` with qubit q flipped times an off-diagonal.

    ``vectors`` are the ``gate_vectors`` of one kind: an RZ's
    (diagonal,) or an H's or RX's (diagonal, off-diagonal), each of
    shape (2^n,) for every row or (rows, 2^n) for one per row. Every row
    is multiplied as a lone row would be, by one (2^n,) vector. Every
    entry of an H or RX matrix is real or imaginary, so each product is
    one rounding per component however numpy multiplies complex numbers.
    """
    out = amps * vectors[0]
    if len(vectors) == 2:
        flipped = np.take(amps, _x_perm(n, q), axis=1)
        flipped *= vectors[1]
        out += flipped
    return out


def check_gate(n: int, op: GateOp) -> None:
    """The op rules; ``Circuit``, ``simulate_ops`` and ``apply_gate`` run them."""
    if op.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {op.kind!r}")
    arity = 2 if op.kind in TWO_QUBIT_KINDS else 1
    if len(op.qubits) != arity:
        raise ValueError(f"{op.kind} takes {arity} qubit(s), got {op.qubits!r}")
    for q in op.qubits:
        # the type test first spares the slow ABC check for plain ints
        if type(q) is not int and (not isinstance(q, Integral) or isinstance(q, bool)):
            raise ValueError(f"{op.kind} qubits must be integers, got {op.qubits!r}")
        if not (0 <= q < n):
            raise ValueError(f"qubit {q} out of range for n={n}")
    if len(set(op.qubits)) != len(op.qubits):
        raise ValueError(f"{op.kind} qubits must be distinct, got {op.qubits!r}")
    if op.kind in ROTATION_KINDS:
        if op.angle is None:
            raise ValueError(f"{op.kind} requires an angle")
    elif op.kind != "DELAY" and op.angle is not None:
        raise ValueError(f"{op.kind} takes no angle")
    d = op.duration
    if (type(d) is not float and (not isinstance(d, Real) or isinstance(d, bool))
            or not 0 <= d < math.inf):
        raise ValueError(f"op {op!r} lacks a usable duration: need a finite number >= 0")


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Validated single-gate application; returns a new StateVector."""
    check_gate(state.n, op)
    return StateVector(state.n, apply_rows(state.amplitudes.copy()[None], state.n, op)[0])


def simulate_ops(n: int, ops) -> StateVector:
    """Run a gate sequence on |0...0>; validates every op."""
    state = zero_state(n)
    amps = state.amplitudes[None]
    for op in ops:
        check_gate(n, op)
        amps = apply_rows(amps, n, op)
    state.amplitudes = amps[0]
    return state


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def expectation_cut(state: StateVector, instance: MaxCutInstance) -> float:
    """<state| C |state> for the diagonal cut observable of ``instance``."""
    if instance.n != state.n:
        raise ValueError(f"instance has {instance.n} nodes but state has {state.n} qubits")
    probs = np.abs(state.amplitudes) ** 2
    return float(probs @ cut_value_table(instance))


def check_shots(shots) -> None:
    """Reject anything but a positive int (bool is an int subclass)."""
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")


def measure_rows(amps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One basis-index outcome per draw in ``u``: row r's, or the only row's for all.

    Inverse-CDF sampling, ``searchsorted(cum, u * cum[-1], "right")`` on
    each row, clipped to the last index. Outcome i belongs to draw i, in
    the order given. For one row, sorted draws are located fastest: each
    search then starts near where the previous one ended in the CDF.
    """
    cum = np.cumsum(np.abs(amps) ** 2, axis=1)
    total = cum[:, -1]
    if not np.all(np.isfinite(total)) or np.any(total <= 0):
        raise ValueError("state has no probability mass")
    if amps.shape[0] == 1:
        outcome = np.searchsorted(cum[0], u * total[0], side="right")
    else:
        outcome = (cum <= (u * total)[:, None]).sum(axis=1)
    return np.minimum(outcome, amps.shape[1] - 1)


def sample_tally(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Multinomial measurement as a histogram over basis indices.

    Returns ``np.bincount`` of the ``shots`` outcomes, of length 2^n.
    Shot i consumes draw i of the (seed, sample) substream, so any
    prefix of the shots is reproducible independently. The draws are
    located in sorted order; a tally does not depend on that order.
    """
    check_shots(shots)
    u = rng.generator(seed, rng.STREAM_SAMPLE).random(shots)
    outcomes = measure_rows(state.amplitudes[None], np.sort(u))
    return np.bincount(outcomes, minlength=state.amplitudes.size)


def counts_from_tally(tally: np.ndarray, n: int) -> Counts:
    """Counts of a basis-index tally; keys only for the nonzero entries, in index order."""
    counts = {format(int(i), f"0{n}b"): int(tally[i]) for i in np.flatnonzero(tally)}
    return Counts(counts, int(tally.sum()))


def sample_counts(state: StateVector, shots: int, seed: int) -> Counts:
    """Multinomial measurement of the state in the computational basis.

    The ``sample_tally`` of the same arguments, formatted as bitstrings
    by ``counts_from_tally``; use the tally where no bitstring is needed.
    """
    return counts_from_tally(sample_tally(state, shots, seed), state.n)
