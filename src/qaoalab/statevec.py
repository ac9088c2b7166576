"""Dense statevector simulation for few-qubit circuits.

Basis convention: qubit 0 occupies the most significant bit of the basis
index, so the leftmost character of a measured bitstring is qubit 0 and
therefore node 0 of the graph module. Qubit q's bit of index ``i`` is
``(i >> (n - 1 - q)) & 1``.

A state is its (2^n,) complex amplitude array: a function that takes
one checks once that it is 1-D with 2^n entries, n in 1..MAX_QUBITS. A
tally is a (2^n,) integer array of basis-index counts >= 0, checked by
the tally rule where it is formatted. A histogram is a ``dict[str, int]``
of n-character bitstring counts, and its shots are their sum; its keys
come from ``bitstrings``, one array operation for all of them.

Gates are value objects (GateOp). One kernel, ``apply_rows``, applies a
gate to every row of a (rows, 2^n) array; ``simulate_ops`` runs it on
one row. ``rotation_pairs`` is the one rule for a rotation's factors:
the complex pair of an RZ or RX at each angle. ``apply_rows`` multiplies
by it, and so does the noisy trajectory engine for every RZ, RX,
dephasing kick and coherent ZZ, on a row per shot, with these index
tables; it runs H through ``apply_rows`` itself
(``qaoalab.trajectories``). Index tables are
cached per (n, qubit), so repeated runs pay no setup cost.
``check_gate`` is the one op check. ``measure_rows`` is the one
locator of shots: it takes (rows, 2^n) probability rows of the same
layout and (rows, m) draws from ``sample_draws``, and every exact,
sampled or noisy shot is one of its outcomes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _checks, rng
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


def zero_state(n: int) -> np.ndarray:
    """|0...0> on n qubits: 2^n amplitudes, the first 1."""
    n = _checks.integer(n, "qubit count", 1, MAX_QUBITS)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def _qubits(state) -> int:
    """n of a state: a 1-D array of 2^n amplitudes, n in 1..MAX_QUBITS."""
    size = state.shape[0] if isinstance(state, np.ndarray) and state.ndim == 1 else 0
    if size < 2 or size & (size - 1) or size > 1 << MAX_QUBITS:
        shape = getattr(state, "shape", type(state).__name__)
        raise ValueError(f"state must be a 1-D array of 2^n amplitudes, n in 1..{MAX_QUBITS}, "
                         f"got {shape}")
    return size.bit_length() - 1


def _tally_qubits(tally) -> int:
    """n of a tally: a 1-D integer array of 2^n counts >= 0, n in 1..MAX_QUBITS."""
    size = tally.shape[0] if isinstance(tally, np.ndarray) and tally.ndim == 1 else 0
    if size < 2 or size & (size - 1) or size > 1 << MAX_QUBITS or tally.dtype.kind not in "iu":
        got = (f"an array of {tally.dtype} and shape {tally.shape}" if isinstance(tally, np.ndarray)
               else type(tally).__name__)
    elif tally.min() < 0:
        got = f"a count of {tally.min()} at index {tally.argmin()}"
    else:
        return size.bit_length() - 1
    raise ValueError(f"tally must be a 1-D integer array of 2^n counts >= 0, n in 1..{MAX_QUBITS}, "
                     f"got {got}")


# ---------------------------------------------------------------------------
# cached index tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _bit_values(n: int, *qubits: int) -> np.ndarray:
    """Each basis index's bit of one qubit, or the parity of the bits of several."""
    idx = np.arange(1 << n, dtype=np.int64)
    bits = np.bitwise_xor.reduce([(idx >> (n - 1 - q)) & 1 for q in qubits])
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=512)
def _xor_perm(n: int, mask: int) -> np.ndarray:
    """Each basis index XOR ``mask``: its partner across the bits set in ``mask``."""
    perm = np.arange(1 << n, dtype=np.int64) ^ mask
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=512)
def _x_perm(n: int, q: int) -> np.ndarray:
    return _xor_perm(n, 1 << (n - 1 - q))


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


def rotation_pairs(kind: str, angles) -> np.ndarray:
    """The (..., 2) complex pair of an RZ or RX at each of ``angles``.

    An RZ's pair is (conj w, w) with w = exp(0.5j * angle): its diagonal
    where the qubit's bit is 0 and where it is 1. An RX's is (cos, -1j
    sin) of half the angle: the diagonal and the off-diagonal entry of
    its matrix. Either pair at -angle is its conjugate, and an RZ's
    conjugate is its reversal. Every RZ, RX, dephasing kick and coherent
    ZZ that ``apply_rows`` and the noisy engine multiply by is read from
    here, so both see the same bits.
    """
    angles = np.asarray(angles, dtype=float)
    pairs = np.empty(angles.shape + (2,), dtype=complex)
    if kind == "RZ":
        np.conjugate(np.exp(0.5j * angles, out=pairs[..., 1]), out=pairs[..., 0])
    else:
        half = 0.5 * angles
        pairs[..., 0] = np.cos(half)
        pairs[..., 1] = -1j * np.sin(half)
    return pairs


def apply_rows(amps: np.ndarray, n: int, op: GateOp) -> np.ndarray:
    """Apply one op to every row of a C-ordered (rows, 2^n) array.

    Returns a new array, or ``amps`` itself for DELAY. Each row gets the
    same floating-point operations whatever the number of rows, so a
    batch of rows gives, bit for bit, the amplitudes of running each
    row alone. Results stay C-ordered (``np.take`` rather than
    ``amps[:, perm]``, which returns Fortran order), so a multiply by a
    broadcast (2^n,) vector runs row by row: numpy's complex multiply can
    round the last bit differently when it instead runs along a column
    against one broadcast scalar. An RZ multiplies by its
    ``rotation_pairs`` entry at the qubit's bit of each index. An H or
    RX adds to each amplitude times mat[b, b] its partner across the
    qubit times mat[b, 1 - b], for b the qubit's bit: an RX's pair is
    its two scalars. Every entry of an H or RX matrix is real or
    imaginary, so each product is one rounding per component however
    numpy multiplies complex numbers.
    """
    kind = op.kind
    if kind == "RZ":
        return amps * rotation_pairs(kind, op.angle)[_bit_values(n, op.qubits[0])]
    if kind in ("H", "RX"):
        bit = _bit_values(n, op.qubits[0])
        diagonal, off = ((_H[bit, bit], _H[bit, 1 - bit]) if kind == "H"
                         else rotation_pairs(kind, op.angle))
        out = amps * diagonal
        flipped = np.take(amps, _x_perm(n, op.qubits[0]), axis=1)
        flipped *= off
        out += flipped
        return out
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


def check_gate(n: int, op: GateOp) -> None:
    """The op rules; ``Circuit`` and ``simulate_ops`` run them."""
    _checks.of_type(op, GateOp, "op")
    _checks.of_type(op.qubits, (tuple, list), "qubits")
    if op.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {op.kind!r}")
    arity = 2 if op.kind in TWO_QUBIT_KINDS else 1
    if len(op.qubits) != arity:
        raise ValueError(f"{op.kind} takes {arity} qubit(s), got {op.qubits!r}")
    for q in op.qubits:
        _checks.integer(q, "qubit", 0, n - 1)
    if len(set(op.qubits)) != len(op.qubits):
        raise ValueError(f"{op.kind} qubits must be distinct, got {op.qubits!r}")
    if op.kind in ROTATION_KINDS:
        if op.angle is None:
            raise ValueError(f"{op.kind} requires an angle")
        _checks.real(op.angle, "angle")
    elif op.kind != "DELAY" and op.angle is not None:
        raise ValueError(f"{op.kind} takes no angle")
    _checks.real(op.duration, "duration", 0)


def simulate_ops(n: int, ops) -> np.ndarray:
    """The (2^n,) amplitudes of a gate sequence run on |0...0>; validates every op."""
    amps = zero_state(n)[None]
    for op in ops:
        check_gate(n, op)
        amps = apply_rows(amps, n, op)
    return amps[0]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def expectation_cut(state: np.ndarray, instance: MaxCutInstance) -> float:
    """<state| C |state> for the diagonal cut observable of ``instance``."""
    _checks.of_type(instance, MaxCutInstance, "instance")
    n = _qubits(state)
    if instance.n != n:
        raise ValueError(f"instance has {instance.n} nodes but state has {n} qubits")
    probs = np.abs(state) ** 2
    return float(probs @ cut_value_table(instance))


def measure_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (rows, m) basis-index outcomes of (rows, m) draws ``u``, row r's in row r's CDF.

    ``probs`` holds (rows, 2^n) basis probabilities, such as
    ``np.abs(amps) ** 2``. Inverse-CDF sampling: outcome [r, i] is
    ``searchsorted(cum[r], u[r, i] * cum[r, -1], "right")``, clipped to
    the last index, so each row samples as if alone and sorted draws
    give sorted outcomes. One draw per row over several rows (a chunk of
    per-shot trajectories) is located by one compare-and-count over the
    array; any other shape row by row, where sorted draws are located
    fastest, as each search starts near where the previous one ended.
    """
    cum = np.cumsum(probs, axis=1)
    total = cum[:, -1]
    if not np.all(np.isfinite(total)) or np.any(total <= 0):
        raise ValueError("state has no probability mass")
    if u.shape[1] == 1 and len(u) > 1:
        outcome = (cum <= u * total[:, None]).sum(axis=1, keepdims=True)
    else:
        outcome = np.empty(u.shape, dtype=np.int64)
        for row, c, x, t in zip(outcome, cum, u, total):
            row[:] = np.searchsorted(c, x * t, side="right")
    return np.minimum(outcome, probs.shape[1] - 1)


def sample_draws(seeds, shots: int) -> np.ndarray:
    """The (k, shots) measurement draws of k seeds: row j is ``seeds[j]``'s sample substream.

    Shot i of a seed takes ``rng.doubles`` of word i of its (seed,
    sample) key's ``rng.words``, so any prefix of the shots is
    reproducible independently. Its callers check ``shots`` and the seeds.
    """
    draws = [rng.doubles(rng.words(rng.derive_key(seed, rng.STREAM_SAMPLE), shots)) for seed in seeds]
    return np.array(draws).reshape(len(draws), shots)


def bitstrings(indices: np.ndarray, n: int) -> np.ndarray:
    """The n-character keys of basis indices, ``format(i, f"0{n}b")`` of each, as a U{n} array.

    Row r of a (k, n) array of code points holds index r's bits, qubit 0
    first, as "0" or "1"; viewed as U{n}, each row is its key, so no
    index is formatted one by one. Ascending indices give ascending keys.
    """
    bits = np.right_shift.outer(indices, np.arange(n - 1, -1, -1)).astype(np.uint32)
    bits &= 1
    bits |= ord("0")
    return bits.view(f"U{n}").reshape(-1)


def counts_from_tally(tally: np.ndarray) -> dict[str, int]:
    """The histogram of a (2^n,) basis-index tally: keys only for the nonzero entries, in index order.

    The tally is checked by the tally rule (a 1-D integer array of 2^n
    counts >= 0), and its keys come from ``bitstrings`` in one pass.
    """
    n = _tally_qubits(tally)
    hit = np.flatnonzero(tally)
    return dict(zip(bitstrings(hit, n).tolist(), tally[hit].tolist()))


def sample_counts(state: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Multinomial measurement of the state in the computational basis.

    The tally of ``measure_rows`` on the state's probabilities and the
    seed's sorted ``sample_draws``, formatted as bitstrings by
    ``counts_from_tally``; the draws are located in sorted order, which
    their tally does not depend on.
    """
    _qubits(state)
    shots = _checks.integer(shots, "shots", 1)
    seed = _checks.seed(seed)
    outcomes = measure_rows((np.abs(state) ** 2)[None], np.sort(sample_draws([seed], shots)))
    return counts_from_tally(np.bincount(outcomes[0], minlength=state.size))
