"""Alternating-layer MaxCut ansatz: the gate-free state and the gate list.

The depth-p circuit is H on every qubit, then p repetitions of a cost
layer and a mixer layer. Each edge (u, v) with weight w contributes
CNOT(u, v), RZ(2*w*gamma) on v, CNOT(u, v), the diagonal phase
exp(-i*w*gamma) on basis states where the edge is uncut and
exp(+i*w*gamma) where it is cut; global phase aside, gamma thus
parameterizes the cost-layer evolution. The mixer is RX(2*beta) on
every qubit. Gate count is n + p * (3*|E| + n).

Exact and sampled evaluation never build that gate list. They run one
gate-free engine, ``qaoa_states``, which evolves a (k, 2p) batch of
angle rows at once; ``qaoa_state`` is its one-row case. A cut value
does not change when every bit is complemented, and both |+>^n and the
mixer commute with X on every qubit, so the state satisfies
psi(x) = psi(not x). The engine therefore evolves only the half h
with node 0 = 0, 2^(n-1) amplitudes over nodes 1..n-1. It applies each
cost layer as one diagonal phase exp(2i*gamma*C), evaluated at the
distinct cut values and gathered over that half, and each mixer layer
as RX(2*beta) on nodes 1..n-1, MIXER_BLOCK qubits at a time, one dense
block per pass. On a symmetric state X on node 0 acts as X on nodes
1..n-1, which reverses h, so node 0's RX is cos(beta)*h - i*sin(beta)*h
reversed; for n <= 6, where nodes 1..n-1 fit in one block, that step is
folded into the block. The gate list from ``build_qaoa_circuit`` is what
noisy sampling runs, and it is the reference the gate-free state is
tested against; ``qaoa_angles`` gives its RZ and RX angles for a whole
batch of angle rows, so a noisy batch builds one circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import MaxCutInstance, cut_levels
from .statevec import (Counts, GateOp, StateVector, check_gate, check_qubit_count,
                       sample_counts, simulate_ops)

ONE_QUBIT_DURATION = 1.0
TWO_QUBIT_DURATION = 4.0

RUN_MODES = ("exact", "sampled", "noisy")

# qubits per mixer block in ``qaoa_states``: a (2^5 x 2^5) block per pass over
# nodes 1..n-1; for n <= 6 the one block also carries node 0's RX
MIXER_BLOCK = 5
# half-state amplitudes ``qaoa_states`` evolves per pass: 512 rows at n=5, one at
# n=14. A pass also holds p mixer blocks per row, at most 4 MB a layer (n=6)
BATCH_AMPLITUDES = 1 << 13


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles; betas drive the mixer, gammas the cost phase."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        gammas = tuple(float(g) for g in self.gammas)
        for name, angles in (("betas", betas), ("gammas", gammas)):
            if not all(map(math.isfinite, angles)):
                raise ValueError(f"{name}: angles must be finite, got {angles!r}")
        if len(betas) != len(gammas):
            raise ValueError(
                f"{len(betas)} betas vs {len(gammas)} gammas; layer counts must match"
            )
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)

    @property
    def p(self) -> int:
        return len(self.betas)

    def to_vector(self) -> np.ndarray:
        """Flat parameter vector [betas..., gammas...]."""
        return np.array(self.betas + self.gammas, dtype=float)

    @classmethod
    def from_vector(cls, theta) -> "QaoaParams":
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size % 2 != 0:
            raise ValueError(f"parameter vector must be flat with even length, got shape {theta.shape}")
        p = theta.size // 2
        return cls(tuple(theta[:p]), tuple(theta[p:]))


@dataclass(frozen=True)
class Circuit:
    """Immutable, hashable gate list on n qubits; checks n and every op when built.

    Each op's qubits are stored as a tuple, whatever sequence they came in.
    """

    n: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        check_qubit_count(self.n)
        ops = []
        for op in self.ops:
            check_gate(self.n, op)
            ops.append(op if type(op.qubits) is tuple else op._replace(qubits=tuple(op.qubits)))
        object.__setattr__(self, "ops", tuple(ops))


def qaoa_angles(instance: MaxCutInstance, thetas) -> np.ndarray:
    """The RZ and RX angles of ``build_qaoa_circuit``, in op order, for a (k, 2p) batch.

    Row r of the (k, p * (|E| + n)) result holds, layer by layer, each
    edge's 2*w*gamma and then each qubit's 2*beta for the angles of row
    r of ``thetas``: the products the circuit itself carries.
    """
    thetas = np.asarray(thetas, dtype=float)
    k, p = thetas.shape[0], thetas.shape[1] // 2
    rz = 2.0 * np.asarray(instance.weights, dtype=float) * thetas[:, p:, None]
    rx = np.repeat(2.0 * thetas[:, :p, None], instance.n, axis=2)
    return np.concatenate([rz, rx], axis=2).reshape(k, p * (len(instance.edges) + instance.n))


def build_qaoa_circuit(instance: MaxCutInstance, params: QaoaParams) -> Circuit:
    """Construct the depth-p circuit for ``instance`` at ``params``."""
    angles = iter(qaoa_angles(instance, params.to_vector()[None]).ravel().tolist())
    ops: list[GateOp] = []
    for q in range(instance.n):
        ops.append(GateOp("H", (q,), None, ONE_QUBIT_DURATION))
    for _ in range(params.p):
        for u, v in instance.edges:
            ops.append(GateOp("CNOT", (u, v), None, TWO_QUBIT_DURATION))
            ops.append(GateOp("RZ", (v,), next(angles), ONE_QUBIT_DURATION))
            ops.append(GateOp("CNOT", (u, v), None, TWO_QUBIT_DURATION))
        for q in range(instance.n):
            ops.append(GateOp("RX", (q,), next(angles), ONE_QUBIT_DURATION))
    return Circuit(instance.n, tuple(ops))


@lru_cache(maxsize=None)
def _hamming_distances(k: int) -> np.ndarray:
    """(2^k, 2^k) table of popcount(x ^ y), read-only."""
    idx = np.arange(1 << k)
    diff = idx[:, None] ^ idx[None, :]
    dist = sum((diff >> b) & 1 for b in range(k))
    dist.flags.writeable = False
    return dist


# the rows of a finite-difference or simplex batch share all angles but one, and
# a line search moves the betas or the gammas, not both: most betas repeat ones
# seen shortly before (in a paper-p5 sweep, a larger memo finds no more repeats).
# A zero is never looked up: 0.0 == -0.0, but their sines differ in sign, so
# ``_evolve_half`` computes it through ``__wrapped__``
@lru_cache(maxsize=256)
def _mixer_weights(beta: float, b: int, fold: bool) -> tuple[complex, ...]:
    """f(d) for d = 0..b: entry (x, y) of RX(2*beta) on b qubits is f(popcount(x ^ y))."""
    c, s = math.cos(beta), -1j * math.sin(beta)
    f = [c ** (b - d) * s ** d for d in range(b + 1)]
    if fold:
        # c*B + s*(B, then h reversed): reversing flips all b bits of x,
        # so d becomes b - d; exact, as the reversal commutes with B
        f = [c * f[d] + s * f[b - d] for d in range(b + 1)]
    return tuple(f)


def qaoa_states(instance: MaxCutInstance, thetas: np.ndarray) -> np.ndarray:
    """Final states of the depth-p circuit for a (k, 2p) batch of angle rows.

    Row r of ``thetas`` is [betas..., gammas...]; row r of the (k, 2^n)
    result is its state, computed without a gate list. It equals
    ``simulate_ops`` on ``build_qaoa_circuit`` up to the global phase
    exp(-i*gamma*W) per layer, W the total weight. Every row gets the
    same floating-point operations whatever the batch around it, so its
    bits depend neither on k nor on its position. The angles are not
    checked here.

    Rows are evolved BATCH_AMPLITUDES half-state amplitudes at a time:
    many rows per pass at small n, where per-call overhead dominates,
    and one row per pass at large n, where a wider pass only spills the
    working set out of cache.
    """
    thetas = np.asarray(thetas, dtype=float)
    half = 1 << (instance.n - 1)
    rows = max(1, BATCH_AMPLITUDES // half)
    # one output array, written pass by pass (joining the passes' results
    # made a 10-row batch at n=14 about 2x slower per row)
    states = np.empty((len(thetas), 2 * half), dtype=complex)
    for i in range(0, len(thetas), rows):
        h = _evolve_half(instance, thetas[i:i + rows])
        np.concatenate([h, h[:, ::-1]], axis=1, out=states[i:i + rows])
    return states


def _evolve_half(instance: MaxCutInstance, thetas: np.ndarray) -> np.ndarray:
    """The (k, 2^(n-1)) halves with node 0 = 0 of the states of one pass's rows."""
    n = instance.n
    half = 1 << (n - 1)
    k, p = thetas.shape[0], thetas.shape[1] // 2
    levels, index = cut_levels(instance)
    blocks = [MIXER_BLOCK] * ((n - 1) // MIXER_BLOCK)
    if (n - 1) % MIXER_BLOCK:
        blocks.append((n - 1) % MIXER_BLOCK)
    # nodes 1..n-1 in one block: node 0's RX folds into that block's weights
    fold = len(blocks) == 1
    angles = thetas.T
    betas = angles[:p].tolist()
    # per layer and row: the cost phase exp(2i*gamma*C), evaluated at the
    # distinct cut values and gathered over the half, (p, k, half); and
    # RX(2*beta) on b qubits as a (2^b, 2^b) block of entries
    # f(popcount(x ^ y)), (p, k, 2^b, 2^b). take keeps every block C-ordered,
    # so numpy's matmul calls BLAS on each, as on a lone block
    phases = np.exp(2j * angles[p:, :, None] * levels).take(index[:half], axis=2)
    mixers = {}
    for b in set(blocks):
        weights = []
        for layer in betas:
            for beta in layer:
                weights.extend(_mixer_weights(beta, b, fold) if beta
                               else _mixer_weights.__wrapped__(beta, b, fold))
        mixers[b] = np.array(weights, dtype=complex).reshape(p, k, b + 1).take(
            _hamming_distances(b), axis=2)
    h = np.full((k, half), 2.0 ** (-0.5 * n), dtype=complex)
    for layer in range(p):
        h *= phases[layer]
        # the block is symmetric, so right-multiplying applies it to the last
        # b qubits; the transpose then rotates those to the front, and blocks
        # summing to n-1 restore the original order (one block: no transpose)
        for b in blocks:
            h = h.reshape(k, -1, 1 << b) @ mixers[b][layer]
            h = h.reshape(k, half) if fold else h.transpose(0, 2, 1).reshape(k, half)
        if not fold:
            # RX on node 0: on a symmetric state X_0 acts as X on nodes 1..n-1,
            # which complements the index into h, i.e. reverses h. c is made
            # complex: a real column against complex rows takes numpy's slow
            # buffered cast, for the same products
            c = np.array([[math.cos(beta)] for beta in betas[layer]], dtype=complex)
            s = np.array([[-1j * math.sin(beta)] for beta in betas[layer]])
            flipped = s * h[:, ::-1]
            h *= c
            h += flipped
    return h


def qaoa_state(instance: MaxCutInstance, params: QaoaParams) -> StateVector:
    """The state of one angle set: ``qaoa_states`` on a batch of one row."""
    return StateVector(instance.n, qaoa_states(instance, np.array([params.betas + params.gammas]))[0])


def check_run_mode(mode: str, shots, seed, noise) -> None:
    """Reject an unknown mode, or a mode without the inputs it needs."""
    if mode not in RUN_MODES:
        raise ValueError(f"mode must be one of {RUN_MODES}, got {mode!r}")
    if mode != "exact" and (shots is None or seed is None):
        raise ValueError(f"mode {mode!r} requires shots and seed")
    if mode == "noisy" and noise is None:
        raise ValueError("mode 'noisy' requires a noise config")


def run_circuit(
    circuit: Circuit,
    mode: str,
    *,
    shots: int | None = None,
    seed: int | None = None,
    noise=None,
) -> StateVector | Counts:
    """Execute a circuit.

    exact   -> final StateVector, no randomness
    sampled -> Counts from the noiseless final state (shots, seed required)
    noisy   -> Counts from per-shot noise trajectories (noise config required)
    """
    check_run_mode(mode, shots, seed, noise)
    if mode == "exact":
        return simulate_ops(circuit.n, circuit.ops)
    if mode == "sampled":
        return sample_counts(simulate_ops(circuit.n, circuit.ops), shots, seed)
    from . import noise as noise_mod  # circular at import time only

    return noise_mod.sample_noisy(circuit, noise, shots, seed)
