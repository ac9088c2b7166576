"""Alternating-layer MaxCut ansatz: the gate-free state and the gate list.

The depth-p circuit is H on every qubit, then p repetitions of a cost
layer and a mixer layer. Each edge (u, v) with weight w contributes
CNOT(u, v), RZ(2*w*gamma) on v, CNOT(u, v), the diagonal phase
exp(-i*w*gamma) on basis states where the edge is uncut and
exp(+i*w*gamma) where it is cut; global phase aside, gamma thus
parameterizes the cost-layer evolution. The mixer is RX(2*beta) on
every qubit. Gate count is n + p * (3*|E| + n).

Exact and sampled evaluation never build that gate list. A cut value
does not change when every bit is complemented, and both |+>^n and the
mixer commute with X on every qubit, so the state satisfies
psi(x) = psi(not x). ``qaoa_state`` therefore evolves only the half h
with node 0 = 0, 2^(n-1) amplitudes over nodes 1..n-1. It applies each
cost layer as one diagonal phase exp(2i*gamma*C), evaluated at the
distinct cut values and gathered over that half, and each mixer layer
as RX(2*beta) on nodes 1..n-1, MIXER_BLOCK qubits at a time, one dense
block per pass. On a symmetric state X on node 0 acts as X on nodes
1..n-1, which reverses h, so node 0's RX is cos(beta)*h - i*sin(beta)*h
reversed; for n <= 6, where nodes 1..n-1 fit in one block, that step is
folded into the block. The gate list from ``build_qaoa_circuit`` is what
noisy sampling runs, and it is the reference the gate-free state is
tested against.
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

# qubits per mixer block in ``qaoa_state``: a (2^5 x 2^5) block per pass over
# nodes 1..n-1; for n <= 6 the one block also carries node 0's RX
MIXER_BLOCK = 5


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


def gate_count(n: int, m: int, p: int) -> int:
    """Ops in a depth-p circuit on n qubits with m edges."""
    return n + p * (3 * m + n)


def build_qaoa_circuit(instance: MaxCutInstance, params: QaoaParams) -> Circuit:
    """Construct the depth-p circuit for ``instance`` at ``params``."""
    ops: list[GateOp] = []
    for q in range(instance.n):
        ops.append(GateOp("H", (q,), None, ONE_QUBIT_DURATION))
    for beta, gamma in zip(params.betas, params.gammas):
        for (u, v), w in zip(instance.edges, instance.weights):
            ops.append(GateOp("CNOT", (u, v), None, TWO_QUBIT_DURATION))
            ops.append(GateOp("RZ", (v,), 2.0 * w * gamma, ONE_QUBIT_DURATION))
            ops.append(GateOp("CNOT", (u, v), None, TWO_QUBIT_DURATION))
        for q in range(instance.n):
            ops.append(GateOp("RX", (q,), 2.0 * beta, ONE_QUBIT_DURATION))
    return Circuit(instance.n, tuple(ops))


@lru_cache(maxsize=None)
def _hamming_distances(k: int) -> np.ndarray:
    """(2^k, 2^k) table of popcount(x ^ y), read-only."""
    idx = np.arange(1 << k)
    diff = idx[:, None] ^ idx[None, :]
    dist = sum((diff >> b) & 1 for b in range(k))
    dist.flags.writeable = False
    return dist


def qaoa_state(instance: MaxCutInstance, params: QaoaParams) -> StateVector:
    """Final state of the depth-p circuit, computed without a gate list.

    Equals ``simulate_ops`` on ``build_qaoa_circuit(instance, params)``
    up to the global phase exp(-i*gamma*W) per layer, W the total weight.
    The state is symmetric under complementing every bit, so only the
    half h with node 0 = 0 is evolved; the other half is h reversed.
    """
    n = instance.n
    half = 1 << (n - 1)
    levels, index = cut_levels(instance)
    index = index[:half]
    blocks = [MIXER_BLOCK] * ((n - 1) // MIXER_BLOCK)
    if (n - 1) % MIXER_BLOCK:
        blocks.append((n - 1) % MIXER_BLOCK)
    # nodes 1..n-1 in one block: node 0's RX folds into that block's weights
    fold = len(blocks) == 1
    h = np.full(half, 2.0 ** (-0.5 * n), dtype=complex)
    for beta, gamma in zip(params.betas, params.gammas):
        # the same exp of the same values as exp(2j*gamma*table), gathered
        h *= np.exp(2j * gamma * levels)[index]
        c, s = math.cos(beta), -1j * math.sin(beta)
        # RX(2*beta) on k of nodes 1..n-1: entry (x, y) is f(d) = c^(k-d) * s^d,
        # d = popcount(x ^ y). The block is symmetric, so right-multiplying
        # applies it to the last k qubits; the transpose then rotates those to
        # the front, and blocks summing to n-1 restore the original order
        for k in blocks:
            f = [c ** (k - d) * s ** d for d in range(k + 1)]
            if fold:
                # c*B + s*(B, then h reversed): reversing flips all k bits of x,
                # so d becomes k - d; exact, as the reversal commutes with B
                f = [c * f[d] + s * f[k - d] for d in range(k + 1)]
            h = (h.reshape(-1, 1 << k) @ np.array(f)[_hamming_distances(k)]).T.reshape(-1)
        if not fold:
            # RX on node 0: on a symmetric state X_0 acts as X on nodes 1..n-1,
            # which complements the index into h, i.e. reverses h
            h = c * h + s * h[::-1]
    return StateVector(n, np.concatenate([h, h[::-1]]))


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
