"""Alternating-layer MaxCut ansatz: the gate-free state and the gate list.

The depth-p circuit is H on every qubit, then p repetitions of a cost
layer and a mixer layer. Each edge (u, v) with weight w contributes
CNOT(u, v), RZ(2*w*gamma) on v, CNOT(u, v), the diagonal phase
exp(-i*w*gamma) on basis states where the edge is uncut and
exp(+i*w*gamma) where it is cut; global phase aside, gamma thus
parameterizes the cost-layer evolution. The mixer is RX(2*beta) on
every qubit. Gate count is n + p * (3*|E| + n).

Exact and sampled evaluation never build that gate list. They run one
gate-free engine, which evolves a (k, 2p) batch of angle rows at once.
A cut value does not change when every bit is complemented, and both
|+>^n and the mixer commute with X on every qubit, so the state
satisfies psi(x) = psi(not x). The engine therefore evolves only the
half h with node 0 = 0, 2^(n-1) amplitudes over nodes 1..n-1, from one
``HalfPlan`` per instance (``half_plan``, cached per instance).
It applies each cost layer as one diagonal phase exp(2i*gamma*C),
evaluated at the distinct cut values and gathered over that half, and
each mixer layer as RX(2*beta) on nodes 1..n-1, MIXER_BLOCK qubits at a
time, one dense block per pass. On a symmetric state X on node 0 acts
as X on nodes 1..n-1, which reverses h, so node 0's RX is
cos(beta)*h - i*sin(beta)*h reversed; for n <= 6, where nodes 1..n-1
fit in one block, that step is folded into the block, and each row
stays (1, 2^(n-1)) so that a layer is one multiply and one matmul.
The state is h followed by its reverse; ``qaoa_probabilities`` returns
|h|^2 followed by its reverse, the same bits as that state's
probabilities, and is what the exact and sampled engines score. The
gate list from ``build_qaoa_circuit`` is what noisy sampling runs, and
it is the reference the gate-free state is tested against;
``qaoa_angles`` gives its RZ and RX angles for a whole batch of angle
rows, so a noisy batch builds one circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _checks
from .graph import MaxCutInstance, cut_levels
from .statevec import MAX_QUBITS, GateOp, check_gate, sample_counts, simulate_ops

ONE_QUBIT_DURATION = 1.0
TWO_QUBIT_DURATION = 4.0

# qubits per mixer block in ``_evolve_half``: a (2^5 x 2^5) block per pass over
# nodes 1..n-1; for n <= 6 the one block also carries node 0's RX
MIXER_BLOCK = 5
# half-state amplitudes ``qaoa_probabilities`` evolves per pass: 512 rows at n=5,
# one at n=14. A pass also holds p mixer blocks per row, at most 4 MB a layer (n=6)
BATCH_AMPLITUDES = 1 << 13


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles; betas drive the mixer, gammas the cost phase; each a finite number."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(_checks.real(b, "betas: angle") for b in _checks.sequence(self.betas, "betas"))
        gammas = tuple(_checks.real(g, "gammas: angle") for g in _checks.sequence(self.gammas, "gammas"))
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
        theta = _checks.real_array(theta, "parameter vector")
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
        object.__setattr__(self, "n", _checks.integer(self.n, "qubit count", 1, MAX_QUBITS))
        ops = []
        for op in _checks.sequence(self.ops, "ops"):
            check_gate(self.n, op)
            ops.append(op if type(op.qubits) is tuple else op._replace(qubits=tuple(op.qubits)))
        object.__setattr__(self, "ops", tuple(ops))


def qaoa_angles(instance: MaxCutInstance, thetas) -> np.ndarray:
    """The RZ and RX angles of ``build_qaoa_circuit``, in op order, for a (k, 2p) batch.

    Row r of the (k, p * (|E| + n)) result holds, layer by layer, each
    edge's 2*(w*gamma) and then each qubit's 2*beta for the angles of
    row r of ``thetas``: the products the circuit itself carries. w*gamma
    comes first, so a weight near the float range overflows only where
    the angle itself does.
    """
    thetas = np.asarray(thetas, dtype=float)
    k, p = thetas.shape[0], thetas.shape[1] // 2
    rz = 2.0 * (np.asarray(instance.weights, dtype=float) * thetas[:, p:, None])
    rx = np.repeat(2.0 * thetas[:, :p, None], instance.n, axis=2)
    return np.concatenate([rz, rx], axis=2).reshape(k, p * (len(instance.edges) + instance.n))


def build_qaoa_circuit(instance: MaxCutInstance, params: QaoaParams) -> Circuit:
    """Construct the depth-p circuit for ``instance`` at ``params``.

    An angle beyond the float range is refused by name, as ``Circuit``
    refuses any angle that is not a finite number.
    """
    _checks.of_type(instance, MaxCutInstance, "instance")
    _checks.of_type(params, QaoaParams, "params")
    with np.errstate(over="ignore"):
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


class HalfPlan:
    """What ``_evolve_half`` needs of an instance; ``half_plan`` builds one per instance.

    ``cut_levels`` with the index cut to the half; the mixer block sizes
    over nodes 1..n-1, and ``fold`` when one block also carries node 0's
    RX; a Hamming table per distinct block size; the amplitude of |+>^n;
    and one row's shape during evolution, (1, half) when folded.
    """

    __slots__ = ("half", "levels", "index", "blocks", "fold", "mixers", "start", "shape")

    def __init__(self, instance: MaxCutInstance):
        n = instance.n
        self.half = half = 1 << (n - 1)
        self.levels, index = cut_levels(instance)
        self.index = index[:half]
        blocks = (MIXER_BLOCK,) * ((n - 1) // MIXER_BLOCK)
        if (n - 1) % MIXER_BLOCK:
            blocks += ((n - 1) % MIXER_BLOCK,)
        self.blocks, self.fold = blocks, len(blocks) == 1
        self.mixers = tuple((b, _hamming_distances(b)) for b in sorted(set(blocks)))
        self.start = 2.0 ** (-0.5 * n)
        self.shape = (1, half) if self.fold else (half,)


@lru_cache(maxsize=128)
def half_plan(instance: MaxCutInstance) -> HalfPlan:
    """The instance's ``HalfPlan``, cached per instance."""
    return HalfPlan(instance)


_ONE = 1 + 0j


# the rows of a finite-difference or simplex batch share all angles but one, and
# a line search moves the betas or the gammas, not both: most betas repeat ones
# seen shortly before (in a paper-p5 sweep, a larger memo finds no more repeats).
# A zero is never looked up: 0.0 == -0.0, but their sines differ in sign, so
# ``_evolve_half`` computes it through ``__wrapped__``
@lru_cache(maxsize=256)
def _mixer_weights(beta: float, b: int, fold: bool) -> tuple[complex, ...]:
    """f(d) for d = 0..b: entry (x, y) of RX(2*beta) on b qubits is f(popcount(x ^ y)).

    f(d) = c ** (b - d) * s ** d, with c = cos(beta) and s = -i*sin(beta),
    written out per b in 1..MIXER_BLOCK with no list: each s ** d is the
    product chain CPython's complex power takes (squaring, from 1+0j,
    whose products fix the signs of zeros), and each c ** k a float pow,
    so every weight has the bits of that expression.
    """
    c, s = math.cos(beta), -1j * math.sin(beta)
    s1, s2 = _ONE * s, s * s
    s4 = s2 * s2
    p0, p1, p2, p3, p4, p5 = _ONE, s1, _ONE * s2, s1 * s2, _ONE * s4, s1 * s4
    # fold: c*B + s*(B, then h reversed): reversing flips all b bits of x,
    # so d becomes b - d; exact, as the reversal commutes with B
    if b == 1:
        f0, f1 = c ** 1 * p0, c ** 0 * p1
        return (c * f0 + s * f1, c * f1 + s * f0) if fold else (f0, f1)
    if b == 2:
        f0, f1, f2 = c ** 2 * p0, c ** 1 * p1, c ** 0 * p2
        return (c * f0 + s * f2, c * f1 + s * f1, c * f2 + s * f0) if fold else (f0, f1, f2)
    if b == 3:
        f0, f1, f2, f3 = c ** 3 * p0, c ** 2 * p1, c ** 1 * p2, c ** 0 * p3
        if fold:
            return (c * f0 + s * f3, c * f1 + s * f2, c * f2 + s * f1, c * f3 + s * f0)
        return f0, f1, f2, f3
    if b == 4:
        f0, f1, f2, f3, f4 = c ** 4 * p0, c ** 3 * p1, c ** 2 * p2, c ** 1 * p3, c ** 0 * p4
        if fold:
            return (c * f0 + s * f4, c * f1 + s * f3, c * f2 + s * f2, c * f3 + s * f1,
                    c * f4 + s * f0)
        return f0, f1, f2, f3, f4
    f0, f1, f2, f3, f4, f5 = (c ** 5 * p0, c ** 4 * p1, c ** 3 * p2, c ** 2 * p3, c ** 1 * p4,
                              c ** 0 * p5)
    if fold:
        return (c * f0 + s * f5, c * f1 + s * f4, c * f2 + s * f3, c * f3 + s * f2,
                c * f4 + s * f1, c * f5 + s * f0)
    return f0, f1, f2, f3, f4, f5


def qaoa_probabilities(plan: HalfPlan, thetas: np.ndarray) -> np.ndarray:
    """The (k, 2^n) basis probabilities of the depth-p states of a (k, 2p) batch of angle rows.

    ``plan`` is ``half_plan(instance)`` and row r of ``thetas`` is
    [betas..., gammas...]. The rows are evolved in passes of
    BATCH_AMPLITUDES half-state amplitudes: many rows per pass at small
    n, where per-call overhead dominates, and one row per pass at large
    n, where a wider pass only spills the working set out of cache.
    Every row gets the same floating-point operations whatever the batch
    around it, so its bits depend neither on k nor on its position. Each
    pass's |h|^2 is taken on the contiguous half and mirrored, so no
    complex full state is built; the bits are those of |psi|^2 of the
    state h followed by its reverse, as numpy's complex abs rounds as on
    that state's row on a forward-strided input, and a mirrored float is
    the same float.
    """
    half = plan.half
    rows = max(1, BATCH_AMPLITUDES // half)
    probs = np.empty((len(thetas), 2 * half))
    for i in range(0, len(thetas), rows):
        h = _evolve_half(plan, thetas[i:i + rows])
        q = probs[i:i + len(h)]
        np.abs(h, out=q[:, :half])
        np.square(q[:, :half], out=q[:, :half])
        q[:, half:] = q[:, half - 1::-1]
    return probs


def _evolve_half(plan: HalfPlan, thetas: np.ndarray) -> np.ndarray:
    """The (k, 2^(n-1)) halves with node 0 = 0 of the states of one pass's rows."""
    half, fold = plan.half, plan.fold
    k, p = thetas.shape[0], thetas.shape[1] // 2
    angles = thetas.T
    betas = angles[:p].tolist()
    # per layer and row: the cost phase exp(2i*gamma*C), evaluated at the
    # distinct cut values and gathered over the half, (p, k, *shape); and
    # RX(2*beta) on b qubits as a (2^b, 2^b) block of entries
    # f(popcount(x ^ y)), (p, k, 2^b, 2^b). take keeps every block C-ordered,
    # so numpy's matmul calls BLAS on each, as on a lone block
    phases = np.exp(2j * angles[p:, :, None] * plan.levels).take(plan.index, axis=2).reshape(
        p, k, *plan.shape)
    mixers = {}
    for b, distances in plan.mixers:
        weights = []
        for layer in betas:
            for beta in layer:
                weights.extend(_mixer_weights(beta, b, fold) if beta
                               else _mixer_weights.__wrapped__(beta, b, fold))
        mixers[b] = np.array(weights, dtype=complex).reshape(p, k, b + 1).take(distances, axis=2)
    h = np.full((k, *plan.shape), plan.start, dtype=complex)
    for layer in range(p):
        h *= phases[layer]
        if fold:
            # one symmetric block on each (1, half) row: right-multiplying
            # applies it to nodes 1..n-1, node 0's RX folded in
            h = h @ mixers[plan.blocks[0]][layer]
            continue
        # the block is symmetric, so right-multiplying applies it to the last
        # b qubits; the transpose then rotates those to the front, and blocks
        # summing to n-1 restore the original order
        for b in plan.blocks:
            h = (h.reshape(k, -1, 1 << b) @ mixers[b][layer]).transpose(0, 2, 1).reshape(k, half)
        # RX on node 0: on a symmetric state X_0 acts as X on nodes 1..n-1,
        # which complements the index into h, i.e. reverses h. c is made
        # complex: a real column against complex rows takes numpy's slow
        # buffered cast, for the same products
        c = np.array([[math.cos(beta)] for beta in betas[layer]], dtype=complex)
        s = np.array([[-1j * math.sin(beta)] for beta in betas[layer]])
        flipped = s * h[:, ::-1]
        h *= c
        h += flipped
    return h.reshape(k, half)


def run_circuit(
    circuit: Circuit,
    mode: str,
    *,
    shots: int | None = None,
    seed: int | None = None,
    noise=None,
) -> np.ndarray | dict[str, int]:
    """Execute a circuit.

    exact   -> the final (2^n,) amplitude array, no randomness
    sampled -> bitstring counts dict of the noiseless final state (shots, seed required)
    noisy   -> bitstring counts dict of per-shot noise trajectories (noise config required)
    """
    from . import noise as noise_mod, objective  # circular at import time only

    _checks.of_type(circuit, Circuit, "circuit")
    shots = objective.check_run_mode(mode, shots, noise)
    seed = objective.check_seed(mode, seed, mode != "exact")
    if mode == "exact":
        return simulate_ops(circuit.n, circuit.ops)
    if mode == "sampled":
        return sample_counts(simulate_ops(circuit.n, circuit.ops), shots, seed)
    return noise_mod.sample_noisy(circuit, noise, shots, seed)
