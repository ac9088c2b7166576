"""The full final states of the gate-free exact engine, and its slow mixer, for tests.

The exact and sampled engines score ``ansatz.qaoa_probabilities``,
which never builds a complex state. ``qaoa_states`` builds it from the
same halves: it evolves a batch in the same passes of
``ansatz.BATCH_AMPLITUDES`` half-state amplitudes with
``ansatz._evolve_half`` and writes each row as h followed by its
reverse, so that its states can be held against the gate path and
their probabilities against the engine's, bit for bit.

``evolve_half`` is the slow path ``ansatz._evolve_half`` replaced: for
n > 6 it right-multiplies every mixer block and then rotates the state
through a full transposed copy, so that the next block's qubits come
last. The engine's halves are held against it byte for byte.

``cut_value_table`` is the per-edge form ``graph.cut_value_table``
replaced: each edge adds w times the XOR of its endpoints' bits, taken
from an int64 basis index. The package's table is held against it byte
for byte.
"""

from __future__ import annotations

import math

import numpy as np

from qaoalab.ansatz import BATCH_AMPLITUDES, HalfPlan, _evolve_half, _mixer_weights, half_plan
from qaoalab.graph import MaxCutInstance


def cut_value_table(instance: MaxCutInstance) -> np.ndarray:
    """Cut value for every basis index 0..2^n-1, leftmost bit = node 0, one edge at a time.

    Each edge adds ``w * (bu ^ bv)`` to every entry, in edge order: w
    where the edge is cut, and w * 0 (+0.0 or -0.0) where it is not.
    """
    idx = np.arange(1 << instance.n, dtype=np.int64)
    table = np.zeros(idx.size)
    for (u, v), w in zip(instance.edges, instance.weights):
        bu = (idx >> (instance.n - 1 - u)) & 1
        bv = (idx >> (instance.n - 1 - v)) & 1
        table += w * (bu ^ bv)
    return table


def qaoa_states(instance: MaxCutInstance, thetas: np.ndarray) -> np.ndarray:
    """Final states of the depth-p circuit for a (k, 2p) array of angle rows.

    Row r of ``thetas`` is [betas..., gammas...]; row r of the (k, 2^n)
    result is its state. It equals ``simulate_ops`` on
    ``build_qaoa_circuit`` up to the global phase exp(-i*gamma*W) per
    layer, W the total weight. Every row gets the same floating-point
    operations whatever the batch around it, so its bits depend neither
    on k nor on its position. A row whose phase 2*gamma*C overflows
    comes out NaN, with no numpy warning.
    """
    plan = half_plan(instance)
    rows = max(1, BATCH_AMPLITUDES // plan.half)
    # one output array, written pass by pass (joining the passes' results
    # made a 10-row batch at n=14 about 2x slower per row)
    states = np.empty((len(thetas), 2 * plan.half), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(thetas), rows):
            h = _evolve_half(plan, thetas[i:i + rows])
            np.concatenate([h, h[:, ::-1]], axis=1, out=states[i:i + len(h)])
    return states


def evolve_half(plan: HalfPlan, thetas: np.ndarray) -> np.ndarray:
    """``ansatz._evolve_half`` with a transposed copy of the state after every mixer block.

    The same (k, 2^(n-1)) halves, from the same phases and mixer blocks;
    only the blocks of n > 6 are applied the slow way.
    """
    half, fold = plan.half, plan.fold
    k, p = thetas.shape[0], thetas.shape[1] // 2
    if not p:
        return np.full((k, half), plan.start, dtype=complex)
    angles = thetas.T
    betas = angles[:p].tolist()
    phases = np.exp(2j * angles[p:, :, None] * plan.levels).take(plan.index, axis=2).reshape(
        p, k, *plan.shape)
    mixers = {}
    for b, distances in plan.mixers:
        weights = []
        for layer in betas:
            for beta in layer:
                weights.extend(_mixer_weights.__wrapped__(beta, b, fold))
        mixers[b] = np.array(weights, dtype=complex).reshape(p, k, b + 1).take(distances, axis=2)
    h = phases[0] * plan.start
    for layer in range(p):
        if layer:
            h *= phases[layer]
        if fold:
            h = h @ mixers[plan.blocks[0]][layer]
            continue
        # the block is symmetric, so right-multiplying applies it to the last
        # b qubits; the transpose then rotates those to the front, and blocks
        # summing to n-1 restore the original order
        for b in plan.blocks:
            h = (h.reshape(k, -1, 1 << b) @ mixers[b][layer]).transpose(0, 2, 1).reshape(k, half)
        # RX on node 0: X_0 on a symmetric state reverses h
        c = np.array([[math.cos(beta)] for beta in betas[layer]], dtype=complex)
        s = np.array([[-1j * math.sin(beta)] for beta in betas[layer]])
        flipped = s * h[:, ::-1]
        h *= c
        h += flipped
    return h.reshape(k, half)
