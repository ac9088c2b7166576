"""Independent reference for the benchmark's output checks.

Nothing here imports qaoalab. The exact QAOA energy is computed with no
gate list: the cost layer is the diagonal phase exp(2j*gamma*C) (the
per-edge CNOT-RZ-CNOT product with its global phase dropped), and the
mixer is RX(2*beta) on every qubit, applied as a 2x2 update on a
reshaped view. Qubit 0 is the most significant bit of a basis index, as
in qaoalab.statevec.
"""

from __future__ import annotations

import numpy as np


def cut_table(n: int, edges, weights=None) -> np.ndarray:
    """Cut value of every basis index 0..2^n-1."""
    idx = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(idx.size)
    weights = weights if weights else [1.0] * len(edges)
    for (u, v), w in zip(edges, weights):
        table += w * (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1)
    return table


def max_cut(n: int, edges, weights=None) -> float:
    return float(cut_table(n, edges, weights).max())


def exact_energy(n: int, edges, weights, theta) -> float:
    """-<C> after the depth-p ansatz at theta = [betas..., gammas...]."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size // 2
    table = cut_table(n, edges, weights)
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    for beta, gamma in zip(theta[:p], theta[p:]):
        psi *= np.exp(2j * gamma * table)
        c, s = np.cos(beta), -1j * np.sin(beta)
        for q in range(n):
            view = psi.reshape(1 << q, 2, 1 << (n - 1 - q))
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = c * a0 + s * a1
            view[:, 1, :] = s * a0 + c * a1
    return -float(np.abs(psi) ** 2 @ table)
