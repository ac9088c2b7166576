"""The framed reference of the noisy engine: a Pauli frame per row, walked step by step.

``trajectories._run_chunk`` reads every frame bit it needs from its
plan's event tables and walks only the H, RX and diagonal steps. This
module keeps the runner it replaces, which reads the step list of
``trajectories._chunk_steps`` (the list ``realize`` renders) and keeps a
frame per row (Knill, Nature 434, 2005; Gidney, arXiv 2103.02202): a
Pauli step only updates the frames, an H or CNOT updates them exactly,
and a Y's factor 1j moves from a frame into its row before the next
diagonal (``settle``). Tests check it against ``simulate_ops`` on each
shot's rendered circuit bit for bit, and the engine against it: its X
frames exactly and its probabilities to within 1e-13, as the engine
fuses each parity mask's diagonals and never applies a row's power of
1j.
"""

from __future__ import annotations

import numpy as np

from qaoalab.statevec import _bit_values, _cnot_perm, _xor_perm, apply_rows, zero_state

# Pauli ids 0..3 are I, X, Y, Z. A row's Pauli frame (m, z, e) says that
# the row's state is
#   psi[i] = 1j**e * (-1)**popcount(i & z) * a[i ^ m],
# the operator 1j**e Z^z X^m applied to the row ``a`` of the array, with
# qubit q at bit n-1-q of m and z, as in a basis index. A frame is one
# integer: m in bits 0..n-1, z in bits n..2n-1 and e from bit 2n up, of
# which only the two low bits count (a sum that wraps keeps them).
FRAME_M = np.array([0, 1, 1, 0], dtype=np.int64)
FRAME_Z = np.array([0, 0, 1, 1], dtype=np.int64)
FRAME_E = np.array([0, 0, 3, 0], dtype=np.int64)


def pauli_tables(n: int, q: int) -> tuple:
    """What a Pauli on qubit q, applied after a frame, does to it: (flip, phase).

    P Z^z X^m = (-1)**(m_P & z_q) * Z^(z ^ z_P) X^(m ^ m_P) times P's own
    phase, so id's bits are XORed in (``flip[id]``) and its phase is
    added (``phase[id + 4 * z_q]``, with z_q the frame's z bit of q).
    """
    s = n - 1 - q
    flip = FRAME_M << s | FRAME_Z << (n + s)
    phase = np.concatenate([FRAME_E, FRAME_E + 2 * FRAME_M]) << 2 * n
    return flip, phase


def compose(frame, ids, n: int, q: int):
    """The frames after Pauli ``ids`` on qubit q: one id per frame, or one for all."""
    flip, phase = pauli_tables(n, q)
    return (frame ^ flip[ids]) + phase[ids + 4 * ((frame >> (2 * n - 1 - q)) & 1)]


def settle(amps: np.ndarray, frame: np.ndarray, n: int) -> None:
    """Move an odd power of 1j out of each frame that holds one and into its row.

    ``simulate_ops`` applies a Y's 1j to the amplitudes, which trades
    their real and imaginary parts. Every step here gives the same bits
    either way, but for a product by a complex number with both parts
    nonzero, a diagonal: numpy may fuse one of its two products into the
    rounding of the sum, so the product must see the parts where
    ``simulate_ops`` has them. Updates ``amps`` and ``frame`` in place.
    """
    odd = frame & 1 << 2 * n
    if odd.any():
        np.multiply(amps, 1j, out=amps, where=True if odd.all() else odd[:, None] != 0)
        frame -= odd


def run_rows(n: int, steps: list, row_point: np.ndarray) -> tuple:
    """Run ``steps`` on a copy of |0...0> per entry of ``row_point``: (amplitudes, frames).

    Row r belongs to point ``row_point[r]``. The rows share one array
    row until the first rotation, kick or "zz". A CNOT goes into a
    pending permutation (basis index i of every row sits in column
    ``perm[i]``), which every diagonal reads through its inverse; the
    columns return to basis order before an H or RX and at the end. Row
    r takes table row flip_r * P + base_r of a step's (2P, 2) table, with
    base_r its point, or r itself for a kick, and flip_r 1 when its frame
    anticommutes with the rotation. Returns the (rows, 2^n) amplitudes
    ``a`` in basis order and each row's final frame, not applied.
    """
    rows = len(row_point)
    amps, buf = zero_state(n)[None], np.empty((1, 1 << n), dtype=complex)
    frame = np.zeros(rows, dtype=np.int64)
    identity, own = np.arange(1 << n), np.arange(rows)
    perm = inv = identity

    def take(values, index, axis):
        return np.take(values, index, axis=axis, out=buf, mode="wrap")

    def in_basis(amps):
        moved = perm is not identity and (perm != identity).any()
        return (take(amps, perm, 1), amps) if moved else (amps, buf)

    odd = False
    for step in steps:
        kind = step[0]
        if kind == "pauli":
            sel, ids, q = step[1:4]
            if sel is None:
                frame = compose(frame, ids, n, q)
            else:
                frame[sel] = compose(frame[sel], ids, n, q)
            odd = True
            continue
        what = step[1].kind if kind == "op" else kind
        diagonal = what in ("kick", "zz", "RZ")
        rotation = diagonal or what == "RX"
        if len(amps) < rows and rotation:
            amps, buf = np.repeat(amps, rows, axis=0), np.empty((rows, 1 << n), dtype=complex)
        if odd and diagonal:
            settle(amps, frame, n)
            odd = False
        if what in ("H", "RX"):
            amps, buf = in_basis(amps)
            perm = inv = identity
        qubits = (step[1],) if kind == "kick" else step[1].qubits
        s, t = n - 1 - qubits[0], n - 1 - qubits[-1]
        if what == "CNOT":
            cnot = _cnot_perm(n, *qubits)
            perm, inv = perm[cnot], cnot[inv]
            # X on the control spreads to the target, Z on the target to the control
            frame ^= (((frame >> s) & 1) << t) | (((frame >> (n + t)) & 1) << (n + s))
        elif what == "H":
            amps = apply_rows(amps, n, step[1])
            # H swaps the X and Z of its qubit, and H Y H = -Y
            mq, zq = (frame >> s) & 1, (frame >> (n + s)) & 1
            frame = (frame ^ (mq ^ zq) * (1 << s | 1 << (n + s))) + ((mq & zq) << (2 * n + 1))
        elif rotation:
            table = step[-1]
            bits = frame >> n if what == "RX" else frame
            flip = bits >> s if s == t else bits >> s ^ bits >> t
            pick = (flip & 1) * (len(table) // 2) + (own if kind == "kick" else row_point)
            if what == "RX":
                pair = np.take(table, pick, axis=0)
                flipped = take(amps, _xor_perm(n, 1 << s), 1)
                flipped *= pair[:, 1:]
                amps *= pair[:, :1]
                amps += flipped
                continue
            index = (pick, _bit_values(n, *qubits)[inv])
            axis = int(len(table) < 2 * rows)
            amps *= take(np.take(table, index[axis], axis=axis), index[1 - axis], 1 - axis)
    amps, _ = in_basis(amps)
    return np.repeat(amps, rows, axis=0) if len(amps) < rows else amps, frame
