"""The full final states of the gate-free exact engine, for tests to check it against.

The exact and sampled engines score ``ansatz.qaoa_probabilities``,
which never builds a complex state. ``qaoa_states`` builds it from the
same halves: it evolves a batch in the same passes of
``ansatz.BATCH_AMPLITUDES`` half-state amplitudes with
``ansatz._evolve_half`` and writes each row as h followed by its
reverse, so that its states can be held against the gate path and
their probabilities against the engine's, bit for bit.
"""

from __future__ import annotations

import numpy as np

from qaoalab.ansatz import BATCH_AMPLITUDES, _evolve_half, half_plan
from qaoalab.graph import MaxCutInstance


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
