"""Energy objective: QAOA evaluation and scoring of measured counts.

Energy is the negative mean cut value, so minimizing energy maximizes
the cut: the canonical 5-node instance has optimum -6 and a uniform
superposition sits at -3.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import rng
from .ansatz import QaoaParams, build_qaoa_circuit, check_run_mode, qaoa_state
from .graph import MaxCutInstance, cut_value_table
from .noise import sample_noisy_tally
from .statevec import Counts, counts_from_tally, expectation_cut, sample_tally


class EnergySample:
    """One objective evaluation; counts is None for exact evaluations.

    A sampled or noisy evaluation keeps the basis-index tally it was
    scored from and formats it as ``Counts`` only when ``counts`` is
    first read.
    """

    def __init__(self, energy: float, shots: int, *, tally: np.ndarray | None = None):
        self.energy = energy
        self.shots = shots
        self.tally = tally
        self._counts: Counts | None = None

    @property
    def counts(self) -> Counts | None:
        if self._counts is None and self.tally is not None:
            self._counts = counts_from_tally(self.tally, self.tally.size.bit_length() - 1)
        return self._counts


def energy_from_counts(counts: Counts, instance: MaxCutInstance) -> float:
    """-(sum of counts-weighted cut values) / shots."""
    if counts.shots < 1 or sum(counts.counts.values()) != counts.shots:
        raise ValueError("counts total does not match shots")
    table = cut_value_table(instance)
    total = 0.0
    for bits, c in counts.counts.items():
        if len(bits) != instance.n or set(bits) - {"0", "1"}:
            raise ValueError(f"bitstring {bits!r} does not fit a {instance.n}-node instance")
        if c < 0:
            raise ValueError(f"negative count for {bits!r}")
        total += c * table[int(bits, 2)]
    return -total / counts.shots


def energy_from_tally(tally: np.ndarray, instance: MaxCutInstance) -> float:
    """-(sum of tally-weighted cut values) / shots for a basis-index tally.

    The products are added one by one in ascending index order, as
    ``energy_from_counts`` adds them over the ``Counts`` of the same
    tally, so the two agree bit for bit.
    """
    table = cut_value_table(instance)
    if tally.shape != table.shape:
        raise ValueError(f"tally of length {tally.size} does not fit a {instance.n}-node instance")
    hit = np.flatnonzero(tally)
    if hit.size == 0:
        raise ValueError("tally has no shots")
    total = np.cumsum(tally[hit] * table[hit])[-1]
    return float(-total / tally.sum())


def evaluate_qaoa(
    instance: MaxCutInstance,
    params: QaoaParams,
    mode: str = "exact",
    *,
    shots: int | None = None,
    seed: int | None = None,
    noise=None,
) -> EnergySample:
    """Prepare, run, and score the state for ``params``.

    Exact mode returns the exact expectation (shots reported as 0);
    sampled and noisy modes estimate it from measured shots. Both score
    the basis-index tally directly and format no bitstring unless
    ``counts`` is read. Only noisy mode builds the gate list; the others
    use the gate-free ``qaoa_state``.
    """
    check_run_mode(mode, shots, seed, noise)
    if mode == "exact":
        return EnergySample(-expectation_cut(qaoa_state(instance, params), instance), 0)
    if mode == "sampled":
        tally = sample_tally(qaoa_state(instance, params), shots, seed)
    else:
        tally = sample_noisy_tally(build_qaoa_circuit(instance, params), noise, shots, seed)
    return EnergySample(energy_from_tally(tally, instance), shots, tally=tally)


def make_objective(
    instance: MaxCutInstance,
    p: int,
    mode: str = "exact",
    *,
    shots: int | None = None,
    seed: int | None = None,
    noise=None,
) -> Callable[[np.ndarray], float]:
    """Objective over flat theta = [betas..., gammas...] of length 2p.

    Stochastic modes give evaluation k its own derived seed, so the
    noise realization is a pure function of (seed, k) regardless of
    which optimizer asks, in what order. The depth and run mode are
    checked here, once, not at each evaluation.
    """
    if isinstance(p, bool) or not isinstance(p, int) or p < 0:
        raise ValueError(f"p must be a non-negative integer, got {p!r}")
    check_run_mode(mode, shots, seed, noise)
    counter = [0]

    def objective(theta) -> float:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2 * p,):
            raise ValueError(f"expected theta of shape ({2 * p},), got {theta.shape}")
        params = QaoaParams.from_vector(theta)
        k = counter[0]
        counter[0] += 1
        if mode == "exact":
            return evaluate_qaoa(instance, params, "exact").energy
        eval_seed = rng.child_seed(seed, rng.STREAM_EVAL, k)
        return evaluate_qaoa(
            instance, params, mode, shots=shots, seed=eval_seed, noise=noise
        ).energy

    return objective
