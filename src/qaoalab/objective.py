"""Energy objective: QAOA evaluation and scoring of measured counts.

Energy is the negative mean cut value, so minimizing energy maximizes
the cut: the canonical 5-node instance has optimum -6 and a uniform
superposition sits at -3. ``evaluate_qaoa`` scores one angle set.
The optimizer's objective comes in two parts. An ``Engine`` maps a
(k, 2p) array of angle rows and k per-row seeds to k energies in one
call, each row scored exactly as ``evaluate_qaoa`` scores it alone. A
``SearchObjective`` is one search's view of an engine: it counts that
search's evaluations and derives each one's seed, so the rows of
several searches (restarts, or sweep cells that share instance, depth,
mode, shots and noise) can go to one engine call while each search
keeps its own seeds. ``make_objective`` builds the one-search view.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .ansatz import (QaoaParams, build_qaoa_circuit, check_run_mode, qaoa_angles, qaoa_state,
                     qaoa_states)
from .graph import MaxCutInstance, cut_value_table
from .noise import sample_noisy_tallies, sample_noisy_tally
from .statevec import Counts, StateVector, counts_from_tally, expectation_cut, sample_tally


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


class Engine:
    """Energies of (k, 2p) angle rows, each evaluated under its own seed.

    An engine fixes the instance, the depth, the run mode and, for the
    stochastic modes, the shots and the noise; the seed of each row comes
    with the row. ``engine(thetas, seeds)`` evaluates a whole batch in
    one call: exact and sampled modes evolve it in one ``qaoa_states``
    call, and noisy mode samples it in one ``sample_noisy_tallies`` call,
    the circuit built once and each row's RX and RZ angles from
    ``qaoa_angles``. Each row is scored alone, so its energy equals
    ``evaluate_qaoa`` at its angles and seed bit for bit, whatever the
    batch: rows of different searches can share a call. Exact mode
    ignores the seeds. The depth is checked here; the run mode is checked
    by the caller with its search seeds (``make_objective`` calls
    ``check_run_mode``, and the harness builds engines only from checked
    ``ExperimentConfig`` values).
    """

    def __init__(self, instance: MaxCutInstance, p: int, mode: str = "exact", *,
                 shots: int | None = None, noise=None):
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"p must be a non-negative integer, got {p!r}")
        self.instance, self.p, self.mode = instance, p, mode
        self.shots, self.noise = shots, noise

    def __call__(self, thetas, seeds) -> np.ndarray:
        instance, p = self.instance, self.p
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != 2 * p:
            raise ValueError(f"expected thetas of shape (k, {2 * p}), got {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ValueError("thetas: angles must be finite")
        if self.mode == "exact":
            return np.array([-expectation_cut(StateVector(instance.n, amps), instance)
                             for amps in qaoa_states(instance, thetas)])
        if self.mode == "sampled":
            return np.array([
                energy_from_tally(sample_tally(StateVector(instance.n, amps), self.shots, s),
                                  instance)
                for amps, s in zip(qaoa_states(instance, thetas), seeds)
            ])
        template = build_qaoa_circuit(instance, QaoaParams.from_vector(thetas[0]))
        tallies = sample_noisy_tallies(template, self.noise, self.shots, seeds,
                                       qaoa_angles(instance, thetas))
        return np.array([energy_from_tally(tally, instance) for tally in tallies])


class SearchObjective:
    """One search's batch objective: a shared engine plus the search's own evaluation counter.

    Evaluation j of the search, counted row by row across calls, gets the
    seed ``child_seed(seed, STREAM_EVAL, j)`` (None when ``seed`` is None,
    as in exact mode), so its noise realization is a pure function of
    (seed, j) however the rows are batched and whichever other searches'
    rows share the engine call. The optimizer never calls it:
    ``optim.minimize_lockstep`` (and so ``minimize``) reads its ``engine``
    and ``seeds`` to evaluate its rows together with those of every other
    search on the same engine. Calling it evaluates its rows alone, with
    the same engine and seeds.
    """

    def __init__(self, engine: Engine, seed: int | None):
        self.engine = engine
        self.seed = seed
        self.evals = 0

    def seeds(self, k: int) -> list:
        """The seeds of the search's next k evaluations; the counter moves past them."""
        first = self.evals
        self.evals += k
        if self.seed is None:
            return [None] * k
        return [rng.child_seed(self.seed, rng.STREAM_EVAL, first + j) for j in range(k)]

    def __call__(self, thetas) -> np.ndarray:
        return self.engine(thetas, self.seeds(len(thetas)))


def make_objective(
    instance: MaxCutInstance,
    p: int,
    mode: str = "exact",
    *,
    shots: int | None = None,
    seed: int | None = None,
    noise=None,
) -> SearchObjective:
    """One search's batch objective: (k, 2p) theta rows [betas..., gammas...] in, k energies out.

    The one-search view of an ``Engine``: row j, counted across calls,
    scores as ``evaluate_qaoa`` at its angles and, in the stochastic
    modes, at the seed ``child_seed(seed, STREAM_EVAL, j)``, bit for bit.
    """
    engine = Engine(instance, p, mode, shots=shots, noise=noise)
    check_run_mode(mode, shots, seed, noise)
    return SearchObjective(engine, None if mode == "exact" else seed)
