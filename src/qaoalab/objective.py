"""Energy objective: QAOA evaluation and scoring of measured counts.

Energy is the negative mean cut value, so minimizing energy maximizes
the cut: the canonical 5-node instance has optimum -6 and a uniform
superposition sits at -3. An ``Engine`` is the optimizer's objective:
it maps a (k, 2p) array of angle rows and k per-row seeds to k energies
in one call, each row scored alone, so the rows of several searches
(restarts, or sweep cells that share instance, depth, mode, shots and
noise) can share a call while each search keeps its own seeds.
``evaluate_qaoa`` scores one angle set as a one-row call of an engine,
and ``make_objective`` is one search on an engine, a function of the
angle rows alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import _checks, rng
from .ansatz import QaoaParams, build_qaoa_circuit, qaoa_angles, qaoa_states
from .graph import MaxCutInstance, cut_value_table
from .noise import NoiseConfig, sample_noisy_tallies
from .statevec import Counts, StateVector, counts_from_tally, expectation_cut, sample_tally

RUN_MODES = ("exact", "sampled", "noisy")


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
    """Prepare, run, and score the state for ``params``: a one-row ``Engine`` call.

    Exact mode returns the exact expectation (shots reported as 0);
    sampled and noisy modes estimate it from measured shots. Both score
    the basis-index tally of ``Engine.tallies`` directly and format no
    bitstring unless ``counts`` is read. ``check_run_mode`` and
    ``check_seed`` check the inputs in every mode.
    """
    engine = Engine(instance, params.p, mode, shots=shots, noise=noise)
    seed = check_seed(mode, seed, mode != "exact")
    row = params.to_vector()[None]
    if mode == "exact":
        return EnergySample(float(engine(row, [None])[0]), 0)
    tally = engine.tallies(row, [seed])[0]
    return EnergySample(energy_from_tally(tally, instance), engine.shots, tally=tally)


def check_run_mode(mode: str, shots, noise, *, sep: str = "") -> int | None:
    """The run-mode rule; returns ``shots`` as an int (None if not given).

    Sampled and noisy mode need shots; given shots are a positive integer
    in every mode, as an exact engine samples final counts too. Noisy
    mode needs a ``NoiseConfig``; the others take only None or
    ``NoiseConfig()``. A message starts with the field's name and ``sep``.
    """
    _checks.one_of(mode, RUN_MODES, f"mode{sep}")
    if shots is not None:
        shots = _checks.integer(shots, f"shots{sep}", 1)
    elif mode != "exact":
        raise ValueError(f"mode {mode!r} requires shots and seed")
    if mode == "noisy":
        if noise is None:
            raise ValueError("mode 'noisy' requires a noise config")
        if not isinstance(noise, NoiseConfig):
            raise ValueError(f"noise{sep} must be a NoiseConfig, got {noise!r}")
    elif noise is not None and noise != NoiseConfig():
        raise ValueError(f"noise{sep} must be none in mode {mode!r}, which samples no noise; "
                         f"set noise in mode 'noisy', got {noise!r}")
    return shots


def check_seed(mode: str, seed, draws: bool = True) -> int | None:
    """``seed`` by the seed rule; None passes only when nothing is drawn (``draws`` false)."""
    if seed is None and draws:
        raise ValueError(f"mode {mode!r} requires shots and seed")
    return seed if seed is None else _checks.seed(seed)


class Engine:
    """Energies of (k, 2p) angle rows, each evaluated under its own seed.

    An engine fixes the instance, the depth, the run mode and, for the
    stochastic modes, the shots and the noise; the seed of each row comes
    with the row. It is the one place that maps a run mode to a sampler;
    it checks p and ``check_run_mode`` when built, and per call only the
    rows and their seeds (``check_seed``). ``engine(thetas,
    seeds)`` evaluates a whole batch in one call: exact mode evolves it
    in one ``qaoa_states`` call and ignores the seeds; the stochastic
    modes score the rows of ``tallies``. Each row is scored alone, so
    rows of different searches can share a call. An exact engine's
    ``tallies`` sample the exact state as a sampled engine's do. A noisy
    engine builds its circuit once, from zero angles: each row's RX and
    RZ angles come from ``qaoa_angles``.
    """

    def __init__(self, instance: MaxCutInstance, p: int, mode: str = "exact", *,
                 shots: int | None = None, noise=None):
        p = _checks.integer(p, "p", 0)
        shots = check_run_mode(mode, shots, noise)
        self.instance, self.p, self.mode = instance, p, mode
        self.shots, self.noise = shots, noise
        if mode == "noisy":
            self._circuit = build_qaoa_circuit(instance, QaoaParams((0.0,) * p, (0.0,) * p))

    def _rows(self, thetas, seeds) -> np.ndarray:
        """The batch as a float array, checked: (k, 2p) finite angles, one seed per row."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != 2 * self.p:
            raise ValueError(f"expected thetas of shape (k, {2 * self.p}), got {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ValueError("thetas: angles must be finite")
        if len(seeds) != len(thetas):
            raise ValueError(f"seeds: expected one per row, got {len(seeds)} for {len(thetas)} rows")
        return thetas

    def __call__(self, thetas, seeds) -> np.ndarray:
        instance = self.instance
        if self.mode != "exact":
            return np.array([energy_from_tally(tally, instance)
                             for tally in self.tallies(thetas, seeds)])
        return np.array([-expectation_cut(StateVector(instance.n, amps), instance)
                         for amps in qaoa_states(instance, self._rows(thetas, seeds))])

    def tallies(self, thetas, seeds) -> np.ndarray:
        """The (k, 2^n) basis-index tallies of the batch, row j under ``seeds[j]``.

        Exact and sampled engines sample each row's exact state. Noisy
        mode samples the batch in one ``sample_noisy_tallies`` call on
        the engine's circuit, with each row's RX and RZ angles.
        """
        instance, n = self.instance, self.instance.n
        thetas = self._rows(thetas, seeds)
        seeds = [check_seed(self.mode, seed) for seed in seeds]
        if self.mode == "noisy":
            return sample_noisy_tallies(self._circuit, self.noise, self.shots, seeds,
                                        qaoa_angles(instance, thetas))
        return np.array([sample_tally(StateVector(n, amps), self.shots, s)
                         for amps, s in zip(qaoa_states(instance, thetas), seeds)],
                        dtype=np.int64).reshape(len(thetas), 1 << n)


def make_objective(
    instance: MaxCutInstance,
    p: int,
    mode: str = "exact",
    *,
    shots: int | None = None,
    seed: int | None = None,
    noise=None,
) -> Callable[[np.ndarray], np.ndarray]:
    """One search's batch objective: (k, 2p) theta rows [betas..., gammas...] in, k energies out.

    One search on an ``Engine``: row j, counted across calls, scores as
    ``evaluate_qaoa`` at its angles and, in the stochastic modes, at the
    seed ``rng.eval_seeds`` gives evaluation j, bit for bit. The
    optimizer takes the engine and the seed instead:
    ``MinimizeProblem(engine, x0, seed=seed)``.
    """
    engine = Engine(instance, p, mode, shots=shots, noise=noise)
    seed = check_seed(mode, seed, mode != "exact")
    evals = 0

    def objective(thetas) -> np.ndarray:
        nonlocal evals
        energies = engine(thetas, rng.eval_seeds(seed, evals, len(thetas)))
        evals += len(energies)
        return energies

    return objective
