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
angle rows alone. Every sampled or noisy shot is an outcome of
``statevec.measure_rows``, and shots score as a basis-index tally
(``energy_from_tally``) or as a bitstring counts dict, whose sum is its
shots (``energy_from_counts``).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import _checks, rng
from .ansatz import QaoaParams, build_qaoa_circuit, half_plan, qaoa_angles, qaoa_probabilities
from .graph import MaxCutInstance, cut_peak, cut_value_table
from .noise import NoiseConfig
from .statevec import _tally_qubits, measure_rows, sample_draws

RUN_MODES = ("exact", "sampled", "noisy")


class EnergySample:
    """One objective evaluation: its energy, its shots (0 for exact) and the tally it was scored from.

    The tally is the basis-index tally of a sampled or noisy evaluation,
    None for an exact one; ``statevec.counts_from_tally`` makes it a
    bitstring histogram.
    """

    def __init__(self, energy: float, shots: int, *, tally: np.ndarray | None = None):
        self.energy = energy
        self.shots = shots
        self.tally = tally


def energy_from_counts(counts: dict[str, int], instance: MaxCutInstance) -> float:
    """-(sum of counts-weighted cut values) / shots, the shots being the counts' sum.

    The counts are checked by the histogram rule (``_checks.counts``):
    keys are n-character bitstrings, counts integers >= 0, and there is
    a shot.
    """
    _checks.of_type(instance, MaxCutInstance, "instance")
    shots = _checks.counts(counts, "counts", instance.n)
    table, scale = _scaled(cut_value_table(instance), cut_peak(instance), shots)
    total = 0.0
    for bits, c in counts.items():
        total += c * table[int(bits, 2)]
    return -total / shots / scale


def energy_from_tally(tally: np.ndarray, instance: MaxCutInstance) -> float:
    """-(sum of tally-weighted cut values) / shots for a basis-index tally.

    The tally is checked by the tally rule (``statevec._tally_qubits``).
    The products are added one by one in ascending index order, as
    ``energy_from_counts`` adds them over the histogram of the same
    tally, so the two agree bit for bit. Both score a sum that can
    overflow in values scaled by a power of two (``_scaled``), so a
    finite mean comes out finite.
    """
    if _tally_qubits(tally) != instance.n:
        raise ValueError(f"tally of length {tally.size} does not fit a {instance.n}-node instance")
    if not tally.any():
        raise ValueError("tally has no shots")
    hit = np.flatnonzero(tally)
    table = cut_value_table(instance)
    return _energy(hit, tally[hit], *_scaled(table, cut_peak(instance), int(tally.sum())))


def _scaled(table: np.ndarray, peak: float, shots: int) -> tuple[np.ndarray, float]:
    """(table * scale, scale), scale being 1.0 unless a sum over ``shots`` shots of ``table`` can overflow.

    Such a sum is at most shots * peak in size, ``peak`` being
    max|table| (``cut_peak``). From 2**1022 up (a margin for rounding)
    it is scored in values scaled by a power of two, 2**-e, which is
    exact, and the mean is divided by the scale again; so every energy
    keeps the bits it has in unbounded range, and every sum that cannot
    overflow is not scaled. Decided once per engine or public call, not
    per row.
    """
    if shots * peak < 2.0**1022 or peak == math.inf:
        return table, 1.0
    scale = 2.0 ** (1021 - math.frexp(peak)[1] - int(shots).bit_length())
    return table * scale, scale


def _energy(hit: np.ndarray, count: np.ndarray, table: np.ndarray, scale: float) -> float:
    """-(sum of count * table[hit], added one by one in ascending hit order) / shots / scale.

    ``table`` and ``scale`` come from ``_scaled``.
    """
    return float(-np.cumsum(count * table[hit])[-1] / count.sum() / scale)


def _sorted_energy(outcomes: np.ndarray, table: np.ndarray, scale: float) -> float:
    """``energy_from_tally`` of the tally of ascending outcomes, read from their runs."""
    edge = np.empty(outcomes.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(outcomes[1:], outcomes[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)  # each run's first outcome, then the end
    return _energy(outcomes[bounds[:-1]], bounds[1:] - bounds[:-1], table, scale)


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
    bitstring. ``check_run_mode`` and ``check_seed`` check the inputs in
    every mode; the engine checks the instance.
    """
    _checks.of_type(params, QaoaParams, "params")
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
        _checks.of_type(noise, NoiseConfig, f"noise{sep}")
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
    with the row. It checks p and ``check_run_mode`` when built, and per
    call only the rows and their seeds (``check_seed``). Each row is
    scored alone, so rows of different searches can share a call. Exact
    and sampled engines hold the instance's ``half_plan`` and work on
    probabilities, never on a state: an exact row scores as
    ``-(probs @ table)``, as ``expectation_cut`` does, and ignores its
    seed. A noisy engine holds one ``trajectories.Plan`` of its circuit,
    built from zero angles with its DD pulses in it. ``_draw`` is the one
    place that maps a run mode to a sampler: every other row becomes
    ascending shots, which ``__call__`` scores by the summation rule of
    ``energy_from_tally`` and ``tallies`` bincounts. A row whose cost
    products overflow the float range scores NaN, which a search takes
    as any non-finite value; ``tallies`` refuses it.
    """

    def __init__(self, instance: MaxCutInstance, p: int, mode: str = "exact", *,
                 shots: int | None = None, noise=None):
        _checks.of_type(instance, MaxCutInstance, "instance")
        p = _checks.integer(p, "p", 0)
        shots = check_run_mode(mode, shots, noise)
        self.instance, self.p, self.mode = instance, p, mode
        self.shots, self.noise = shots, noise
        table, peak = cut_value_table(instance), cut_peak(instance)
        self._shot_table, self._scale = _scaled(table, peak, shots or 1)  # what shots are scored on
        if mode == "noisy":
            from . import trajectories  # loaded on first use

            circuit = build_qaoa_circuit(instance, QaoaParams((0.0,) * p, (0.0,) * p))
            self._plan = trajectories.Plan(circuit, noise)
        else:
            self._plan, self._table = half_plan(instance), table
            self._peak = peak  # the largest |cut value|, for ``_draw``

    def _thetas(self, thetas) -> np.ndarray:
        """The batch's angles as a float array, checked: (k, 2p) finite reals."""
        thetas = _checks.real_array(thetas, "thetas")
        if thetas.ndim != 2 or thetas.shape[1] != 2 * self.p:
            raise ValueError(f"thetas: expected shape (k, {2 * self.p}), got {thetas.shape}")
        # a sum of squares (one BLAS call, which sets no numpy warning) is finite
        # only if every angle is; a huge angle makes it inf, so look again
        if not math.isfinite(np.vdot(thetas, thetas)) and not np.isfinite(thetas).all():
            raise ValueError("thetas: angles must be finite")
        return thetas

    def _rows(self, thetas, seeds) -> np.ndarray:
        """The batch as a float array, checked (``_thetas``), and a sequence of one seed per row."""
        thetas = self._thetas(thetas)
        _checks.sequence(seeds, "seeds")
        if len(seeds) != len(thetas):
            raise ValueError(f"seeds: expected one per row, got {len(seeds)} for {len(thetas)} rows")
        return thetas

    def __call__(self, thetas, seeds) -> np.ndarray:
        thetas = self._rows(thetas, seeds)
        if self.mode == "exact":
            # a row whose cost products overflow scores NaN, with no numpy warning;
            # each (1, 2^n) @ (2^n,) product is one dot, as a lone row's is
            with np.errstate(over="ignore", invalid="ignore"):
                return -(qaoa_probabilities(self._plan, thetas)[:, None] @ self._table)[:, 0]
        fits, shots = self._draw(thetas, seeds)
        energies = np.full(len(fits), math.nan)
        energies[fits] = [_sorted_energy(row, self._shot_table, self._scale) for row in shots]
        return energies

    def _draw(self, thetas: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
        """(fits, shots): which checked rows' cost products fit, and their ascending shots.

        Checks the seeds. An exact or sampled row's products are 2 * gamma
        times each cut value, and the one at the largest |cut value|
        decides; a noisy row's are its RX and RZ angles (``qaoa_angles``).
        The fitting rows' shots are one ``measure_rows`` call on their
        ``qaoa_probabilities`` and their seeds' sorted ``sample_draws``,
        or for a noisy engine one ``trajectories.sample`` call's rows.
        """
        seeds = [check_seed(self.mode, seed) for seed in seeds]
        with np.errstate(over="ignore", invalid="ignore"):
            products = (qaoa_angles(self.instance, thetas) if self.mode == "noisy"
                        else 2.0 * thetas[:, self.p:] * self._peak)
        fits = np.isfinite(products).all(axis=1)
        seeds = [seed for seed, fit in zip(seeds, fits) if fit]
        if self.mode == "noisy":
            from . import trajectories

            return fits, trajectories.sample(self._plan, self.shots, seeds, products[fits])
        draws = np.sort(sample_draws(seeds, self.shots or 0))
        return fits, measure_rows(qaoa_probabilities(self._plan, thetas[fits]), draws)

    def tallies(self, thetas, seeds) -> np.ndarray:
        """The (k, 2^n) basis-index tallies of the batch, row j under ``seeds[j]``.

        Each counts the row's shots from ``_draw``, the shots
        ``__call__`` scores, in one ``np.bincount`` over the batch with
        row j's indices offset by j * 2^n; an exact engine built without
        shots refuses a row. A row whose cost products overflow has no
        state to sample and is refused.
        """
        thetas = self._rows(thetas, seeds)
        if self.shots is None and len(thetas):
            raise ValueError("shots: an exact engine built without shots draws no tallies")
        fits, shots = self._draw(thetas, seeds)
        if not fits.all():
            raise ValueError(f"thetas: row {int(np.argmin(fits))}'s cost products overflow the float range")
        size = 1 << self.instance.n
        offset = shots + size * np.arange(len(shots))[:, None]
        return np.bincount(offset.ravel(), minlength=len(shots) * size).reshape(-1, size)


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
        thetas = engine._thetas(thetas)  # checked before its rows are counted
        energies = engine(thetas, rng.eval_seeds(seed, evals, len(thetas)))
        evals += len(energies)
        return energies

    return objective
