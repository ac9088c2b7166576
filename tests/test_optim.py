"""Derivative-free minimizers: correctness, budgets, evaluation-log contracts."""

import math
import struct
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qaoalab
from conftest import batched
from qaoalab import harness, optim, rng
from qaoalab.ansatz import QaoaParams
from qaoalab.objective import Engine, evaluate_qaoa
from qaoalab.optim import (
    METHODS,
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_STALLED,
    MinimizeProblem,
    MinimizeResult,
    minimize,
    minimize_lockstep,
    random_qaoa_starts,
)

ALL_STATUSES = {STATUS_CONVERGED, STATUS_BUDGET, STATUS_STALLED}


def shifted_bowl(x):
    return (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2


def rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def check_contract(result: MinimizeResult, problem: MinimizeProblem, f0: float):
    assert result.status in ALL_STATUSES
    assert result.evals_used <= problem.max_evals
    assert len(result.energies) == result.evals_used
    assert result.f_best <= f0 + 1e-15
    assert result.f_best == pytest.approx(min(result.energies.tolist()))


# -- named examples -----------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
def test_shifted_bowl_all_methods(method):
    problem = MinimizeProblem(batched(shifted_bowl), np.zeros(2))
    result = minimize(method, problem)
    # the trust-region method stops at its radius floor, so its iterate
    # tolerance is looser than the line-search methods'
    atol = 1e-4 if method == "cobyla" else 1e-6
    np.testing.assert_allclose(result.x_best, [1.0, -2.0], atol=atol)
    assert result.f_best < 1e-8
    check_contract(result, problem, shifted_bowl(np.zeros(2)))


def test_powell_constant_objective_converges_quickly():
    problem = MinimizeProblem(batched(lambda x: 4.25), np.ones(3))
    result = minimize("powell", problem)
    assert result.status == STATUS_CONVERGED
    assert result.f_best == 4.25
    # one outer iteration: a handful of line searches, nowhere near the budget
    assert result.evals_used <= 200


def test_cg_rosenbrock():
    problem = MinimizeProblem(batched(rosenbrock), np.array([-1.2, 1.0]))
    result = minimize("cg", problem)
    np.testing.assert_allclose(result.x_best, [1.0, 1.0], atol=1e-4)


def test_cg_gradient_norm_on_anisotropic_quadratic():
    d = 10
    gen = np.random.default_rng(0)
    for _ in range(5):
        curv = gen.uniform(0.5, 10.0, size=d)
        center = gen.uniform(-2.0, 2.0, size=d)
        problem = MinimizeProblem(
            batched(lambda x, c=curv, m=center: float(c @ (x - m) ** 2)),
            np.zeros(d),
            max_evals=50 * d,
        )
        result = minimize("cg", problem)
        grad = 2.0 * curv * (result.x_best - center)
        assert np.linalg.norm(grad) < 1e-6
        assert result.evals_used <= 50 * d


def test_cobyla_bowl_d4():
    problem = MinimizeProblem(batched(lambda x: float(x @ x)), np.ones(4))
    result = minimize("cobyla", problem)
    assert result.f_best < 1e-6


def test_cobyla_d1_degenerate_simplex_recovers():
    problem = MinimizeProblem(batched(lambda x: (x[0] - 3.0) ** 2), np.array([0.0]))
    result = minimize("cobyla", problem)
    assert result.x_best[0] == pytest.approx(3.0, abs=1e-3)
    assert result.status in ALL_STATUSES


# -- method names -------------------------------------------------------------------


def test_dispatch_rejects_unknown_method():
    with pytest.raises(ValueError, match="newton"):
        minimize("newton", MinimizeProblem(batched(shifted_bowl), np.zeros(2)))


# -- configuration validation -----------------------------------------------------


def test_budget_below_dimension_rejected():
    with pytest.raises(ValueError):
        MinimizeProblem(batched(shifted_bowl), np.zeros(3), max_evals=2)


def test_budget_exactly_dimension_runs():
    problem = MinimizeProblem(batched(shifted_bowl), np.zeros(2), max_evals=2)
    result = minimize("powell", problem)
    assert result.status == STATUS_BUDGET
    assert result.evals_used == 2


def test_problem_validation():
    with pytest.raises(ValueError):
        MinimizeProblem(batched(shifted_bowl), np.zeros((2, 2)))


@pytest.mark.parametrize("x0", [[0.0, math.nan], [math.inf, 1.0], [-math.inf, 0.0]])
def test_x0_must_be_finite(x0):
    with pytest.raises(ValueError, match=r"^x0 entries must be finite"):
        MinimizeProblem(batched(shifted_bowl), np.array(x0))


@pytest.mark.parametrize("max_evals", [2.5, np.float64(3.0), True, "40"])
def test_max_evals_must_be_an_integer(max_evals):
    with pytest.raises(ValueError, match=r"^max_evals must be an integer, got "):
        MinimizeProblem(batched(shifted_bowl), np.zeros(1), max_evals=max_evals)


@pytest.mark.parametrize("seed", [True, 1.5, np.float64(2.0), "3"])
def test_seed_must_be_an_integer_or_none(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        MinimizeProblem(batched(shifted_bowl), np.zeros(2), seed=seed)


def test_default_budget_is_500d():
    problem = MinimizeProblem(batched(shifted_bowl), np.zeros(4))
    assert problem.max_evals == 2000


# -- contracts over random problems -------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
def test_random_quadratic_contract(method):
    gen = np.random.default_rng(7)
    for _ in range(4):
        d = int(gen.integers(1, 7))
        a = gen.normal(size=(d, d))
        hess = a.T @ a + 0.3 * np.eye(d)
        center = gen.normal(size=d)

        def f(x, h=hess, m=center):
            return float((x - m) @ h @ (x - m))

        x0 = gen.normal(size=d)
        problem = MinimizeProblem(batched(f), x0)
        result = minimize(method, problem)
        check_contract(result, problem, f(x0))
        assert result.f_best < 1e-6


def test_deterministic_given_fixed_objective():
    a = minimize("powell", MinimizeProblem(batched(rosenbrock), np.array([-1.2, 1.0])))
    b = minimize("powell", MinimizeProblem(batched(rosenbrock), np.array([-1.2, 1.0])))
    assert a.f_best == b.f_best
    assert a.energies.tolist() == b.energies.tolist()


@pytest.mark.parametrize("method", METHODS)
def test_stochastic_objective_terminates(method, canonical):
    problem = MinimizeProblem(
        Engine(canonical, 1, "sampled", shots=64), np.array([0.7, 1.1]), max_evals=400, seed=13,
    )
    result = minimize(method, problem)
    assert result.status in ALL_STATUSES
    assert result.evals_used <= 400
    assert len(result.energies) == result.evals_used


# -- batches of points ----------------------------------------------------------


def padded_bowl(x):
    return shifted_bowl(x) + float(x[2:] @ x[2:])


class CallLog:
    """A batch objective that logs each call's size and fails on an empty or non-finite batch."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, xs, seeds):
        assert len(xs) == len(seeds) > 0 and np.isfinite(xs).all(), xs
        self.sizes.append(len(xs))
        return np.array([self.f(x) for x in xs], dtype=float)


def test_budget_cut_inside_the_first_cobyla_simplex():
    x0 = np.array([0.3, -0.2, 0.1, 0.7])
    objective = CallLog(padded_bowl)
    result = minimize("cobyla", MinimizeProblem(objective, x0, max_evals=4))
    assert result.status == STATUS_BUDGET
    assert len(result.energies) == result.evals_used == 4
    # x0 with the simplex vertices x0 + (rho/4) e_i in one batch, cut after e_2
    vertices = x0 + np.diag(np.full(4, 0.125))
    expected = [x0, vertices[0], vertices[1], vertices[2]]
    assert [tuple(t) for t in result.thetas.tolist()] == [tuple(v.tolist()) for v in expected]
    assert objective.sizes == [4]


def test_budget_cut_inside_a_cg_gradient():
    x0 = np.array([0.3, -0.2, 0.1])
    objective = CallLog(padded_bowl)
    result = minimize("cg", MinimizeProblem(objective, x0, max_evals=4))
    assert result.status == STATUS_BUDGET
    assert len(result.energies) == result.evals_used == 4
    # x0 with x0 + h0 e_0, x0 - h0 e_0, x0 + h1 e_1, ... at h_i = 1e-6 * max(1, |x_i|)
    # in one batch, cut after four
    steps = np.diag(1e-6 * np.maximum(1.0, np.abs(x0)))
    expected = [x0, x0 + steps[0], x0 - steps[0], x0 + steps[1]]
    assert [tuple(t) for t in result.thetas.tolist()] == [tuple(v.tolist()) for v in expected]
    assert objective.sizes == [4]


@pytest.mark.parametrize("d", [1, 3])
def test_each_search_asks_every_point_it_can_name_in_one_batch(d):
    # cobyla asks x0 with its d simplex vertices and cg x0 with its 2d gradient
    # points; every line search (powell's first ask after x0, cg's after its
    # start) asks its bracket's first two points, line(0) and line(step), together
    def f(x):
        return float((x - 0.5) @ (x - 0.5)) + 0.3 * math.sin(5.0 * x[0])

    x0 = np.linspace(-0.7, 0.9, d)
    asked = {}
    for method in METHODS:
        objective = CallLog(f)
        result = minimize(method, MinimizeProblem(objective, x0, max_evals=60))
        asked[method] = objective.sizes[:2]
        assert tuple(result.thetas.tolist()[0]) == tuple(x0.tolist())
        if method == "powell":
            assert [tuple(t) for t in result.thetas.tolist()[1:3]] == [
                tuple(x0.tolist()), tuple((x0 + np.eye(d)[0]).tolist())]
    assert asked == {"powell": [1, 2], "cg": [2 * d + 1, 2], "cobyla": [d + 1, 1]}


def test_a_bracket_whose_second_point_overflows_records_the_first_and_stalls(monkeypatch):
    # line(10) = 0.5 + 10 * 1e308 is inf: the batch [line(0), line(10)] is cut
    # before it, as asking line(0) and then line(10) one by one would stop
    def one_line(x0):
        yield from optim._bracket(lambda alpha: x0 + alpha * 1e308, 0.0, 10.0)
        return STATUS_CONVERGED

    monkeypatch.setitem(optim._SEARCHES, "powell", one_line)
    objective = CallLog(lambda x: math.atan(x[0]))
    result = minimize("powell", MinimizeProblem(objective, np.array([0.5]), max_evals=10))
    assert result.status == STATUS_STALLED
    assert [tuple(t) for t in result.thetas.tolist()] == [(0.5,)]
    assert objective.sizes == [1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("budget, status", [(3, STATUS_BUDGET), (4, STATUS_STALLED),
                                            (60, STATUS_STALLED)])
def test_a_gradient_with_a_non_finite_point_is_cut_before_it(budget, status):
    # x0 + h1 e_1 overflows at x0[1] = the largest float: cg's first batch (x0,
    # x0 + h0 e_0, x0 - h0 e_0, x0 + h1 e_1, ...) records its first three rows and
    # ends stalled; a budget of three ends it first, at the same rows
    x0 = np.array([0.3, np.finfo(float).max, 0.1])
    objective = CallLog(lambda x: float(np.arctan(x).sum()))
    result = minimize("cg", MinimizeProblem(objective, x0, max_evals=budget))
    h0 = 1e-6 * np.array([1.0, 0.0, 0.0])
    expected = [x0, x0 + h0, x0 - h0]
    assert [tuple(t) for t in result.thetas.tolist()] == [tuple(v.tolist()) for v in expected]
    assert result.status == status
    assert objective.sizes == [3]


@pytest.mark.parametrize("method", METHODS)
def test_trace_and_best_are_those_of_point_by_point_evaluation(method):
    def f(x):
        return float((x - 0.5) @ (x - 0.5)) + math.sin(7.0 * x[0])

    x0 = np.array([0.1, -0.4, 0.8])
    result = minimize(method, MinimizeProblem(batched(f), x0, max_evals=300))
    energies = result.energies.tolist()
    assert energies == [f(np.array(t)) for t in result.thetas.tolist()]
    first_best = energies.index(min(energies))
    assert result.f_best == energies[first_best]
    assert tuple(result.x_best.tolist()) == tuple(result.thetas.tolist()[first_best])


@pytest.mark.parametrize("method", METHODS)
def test_sampled_batches_use_one_seed_per_evaluation(method, canonical):
    seed = 17
    problem = MinimizeProblem(Engine(canonical, 2, "sampled", shots=128),
                              np.array([0.4, 0.9, 1.2, 0.3]), max_evals=40, seed=seed)
    result = minimize(method, problem)
    for i, (theta, energy) in enumerate(zip(result.thetas.tolist(), result.energies.tolist())):
        eval_seed = rng.child_seed(seed, rng.STREAM_EVAL, i)
        params = QaoaParams.from_vector(np.array(theta))
        assert energy == evaluate_qaoa(canonical, params, "sampled", shots=128,
                                       seed=eval_seed).energy


def test_objective_must_return_one_value_per_point():
    problem = MinimizeProblem(lambda xs, seeds: np.zeros(len(xs) + 1), np.zeros(2))
    with pytest.raises(ValueError, match=r"^objective returned shape \(2,\) for 1 points"):
        minimize("powell", problem)


# -- restart helper ---------------------------------------------------------------


def test_random_starts_shapes_and_ranges():
    starts = random_qaoa_starts(3, 5, seed=2)
    assert len(starts) == 5
    for theta in starts:
        assert theta.shape == (6,)
        assert np.all(theta[:3] >= 0.0) and np.all(theta[:3] < math.pi)
        assert np.all(theta[3:] >= 0.0) and np.all(theta[3:] < 2 * math.pi)


def test_random_starts_deterministic():
    a = random_qaoa_starts(2, 3, seed=9)
    b = random_qaoa_starts(2, 3, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(ValueError):
        random_qaoa_starts(0, 1, seed=0)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_objective_without_a_finite_value_fails_clearly(method, value):
    problem = MinimizeProblem(batched(lambda x: value), np.zeros(2), max_evals=10)
    with pytest.raises(ValueError, match="objective returned no finite value"):
        minimize(method, problem)


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_values_never_become_the_best(method):
    def spiky(x):
        return math.nan if x[0] > 0.2 else shifted_bowl(x)

    res = minimize(method, MinimizeProblem(batched(spiky), np.zeros(2), max_evals=60))
    assert math.isfinite(res.f_best)
    assert res.f_best == min(e for e in res.energies.tolist() if math.isfinite(e))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("nan_where", [
    lambda x: x[0] > 0.2,
    lambda x: abs(x[1]) > 1e-12,
], ids=["x0-above-0.2", "x1-off-zero"])
def test_non_finite_point_ends_the_search_with_a_status(method, nan_where):
    def f(x):
        return math.nan if nan_where(x) else shifted_bowl(x)

    result = minimize(method, MinimizeProblem(CallLog(f), np.zeros(2), max_evals=200))
    assert math.isfinite(result.f_best)
    assert result.status in ALL_STATUSES


def test_cobyla_fits_no_model_through_a_non_finite_vertex():
    # From (0, 0) the first simplex puts a vertex in x[0] > 0.2, where the
    # bowl is NaN. A model through it is NaN and asks a NaN point, which
    # ends the run stalled at the start; instead the vertex counts as a
    # failed step, and the search goes on from the best finite vertex.
    def f(x):
        return math.nan if x[0] > 0.2 else shifted_bowl(x)

    result = minimize("cobyla", MinimizeProblem(batched(f), np.zeros(2), max_evals=200))
    energies = result.energies.tolist()
    first_nan = next(i for i, e in enumerate(energies) if math.isnan(e))
    assert result.status == STATUS_CONVERGED
    assert result.f_best < min(energies[:first_nan]) - 0.05
    assert result.x_best[0] <= 0.2


# -- the evaluation log -------------------------------------------------------------


def scripted_search(points):
    """A search that asks ``points`` one at a time and converges."""
    def search(x0):
        for x in points:
            yield np.array(x, dtype=float)
        return STATUS_CONVERGED
    return search


@pytest.mark.parametrize("values, best", [
    ([2.0, 1.0, 3.0, 1.0], 1),
    ([1.0, -0.0, 0.0], 1),
    ([0.0, -0.0], 0),
    ([math.nan, -math.inf, 4.0, math.inf, 3.0, math.nan, 3.0], 4),
], ids=["tie", "minus-zero-first", "zero-first", "non-finite"])
def test_the_log_is_an_angle_array_and_an_energy_array(monkeypatch, tmp_path, values, best):
    points = [(0.1 * i, -0.5 * i) for i in range(len(values))]
    monkeypatch.setitem(optim._SEARCHES, "powell", scripted_search(points))
    by_point = dict(zip(points, values))
    objective = batched(lambda x: by_point[tuple(x.tolist())])
    result = minimize("powell", MinimizeProblem(objective, np.array(points[0])))
    assert result.thetas.dtype == result.energies.dtype == np.float64
    assert result.thetas.shape == (len(values), 2) and result.energies.shape == (len(values),)
    assert result.evals_used == len(result.energies)
    assert records(result) == [(i, x, struct.pack("<d", f))
                               for i, (x, f) in enumerate(zip(points, values))]
    # the first row of least finite energy, its sign included
    assert result.x_best.tolist() == list(points[best])
    assert struct.pack("<d", result.f_best) == struct.pack("<d", values[best])
    path = tmp_path / "trace.csv"
    harness.write_trace_csv(path, result.thetas, result.energies)
    assert path.read_text().splitlines() == ["eval,energy,beta_1,gamma_1"] + [
        f"{i},{f:.9g},{x[0]:.9g},{x[1]:.9g}" for i, (x, f) in enumerate(zip(points, values))]


# -- the budget loop --------------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("d", [1, 3])
def test_a_budget_cuts_the_unbudgeted_trace(method, d):
    def f(x):
        return float((x - 0.5) @ (x - 0.5)) + 0.3 * math.sin(5.0 * x[0])

    x0 = np.linspace(-0.7, 0.9, d)
    full = minimize(method, MinimizeProblem(CallLog(f), x0, max_evals=5000))
    # a budget below d is rejected when the problem is built
    for budget in sorted({1, d, d + 1, 17, 60} - set(range(d))):
        objective = CallLog(f)
        result = minimize(method, MinimizeProblem(objective, x0, max_evals=budget))
        assert records(result) == records(full)[:budget]
        assert sum(objective.sizes) == result.evals_used == len(result.energies)
        if len(full.energies) > budget:
            assert result.status == STATUS_BUDGET
            assert result.evals_used == budget
        else:
            assert result.status == full.status


# -- the lockstep driver ----------------------------------------------------------


def _landscape(kind: str, x, seed) -> float:
    """The toy objectives of the lockstep tests; ``seed`` is an evaluation's seed."""
    bowl = float((x - 0.5) @ (x - 0.5)) + 0.3 * math.sin(5.0 * x[0])
    if kind == "spiky":
        # NaN past x[0] = 0.3 and, for d > 1, off the plane x[-1] = 0. Every
        # start lies inside, so a search sees NaN only after it moves; a NaN
        # in a cg gradient turns its direction, and so its next point, NaN
        return math.nan if x[0] > 0.3 or (x.size > 1 and x[-1] != 0.0) else bowl
    if kind == "flat":
        return 2.5
    if kind == "noisy":
        return bowl + 1e-3 * (0 if seed is None else seed % 1000)
    return bowl


class ToyEngine:
    """A shared engine of (rows, seeds) over one landscape; logs call sizes and (row, seed) pairs."""

    def __init__(self, kind: str):
        self.kind = kind
        self.sizes = []
        self.scored = []

    def __call__(self, xs, seeds):
        assert len(xs) == len(seeds) > 0 and np.isfinite(xs).all()
        self.sizes.append(len(xs))
        self.scored += [(tuple(x.tolist()), s) for x, s in zip(xs, seeds)]
        return np.array([_landscape(self.kind, x, s) for x, s in zip(xs, seeds)])


def lockstep_problems(specs, engines: dict):
    """(method, problem) of each (method, d, kind, budget, start, seed) spec.

    Specs of one (d, kind) share the ``ToyEngine`` that ``engines`` holds for it.
    """
    out = []
    for method, d, kind, budget, start, seed in specs:
        engine = engines.setdefault((d, kind), ToyEngine(kind))
        x0 = np.linspace(-0.9, 0.0, d) * start
        out.append((method, MinimizeProblem(engine, x0, max_evals=budget, seed=seed)))
    return out


def seeded_rows(result, seed):
    """The (row, seed) pairs of a search's log: its j-th row at child_seed(seed, STREAM_EVAL, j)."""
    return [(tuple(t), None if seed is None else rng.child_seed(seed, rng.STREAM_EVAL, j))
            for j, t in enumerate(result.thetas.tolist())]


def run_alone_and_in_lockstep(specs):
    """Each spec run alone, on an engine of its own, and all in lockstep.

    Checks that every row an engine scored ran at its search's evaluation
    seed, and returns the result of every search both ways and the
    lockstep run's engines.
    """
    alone = []
    for spec in specs:
        engines = {}
        [(method, problem)] = lockstep_problems([spec], engines)
        alone.append(minimize(method, problem))
        [engine] = engines.values()
        assert engine.scored == seeded_rows(alone[-1], problem.seed)
    engines = {}
    searches = lockstep_problems(specs, engines)
    together = minimize_lockstep(searches)
    for engine in engines.values():
        want = Counter(pair for res, (_, problem) in zip(together, searches)
                       if problem.objective is engine for pair in seeded_rows(res, problem.seed))
        assert Counter(engine.scored) == want
    return alone, together, engines


def records(result):
    """The log as comparable tuples: a NaN energy equals a NaN of the same bits."""
    return [(i, tuple(t), struct.pack("<d", e))
            for i, (t, e) in enumerate(zip(result.thetas.tolist(), result.energies.tolist()))]


def assert_same_search(ra, rb):
    assert records(rb) == records(ra)
    assert (rb.status, rb.evals_used) == (ra.status, ra.evals_used)
    assert rb.f_best == ra.f_best
    assert rb.x_best.tobytes() == ra.x_best.tobytes()


search_specs = st.tuples(
    st.sampled_from(METHODS),
    st.sampled_from([1, 3, 10]),
    st.sampled_from(["smooth", "spiky", "flat", "noisy"]),
    st.integers(10, 160),
    st.floats(0.1, 1.0),
    st.one_of(st.none(), st.integers(0, 2**64 - 1)),
).filter(lambda spec: spec[3] >= spec[1])


@settings(max_examples=80, deadline=None)
@given(specs=st.lists(search_specs, min_size=1, max_size=6))
def test_lockstep_equals_each_search_run_alone(specs):
    alone, together, engines = run_alone_and_in_lockstep(specs)
    for a, b in zip(alone, together):
        assert_same_search(a, b)
    # a search that stops leaves the others running: every row of the run
    # went through the engines, no more and no fewer
    assert sum(sum(e.sizes) for e in engines.values()) == sum(r.evals_used for r in together)


def test_lockstep_cuts_budgets_inside_batches_and_stalls_one_search():
    specs = [
        ("cg", 3, "smooth", 4, 1.0, 7),        # cut inside the first gradient
        ("cobyla", 10, "noisy", 10, 0.5, 8),    # cut inside the first simplex
        ("cg", 3, "smooth", 60, 0.3, 9),
        ("cg", 3, "spiky", 200, 0.2, None),     # asks a NaN point: stalled
        ("powell", 1, "flat", 100, 1.0, 10),    # converges early
        ("cobyla", 10, "noisy", 120, 1.0, 11),
    ]
    alone, results, engines = run_alone_and_in_lockstep(specs)
    for a, b in zip(alone, results):
        assert_same_search(a, b)
    assert [r.status for r in results[:2]] == [STATUS_BUDGET, STATUS_BUDGET]
    assert [r.evals_used for r in results[:2]] == [4, 10]
    assert results[3].status == STATUS_STALLED
    assert math.isnan(results[3].energies.tolist()[-1]) and results[3].evals_used < 200
    assert results[4].status == STATUS_CONVERGED
    # the stalled and the converged searches stop while the others run on
    assert max(results[3].evals_used, results[4].evals_used) < min(
        results[2].evals_used, results[5].evals_used)
    # the two d=3 smooth searches shared their engine's calls
    smooth = engines[(3, "smooth")]
    assert len(smooth.sizes) < sum(r.evals_used for r in results[:3:2])
    # the first cg's cut start (x0 and three gradient points) and the other's full one
    assert max(smooth.sizes) == 4 + 7


def test_lockstep_rejects_an_unknown_method_before_any_evaluation():
    objective = CallLog(shifted_bowl)
    with pytest.raises(ValueError, match="newton"):
        minimize_lockstep([("powell", MinimizeProblem(objective, np.zeros(2))),
                           ("newton", MinimizeProblem(objective, np.zeros(2)))])
    assert objective.sizes == []


def test_searches_on_one_objective_share_its_calls():
    # two searches on one objective: each round's rows go to it in one call
    objective = CallLog(shifted_bowl)
    results = minimize_lockstep([(m, MinimizeProblem(objective, np.zeros(2), max_evals=30))
                                 for m in ("powell", "cg")])
    alone = [minimize(m, MinimizeProblem(batched(shifted_bowl), np.zeros(2), max_evals=30))
             for m in ("powell", "cg")]
    assert list(map(records, results)) == list(map(records, alone))
    assert sum(objective.sizes) == sum(r.evals_used for r in results)
    assert len(objective.sizes) < sum(r.evals_used for r in results)
    assert max(objective.sizes) == 6  # cg's x0 and gradient joined with powell's x0


def test_searches_of_two_dimensions_on_one_objective_run_as_alone():
    objective = CallLog(padded_bowl)
    starts = [np.zeros(2), np.zeros(3)]
    results = minimize_lockstep([("cg", MinimizeProblem(objective, x0, max_evals=40))
                                 for x0 in starts])
    alone = [minimize("cg", MinimizeProblem(batched(padded_bowl), x0, max_evals=40))
             for x0 in starts]
    assert list(map(records, results)) == list(map(records, alone))


# -- zero-dimensional searches ------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
def test_a_zero_dimensional_search_scores_x0_once_and_converges(method):
    objective = CallLog(lambda x: 2.5)
    problem = MinimizeProblem(objective, np.zeros(0), seed=4)
    assert problem.max_evals == 500
    result = minimize(method, problem)
    assert objective.sizes == [1]
    assert (result.status, result.evals_used, result.f_best) == (STATUS_CONVERGED, 1, 2.5)
    assert result.x_best.shape == (0,)
    assert (result.thetas.shape, result.energies.tolist()) == ((1, 0), [2.5])
    assert result.thetas.dtype == np.float64


@pytest.mark.parametrize("method", METHODS)
def test_a_zero_dimensional_search_in_lockstep_runs_as_alone(method):
    flat, bowl = CallLog(lambda x: 2.5), CallLog(shifted_bowl)
    results = minimize_lockstep([(method, MinimizeProblem(flat, np.zeros(0))),
                                 (method, MinimizeProblem(bowl, np.zeros(2), max_evals=30))])
    alone = minimize(method, MinimizeProblem(batched(shifted_bowl), np.zeros(2), max_evals=30))
    assert flat.sizes == [1]
    assert (results[0].status, results[0].evals_used, results[0].f_best) == (STATUS_CONVERGED, 1, 2.5)
    assert records(results[1]) == records(alone)
    assert results[1].status == alone.status


def test_a_zero_dimensional_budget_covers_one_evaluation():
    with pytest.raises(ValueError, match=r"^max_evals=0 cannot cover"):
        MinimizeProblem(batched(shifted_bowl), np.zeros(0), max_evals=0)
    assert MinimizeProblem(batched(shifted_bowl), np.zeros(0), max_evals=1).max_evals == 1


# -- module boundaries --------------------------------------------------------------


def test_package_exports_resolve_once():
    assert len(qaoalab.__all__) == len(set(qaoalab.__all__))
    missing = [name for name in qaoalab.__all__ if not hasattr(qaoalab, name)]
    assert missing == []


def test_optim_imports_only_rng_and_the_rules_from_the_package():
    # a bare package module stands in for qaoalab/__init__.py, which
    # imports every submodule, so only optim's own imports are loaded;
    # the rules module, _checks, imports nothing from the package
    probe = (
        "import sys, types\n"
        "pkg = types.ModuleType('qaoalab')\n"
        "pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['qaoalab'] = pkg\n"
        "import qaoalab.optim\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qaoalab.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, qaoalab.__path__[0]],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["qaoalab._checks", "qaoalab.optim", "qaoalab.rng"]
