"""Derivative-free minimizers: correctness, budgets, trace contracts."""

import math
import subprocess
import sys

import numpy as np
import pytest

import qaoalab
from qaoalab.objective import make_objective
from qaoalab.optim import (
    METHODS,
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_STALLED,
    MinimizeProblem,
    MinimizeResult,
    minimize,
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
    assert len(result.trace) == result.evals_used
    assert result.f_best <= f0 + 1e-15
    assert result.f_best == pytest.approx(min(result.trace.energies()))


# -- named examples -----------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
def test_shifted_bowl_all_methods(method):
    problem = MinimizeProblem(shifted_bowl, np.zeros(2))
    result = minimize(method, problem)
    # the trust-region method stops at its radius floor, so its iterate
    # tolerance is looser than the line-search methods'
    atol = 1e-4 if method == "cobyla" else 1e-6
    np.testing.assert_allclose(result.x_best, [1.0, -2.0], atol=atol)
    assert result.f_best < 1e-8
    check_contract(result, problem, shifted_bowl(np.zeros(2)))


def test_powell_constant_objective_converges_quickly():
    problem = MinimizeProblem(lambda x: 4.25, np.ones(3))
    result = minimize("powell", problem)
    assert result.status == STATUS_CONVERGED
    assert result.f_best == 4.25
    # one outer iteration: a handful of line searches, nowhere near the budget
    assert result.evals_used <= 200


def test_cg_rosenbrock():
    problem = MinimizeProblem(rosenbrock, np.array([-1.2, 1.0]))
    result = minimize("cg", problem)
    np.testing.assert_allclose(result.x_best, [1.0, 1.0], atol=1e-4)


def test_cg_gradient_norm_on_anisotropic_quadratic():
    d = 10
    gen = np.random.default_rng(0)
    for _ in range(5):
        curv = gen.uniform(0.5, 10.0, size=d)
        center = gen.uniform(-2.0, 2.0, size=d)
        problem = MinimizeProblem(
            lambda x, c=curv, m=center: float(c @ (x - m) ** 2),
            np.zeros(d),
            max_evals=50 * d,
        )
        result = minimize("cg", problem)
        grad = 2.0 * curv * (result.x_best - center)
        assert np.linalg.norm(grad) < 1e-6
        assert result.evals_used <= 50 * d


def test_cobyla_bowl_d4():
    problem = MinimizeProblem(lambda x: float(x @ x), np.ones(4))
    result = minimize("cobyla", problem)
    assert result.f_best < 1e-6


def test_cobyla_d1_degenerate_simplex_recovers():
    problem = MinimizeProblem(lambda x: (x[0] - 3.0) ** 2, np.array([0.0]))
    result = minimize("cobyla", problem)
    assert result.x_best[0] == pytest.approx(3.0, abs=1e-3)
    assert result.status in ALL_STATUSES


# -- method names -------------------------------------------------------------------


def test_dispatch_rejects_unknown_method():
    with pytest.raises(ValueError, match="newton"):
        minimize("newton", MinimizeProblem(shifted_bowl, np.zeros(2)))


# -- configuration validation -----------------------------------------------------


def test_budget_below_dimension_rejected():
    with pytest.raises(ValueError):
        MinimizeProblem(shifted_bowl, np.zeros(3), max_evals=2)


def test_budget_exactly_dimension_runs():
    problem = MinimizeProblem(shifted_bowl, np.zeros(2), max_evals=2)
    result = minimize("powell", problem)
    assert result.status == STATUS_BUDGET
    assert result.evals_used == 2


def test_problem_validation():
    with pytest.raises(ValueError):
        MinimizeProblem(shifted_bowl, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        MinimizeProblem(shifted_bowl, np.zeros(2), fd_step=-0.1)


@pytest.mark.parametrize("max_evals", [2.5, np.float64(3.0), True, "40"])
def test_max_evals_must_be_an_integer(max_evals):
    with pytest.raises(ValueError, match=r"^max_evals must be an integer, got "):
        MinimizeProblem(shifted_bowl, np.zeros(1), max_evals=max_evals)


def test_default_budget_is_500d():
    problem = MinimizeProblem(shifted_bowl, np.zeros(4))
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
        problem = MinimizeProblem(f, x0)
        result = minimize(method, problem)
        check_contract(result, problem, f(x0))
        assert result.f_best < 1e-6


def test_deterministic_given_fixed_objective():
    a = minimize("powell", MinimizeProblem(rosenbrock, np.array([-1.2, 1.0])))
    b = minimize("powell", MinimizeProblem(rosenbrock, np.array([-1.2, 1.0])))
    assert a.f_best == b.f_best
    assert a.trace.energies() == b.trace.energies()


@pytest.mark.parametrize("method", METHODS)
def test_stochastic_objective_terminates(method, canonical):
    objective = make_objective(canonical, 1, "sampled", shots=64, seed=13)
    problem = MinimizeProblem(
        objective, np.array([0.7, 1.1]), max_evals=400, fd_step=0.05
    )
    result = minimize(method, problem)
    assert result.status in ALL_STATUSES
    assert result.evals_used <= 400
    assert len(result.trace) == result.evals_used


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
    problem = MinimizeProblem(lambda x: value, np.zeros(2), max_evals=10)
    with pytest.raises(ValueError, match="objective returned no finite value"):
        minimize(method, problem)


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_values_never_become_the_best(method):
    def spiky(x):
        return math.nan if x[0] > 0.2 else shifted_bowl(x)

    res = minimize(method, MinimizeProblem(spiky, np.zeros(2), max_evals=60))
    assert math.isfinite(res.f_best)
    assert res.f_best == min(e for e in res.trace.energies() if math.isfinite(e))


# -- module boundaries --------------------------------------------------------------


def test_package_exports_resolve_once():
    assert len(qaoalab.__all__) == len(set(qaoalab.__all__))
    missing = [name for name in qaoalab.__all__ if not hasattr(qaoalab, name)]
    assert missing == []


def test_optim_imports_only_rng_from_the_package():
    # a bare package module stands in for qaoalab/__init__.py, which
    # imports every submodule, so only optim's own imports are loaded
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
    assert out == ["qaoalab.optim", "qaoalab.rng"]
