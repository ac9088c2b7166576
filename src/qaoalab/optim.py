"""Derivative-free minimizers with hard evaluation budgets and traces.

``minimize(method, problem)`` is the one driver. It creates the
evaluation log (``OptimizationTrace``) and the budget-enforcing
recorder, runs the named search, and builds the ``MinimizeResult``.
Each search is a plain function of (recorder, problem) that returns
its stopping status:
  * powell - direction-set search with golden-section line minima
  * cg     - Polak-Ribiere conjugate gradient on central finite
             differences, with a parabolic-backtracking line search
  * cobyla - linear interpolation model over a d+1 simplex inside a
             shrinking trust region

Every objective call goes through the recorder, so ``evals_used``
always equals the trace length and the budget is enforced exactly: the
call past the budget raises, and the driver ends the run with status
``budget_exhausted``. ``f_best`` is the min over all recorded finite
evaluations, not the last iterate. An objective that never returns a
finite value ends in a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import rng

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget_exhausted"
STATUS_STALLED = "stalled"

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_RHO_START, _RHO_END = 0.5, 1e-4  # cobyla's initial and final trust radius
_XTOL = 1e-6  # step length below which powell stops; line searches resolve 100 * _XTOL
_FTOL = 1e-8  # relative decrease below which an iteration counts as no progress


class TraceRecord(NamedTuple):
    index: int
    theta: tuple[float, ...]
    energy: float


@dataclass
class OptimizationTrace:
    """Append-only log of objective evaluations, in order."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, theta, energy: float) -> None:
        theta = tuple(float(t) for t in np.asarray(theta, dtype=float))
        self.records.append(TraceRecord(len(self.records), theta, float(energy)))

    def energies(self) -> list[float]:
        return [r.energy for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class MinimizeProblem:
    """Objective plus starting point, budget, and finite-difference step.

    max_evals is an int (not a bool) and defaults to 500 * d. fd_step=None
    means the relative rule h_i = 1e-6 * max(1, |x_i|); stochastic
    objectives should set an absolute step (0.05 works well against shot
    noise). The stopping tolerances are fixed for every problem (_XTOL,
    _FTOL).
    """

    objective: Callable[[np.ndarray], float]
    x0: np.ndarray
    max_evals: int | None = None
    fd_step: float | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).copy()
        if self.x0.ndim != 1 or self.x0.size == 0:
            raise ValueError(f"x0 must be a non-empty 1-D vector, got shape {self.x0.shape}")
        if self.max_evals is None:
            self.max_evals = 500 * self.x0.size
        if isinstance(self.max_evals, bool) or not isinstance(self.max_evals, int):
            raise ValueError(f"max_evals must be an integer, got {self.max_evals!r}")
        if self.max_evals < self.x0.size:
            raise ValueError(
                f"max_evals={self.max_evals} cannot cover even one pass over {self.x0.size} dimensions"
            )
        if self.fd_step is not None and self.fd_step <= 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step!r}")


@dataclass
class MinimizeResult:
    x_best: np.ndarray
    f_best: float
    evals_used: int
    status: str
    trace: OptimizationTrace


class _BudgetExceeded(Exception):
    pass


class _Recorder:
    """Budget-enforcing, trace-keeping wrapper around the raw objective."""

    def __init__(self, objective, max_evals: int, trace: OptimizationTrace):
        self.objective = objective
        self.max_evals = max_evals
        self.trace = trace
        self.x_best: np.ndarray | None = None
        self.f_best = math.inf

    @property
    def used(self) -> int:
        return len(self.trace)

    def __call__(self, x: np.ndarray) -> float:
        if self.used >= self.max_evals:
            raise _BudgetExceeded
        x = np.asarray(x, dtype=float)
        f = float(self.objective(x))
        self.trace.append(x, f)
        if f < self.f_best and math.isfinite(f):
            self.f_best = f
            self.x_best = x.copy()
        return f


# ---------------------------------------------------------------------------
# bracketing + Brent line minimization (shared by powell and cg)
# ---------------------------------------------------------------------------


def _bracket(f, xa: float, xb: float):
    """Expand downhill until f(xb) < min(f(xa), f(xc)); may raise _BudgetExceeded.

    Returns (xa, xb, xc, fa, fb, fc) with xb strictly between xa and xc.
    Returns None if no downhill bracket emerges within 50 expansions
    (flat or pathological).
    """
    fa, fb = f(xa), f(xb)
    if fb > fa:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + (1.0 + _GOLD) * (xb - xa)
    fc = f(xc)
    it = 0
    while fc < fb:
        if it >= 50:
            return None
        it += 1
        # parabolic extrapolation through (xa, xb, xc)
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        denom = 2.0 * (tmp2 - tmp1)
        if abs(denom) < 1e-21:
            w = xc + (1.0 + _GOLD) * (xc - xb)
        else:
            w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + 110.0 * (xc - xb)  # farthest parabolic extrapolation
        if (w - xc) * (xb - w) > 0:
            fw = f(w)
            if fw < fc:
                return (xb, w, xc, fb, fw, fc)
            if fw > fb:
                return (xa, xb, w, fa, fb, fw)
            w = xc + (1.0 + _GOLD) * (xc - xb)
            fw = f(w)
        elif (w - wlim) * (wlim - xc) >= 0:
            w = wlim
            fw = f(w)
        else:
            w = xc + (1.0 + _GOLD) * (xc - xb)
            fw = f(w)
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    if fb <= fa and fb <= fc:
        return (xa, xb, xc, fa, fb, fc)
    return None


def _brent_1d(f, xa: float, xb: float, xc: float, fb: float, tol: float):
    """Refine a bracket by golden-section steps with parabolic acceleration.

    Classic Brent minimization, at most 100 probes: a parabola through
    the three best points proposes the next probe, and golden sections
    guarantee progress when the parabola misbehaves. Returns (x, f(x)).
    """
    a, b = (xa, xc) if xa < xc else (xc, xa)
    x = w = v = xb
    fx = fw = fv = fb
    d = e = 0.0
    for _ in range(100):
        m = 0.5 * (a + b)
        tol1 = tol * abs(x) + 1e-11
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        use_golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                e = d
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = (1.0 - _GOLD) * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _line_minimize(rec: _Recorder, x: np.ndarray, direction: np.ndarray, f0: float,
                   tol: float, step: float = 1.0):
    """Minimize f(x + alpha * direction) from alpha=0; returns (alpha, f) with f <= f0."""

    def f1d(alpha):
        return rec(x + alpha * direction)

    bracket = _bracket(f1d, 0.0, step)
    if bracket is None:
        return 0.0, f0
    xa, xb, xc, fa, fb, fc = bracket
    alpha, fmin = _brent_1d(f1d, xa, xb, xc, fb, tol)
    if fmin > f0:
        return 0.0, f0
    return alpha, fmin


# ---------------------------------------------------------------------------
# powell
# ---------------------------------------------------------------------------


def _powell(rec: _Recorder, problem: MinimizeProblem) -> str:
    """Direction-set minimization without derivatives.

    Each outer iteration line-minimizes along every direction in turn,
    then replaces the direction of largest single decrease with the net
    displacement when the standard acceptance test favors it. Converges
    when an outer iteration's total improvement falls below _FTOL.
    """
    d = problem.x0.size
    directions = np.eye(d)
    x = problem.x0.copy()
    line_tol = 100.0 * _XTOL  # per-line precision beyond this is wasted budget
    fx = rec(x)
    while True:
        f_start = fx
        x_start = x.copy()
        biggest_drop = 0.0
        drop_index = 0
        for i in range(d):
            direction = directions[i]
            alpha, f_new = _line_minimize(rec, x, direction, fx, line_tol)
            if fx - f_new > biggest_drop:
                biggest_drop = fx - f_new
                drop_index = i
            x = x + alpha * direction
            fx = f_new
        if 2.0 * (f_start - fx) <= _FTOL * (abs(f_start) + abs(fx)) + 1e-20:
            return STATUS_CONVERGED
        displacement = x - x_start
        if np.linalg.norm(displacement) <= _XTOL:
            return STATUS_CONVERGED
        # extrapolated point test for direction replacement
        f_ext = rec(x_start + 2.0 * displacement)
        if f_ext < f_start:
            t = 2.0 * (f_start + f_ext - 2.0 * fx)
            t *= (f_start - fx - biggest_drop) ** 2
            t -= biggest_drop * (f_start - f_ext) ** 2
            if t < 0.0:
                # adopt the displacement: minimize along it, then keep it
                alpha, f_new = _line_minimize(rec, x, displacement, fx, line_tol)
                x = x + alpha * displacement
                fx = f_new
                norm = np.linalg.norm(displacement)
                directions[drop_index] = directions[d - 1]
                directions[d - 1] = displacement / norm


# ---------------------------------------------------------------------------
# finite-difference conjugate gradient
# ---------------------------------------------------------------------------


def _fd_gradient(rec: _Recorder, x: np.ndarray, fd_step: float | None) -> np.ndarray:
    g = np.empty(x.size)
    for i in range(x.size):
        h = fd_step if fd_step is not None else 1e-6 * max(1.0, abs(x[i]))
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (rec(x + e) - rec(x - e)) / (2.0 * h)
    return g


def _cg(rec: _Recorder, problem: MinimizeProblem) -> str:
    """Polak-Ribiere conjugate gradient on central-difference gradients.

    Each iteration line-minimizes along the conjugate direction (same
    bracketing engine as Powell, which guarantees sufficient decrease);
    directions reset to steepest descent every d iterations or whenever
    conjugacy produces a non-descent direction. Stops on gradient norm,
    two consecutive negligible decreases, stalling, or budget.
    """
    d = problem.x0.size
    x = problem.x0.copy()
    line_tol = 100.0 * _XTOL
    stall = 0
    tiny_drops = 0
    fx = rec(x)
    g = _fd_gradient(rec, x, problem.fd_step)
    direction = -g
    gg_prev = float(g @ g)
    alpha_prev = None
    since_reset = 0
    while True:
        if math.sqrt(gg_prev) <= 1e-7:
            return STATUS_CONVERGED
        if float(g @ direction) >= 0.0:
            direction = -g
            since_reset = 0
        # initial bracket scale: previous step, or the gradient's scale
        if alpha_prev is None:
            step0 = min(1.0, 1.0 / max(math.sqrt(gg_prev), 1e-12))
        else:
            step0 = max(alpha_prev, 1e-8)
        alpha, f_new = _line_minimize(rec, x, direction, fx, line_tol, step=step0)
        if alpha == 0.0:
            # no downhill movement along a descent direction: noise floor
            stall += 1
            if stall >= 2:
                return STATUS_STALLED
            direction = -g
            alpha_prev = None
            since_reset = 0
            continue
        stall = 0
        f_drop = fx - f_new
        x = x + alpha * direction
        fx = f_new
        alpha_prev = alpha
        if 2.0 * f_drop <= _FTOL * (abs(fx) + abs(fx + f_drop)) + 1e-20:
            tiny_drops += 1
            if tiny_drops >= 2:
                return STATUS_CONVERGED
        else:
            tiny_drops = 0
        g_new = _fd_gradient(rec, x, problem.fd_step)
        gg_new = float(g_new @ g_new)
        since_reset += 1
        if since_reset >= d:
            beta = 0.0
            since_reset = 0
        else:
            beta = max(0.0, float(g_new @ (g_new - g)) / max(gg_prev, 1e-300))
        direction = -g_new + beta * direction
        g, gg_prev = g_new, gg_new


# ---------------------------------------------------------------------------
# cobyla-like linear-model trust region
# ---------------------------------------------------------------------------


def _cobyla(rec: _Recorder, problem: MinimizeProblem) -> str:
    """Linear interpolation model over a d+1 simplex in a trust region.

    Fits the exact linear interpolant of the simplex (vertices spaced at
    a quarter of the trust radius) and steps against its gradient from
    the best vertex: first the full trust radius, then backtracked half
    and quarter steps if the full step fails to achieve a fraction of
    the predicted decrease. Shrinks rho (and rebuilds the simplex) once
    no step length works; converges once rho falls to _RHO_END.
    """
    d = problem.x0.size
    rho = _RHO_START

    def build_simplex(center: np.ndarray, f_center: float):
        # vertex spacing of rho/4 keeps the secant gradient honest: the
        # interpolant's bias scales with curvature times spacing, and a
        # full-rho simplex leaves too much bias to hit fine minima once
        # rho reaches its floor
        h = 0.25 * rho
        xs = [center.copy()]
        fs = [f_center]
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            xs.append(center + e)
            fs.append(rec(center + e))
        return xs, fs

    f0 = rec(problem.x0)
    xs, fs = build_simplex(problem.x0, f0)
    fresh = True  # was the simplex rebuilt since the last model failure?
    while rho > _RHO_END:
        best = int(np.argmin(fs))
        x_best, f_best = xs[best], fs[best]
        rows = [i for i in range(d + 1) if i != best]
        a_mat = np.array([xs[i] - x_best for i in rows])
        b_vec = np.array([fs[i] - f_best for i in rows])
        # stale or degenerate geometry poisons the linear model; fix
        # the simplex before blaming the trust radius
        if np.linalg.cond(a_mat) > 1e10:
            xs, fs = build_simplex(x_best, f_best)
            fresh = True
            continue
        g = np.linalg.solve(a_mat, b_vec)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-300 or rho * gnorm < _FTOL * max(1.0, abs(f_best)):
            if not fresh:
                xs, fs = build_simplex(x_best, f_best)
                fresh = True
                continue
            rho *= 0.5
            xs, fs = build_simplex(x_best, f_best)
            continue
        accepted = False
        x_new, f_new = x_best, f_best
        for frac in (1.0, 0.5, 0.25):
            step = frac * rho
            x_try = x_best - (step / gnorm) * g
            f_try = rec(x_try)
            if f_try < f_new:
                x_new, f_new = x_try, f_try
            if f_best - f_try > 0.1 * step * gnorm:
                accepted = True
                break
        if accepted:
            # keep the simplex compact: drop the vertex farthest from
            # the accepted point
            far = int(np.argmax([np.linalg.norm(xv - x_new) for xv in xs]))
            xs[far] = x_new
            fs[far] = f_new
            fresh = False
        else:
            worst = int(np.argmax(fs))
            if f_new < fs[worst]:
                xs[worst] = x_new
                fs[worst] = f_new
            if fresh:
                rho *= 0.5
            best = int(np.argmin(fs))
            xs, fs = build_simplex(xs[best], fs[best])
            fresh = True
    return STATUS_CONVERGED


# ---------------------------------------------------------------------------
# the driver + restarts
# ---------------------------------------------------------------------------

_SEARCHES = {"powell": _powell, "cg": _cg, "cobyla": _cobyla}
METHODS = tuple(_SEARCHES)


def minimize(method: str, problem: MinimizeProblem) -> MinimizeResult:
    """Run one search by name under the problem's budget; raises ValueError for unknown methods."""
    if method not in _SEARCHES:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    trace = OptimizationTrace()
    rec = _Recorder(problem.objective, problem.max_evals, trace)
    try:
        status = _SEARCHES[method](rec, problem)
    except _BudgetExceeded:
        status = STATUS_BUDGET
    if rec.x_best is None:
        raise ValueError(f"objective returned no finite value in {rec.used} evaluations")
    return MinimizeResult(rec.x_best.copy(), rec.f_best, rec.used, status, trace)


def random_qaoa_starts(p: int, k: int, seed: int) -> list[np.ndarray]:
    """k random layer-angle vectors: betas in [0, pi), gammas in [0, 2*pi)."""
    if p < 1 or k < 1:
        raise ValueError("p and k must be positive")
    gen = rng.generator(seed, rng.STREAM_INIT)
    starts = []
    for _ in range(k):
        betas = gen.uniform(0.0, math.pi, size=p)
        gammas = gen.uniform(0.0, 2.0 * math.pi, size=p)
        starts.append(np.concatenate([betas, gammas]))
    return starts
