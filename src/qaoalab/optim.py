"""Derivative-free minimizers with hard evaluation budgets and evaluation logs.

``minimize_lockstep(searches)`` is the one driver; ``minimize(method,
problem)`` is its one-search case. Each search is an ask/tell generator
of x0: it yields the points it wants evaluated, is sent their values,
and returns its stopping status. It never sees the objective, the log
or the budget.
  * powell - direction-set search with golden-section line minima
  * cg     - Polak-Ribiere conjugate gradient on central finite
             differences, with a parabolic-backtracking line search
  * cobyla - linear interpolation model over a d+1 simplex inside a
             shrinking trust region

The objective is batch-first: ``objective(points, seeds)`` maps a
(k, d) array of points and one seed per point to k values, as an
``objective.Engine`` does. A search yields one point (a 1-D array,
answered with a float) or a batch (a 2-D array, answered with a list):
every point it can name before it needs a value, so that one round trip
to the objective serves them all. The batches are
  * cobyla's start: x0 with its first d simplex vertices, and the d new
    vertices of every rebuilt simplex;
  * cg's start: x0 with its first 2d central-difference points (x +
    h0*e0, x - h0*e0, x + h1*e1, ...), and the 2d points of every later
    gradient;
  * a line bracket's first two points, line(xa) and line(xb), in every
    powell and cg line search.
The line searches, the gradient and the simplex are generators too,
joined with ``yield from``.

The driver alone evaluates, records and budgets, for several searches
in lockstep (the ask/tell pattern of Hansen, arXiv 1604.00772). Each
round it collects the ask of every search still running, evaluates the
rows of all searches on one objective in one call, and sends each
search its own values. Evaluation j of a search, counted by its log,
runs under the seed ``rng.eval_seeds`` gives it from the search's
``seed``. Each search keeps its own log, budget, status, seeds and
``f_best``, so its result is the one it gets run alone.

A search's log is two arrays, ``thetas`` (evals, d) and ``energies``
(evals,): row i is evaluation i, in order, so ``evals_used`` is the log
length and the budget is enforced exactly. A batch is cut where
evaluating its points one by one would stop: at the budget, or before
its first non-finite row (asked after a NaN value or an overflow, say),
whichever comes first. The rows before the cut are evaluated and
recorded, and the search ends ``budget_exhausted`` or ``stalled``.
``x_best`` and ``f_best`` are the first evaluation of least finite
value, not the last iterate; the log, status and best are those of
evaluating the same points one by one. An objective that never returns
a finite value ends in a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import _checks, rng

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget_exhausted"
STATUS_STALLED = "stalled"

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_RHO_START, _RHO_END = 0.5, 1e-4  # cobyla's initial and final trust radius
_XTOL = 1e-6  # step length below which powell stops; line searches resolve 100 * _XTOL
_FTOL = 1e-8  # relative decrease below which an iteration counts as no progress


@dataclass
class MinimizeProblem:
    """Batch objective plus starting point, budget and seed.

    ``objective(points, seeds)``, a callable, maps a (k, d) array of
    points and k seeds to k values. Evaluation j of the search (its log
    row) is sent the seed that ``rng.eval_seeds`` derives from ``seed`` and j, or
    None when ``seed`` is None, as an exact objective needs no seed.
    Searches may share one objective. x0 must be a finite 1-D vector,
    possibly empty: a search over d = 0 scores x0 once and converges.
    max_evals must be an integer (``_checks.integer``) of at least
    max(1, d), 500 * max(1, d) by default, and seed None or a seed
    (``_checks.seed``). The stopping tolerances and cg's
    finite-difference step, h_i = 1e-6 * max(1, |x_i|), are fixed for
    every problem (_XTOL, _FTOL, ``_fd_gradient``).
    """

    objective: Callable[[np.ndarray, list], np.ndarray]
    x0: np.ndarray
    max_evals: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not callable(self.objective):
            raise ValueError(f"objective must be callable, got {self.objective!r}")
        self.x0 = _checks.real_array(self.x0, "x0").copy()
        if self.x0.ndim != 1:
            raise ValueError(f"x0 must be a 1-D vector, got shape {self.x0.shape}")
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 entries must be finite, got {self.x0.tolist()!r}")
        least = max(1, self.x0.size)
        if self.max_evals is None:
            self.max_evals = 500 * least
        self.max_evals = _checks.integer(self.max_evals, "max_evals")
        if self.max_evals < least:
            raise ValueError(
                f"max_evals={self.max_evals} cannot cover even one pass over {self.x0.size} dimensions"
            )
        if self.seed is not None:
            self.seed = _checks.seed(self.seed)


@dataclass
class MinimizeResult:
    """The best row, the status and the log: ``thetas`` (evals, d) and ``energies`` (evals,)."""

    x_best: np.ndarray
    f_best: float
    status: str
    thetas: np.ndarray
    energies: np.ndarray

    @property
    def evals_used(self) -> int:
        return len(self.energies)


# ---------------------------------------------------------------------------
# bracketing + Brent line minimization (shared by powell and cg)
# ---------------------------------------------------------------------------


def _bracket(line, xa: float, xb: float):
    """Expand downhill along ``line(alpha) -> point`` until f(xb) < min(f(xa), f(xc)).

    line(xa) and line(xb) are asked as one batch. Returns (xa, xb, xc,
    fa, fb, fc) with xb strictly between xa and xc and fb <= fc. When f
    still falls after 50 expansions, the last triple comes back with
    fc < fb: there is no bracket. Returns None after a value that is no
    number.
    """
    fa, fb = yield np.array([line(xa), line(xb)])
    if fb > fa:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + (1.0 + _GOLD) * (xb - xa)
    fc = yield line(xc)
    it = 0
    while fc < fb:
        if it >= 50:
            return (xa, xb, xc, fa, fb, fc)
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
            fw = yield line(w)
            if fw < fc:
                return (xb, w, xc, fb, fw, fc)
            if fw > fb:
                return (xa, xb, w, fa, fb, fw)
            w = xc + (1.0 + _GOLD) * (xc - xb)
            fw = yield line(w)
        elif (w - wlim) * (wlim - xc) >= 0:
            w = wlim
            fw = yield line(w)
        else:
            w = xc + (1.0 + _GOLD) * (xc - xb)
            fw = yield line(w)
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    if fb <= fa and fb <= fc:
        return (xa, xb, xc, fa, fb, fc)
    return None


def _brent_1d(line, xa: float, xb: float, xc: float, fb: float, tol: float):
    """Refine a bracket by golden-section steps with parabolic acceleration.

    Classic Brent minimization, at most 100 probes: a parabola through
    the three best points proposes the next probe, and golden sections
    guarantee progress when the parabola misbehaves. ``line(alpha)`` maps
    a step to the point it asks for. Returns (alpha, f) of the best probe.
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
        fu = yield line(u)
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


def _line_minimize(x: np.ndarray, direction: np.ndarray, f0: float, tol: float,
                   step: float = 1.0):
    """Minimize f(x + alpha * direction) from alpha=0; returns (alpha, f) with f <= f0.

    alpha is None when no bracket emerges: f keeps falling along the line.
    """

    def line(alpha):
        return x + alpha * direction

    bracket = yield from _bracket(line, 0.0, step)
    if bracket is None:
        return 0.0, f0
    xa, xb, xc, fa, fb, fc = bracket
    if fc < fb:
        return None, f0
    alpha, fmin = yield from _brent_1d(line, xa, xb, xc, fb, tol)
    if fmin > f0:
        return 0.0, f0
    return alpha, fmin


# ---------------------------------------------------------------------------
# powell
# ---------------------------------------------------------------------------


def _powell(x0: np.ndarray):
    """Direction-set minimization without derivatives.

    Each outer iteration line-minimizes along every direction in turn,
    then replaces the direction of largest single decrease with the net
    displacement when the standard acceptance test favors it. Converges
    when an outer iteration's total improvement falls below _FTOL; stalls
    when a line search finds no bracket, as f keeps falling along it.
    """
    d = x0.size
    directions = np.eye(d)
    x = x0.copy()
    line_tol = 100.0 * _XTOL  # per-line precision beyond this is wasted budget
    fx = yield x
    while True:
        f_start = fx
        x_start = x.copy()
        biggest_drop = 0.0
        drop_index = 0
        for i in range(d):
            direction = directions[i]
            alpha, f_new = yield from _line_minimize(x, direction, fx, line_tol)
            if alpha is None:
                return STATUS_STALLED
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
        f_ext = yield x_start + 2.0 * displacement
        if f_ext < f_start:
            t = 2.0 * (f_start + f_ext - 2.0 * fx)
            t *= (f_start - fx - biggest_drop) ** 2
            t -= biggest_drop * (f_start - f_ext) ** 2
            if t < 0.0:
                # adopt the displacement: minimize along it, then keep it
                alpha, f_new = yield from _line_minimize(x, displacement, fx, line_tol)
                if alpha is None:
                    return STATUS_STALLED
                x = x + alpha * displacement
                fx = f_new
                norm = np.linalg.norm(displacement)
                directions[drop_index] = directions[d - 1]
                directions[d - 1] = displacement / norm


# ---------------------------------------------------------------------------
# finite-difference conjugate gradient
# ---------------------------------------------------------------------------


def _fd_gradient(x: np.ndarray, with_x: bool = False):
    """Central differences at h_i = 1e-6 * max(1, |x_i|), from one batch.

    The batch is in the order x + h0*e0, x - h0*e0, x + h1*e1, ...; with
    ``with_x`` it starts with x itself, and the return is (f(x), gradient).
    """
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    first = 1 if with_x else 0
    points = np.empty((first + 2 * x.size, x.size))
    points[:first] = x
    points[first::2] = x + steps
    points[first + 1::2] = x - steps
    fs = yield points
    # Python floats: inf - inf is nan here without numpy's invalid-value warning
    g = np.array([a - b for a, b in zip(fs[first::2], fs[first + 1::2])]) / (2.0 * h)
    return (fs[0], g) if with_x else g


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b as a float, inf or nan where it overflows, without numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(a @ b)


def _norm(g: np.ndarray, gg: float) -> float:
    """|g| from gg = ``_dot(g, g)``: sqrt(gg), or, only where gg overflowed, scaled by max |g|."""
    if gg < math.inf:
        return math.sqrt(gg)
    top = float(np.abs(g).max())
    return top * math.sqrt(_dot(g / top, g / top))


def _cg(x0: np.ndarray):
    """Polak-Ribiere conjugate gradient on central-difference gradients.

    Each iteration line-minimizes along the conjugate direction (same
    bracketing engine as Powell, which guarantees sufficient decrease);
    directions reset to steepest descent every d iterations or whenever
    conjugacy produces a non-descent direction. Converges on gradient
    norm or two consecutive negligible decreases; stalls when two line
    searches in a row find no descent.
    """
    d = x0.size
    x = x0.copy()
    line_tol = 100.0 * _XTOL
    stall = 0
    tiny_drops = 0
    fx, g = yield from _fd_gradient(x, with_x=True)
    direction = -g
    gg_prev = _dot(g, g)
    alpha_prev = None
    since_reset = 0
    while True:
        gnorm = _norm(g, gg_prev)
        if gnorm <= 1e-7:
            return STATUS_CONVERGED
        if _dot(g, direction) >= 0.0:
            direction = -g
            since_reset = 0
        # initial bracket scale: previous step, or the gradient's scale
        if alpha_prev is None:
            step0 = min(1.0, 1.0 / max(gnorm, 1e-12))
        else:
            step0 = max(alpha_prev, 1e-8)
        alpha, f_new = yield from _line_minimize(x, direction, fx, line_tol, step=step0)
        if not alpha:
            # no downhill movement (or no bracket) along a descent direction: noise floor
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
        g_new = yield from _fd_gradient(x)
        gg_new = _dot(g_new, g_new)
        since_reset += 1
        if since_reset >= d:
            beta = 0.0
            since_reset = 0
        else:
            # max(0.0, nan) is 0.0: products that overflowed restart from steepest descent
            beta = max(0.0, _dot(g_new, g_new - g) / max(gg_prev, 1e-300))
        direction = -g_new + beta * direction
        g, gg_prev = g_new, gg_new


# ---------------------------------------------------------------------------
# cobyla-like linear-model trust region
# ---------------------------------------------------------------------------


def _cobyla(x0: np.ndarray):
    """Linear interpolation model over a d+1 simplex in a trust region.

    Fits the exact linear interpolant of the simplex (vertices spaced at
    a quarter of the trust radius) and steps against its gradient from
    the best vertex: first the full trust radius, then backtracked half
    and quarter steps if the full step fails to achieve a fraction of
    the predicted decrease. Shrinks rho (and rebuilds the simplex) once
    no step length works; converges once rho falls to _RHO_END. A vertex
    without a finite value counts as a failed step: no model is fit
    through it, rho shrinks and the simplex is rebuilt around the best
    finite vertex.
    """
    d = x0.size
    rho = _RHO_START

    def build_simplex(center: np.ndarray, f_center: float | None):
        # vertex spacing of rho/4 keeps the secant gradient honest: the
        # interpolant's bias scales with curvature times spacing, and a
        # full-rho simplex leaves too much bias to hit fine minima once
        # rho reaches its floor
        vertices = center + np.diag(np.full(d, 0.25 * rho))
        if f_center is None:  # the start: the center is asked with its vertices
            f_center, *values = yield np.vstack([center, vertices])
        else:
            values = yield vertices
        return [center.copy(), *vertices], [f_center, *values]

    xs, fs = yield from build_simplex(x0, None)
    if d == 0:  # no simplex to fit a model through: the start is all there is
        return STATUS_CONVERGED
    fresh = True  # was the simplex rebuilt since the last model failure?
    while rho > _RHO_END:
        finite = [i for i in range(d + 1) if math.isfinite(fs[i])]
        if len(finite) <= d:
            # no linear model passes through a non-finite value: count it as
            # a failed step around the best finite vertex
            if not finite:
                return STATUS_STALLED
            best = min(finite, key=fs.__getitem__)
            rho *= 0.5
            xs, fs = yield from build_simplex(xs[best], fs[best])
            fresh = True
            continue
        best = int(np.argmin(fs))
        x_best, f_best = xs[best], fs[best]
        rows = [i for i in range(d + 1) if i != best]
        a_mat = np.array([xs[i] - x_best for i in rows])
        b_vec = np.array([fs[i] - f_best for i in rows])
        # stale or degenerate geometry poisons the linear model; fix
        # the simplex before blaming the trust radius
        if np.linalg.cond(a_mat) > 1e10:
            xs, fs = yield from build_simplex(x_best, f_best)
            fresh = True
            continue
        g = np.linalg.solve(a_mat, b_vec)
        gnorm = _norm(g, _dot(g, g))
        if gnorm <= 1e-300 or rho * gnorm < _FTOL * max(1.0, abs(f_best)):
            if fresh:
                rho *= 0.5
            xs, fs = yield from build_simplex(x_best, f_best)
            fresh = True
            continue
        accepted = False
        x_new, f_new = x_best, f_best
        for frac in (1.0, 0.5, 0.25):
            step = frac * rho
            x_try = x_best - (step / gnorm) * g
            f_try = yield x_try
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
            xs, fs = yield from build_simplex(xs[best], fs[best])
            fresh = True
    return STATUS_CONVERGED


# ---------------------------------------------------------------------------
# the lockstep driver + restarts
# ---------------------------------------------------------------------------

_SEARCHES = {"powell": _powell, "cg": _cg, "cobyla": _cobyla}
METHODS = tuple(_SEARCHES)


class _Search:
    """One search in the driver: its generator, its log, its budget and status."""

    def __init__(self, method: str, problem: MinimizeProblem):
        self.problem = problem
        self.search = _SEARCHES[method](problem.x0)
        self.thetas, self.energies = [], []  # the float rows evaluated, and their values
        self.status = None
        self.values = None

    def ask(self):
        """The rows to evaluate next, cut as point-by-point evaluation stops; None once stopped.

        A batch is cut at the budget or before its first non-finite row,
        whichever comes first; the rows before the cut are evaluated, and
        the cut sets the status (``budget_exhausted`` or ``stalled``) that
        ``tell`` gives the search.
        """
        try:
            asked = self.search.send(self.values)
        except StopIteration as stop:
            self.status = stop.value
            return None
        self.one = asked.ndim == 1
        xs = asked[None] if self.one else asked
        rows = xs.tolist()
        end, self.stop = len(rows), None
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            end = next(i for i, row in enumerate(rows) if not all(map(math.isfinite, row)))
            self.stop = STATUS_STALLED
        room = self.problem.max_evals - len(self.energies)
        if room < len(rows) and room <= end:
            end, self.stop = room, STATUS_BUDGET
        if end == 0:
            self.status = self.stop
            return None
        if end < len(rows):
            xs, rows = xs[:end], rows[:end]
        self.rows = rows
        self.seeds = rng.eval_seeds(self.problem.seed, len(self.energies), end)
        return xs

    def tell(self, fs: list[float]) -> None:
        """Record the values of the rows last asked; a cut batch ends the search."""
        self.thetas += self.rows
        self.energies += fs
        if self.stop is None:
            self.values = fs[0] if self.one else fs
        else:
            self.status = self.stop

    def result(self) -> MinimizeResult:
        self.search.close()
        energies = np.array(self.energies, dtype=float)
        thetas = np.array(self.thetas, dtype=float)  # (evals, d): x0 is always evaluated
        # argmin keeps the first of equal values, as -0.0 and 0.0 are
        best = int(np.argmin(np.where(np.isfinite(energies), energies, np.inf)))
        if not math.isfinite(energies[best]):
            raise ValueError(f"objective returned no finite value in {energies.size} evaluations")
        return MinimizeResult(thetas[best].copy(), float(energies[best]), self.status, thetas, energies)


def _values(objective, rows: np.ndarray, seeds: list) -> list[float]:
    """``objective(rows, seeds)`` as a list of floats, one per row."""
    fs = np.asarray(objective(rows, seeds), dtype=float)
    if fs.shape != (len(rows),):
        raise ValueError(f"objective returned shape {fs.shape} for {len(rows)} points")
    return fs.tolist()


def minimize_lockstep(searches) -> list[MinimizeResult]:
    """Run (method, problem) searches in lockstep; one result per search, in order.

    Each round collects the ask of every search that has no status yet
    (a point or a batch, cut at the search's budget or before its first
    non-finite row), makes one ``objective(rows, seeds)`` call per
    objective (and dimension) on the rows of all its searches, and sends
    each search its own values. Every search gets the result that
    ``minimize`` gives it alone, and that evaluating its points one by
    one gives: the same log, ``f_best``, ``x_best``, status and
    evaluation seeds.
    """
    searches = list(searches)
    for method, _ in searches:
        _checks.one_of(method, METHODS, "method")
    runs = [_Search(method, problem) for method, problem in searches]
    live = runs
    while live:
        asks = [(run, xs) for run in live if (xs := run.ask()) is not None]
        if len(asks) == 1:  # one run: its rows and seeds go to its objective as asked
            run, xs = asks[0]
            run.tell(_values(run.problem.objective, xs, run.seeds))
        else:
            calls = {}  # (id of an objective, d) -> its runs and their rows
            for run, xs in asks:
                calls.setdefault((id(run.problem.objective), xs.shape[1]), []).append((run, xs))
            for group in calls.values():
                fs = _values(group[0][0].problem.objective, np.concatenate([xs for _, xs in group]),
                             [s for run, _ in group for s in run.seeds])
                start = 0
                for run, xs in group:
                    run.tell(fs[start:start + len(xs)])
                    start += len(xs)
        live = [run for run in live if run.status is None]
    return [run.result() for run in runs]


def minimize(method: str, problem: MinimizeProblem) -> MinimizeResult:
    """Run one search by name under the problem's budget; raises ValueError for unknown methods.

    The one-search case of ``minimize_lockstep``.
    """
    return minimize_lockstep([(method, problem)])[0]


def random_qaoa_starts(p: int, k: int, seed: int) -> list[np.ndarray]:
    """k random layer-angle vectors: betas in [0, pi), gammas in [0, 2*pi).

    Start j scales ``rng.doubles`` 2pj .. 2pj + 2p - 1 of the seed's init
    key, its p betas by pi and then its p gammas by 2 pi.
    """
    p, k = _checks.integer(p, "p", 1), _checks.integer(k, "k", 1)
    u = rng.doubles(rng.words(rng.derive_key(_checks.seed(seed), rng.STREAM_INIT), 2 * p * k))
    return list((u.reshape(k, 2, p) * np.array([[math.pi], [2.0 * math.pi]])).reshape(k, 2 * p))
