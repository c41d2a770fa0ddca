"""Maximum-likelihood fitting, curvature-based uncertainty, and profiles.

Fitting runs the quasi-Newton BFGS search over the free log-scale
coefficients on the exact score: every kernel returns its gradient, the
series parts as means under their own tilted terms, so each step costs
one value-and-gradient evaluation and covariate coefficient vectors fit
as readily as two scalars. Standard errors come from a central
finite-difference Hessian of the log-likelihood at the optimum; a huge
condition number there is reported, not hidden, because for some
protocols (single-visit binary or count data with constant parameters)
abundance and detection rate are genuinely not separately identifiable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import OracleConvergenceError, SeriesConvergenceError
from .likelihood import irrelevant_constants, total_loglik
from .model import Dataset, Parameterization

__all__ = [
    "FitResult",
    "ProfileResult",
    "default_init",
    "finite_difference_hessian",
    "fit",
    "profile_loglik",
]

CONDITION_FLAG_THRESHOLD = 1e10
FD_REL_STEP = 1e-4
# A second difference of f carries rounding noise of order eps * |f| / step^2,
# so eigenvalues smaller than a few dozen times that are indistinguishable
# from an exact zero.
RIDGE_NOISE_SAFETY = 32.0


def _flagged(converged: bool, condition: float) -> bool:
    """Not converged, or a Hessian too ill-conditioned to trust the standard errors."""
    return not converged or not math.isfinite(condition) or condition > CONDITION_FLAG_THRESHOLD


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``loglik`` and ``aic`` include the protocol's data-only constant terms,
    so AIC values are comparable across refits of the same data.
    ``covariance`` (and ``se``) refer to the free coefficients in the order
    given by ``estimates.free_values()``.
    """

    estimates: Parameterization
    loglik: float
    aic: float
    covariance: np.ndarray
    se: np.ndarray
    converged: bool
    n_evals: int
    hessian_condition: float
    messages: list[str] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return _flagged(self.converged, self.hessian_condition)


@dataclass(frozen=True, eq=False)
class ProfileResult:
    """Profile log-likelihood of one coefficient over a grid.

    ``loglik`` entries are NaN where the reduced optimization failed; the
    corresponding messages say why.
    """

    coef_index: int
    grid: np.ndarray
    loglik: np.ndarray
    messages: list[str] = field(default_factory=list)


def default_init(dataset: Dataset) -> Parameterization:
    """Moment-flavored starting point: abundance from site maxima, rate
    from the overall detection fraction."""
    counts = dataset.counts
    lam0 = float(counts.max(axis=1).mean()) + 0.5
    det_frac = float((counts > 0).mean())
    mean_t = float(dataset.design.search_time.mean())
    inner = min(1.0 - det_frac + 1e-3, 1.0 - 1e-6)
    rate0 = max(-math.log(inner) / mean_t, 1e-8)
    return Parameterization(math.log(lam0), math.log(rate0))


class _CountedLoglik:
    """Log-likelihood as a function of the free coefficient vector.

    Calling it gives the value; ``scored`` gives the value and its gradient.
    A series or oracle that cannot converge at the probed coefficients
    scores that proposal as impossible (-inf, with a zero gradient) and is
    counted; a NaN value or a non-finite gradient also scores impossible.
    Errors that depend only on the data (a record outside the density's
    support) would make every proposal impossible, so they propagate.
    """

    def __init__(self, dataset: Dataset, template: Parameterization):
        self.dataset = dataset
        self.template = template
        self.n_evals = 0
        self.convergence_failures = 0

    def scored(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self._evaluate(x, score=True)

    def __call__(self, x: np.ndarray) -> float:
        return self._evaluate(x, score=False)[0]

    def _evaluate(self, x: np.ndarray, score: bool) -> tuple[float, np.ndarray | None]:
        self.n_evals += 1
        impossible = (-math.inf, np.zeros(np.size(x)) if score else None)
        try:
            params = self.template.with_free_values(x)
            got = total_loglik(self.dataset, params, score=score)
        except (SeriesConvergenceError, OracleConvergenceError):
            self.convergence_failures += 1
            return impossible
        if not got.total > -math.inf or (score and not np.all(np.isfinite(got.score))):
            return impossible
        return got.total, got.score


def _maximize(scored, x0: np.ndarray, tol: float, max_evals: int):
    """BFGS ascent of ``scored(x) -> (value, gradient)`` from ``x0``.

    The search stops once the largest score is below sqrt(tol), which
    leaves at most ~tol/2 of log-likelihood unattained wherever the
    curvature is at least one, or after ``max_evals`` evaluations. It also
    counts as converged when no step can raise the value any more (a
    rounding floor) while the quasi-Newton model predicts less than ``tol``
    left to gain. Returns scipy's result for the negated log-likelihood
    with ``success`` set to that verdict.
    """
    n_evals, spent = 0, False

    def objective(x):
        nonlocal n_evals
        n_evals += 1
        value, grad = scored(x)
        return -value, -grad

    def check_budget(_):
        nonlocal spent
        spent = n_evals >= max_evals
        if spent:
            raise StopIteration

    res = minimize(
        objective, x0, jac=True, method="BFGS", callback=check_budget,
        options={"gtol": math.sqrt(tol), "maxiter": max_evals},
    )
    if spent:
        res.success, res.message = False, f"stopped after {max_evals} evaluations"
    elif res.status == 2 and np.isfinite(res.fun):
        res.success = bool(0.5 * res.jac @ res.hess_inv @ res.jac <= tol)
    return res


def finite_difference_hessian(f, x, f0: float | None = None) -> np.ndarray:
    """Central finite-difference Hessian of f at x, step relative to |x|.

    ``f0`` is f(x) when the caller already has it."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = FD_REL_STEP * np.maximum(1.0, np.abs(x))
    hess = np.empty((k, k))
    if f0 is None:
        f0 = f(x)
    for a in range(k):
        ea = np.zeros(k)
        ea[a] = h[a]
        hess[a, a] = (f(x + ea) - 2.0 * f0 + f(x - ea)) / h[a] ** 2
        for b in range(a + 1, k):
            eb = np.zeros(k)
            eb[b] = h[b]
            quad = f(x + ea + eb) - f(x + ea - eb) - f(x - ea + eb) + f(x - ea - eb)
            hess[a, b] = hess[b, a] = quad / (4.0 * h[a] * h[b])
    return hess


def _curvature_report(loglik_fn, x, f0: float) -> tuple[np.ndarray, np.ndarray, float, list[str]]:
    """Covariance, standard errors, condition number, and any complaints.

    ``f0`` is ``loglik_fn(x)``, which the optimizer has already evaluated.

    Eigenvalues below the finite-difference noise resolution are treated as
    exact zeros: a second difference cannot distinguish them from a flat
    ridge, and dividing by one would report a covariance made of rounding
    error. Such fits get an infinite condition number and the near-singular
    flag instead.
    """
    k = x.size
    messages: list[str] = []
    nan_cov = np.full((k, k), math.nan)
    nan_se = np.full(k, math.nan)
    hess = finite_difference_hessian(loglik_fn, x, f0)
    info = -hess  # observed information
    if not np.all(np.isfinite(info)):
        messages.append("hessian contains non-finite entries; no standard errors available")
        return nan_cov, nan_se, math.inf, messages

    steps = FD_REL_STEP * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))
    eps = float(np.finfo(float).eps)
    resolution = RIDGE_NOISE_SAFETY * eps * (1.0 + abs(f0)) / float(np.min(steps)) ** 2
    eigs = np.linalg.eigvalsh(info)
    lam_max = float(eigs[-1])
    lam_min_abs = float(np.min(np.abs(eigs)))

    if lam_max <= resolution:
        messages.append(
            "no measurable curvature at the optimum; standard errors unavailable"
        )
        return nan_cov, nan_se, math.inf, messages
    if lam_min_abs <= resolution:
        cond = math.inf
        messages.append(
            f"hessian condition number exceeds {CONDITION_FLAG_THRESHOLD:.0e}: the "
            f"smallest eigenvalue ({lam_min_abs:.1e}) is below the finite-difference "
            f"noise resolution ({resolution:.1e}), so the likelihood is flat along "
            "some coefficient direction and standard errors are unreliable"
        )
        cov = np.linalg.pinv(info, rcond=resolution / lam_max)
    else:
        cond = float(np.linalg.cond(info))
        if not math.isfinite(cond) or cond > CONDITION_FLAG_THRESHOLD:
            messages.append(
                f"hessian condition number {cond:.3e} exceeds "
                f"{CONDITION_FLAG_THRESHOLD:.0e}; the likelihood is flat along some "
                "coefficient direction and standard errors are unreliable"
            )
            cov = np.linalg.pinv(info)
        else:
            try:
                cov = np.linalg.inv(info)
            except np.linalg.LinAlgError:
                messages.append("observed information is singular; using a pseudo-inverse")
                cov = np.linalg.pinv(info)
    diag = np.diag(cov).copy()
    se = np.sqrt(np.where(diag > 0, diag, math.nan))
    if np.any(diag <= 0):
        messages.append(
            "nonpositive curvature along some coefficient; its standard error is NaN"
        )
    return cov, se, cond, messages


def fit(
    dataset: Dataset,
    init: Parameterization | None = None,
    *,
    tol: float = 1e-8,
    max_evals: int = 2000,
    multistart: int = 5,
    jitter_sd: float = 0.5,
    seed: int = 0,
) -> FitResult:
    """Maximize the log-likelihood over the free coefficients of ``init``.

    ``init`` fixes the coefficient structure (constant, per-site/occasion,
    or covariate-driven); omit it for constant abundance and rate started
    at moment-based values. Each search stops within ``tol`` of its optimum
    in log-likelihood or after ``max_evals`` evaluations (see ``_maximize``).
    When the first search fails to converge or lands on a flagged Hessian,
    up to ``multistart`` jittered restarts are tried and the best optimum
    kept.
    """
    template = init if init is not None else default_init(dataset)
    loglik_fn = _CountedLoglik(dataset, template)
    x0 = template.free_values()
    best = _maximize(loglik_fn.scored, x0, tol, max_evals)
    cov, se, cond, curv_messages = _curvature_report(loglik_fn, best.x, -best.fun)

    messages: list[str] = []
    if _flagged(best.success, cond) and multistart > 0:
        rng = np.random.default_rng(seed)
        improved = False
        for _ in range(multistart):
            start = x0 + rng.normal(0.0, jitter_sd, size=x0.size)
            trial = _maximize(loglik_fn.scored, start, tol, max_evals)
            if trial.fun < best.fun:
                best = trial
                improved = True
        messages.append(
            f"restarted {multistart} times from jittered starts"
            + (" and improved the optimum" if improved else "; no restart did better")
        )
        if improved:
            cov, se, cond, curv_messages = _curvature_report(loglik_fn, best.x, -best.fun)
    if not best.success:
        messages.append(f"optimizer stopped without meeting tolerances: {best.message}")
    if loglik_fn.convergence_failures:
        messages.append(
            f"{loglik_fn.convergence_failures} proposal(s) left a series or the summation "
            "oracle unconverged and were scored as impossible"
        )
    messages.extend(curv_messages)

    estimates = template.with_free_values(best.x)
    kernel_loglik = -float(best.fun)
    full_loglik = kernel_loglik + irrelevant_constants(dataset)
    k = x0.size
    return FitResult(
        estimates=estimates,
        loglik=full_loglik,
        aic=2.0 * k - 2.0 * full_loglik,
        covariance=cov,
        se=se,
        converged=bool(best.success),
        n_evals=loglik_fn.n_evals,
        hessian_condition=cond,
        messages=messages,
    )


def profile_loglik(
    dataset: Dataset,
    init: Parameterization,
    coef_index: int,
    grid,
    *,
    tol: float = 1e-8,
    max_evals: int = 2000,
) -> ProfileResult:
    """Profile one free coefficient: maximize over the others at each grid value.

    Failed grid points leave NaN gaps rather than aborting the curve. The
    returned values include the protocol's data-only constants, matching
    ``FitResult.loglik``.
    """
    grid = np.asarray(grid, dtype=float)
    x_full = init.free_values()
    k = x_full.size
    if not 0 <= coef_index < k:
        raise IndexError(f"coefficient index {coef_index} out of range for {k} coefficients")
    loglik_fn = _CountedLoglik(dataset, init)
    constants = irrelevant_constants(dataset)
    others = np.delete(np.arange(k), coef_index)
    warm = x_full[others]
    out = np.empty(grid.size)
    messages: list[str] = []

    for idx, g in enumerate(grid):
        if k == 1:
            out[idx] = loglik_fn(np.array([g])) + constants
            continue

        def reduced(xo, _g=g):
            full = np.empty(k)
            full[coef_index] = _g
            full[others] = xo
            value, grad = loglik_fn.scored(full)
            return value, grad[others]

        # Start from the previous grid point's optimum and from the caller's
        # init. Warm starts alone can drag a plateau excursion at one grid
        # value through the rest of the curve.
        starts = [warm]
        if not np.allclose(warm, x_full[others]):
            starts.append(x_full[others])
        res = None
        for start in starts:
            trial = _maximize(reduced, start, tol, max_evals)
            if res is None or trial.fun < res.fun:
                res = trial
        if not np.isfinite(res.fun):
            out[idx] = math.nan
            messages.append(f"grid point {g!r}: reduced fit failed ({res.message})")
        else:
            out[idx] = -float(res.fun) + constants
            warm = res.x
    return ProfileResult(coef_index, grid, out, messages)
