"""Maximum-likelihood fitting, curvature-based uncertainty, and profiles.

Fitting runs a trust-region Newton search over the free log-scale
coefficients on the exact Hessian: every kernel returns its gradient and
its Hessian, the series parts as means and covariances under their own
tilted terms, so each step costs one evaluation of value, score and
Hessian, and covariate coefficient vectors fit as readily as two
scalars. Standard errors come from the inverse of the exact observed
information at the optimum, read from the search's last evaluation; a
huge condition number there is reported, not hidden, because for some
protocols (single-visit binary or count data with constant parameters)
abundance and detection rate are genuinely not separately identifiable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from .errors import SeriesConvergenceError
from .likelihood import irrelevant_constants, total_loglik
from .model import Dataset, Parameterization

__all__ = [
    "FitResult",
    "ProfileResult",
    "default_init",
    "fit",
    "profile_loglik",
]

CONDITION_FLAG_THRESHOLD = 1e10
# Eigenvalues of the information within this many times the residual score
# plus rounding at the optimum are indistinguishable from an exact zero
# (see _curvature_report).
RIDGE_SAFETY = 32.0
_JITTER_SD = 0.5  # spread of the restarts' offsets from the first start


def _flagged(converged: bool, condition: float) -> bool:
    """Not converged, or a Hessian too ill-conditioned to trust the standard errors."""
    return not converged or not math.isfinite(condition) or condition > CONDITION_FLAG_THRESHOLD


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``loglik`` and ``aic`` include the protocol's data-only constant terms,
    so AIC values are comparable across refits of the same data.
    ``covariance`` (and ``se``) refer to the free coefficients in the order
    given by ``estimates.free_values()``. ``n_evals`` counts likelihood
    evaluations over the whole fit, restarts included; one evaluation is a
    value, a score and a Hessian.
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

    ``curved`` gives the value, its gradient and its Hessian from one
    evaluation; calling it gives the value alone. A series that cannot
    converge at the probed coefficients scores that proposal as
    impossible (-inf, with a zero gradient and Hessian) and is counted; a
    NaN value or a non-finite gradient or Hessian also scores impossible.
    Errors that depend only on the data (a record outside the density's
    support) would make every proposal impossible, so they propagate.
    """

    def __init__(self, dataset: Dataset, template: Parameterization):
        self.dataset = dataset
        self.template = template
        self.n_evals = 0
        self.convergence_failures = 0

    def __call__(self, x: np.ndarray) -> float:
        return self.curved(x)[0]

    def curved(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        self.n_evals += 1
        k = np.size(x)
        impossible = (-math.inf, np.zeros(k), np.zeros((k, k)))
        try:
            params = self.template.with_free_values(x)
            got = total_loglik(self.dataset, params, score=True)
        except SeriesConvergenceError:
            self.convergence_failures += 1
            return impossible
        if not (got.total > -math.inf and np.all(np.isfinite(got.score)) and np.all(np.isfinite(got.hessian))):
            return impossible
        return got.total, got.score, got.hessian


def _maximize(curved, x0: np.ndarray, tol: float, max_evals: int):
    """Trust-region Newton ascent of ``curved(x) -> (value, gradient,
    Hessian)`` from ``x0`` (Nocedal & Wright, Numerical Optimization, ch. 4).

    Each proposal costs one evaluation, which serves the value, the
    gradient and the Hessian. The search stops once the score's norm is
    below sqrt(tol), which leaves at most ~tol/2 of log-likelihood
    unattained wherever the curvature is at least one, or after
    ``max_evals`` evaluations. Returns scipy's result for the negated
    log-likelihood; its ``hess`` is the observed information at ``x`` and
    ``success`` also requires a finite optimum.

    The solver's own arithmetic runs with overflow and invalid operations
    raising: a step it cannot compute (a Hessian too large to take the
    norm of, say) stops the search unconverged at the best finite point
    evaluated, with a message saying why. The likelihood runs under the
    caller's floating-point settings, and its errors propagate.
    """
    n_evals, spent, evaluating = 0, False, False
    last: dict = {}
    best: dict = {}
    caller = np.geterr()

    def negated(x):
        nonlocal n_evals, evaluating
        if "x" not in last or not np.array_equal(last["x"], x):
            n_evals += 1
            evaluating = True
            with np.errstate(**caller):
                value, grad, hess = curved(x)
            evaluating = False
            last.update(x=np.copy(x), out=(-value, -grad, -hess))
            if math.isfinite(value) and value > best.get("value", -math.inf):
                best.update(value=value, x=last["x"], out=last["out"])
        return last["out"]

    def check_budget(_):
        nonlocal spent
        spent = n_evals >= max_evals
        if spent:
            raise StopIteration

    try:
        with np.errstate(over="raise", invalid="raise"):
            res = minimize(
                lambda x: negated(x)[0], x0, method="trust-exact", callback=check_budget,
                jac=lambda x: negated(x)[1], hess=lambda x: negated(x)[2],
                options={"gtol": math.sqrt(tol), "maxiter": max_evals},
            )
    except (ArithmeticError, ValueError) as exc:
        if evaluating or not last:  # the likelihood's error, or no step taken
            raise
        point = best or last
        fun, jac, hess = point["out"]
        return OptimizeResult(
            x=point["x"], fun=fun, jac=jac, hess=hess, success=False, nfev=n_evals,
            message=f"the trust-region step could not be computed ({exc})",
        )
    if spent:
        res.success, res.message = False, f"stopped after {max_evals} evaluations"
    res.success = bool(res.success and np.isfinite(res.fun))
    return res


def _curvature_report(
    info: np.ndarray, score: np.ndarray, f0: float
) -> tuple[np.ndarray, np.ndarray, float, list[str]]:
    """Covariance, standard errors, condition number, and any complaints.

    ``info`` is the exact observed information at the optimum, ``score``
    the gradient left there and ``f0`` the log-likelihood, all from the
    optimizer's last evaluation at its estimate.

    The covariance comes from one eigendecomposition of ``info``: it is the
    inverse on the eigenvalues kept, and the condition number is the ratio
    of the largest to the smallest eigenvalue size. Eigenvalues below the
    resolution of that stopping point, or within k eps of the largest, are
    treated as exact zeros. On a ridge f = phi(r(x)) the information's
    eigenvalue along the ridge is phi'(r) v^T (d^2 r) v, and phi' vanishes
    at the optimum only as fast as the residual score does; rounding adds
    eps * |f0|. So an eigenvalue within a few dozen times ||score|| +
    eps (1 + |f0|) cannot be told from a flat ridge, and dividing by one
    would report a covariance made of the stopping tolerance. Such fits get
    an infinite condition number and the near-singular flag instead.
    """
    k = info.shape[0]
    messages: list[str] = []
    nan_cov = np.full((k, k), math.nan)
    nan_se = np.full(k, math.nan)
    if not np.all(np.isfinite(info)):
        messages.append("hessian contains non-finite entries; no standard errors available")
        return nan_cov, nan_se, math.inf, messages

    eps = float(np.finfo(float).eps)
    resolution = RIDGE_SAFETY * (float(np.max(np.abs(score), initial=0.0)) + eps * (1.0 + abs(f0)))
    eigs, vecs = np.linalg.eigh(info)
    if eigs[-1] <= resolution:
        messages.append(
            "no measurable curvature at the optimum; standard errors unavailable"
        )
        return nan_cov, nan_se, math.inf, messages
    size = np.abs(eigs)
    # below the stopping point's resolution, or the decomposition's own rounding
    tiny = max(resolution, k * eps * float(size.max()))
    kept = size > tiny
    cond = float(size.max() / size.min()) if kept.all() else math.inf
    if not kept.all():
        messages.append(
            f"hessian condition number exceeds {CONDITION_FLAG_THRESHOLD:.0e}: the "
            f"smallest eigenvalue ({float(size.min()):.1e}) is below the resolution of the "
            f"residual score and rounding ({tiny:.1e}), so the likelihood is flat "
            "along some coefficient direction and standard errors are unreliable"
        )
    elif cond > CONDITION_FLAG_THRESHOLD:
        messages.append(
            f"hessian condition number {cond:.3e} exceeds "
            f"{CONDITION_FLAG_THRESHOLD:.0e}; the likelihood is flat along some "
            "coefficient direction and standard errors are unreliable"
        )
    # the inverse on the kept eigenvalues: the flat directions carry no variance
    cov = (vecs[:, kept] / eigs[kept]) @ vecs[:, kept].T
    diag = np.diag(cov).copy()
    se = np.sqrt(np.where(diag > 0, diag, math.nan))
    # a kept positive spectrum leaves a zero diagonal only along a dropped ridge
    if np.any(diag <= 0) and eigs[kept].min() < 0:
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
    best = _maximize(loglik_fn.curved, x0, tol, max_evals)
    cov, se, cond, curv_messages = _curvature_report(best.hess, best.jac, -best.fun)

    messages: list[str] = []
    if _flagged(best.success, cond) and multistart > 0:
        rng = np.random.default_rng(seed)
        improved = False
        for _ in range(multistart):
            start = x0 + rng.normal(0.0, _JITTER_SD, size=x0.size)
            trial = _maximize(loglik_fn.curved, start, tol, max_evals)
            if trial.fun < best.fun:
                best = trial
                improved = True
        messages.append(
            f"restarted {multistart} times from jittered starts"
            + (" and improved the optimum" if improved else "; no restart did better")
        )
        if improved:
            cov, se, cond, curv_messages = _curvature_report(best.hess, best.jac, -best.fun)
    if not best.success:
        messages.append(f"optimizer stopped without meeting tolerances: {best.message}")
    if loglik_fn.convergence_failures:
        messages.append(
            f"{loglik_fn.convergence_failures} proposal(s) left a series unconverged "
            "and were scored as impossible"
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
            value, grad, hess = loglik_fn.curved(full)
            return value, grad[others], hess[np.ix_(others, others)]

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
