"""Maximum-likelihood fitting, curvature-based uncertainty, and profiles.

Fitting runs this module's own trust-region Newton search over the free
log-scale coefficients on the exact Hessian: every kernel returns its
gradient and its Hessian, so each step costs one evaluation and one
eigendecomposition of at most ~10 coefficients, and covariate vectors
fit as readily as two scalars. Standard errors come from the inverse of
the exact observed information at the optimum, read from the search's
last evaluation; a huge condition number there is reported, not hidden,
because for some protocols (single-visit binary or count data with
constant parameters) abundance and detection rate are genuinely not
separately identifiable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeriesConvergenceError
from .likelihood import irrelevant_constants, total_loglik
from .model import Dataset, ObservationProcess, Parameterization

__all__ = ["FitResult", "ProfileResult", "default_init", "fit", "profile_loglik"]

CONDITION_FLAG_THRESHOLD = 1e10
# Eigenvalues of the information within this many times the residual score
# plus rounding at the optimum are indistinguishable from an exact zero
# (see _curvature_report).
RIDGE_SAFETY = 32.0
_JITTER_SD = 0.5  # spread of the restarts' offsets from the first start
_EPS = float(np.finfo(float).eps)


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


def _pairwise_moments(dataset: Dataset) -> tuple[float, float]:
    """Abundance and exposure h T matching pairs of a site's J >= 2 occasions,
    which share one N ~ Poisson(lambda), or NaN. Counts: mean m = lambda e and
    covariance c = lambda e^2 give e = c / m, the exposure (poisson process) or
    p = 1 - exp(-h T) (binomial thinning, below 1). Binary zeros, either process:
    P0 = exp(-lambda p), P00 = exp(-lambda (2p - p^2)), p = 2 - log P00 / log P0."""
    y, j = dataset.counts.astype(float), dataset.n_occasions
    if dataset.protocol.family.is_binary:
        z = j - y.sum(axis=1)  # zero occasions per site
        p0, p00 = float(z.mean()) / j, float(np.mean(z * (z - 1))) / (j * (j - 1))
        if not 0 < p0 * p0 < p00 < p0 < 1:  # p in (0, 1)
            return math.nan, math.nan
        p = 2.0 - math.log(p00) / math.log(p0)
        return -math.log(p0) / p, -math.log1p(-p)
    m, s = float(y.mean()), y.sum(axis=1)
    e = (float(np.mean(s * s - np.sum(y * y, axis=1))) / (j * (j - 1)) - m * m) / m if m > 0 else math.nan
    if not e > 0:  # no positive covariance
        return math.nan, math.nan
    if dataset.protocol.process is ObservationProcess.POISSON_PROCESS:
        return m / e, e
    p = min(e, 1.0 - 1e-6)
    return m / p, -math.log1p(-p)


def default_init(dataset: Dataset) -> Parameterization:
    """Constant log abundance and log rate from ``_pairwise_moments`` at the mean search time, else
    (one occasion, unusable moments) from site maxima and the detection fraction; rate >= 1e-8."""
    mean_t = float(dataset.design.search_time.mean())
    lam0, exposure = _pairwise_moments(dataset) if dataset.n_occasions > 1 else (math.nan, math.nan)
    if not (0 < lam0 < math.inf and 0 <= exposure < math.inf):
        lam0 = float(dataset.counts.max(axis=1).mean()) + 0.5
        exposure = -math.log(min(1.0 - float((dataset.counts > 0).mean()) + 1e-3, 1.0 - 1e-6))
    return Parameterization(math.log(lam0), math.log(max(exposure / mean_t, 1e-8)))


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


def _step(score: np.ndarray, info: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    """The p maximizing score.p - p.info.p / 2 over |p| <= radius, and whether
    it reaches the boundary (Nocedal & Wright, Alg. 4.3; Moré & Sorensen 1983).

    p solves (info + s I) p = score for the least shift s >= 0 that leaves
    info + s I positive semidefinite and p inside the radius; in info's
    eigenbasis p(s) has components c_i / (lam_i + s), so one eigh serves
    every shift. Unless the Newton step (s = 0) fits, |p(s)| = radius is
    solved by Newton's method on 1 / |p(s)|, concave and rising in s, from
    a start left of the root. If the score is orthogonal to the lowest
    eigenvector (the hard case), p(s) stays inside for every s past -lam_1,
    and the step slides from there along that eigenvector to the boundary.
    """
    lam, vecs = np.linalg.eigh(info)
    c = vecs.T @ score
    if lam[0] > 0 and np.linalg.norm(c / lam) <= radius:
        return vecs @ (c / lam), False
    base = lam - min(lam[0], 0.0)  # lam + s = base + t, with t > 0 past the pole
    t = 0.0 if lam[0] > 0 else max(_EPS * (base[-1] + np.linalg.norm(c) / radius), np.finfo(float).tiny)
    for _ in range(50):
        p = c / (base + t)
        size = np.linalg.norm(p)
        if size <= radius * (1.0 + 1e-12):
            break
        t += (size / radius - 1.0) * size**2 / np.sum(p**2 / (base + t))
    if size < radius:  # the hard case
        room = radius**2 - size**2
        p[0] += math.copysign(room / (abs(p[0]) + math.sqrt(p[0] ** 2 + room)), p[0])
    return vecs @ p, True


def minimize(curved, x0: np.ndarray, tol: float, max_evals: int):
    """Trust-region Newton ascent of ``curved(x) -> (value, gradient,
    Hessian)`` from ``x0``: a minimization of the negated log-likelihood.

    Each proposal costs one evaluation and is accepted when it gains over
    0.15 of the rise the model predicts. The radius starts at 1, shrinks
    fourfold below a ratio of 0.25 and doubles (up to 1000) above 0.75 on
    the boundary. The search stops once the score's norm is below
    sqrt(tol), which leaves at most ~tol/2 of log-likelihood unattained
    wherever the curvature is at least one; once an interior Newton step
    predicts a rise of at most 8 eps |loglik|, below the value's rounding,
    so that no proposal could show a gain (a large survey's score can stay
    above sqrt(tol) there); or after ``max_evals`` evaluations. Returns
    ``(x, loglik, score, information, stop)`` at the best point accepted;
    ``stop`` says why an unconverged search stopped, else is None. Only the
    solver's own arithmetic raises on overflow, division by zero and
    invalid operations, which stops the search; ``curved`` runs under the
    caller's settings, and its errors propagate.
    """
    x = np.array(x0, dtype=float)
    value, score, hess = curved(x)
    if not math.isfinite(value):
        return x, value, score, -hess, "the log-likelihood is not finite at the start"
    n_evals, radius = 1, 1.0
    while True:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                if np.linalg.norm(score) < math.sqrt(tol):
                    return x, value, score, -hess, None
                p, on_boundary = _step(score, -hess, radius)
                gain = score @ p + 0.5 * (p @ hess @ p)  # the model's predicted rise
                if not on_boundary and gain <= 8.0 * _EPS * abs(value):
                    return x, value, score, -hess, None
                if not gain > 0:
                    raise FloatingPointError("the model predicts no rise")
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            return x, value, score, -hess, f"the trust-region step could not be computed ({exc})"
        if n_evals >= max_evals:
            return x, value, score, -hess, f"stopped after {max_evals} evaluations"
        trial = curved(x + p)
        n_evals += 1
        rho = (trial[0] - value) / gain
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, 1000.0)
        if rho > 0.15:
            x, (value, score, hess) = x + p, trial


def _curvature_report(
    info: np.ndarray, score: np.ndarray, f0: float
) -> tuple[np.ndarray, np.ndarray, float, list[str]]:
    """Covariance, standard errors, condition number, and any complaints,
    from the information ``info``, residual ``score`` and log-likelihood
    ``f0`` of the search's last evaluation at its estimate. ``info`` is
    finite: ``_CountedLoglik`` scores a non-finite Hessian as impossible,
    and the search accepts no impossible point.

    The covariance is the inverse of ``info`` on the eigenvalues kept, and
    the condition number the ratio of the largest to the smallest
    eigenvalue size. Eigenvalues within k eps of the largest, or below the
    stopping point's resolution, count as exact zeros: on a ridge
    f = phi(r(x)) the eigenvalue along it is phi'(r) v^T (d^2 r) v, and
    phi' vanishes only as fast as the residual score, plus eps |f0| of
    rounding. Dividing by such an eigenvalue would report a covariance made
    of the stopping tolerance, so those fits get an infinite condition
    number and the near-singular flag instead.
    """
    k = info.shape[0]
    messages: list[str] = []
    nan_cov = np.full((k, k), math.nan)
    nan_se = np.full(k, math.nan)
    resolution = RIDGE_SAFETY * (float(np.max(np.abs(score), initial=0.0)) + _EPS * (1.0 + abs(f0)))
    eigs, vecs = np.linalg.eigh(info)
    if eigs[-1] <= resolution:
        messages.append(
            "no measurable curvature at the optimum; standard errors unavailable"
        )
        return nan_cov, nan_se, math.inf, messages
    size = np.abs(eigs)
    # below the stopping point's resolution, or the decomposition's own rounding
    tiny = max(resolution, k * _EPS * float(size.max()))
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


def _check_search(tol: float, max_evals: int) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_evals < 1:
        raise ValueError(f"max_evals must be at least 1, got {max_evals!r}")


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
    at ``default_init``'s pairwise-moment estimate. Each search stops within ``tol`` of its optimum
    in log-likelihood or after ``max_evals`` evaluations (see ``minimize``).
    When the first search fails to converge or lands on a flagged Hessian,
    up to ``multistart`` jittered restarts are tried and the best optimum
    kept.
    """
    _check_search(tol, max_evals)
    if multistart < 0:
        raise ValueError(f"multistart must be nonnegative, got {multistart!r}")
    template = init if init is not None else default_init(dataset)
    loglik_fn = _CountedLoglik(dataset, template)
    x0 = template.free_values()
    best = minimize(loglik_fn.curved, x0, tol, max_evals)
    x, loglik, score, info, stop = best
    cov, se, cond, curv_messages = _curvature_report(info, score, loglik)

    messages: list[str] = []
    if _flagged(stop is None, cond) and multistart > 0:
        rng = np.random.default_rng(seed)
        first = best
        for _ in range(multistart):
            trial = minimize(loglik_fn.curved, x0 + rng.normal(0.0, _JITTER_SD, size=x0.size), tol, max_evals)
            best = trial if trial[1] > best[1] else best
        improved = best is not first
        messages.append(
            f"restarted {multistart} times from jittered starts"
            + (" and improved the optimum" if improved else "; no restart did better")
        )
        if improved:
            x, loglik, score, info, stop = best
            cov, se, cond, curv_messages = _curvature_report(info, score, loglik)
    if stop is not None:
        messages.append(f"optimizer stopped without meeting tolerances: {stop}")
    if loglik_fn.convergence_failures:
        messages.append(
            f"{loglik_fn.convergence_failures} proposal(s) left a series unconverged "
            "and were scored as impossible"
        )
    messages.extend(curv_messages)

    full_loglik = float(loglik) + irrelevant_constants(dataset)
    return FitResult(
        estimates=template.with_free_values(x),
        loglik=full_loglik,
        aic=2.0 * x0.size - 2.0 * full_loglik,
        covariance=cov,
        se=se,
        converged=stop is None,
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
    _check_search(tol, max_evals)
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

        def reduced(xo, _g=g):
            value, grad, hess = loglik_fn.curved(np.insert(xo, coef_index, _g))
            return value, grad[others], hess[np.ix_(others, others)]

        # Start from the previous grid point's optimum and from the caller's
        # init. Warm starts alone can drag a plateau excursion at one grid
        # value through the rest of the curve.
        starts = [warm]
        if not np.allclose(warm, x_full[others]):
            starts.append(x_full[others])
        searches = [minimize(reduced, start, tol, max_evals) for start in starts]
        xo, loglik, _, _, stop = max(searches, key=lambda r: r[1])
        if math.isfinite(loglik):
            out[idx] = float(loglik) + constants
            warm = xo
        else:
            out[idx] = math.nan
            messages.append(f"grid point {float(g)!r}: reduced fit failed ({stop})")
    return ProfileResult(coef_index, grid, out, messages)
