"""Log-space special functions used by the likelihood kernels.

The Poisson moments, detection-history expectations and hypergeometric
series overflow double precision long before the model sizes of interest,
so everything works on log scale. All three series are positive and
log-concave; one summer adds them up around their largest term. A row
whose peak lies far from the series' start sums every k-th exact term
times k, with k ~ sigma / 4 for a bell of width sigma: by Poisson
summation the aliasing error is ~exp(-2 pi^2 sigma^2 / k^2) (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56
(2014) 385-458), so such a row sums at most 128 exact terms, 128 k
indices (at least +-8 sigma) around the peak, whatever the peak, rather
than O(sqrt(peak)). The bound of 2^32 on the peak index limits the
precision of the terms (~eps n log n), not the cost.

Each function has two modes: the value alone, or with ``score=True`` the
value with its first and second derivatives. A scored call sums the tilted
means and the covariance of the per-term scores in the same pass as the
value: the means are the first derivatives, and the covariance gives the
second ones.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import gammaln

from .errors import SeriesConvergenceError

__all__ = [
    "log_sum_exp",
    "safe_exp",
    "log_poisson_raw_moment",
    "log_poisson_detection_moment",
    "log_pfq_equal_order",
]

NEG_INF = float("-inf")


def safe_exp(x):
    """exp(x) clamped to the largest finite double instead of overflowing.

    Optimizers probing extreme log-scale values need a finite, monotone
    objective out there, not an OverflowError or a NaN from inf arithmetic.
    A scalar gives a float; an array gives an array of the same shape.
    """
    if np.ndim(x) == 0:
        if x > 709.0:
            return sys.float_info.max
        return math.exp(x)
    x = np.asarray(x, dtype=float)
    return np.where(x > 709.0, sys.float_info.max, np.exp(np.minimum(x, 709.0)))


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) with the usual max shift, over ``axis``.

    Empty input and all three of ``[]``, ``[-inf]``, ``[-inf, -inf]`` give
    -inf (a sum of zero terms is zero). A +inf entry propagates to +inf.
    With ``axis=None`` the whole input is reduced to a float; otherwise
    the result is an array without that axis.
    """
    arr = np.asarray(values, dtype=float)
    m = np.max(arr, axis=axis, keepdims=True, initial=NEG_INF)
    finite = np.isfinite(m)
    # all -inf, or a +inf/nan entry which should dominate the result: keep m
    with np.errstate(divide="ignore"):
        s = np.log(np.sum(np.exp(arr - np.where(finite, m, 0.0)), axis=axis, keepdims=True))
    out = np.where(finite, m + s, m)
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


# A window placed around a peak spans 16 sqrt(peak) terms (~8 SD each side);
# one strided at k > 1 (see _strides) is cut to 128 exact terms, 128 k > 16
# sigma indices. At most _BLOCK window terms are evaluated at once.
_SPREAD = 16.0
_BLOCK = 2**16
_LOG_TOL = math.log(1e-13)


def _log_tail(log_r):
    """log(r + r^2 + ...) for r = exp(log_r); +inf or NaN unless r < 1."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return log_r - np.log(-np.expm1(log_r))


def _peaks(log_ratio, rows, after):
    """Index of the largest term of rows still rising at ``after``: gallop 1, 2,
    4, ... terms on to a falling ratio, then cut that bracket in 32 per step.
    +inf past 2^32 terms on."""
    n = after + 2.0 ** np.arange(33)[:, None]
    falling = log_ratio(rows, n) <= 0.0
    k, i = falling.argmax(axis=0), np.arange(rows.size)
    peak = np.where(falling[k, i], n[k, i], np.inf)
    ok = np.isfinite(peak)
    rows, lo, hi = rows[ok], np.where(k > 0, n[k - 1, i], after)[ok], peak[ok]
    while np.any(hi - lo > 1.0):
        n = lo + np.ceil((hi - lo) * np.arange(1, 33)[:, None] / 32.0)  # the last probe is hi
        k, i = (log_ratio(rows, n) <= 0.0).argmax(axis=0), np.arange(rows.size)
        lo, hi = np.where(k > 0, n[k - 1, i], lo), n[k, i]
    peak[ok] = hi
    return peak


def _strides(log_ratio, rows, peak):
    """Sampling stride of windows placed around each row's peak.

    The terms near the peak form a smooth bell of width sigma, read from the
    slope of the log ratio: sigma^2 = 2d / (log_ratio(peak - d) -
    log_ratio(peak + d)) with d = ceil(sqrt(peak)). At k = 2^floor(log2(sigma
    / 4)) the aliasing of a sum of every k-th term, exp(-2 pi^2 sigma^2 /
    k^2), is below exp(-316). The stride is 1 where sigma < 8 or the slope
    is not finite and positive."""
    d = np.ceil(np.sqrt(peak))
    with np.errstate(divide="ignore", invalid="ignore"):
        before, after = log_ratio(rows, np.stack([peak - d, peak + d]))
        sigma = np.sqrt(2.0 * d / (before - after))
        k = 2.0 ** np.floor(np.log2(sigma / 4.0))
    return np.where((sigma >= 8.0) & (sigma < np.inf), k, 1.0)


def _windows(todo, start, lo, width, stride, log_ratio, log_term, scores, q):
    """Per row: window log-sum relative to its first term, left and right tail
    bounds relative to that sum (NaN or +inf: none yet), last log ratio, and
    the term-weighted means and covariance of the q scores over the window
    (both None without ``scores``). Rows of equal width and stride go
    together, one column each; no operation mixes columns."""
    out = np.empty((4, todo.size))
    out[1] = NEG_INF
    tilted = cov = None
    widths, strides = width[todo], stride[todo]
    if strides.max() > 1.0:
        groups = set(zip(widths.tolist(), strides.tolist()))
    else:  # no row strides, the usual case: width alone, at a third of the cost
        groups = {(w, 1.0) for w in set(widths.tolist())}
    for w, k in sorted(groups):
        group = np.flatnonzero((widths == w) & (strides == k))
        # a covariance takes q^2 products per window term
        step = max(1, _BLOCK // (int(w // k) * max(1, q) ** 2))
        for part in (group[s : s + step] for s in range(0, group.size, step)):
            rows, edge = todo[part], lo[todo[part]]
            if k == 1:
                # log t_{n+1}/t_n from the term before the window to its last term;
                # rows that share their indices share one column of them
                n = np.arange(-1.0, w)[:, None] + (edge[:1] if edge.min() == edge.max() else edge)
                log_r = log_ratio(rows, np.maximum(n, start))
                before, last = log_r[0].copy(), log_r[-1]
                log_r[0] = 0.0
                # log(t_{lo+j} / t_lo); the last is past the window
                log_t, n = np.cumsum(log_r, axis=0)[:-1], n[1:]
            else:
                # exact terms at every k-th index, each standing for k terms, and
                # the log ratios before the window and at its last sample
                n = edge + np.arange(0.0, w, k)[:, None]
                log_t = log_term(rows, n)
                log_t = log_t - log_t[0]
                before, last = log_ratio(rows, np.stack([edge - 1.0, n[-1]]))
            # going left the ratios only grow, so 1/ratio(lo - 1) bounds the left tail
            inner = edge > start
            if inner.any():
                out[1, part[inner]] = _log_tail(-before[inner])
            peak = log_t.max(axis=0)
            # summed along contiguous rows, so a row sums alike alone or batched
            terms = np.exp(np.ascontiguousarray((log_t - peak).T))
            mass = terms.sum(axis=1)
            out[0, part] = peak + np.log(k * mass)
            out[2, part] = log_t[-1] + _log_tail(last)
            out[3, part] = last
            if scores is not None:
                s = scores(rows, n)
                s = np.ascontiguousarray(np.swapaxes(np.broadcast_to(s, s.shape[:1] + log_t.shape), 1, 2))
                if tilted is None:
                    tilted, cov = np.empty((q, todo.size)), np.empty((todo.size, q, q))
                tilted[:, part] = (s * terms).sum(axis=2) / mass
                # centred on the means just taken, over the same samples and weights
                dev = np.swapaxes(s - tilted[:, part, None], 0, 1)
                cov[part] = (dev * terms[:, None]) @ np.swapaxes(dev, 1, 2) / mass[:, None, None]
            del terms  # not held while the next part builds its arrays: peak memory
    return out[0], out[1] - out[0], out[2] - out[0], out[3], tilted, cov


def _log_series_sum(start, first, log_first, log_ratio, log_term, scores=None):
    """log sum_{n >= start} t_n for rows of positive, log-concave series.

    ``log_first`` holds each row's log t_start; ``log_term(rows, n)`` gives the
    exact log t_n and ``log_ratio(rows, n)`` log t_{n+1}/t_n, non-increasing
    in n, both at (w, k) or (w, 1) indices, one column per row.
    Each row log-sum-exps a window, ``first`` terms from ``start`` at first,
    doubled until the geometric bounds on both tails are below 1e-13 of the
    sum. A window still rising at its end moves around the row's peak, found
    by galloping and bisecting on the sign of the ratio, and spans
    16 sqrt(peak) indices. Clear of ``start``, it sums every k-th exact term
    times k, with k ~ sigma / 4 for a bell of width sigma (see _strides): the
    aliasing error is ~exp(-316). Cut to 128 k > 16 sigma indices, such a
    window costs at most 128 exact terms rather than O(sqrt(peak)). A window
    that grows back to ``start`` sums every term again. Raises
    SeriesConvergenceError for a row still rising 2^32 terms on; that bound
    limits the precision of the terms (their lgamma floor, ~eps n log n),
    not the cost.

    With ``scores(rows, n)``, which gives q per-term scores s_n as a (q, ...)
    array broadcasting with ``n``, also returns the (q, rows) tilted means
    m = sum t_n s_n / sum t_n and the (rows, q, q) tilted covariances
    sum t_n (s_n - m)(s_n - m)^T / sum t_n over each row's final window,
    with the same samples and weights. Along parameters whose log-term
    derivatives are s_n, the means are the first derivatives of the log-sum
    and the covariances its second derivatives, less the tilted mean of the
    log-terms' own second derivatives (Louis, JRSS-B 44 (1982) 226-233)."""
    lo = np.full(log_first.size, float(start))
    width = np.full(log_first.size, float(first))
    stride = np.ones(log_first.size)
    out = np.empty(log_first.size)
    todo = np.arange(log_first.size)
    q = 0 if scores is None else len(scores(todo[:0], np.zeros((1, 0))))
    means, covs = np.empty((q, log_first.size)), np.empty((log_first.size, q, q))
    while todo.size:
        rel, left, right, last, tilted, cov = _windows(
            todo, start, lo, width, stride, log_ratio, log_term, scores, q
        )
        left_ok, right_ok = left < _LOG_TOL, right < _LOG_TOL
        done = left_ok & right_ok
        rows, moved = todo[done], lo[todo[done]] > start
        out[rows] = log_first[rows] + rel[done]
        if scores is not None:
            means[:, rows], covs[rows] = tilted[:, done], cov[done]
        if moved.any():
            rows = rows[moved]
            out[rows] = log_term(rows, lo[rows][None])[0] + rel[done][moved]
        if done.all():
            break
        rising = last > 0.0
        if rising.any():
            rows = todo[rising]
            peak = _peaks(log_ratio, rows, lo[rows] + width[rows] - 1.0)
            k = np.isinf(peak).argmax()
            if np.isinf(peak[k]):
                raise SeriesConvergenceError("series peak past 2^32 terms", float(log_first[rows[k]] + rel[rising][k]), first)
            width[rows] = first * 2.0 ** np.ceil(np.log2(np.maximum(1.0, _SPREAD * np.sqrt(peak) / first)))
            lo[rows] = np.maximum(start, peak - width[rows] / 2)
            # a window truncated at start is no smooth bell: it keeps stride 1;
            # a strided one is cut to 128 samples around the peak
            clear = lo[rows] > start
            rows, peak = rows[clear], peak[clear]
            stride[rows] = k = _strides(log_ratio, rows, peak)
            width[rows] = np.where(k > 1.0, np.minimum(width[rows], 128.0 * k), width[rows])
            lo[rows] = peak - width[rows] / 2
        # double the rest: to the right, to the left, or by half on each side
        grow = ~done & ~rising
        rows = todo[grow]
        shift = np.where(left_ok[grow], 0.0, np.where(right_ok[grow], 1.0, 0.5)) * width[rows]
        lo[rows] = np.maximum(start, lo[rows] - shift)
        width[rows] *= 2.0
        stride[rows[lo[rows] == start]] = 1.0  # grown back to start: no smooth bell
        todo = todo[~done]
    return out if scores is None else (out, means, covs)


def _index(rows, n):
    """The term index n as the one per-term score: for terms proportional
    to x^n, its tilted mean is the derivative of the log-sum along log x."""
    return n[None]


def log_poisson_raw_moment(m, log_mu, score: bool = False):
    """log E[N^m] for N ~ Poisson(mu), passed as log mu.

    Sums Dobinski's formula E[N^m] = e^{-mu} sum_{n >= 1} n^m mu^n / n!.
    ``m`` is a nonnegative integer or integer array that broadcasts with
    ``log_mu``; the result has the broadcast shape (a float for two scalars).
    m = 0 gives 0 for any mu >= 0, and m >= 1 at mu = 0 gives -inf. Raises
    SeriesConvergenceError where the largest term lies past 2^32 (mu > ~4e9).

    With ``score=True`` returns (value, d value / d log mu, d^2 value /
    d log mu^2): E_t[n] - mu under the tilted terms (0 for m = 0, and its
    limit 1 at mu = 0) and Var_t[n] - mu (0 for m = 0 and at mu = 0).
    """
    m, log_mu = np.asarray(m), np.asarray(log_mu, dtype=float)
    if m.shape != log_mu.shape:
        m, log_mu = np.broadcast_arrays(m, log_mu)
    if m.size and m.min() < 0:
        raise ValueError(f"moment order must be nonnegative, got {m.min()}")
    if not np.all(log_mu[m > 0] < np.inf):
        raise ValueError("log_mu must not be NaN or +inf")
    out = np.where(m == 0, 0.0, NEG_INF)
    rows = np.flatnonzero((m > 0) & (log_mu > NEG_INF))
    order, log_mu = m.ravel()[rows], log_mu.ravel()[rows]

    def log_ratio(i, n):
        return order[i] * np.log1p(1.0 / n) + (log_mu[i] - np.log(n + 1.0))

    def log_term(i, n):
        return order[i] * np.log(n) + n * log_mu[i] - gammaln(n + 1.0) - safe_exp(log_mu[i])

    # 32 terms cover mu up to ~5 at the small orders of binary histories
    first = log_mu - safe_exp(log_mu)
    if not score:
        out.flat[rows] = _log_series_sum(1, 32, first, log_ratio, log_term)
        return float(out) if out.ndim == 0 else out
    d_log_mu, d2_log_mu = np.where(m == 0, 0.0, 1.0), np.zeros(out.shape)
    out.flat[rows], (mean,), cov = _log_series_sum(1, 32, first, log_ratio, log_term, _index)
    d_log_mu.flat[rows] = mean - safe_exp(log_mu)
    d2_log_mu.flat[rows] = cov[:, 0, 0] - safe_exp(log_mu)
    derivs = (out, d_log_mu, d2_log_mu)
    return tuple(map(float, derivs)) if out.ndim == 0 else derivs


def log_poisson_detection_moment(w, log_mu, score: bool = False):
    """log E[prod_j (1 - e^{-N w_j})] for N ~ Poisson(mu), passed as log mu.

    This is the chance that each of d occasions detects at least one of N
    individuals, occasion j missing each one with probability e^{-w_j}.
    ``w`` is a (d,) vector with a scalar ``log_mu`` (a float result) or an
    (R, d) array with ``log_mu`` of shape (R,), one row per expectation.
    Exposures are nonnegative, d >= 1; a +inf entry is an occasion that
    cannot miss, a factor of 1 for N >= 1, and a 0 entry makes the row -inf,
    as does mu = 0. Sums sum_{n >= 1} Poi(n; mu) prod_j (1 - e^{-n w_j}),
    whose n = 0 term is 0. Precision is ~eps * mu * log(mu) at large mu,
    from the Poisson log-pmf of the terms. Raises SeriesConvergenceError
    where the largest term lies past 2^32 (mu > ~4e9).

    With ``score=True`` returns (value, d value / d log mu, d value / d w,
    Hessian): E_t[n] - mu and E_t[n / (e^{n w_j} - 1)] under the tilted
    terms, shaped like ``log_mu`` and ``w``, and each row's (1 + d, 1 + d)
    Hessian over (log mu, w): the tilted covariance of (n, n / (e^{n w_j} -
    1)), less mu at (log mu, log mu), plus E_t[-n^2 e^{n w_j} / (e^{n w_j} -
    1)^2] at (w_j, w_j). All three are NaN on rows whose value is -inf.
    """
    w, log_mu = np.asarray(w, dtype=float), np.asarray(log_mu, dtype=float)
    scalar = log_mu.ndim == 0
    if log_mu.ndim > 1 or w.ndim != log_mu.ndim + 1 or w.shape[:-1] != log_mu.shape or w.shape[-1] == 0:
        raise ValueError(f"need one row of d >= 1 exposures per mean, got {w.shape} and {log_mu.shape}")
    if not np.all(w >= 0.0):
        raise ValueError("exposures must be nonnegative and not NaN")
    if not np.all(log_mu < np.inf):
        raise ValueError("log_mu must not be NaN or +inf")
    w, log_mu = np.atleast_2d(w), np.atleast_1d(log_mu)
    out = np.full(log_mu.shape, NEG_INF)
    rows = np.flatnonzero((log_mu > NEG_INF) & np.all(w > 0.0, axis=1))
    w, log_mu = w[rows], log_mu[rows]
    hit = -np.expm1(-w)  # 1 - e^{-w}

    # per-occasion arrays are (..., rows, d), summed along their contiguous
    # last axis: numpy then sums a row's occasions alike alone or batched
    def log_ratio(i, n):
        # (1 - e^{-(n+1) w}) / (1 - e^{-n w}) = 1 + (1 - e^{-w}) / (e^{n w} - 1)
        steps = np.log1p(hit[i] / np.expm1(w[i] * n[..., None])).sum(axis=-1)
        return steps + (log_mu[i] - np.log(n + 1.0))

    def log_term(i, n):
        detect = np.log(-np.expm1(-w[i] * n[..., None])).sum(axis=-1)
        return detect + n * log_mu[i] - gammaln(n + 1.0) - safe_exp(log_mu[i])

    def scores(i, n):
        # n and d log(1 - e^{-n w}) / dw = n / (e^{n w} - 1), which is 0 at w = +inf
        per_occasion = np.moveaxis(n[..., None] / np.expm1(w[i] * n[..., None]), -1, 0)
        return np.concatenate([np.broadcast_to(n, per_occasion.shape[1:])[None], per_occasion])

    # e^{n w} overflows to +inf for large exposures, where the step is log1p(0)
    with np.errstate(over="ignore"):
        # 16 terms cover mu up to ~1 at once; larger means move to the peak
        first = log_term(np.arange(rows.size), np.ones((1, rows.size)))[0]
        if not score:
            out[rows] = _log_series_sum(1, 16, first, log_ratio, log_term)
            return float(out[0]) if scalar else out
        out[rows], means, cov = _log_series_sum(1, 16, first, log_ratio, log_term, scores)
    d = hit.shape[1]
    d_log_mu, d_w = np.full(out.shape, np.nan), np.full((out.size, d), np.nan)
    d_log_mu[rows] = means[0] - safe_exp(log_mu)
    d_w[rows] = means[1:].T
    hess = np.full((out.size, 1 + d, 1 + d), np.nan)
    hess[rows] = cov
    hess[rows, 0, 0] -= safe_exp(log_mu)
    # along w_j the score s_j has derivative -s_j (n + s_j), of tilted mean
    # -(Cov(n, s_j) + m_n m_j + Var(s_j) + m_j^2); its Var(s_j) cancels the covariance's
    diagonal = np.arange(1, 1 + d)
    hess[rows[:, None], diagonal, diagonal] = -(cov[:, 0, 1:] + d_w[rows] * (means[0][:, None] + d_w[rows]))
    if scalar:
        return float(out[0]), float(d_log_mu[0]), d_w[0], hess[0]
    return out, d_log_mu, d_w, hess


def log_pfq_equal_order(a, b, z, score: bool = False):
    """log pFq(a; b; z) for equal-length positive parameter vectors and z >= 0.

    The terms start at t_0 = 1 and follow t_{n+1}/t_n = prod(a+n)/prod(b+n)
    * z/(n+1); that ratio does not increase with n when each sorted a_i >= b_i
    (as in the count kernels). ``a`` and ``b`` may also be (R, p) arrays with
    ``z`` of shape (R,): each row is an independent series and the result an
    (R,) array. Raises SeriesConvergenceError for a row whose largest term
    lies past 2^32 (z > ~4e9).

    With ``score=True`` returns (value, d value / d log z, d^2 value /
    d log z^2): E_t[n] and Var_t[n] under the tilted terms (0 at z = 0).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"parameter vectors must have equal length, got {a.size} and {b.size}")
    upper = np.sort(np.atleast_2d(a), axis=1)
    lower = np.sort(np.atleast_2d(b), axis=1)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (upper.shape[0],):
        raise ValueError(f"need one series argument per parameter row, got shape {z.shape}")
    if np.any(upper <= 0) or np.any(lower <= 0):
        raise ValueError("hypergeometric parameters must be positive")
    if not np.all((z >= 0) & (z < np.inf)):
        raise ValueError(f"series argument must be finite and nonnegative, got {z.min()} to {z.max()}")

    out = np.zeros(z.shape)
    rows = np.flatnonzero(z > 0)  # z = 0 leaves the leading term, 1
    lower, gap, log_z = lower[rows], (upper - lower)[rows], np.log(z[rows])

    # per-parameter arrays are (..., rows, p), summed along their contiguous
    # last axis: numpy then sums a row's parameters alike alone or batched
    def log_ratio(i, n):
        # log((a + n) / (b + n)) = log1p((a - b) / (b + n)), exactly 0 for a = b
        steps = np.log1p(gap[i] / (lower[i] + n[..., None])).sum(axis=-1)
        return steps + (log_z[i] - np.log(n + 1.0))

    def log_term(i, n):
        up, low, m = lower[i] + gap[i], lower[i], n[..., None]
        pochhammer = gammaln(up + m) - gammaln(up) - gammaln(low + m) + gammaln(low)
        return pochhammer.sum(axis=-1) + n * log_z[i] - gammaln(n + 1.0)

    # 16 terms cover z up to ~1 with a few unit-sized parameter gaps
    if not score:
        out[rows] = _log_series_sum(0, 16, np.zeros(rows.size), log_ratio, log_term)
        return out if a.ndim == 2 else float(out[0])
    d_log_z, d2_log_z = np.zeros(z.shape), np.zeros(z.shape)
    out[rows], (d_log_z[rows],), cov = _log_series_sum(0, 16, np.zeros(rows.size), log_ratio, log_term, _index)
    d2_log_z[rows] = cov[:, 0, 0]
    derivs = (out, d_log_z, d2_log_z)
    return derivs if a.ndim == 2 else tuple(float(x[0]) for x in derivs)
