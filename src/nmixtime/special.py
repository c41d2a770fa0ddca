"""Log-space special functions used by the likelihood kernels.

The Poisson moments, detection-history expectations and hypergeometric
series overflow double precision long before the model sizes of interest,
so everything works on log scale. All three series are positive and
log-concave; one summer adds them up around their largest term. Each
starts from a 32-term window, but one log ratio per row at its last index,
read first, sends a row still rising there straight to its peak. So a row
whose peak lies far from the series' start sums one window: every k-th exact
term times k, k in (sigma / 4, sigma / 2] for a bell of width sigma. By Poisson
summation the aliasing error is ~exp(-2 pi^2 sigma^2 / k^2) <= exp(-79)
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56 (2014) 385-458), so the window reads 64 exact terms, the first
its anchor, 64 k indices (at least +-8 sigma) around the peak, whatever the
peak. 32 samples would span +-4 sigma, or at twice the stride alias by up to
exp(-2 pi^2) ~ 3e-9, above eps. The bound of 2^32 on the peak index limits the
precision of the terms (~eps n log n), not the cost.

Each function has two modes: the value alone, or with ``score=True`` the
value with its first and second derivatives. A scored call sums the tilted
means and the covariance of the per-term scores in the same pass as the
value: the means are the first derivatives, and the covariance gives the
second ones.

The terms' log-factorials and Pochhammer ratios come from ``log_gamma``,
Stirling's series on numpy arrays, so the kernels import no scipy.

The simulator's inverse CDFs take ``poisson_tail`` and ``binomial_tail``,
P(K <= k) or P(K > k), also numpy alone:
- near the mode, where both incomplete-beta parameters are large, the
  uniform asymptotic expansion BASYM of DiDonato & Morris, "Significant
  digit computation of the incomplete beta function ratios", ACM TOMS 18
  (1992) 360-373 (Alg. 708), Temme's expansion for large parameters. Its
  limit n -> inf is the Poisson tail, the incomplete gamma ratio in the
  form of DiDonato & Morris, ACM TOMS 12 (1986) 377-393;
- elsewhere, the tail summed from its truncation point away from the mode,
  starting at the saddle-point pmf exp(-stirlerr - bd0) of Loader, "Fast
  and accurate computation of binomial probabilities" (2000).
"""
from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import SeriesConvergenceError

__all__ = [
    "binomial_tail",
    "log_gamma",
    "log_sum_exp",
    "safe_exp",
    "log_poisson_raw_moment",
    "log_poisson_detection_moment",
    "log_pfq_equal_order",
    "poisson_tail",
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


# Stirling's series for log Gamma(x) - (x - 1/2)(log x - 1) - log(2 pi) / 2 + 1/2:
# B_2k / (2k (2k - 1) x^(2k - 1)), k = 1, 2, ... From x >= 9.5 on, these eight terms
# leave out less than 5e-18, the ninth, below a tenth of an ulp of log Gamma(x).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_LG_BLOCK = 8192  # elements log_gamma takes at once, in two reused buffers
_LOG_FACTORIAL = np.array([math.log(math.factorial(k)) for k in range(10)])


def log_gamma(x):
    """log Gamma(x) for x > 0, elementwise: an array shaped like ``x``.

    From 10 on, Stirling's series, in blocks of _LG_BLOCK elements. Below 10,
    with k the nearest integer to x (to x + 1 below 1/2, less log x) and e =
    x - k: log (k - 1)! + [log Gamma(10 + e) - log 9!] - sum_{i=k}^9
    log1p(e / i), the bracket taken as Stirling's less its value at 10, so
    an integer gives exactly log (k - 1)! (0 at 1 and 2) and values near 1
    and 2 keep their precision. A block of whole numbers below 4096, the
    kernels' arguments up to abundances of ~4000, reads a table of those
    same values. Each value depends on its x alone and lies within ~5e-16
    max(1, |log Gamma|) of the exact one.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat, res = x.reshape(-1), out.reshape(-1)
    buffers = None
    for s in range(0, flat.size, _LG_BLOCK):
        b, o = flat[s : s + _LG_BLOCK], res[s : s + _LG_BLOCK]
        lo, hi = np.fmin.reduce(b), np.fmax.reduce(b)  # NaN-blind: a NaN gives NaN alone
        if 1.0 <= lo and hi < _LG_WHOLE.size:
            # the table indices go in the block's own output slots: each slot
            # is read before the value looked up with it overwrites it
            whole = o.view(np.intp)
            np.copyto(whole, b, casting="unsafe")
            if (whole == b).all():
                np.take(_LG_WHOLE, whole, out=o, mode="clip")
                continue
        if buffers is None:
            buffers = np.empty((2, min(flat.size, _LG_BLOCK)))
        _log_gamma(b, o, *buffers[:, : b.size])
    return out


def _log_gamma(x, out, series, scratch):
    """log Gamma of a block into ``out``: (x - 1/2)(log x - 1) plus Stirling's
    series from 10 on, _below_10 below."""
    big = np.maximum(x, 10.0)
    _stirling_series(big, np.divide(1.0, big, out=out), series, scratch)
    series += 0.5 * math.log(2.0 * math.pi) - 0.5
    np.log(big, out=out)
    out -= 1.0
    out *= np.subtract(big, 0.5, out=scratch)
    out += series
    small = np.flatnonzero(x < 10.0)
    if small.size:
        out[small] = _below_10(x[small])
    return out


def _stirling_series(x, inv, out, r2):
    """Stirling's series at each x >= 9.5 into ``out``, given ``inv`` = 1/x:
    Horner's rule in 1/x^2 over all eight terms."""
    np.multiply(inv, inv, out=r2)
    out.fill(_STIRLING[-1])
    for c in _STIRLING[-2::-1]:
        out *= r2
        out += c
    out *= inv
    return out


_SERIES_AT_10 = _stirling_series(np.full(1, 10.0), np.full(1, 0.1), np.empty(1), np.empty(1))


def _below_10(x):
    """log Gamma(x) for 0 < x < 10 from log (k - 1)!: see log_gamma."""
    k = np.floor(x + 0.5)
    e = x - k
    tiny = k == 0.0  # x < 1/2 takes log Gamma(x + 1) - log x
    k[tiny], e[tiny] = 1.0, (x[tiny] + 1.0) - 1.0
    t = 10.0 + e
    series = _stirling_series(t, 1.0 / t, np.empty(t.size), np.empty(t.size))
    bracket = 9.5 * np.log1p(e / 10.0) + e * (np.log(t) - 1.0) + (series - _SERIES_AT_10)
    i = np.arange(1.0, 10.0)
    steps = np.where(i >= k[:, None], np.log1p(e[:, None] / i), 0.0).sum(axis=1)
    out = _LOG_FACTORIAL[k.astype(int) - 1] + (bracket - steps)
    out[tiny] -= np.log(x[tiny])
    return out


# log Gamma of the whole numbers below 4096, as _log_gamma gives them (index 0 is unused)
_LG_WHOLE = np.append(np.nan, _log_gamma(np.arange(1.0, 4096.0), *np.empty((3, 4095))))


# A series starts with _START terms: a mean or argument up to ~5 in one pass.
# A window placed around a peak spans 16 sqrt(peak) terms (~8 SD each side);
# one strided at k > 1 (see _strides) is cut to 64 exact terms, 64 k > 16
# sigma indices. At most _BLOCK window terms are evaluated at once.
_START = 32
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
    / 2)) the aliasing of a sum of every k-th term, exp(-2 pi^2 sigma^2 /
    k^2), is at most exp(-8 pi^2) ~ 5e-35; at twice that, up to exp(-2 pi^2)
    ~ 3e-9, above eps. The stride is 1 where sigma < 8 or the slope is not
    finite and positive."""
    d = np.ceil(np.sqrt(peak))
    with np.errstate(divide="ignore", invalid="ignore"):
        before, after = log_ratio(rows, np.stack([peak - d, peak + d]))
        sigma = np.sqrt(2.0 * d / (before - after))
        k = 2.0 ** np.floor(np.log2(sigma / 2.0))
    return np.where((sigma >= 8.0) & (sigma < np.inf), k, 1.0)


def _windows(todo, start, lo, width, stride, log_ratio, log_term, scores, q):
    """Per row: window log-sum relative to its first term, left and right tail
    bounds relative to that sum (NaN or +inf: none yet), last log ratio, the
    exact log of the first term of a strided window (NaN at stride 1), and
    the term-weighted means and covariance of the q scores over the window
    (both None without ``scores``). Rows of equal width and stride go
    together, one column each; no operation mixes columns."""
    out = np.empty((5, todo.size))
    out[1], out[4] = NEG_INF, np.nan
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
                out[4, part] = log_t[0]
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
    return out[0], out[1] - out[0], out[2] - out[0], out[3], out[4], tilted, cov


def _log_series_sum(start, first, log_first, log_ratio, log_term, scores=None):
    """log sum_{n >= start} t_n for rows of positive, log-concave series.

    ``log_first`` holds each row's log t_start; ``log_term(rows, n)`` gives the
    exact log t_n and ``log_ratio(rows, n)`` log t_{n+1}/t_n, non-increasing
    in n, both at (w, k) or (w, 1) indices, one column per row.
    Each row log-sum-exps a window, ``first`` terms from ``start`` at first,
    doubled until the geometric bounds on both tails are below 1e-13 of the
    sum. A row whose log ratio at that window's last index, read once before
    any window, is still positive, and a window rising at its end, move around
    the row's peak, found by galloping and bisecting on the sign of the ratio,
    and span 16 sqrt(peak) indices. Each pass places, sums one window per row,
    checks the tails and grows.
    Clear of ``start``, a window sums every k-th exact term times k, with
    k ~ sigma / 2 for a bell of width sigma (see _strides): the aliasing error
    is at most exp(-79). Cut to 64 k > 16 sigma indices (32 samples would span
    +-4 sigma), it reads 64 exact terms, the first its anchor. A window that
    grows back to ``start`` sums every term again. Raises SeriesConvergenceError,
    with the start window's log-sum, for a row still rising 2^32 terms on; that
    bound limits the precision of the terms (~eps n log n), not the cost.

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
    rising = log_ratio(todo, np.full((1, todo.size), start + first - 1.0))[0] > 0.0
    while todo.size:
        if rising.any():
            rows = todo[rising]
            peak = _peaks(log_ratio, rows, lo[rows] + width[rows] - 1.0)
            k = np.isinf(peak).argmax()
            if np.isinf(peak[k]):
                rel = _windows(rows[k : k + 1], start, lo, width, stride, log_ratio, log_term, None, 0)[0]
                raise SeriesConvergenceError("series peak past 2^32 terms", float(log_first[rows[k]] + rel[0]), first)
            width[rows] = first * 2.0 ** np.ceil(np.log2(np.maximum(1.0, _SPREAD * np.sqrt(peak) / first)))
            lo[rows] = np.maximum(start, peak - width[rows] / 2)
            # a window truncated at start is no smooth bell: it keeps stride 1;
            # a strided one is cut to 64 samples around the peak
            clear = lo[rows] > start
            rows, peak = rows[clear], peak[clear]
            stride[rows] = k = _strides(log_ratio, rows, peak)
            width[rows] = np.where(k > 1.0, np.minimum(width[rows], 64.0 * k), width[rows])
            lo[rows] = peak - width[rows] / 2
        rel, left, right, last, anchor, tilted, cov = _windows(
            todo, start, lo, width, stride, log_ratio, log_term, scores, q
        )
        left_ok, right_ok = left < _LOG_TOL, right < _LOG_TOL
        done = left_ok & right_ok
        rows, moved = todo[done], lo[todo[done]] > start
        # log t_lo: given at start, read with a strided window, else taken here
        base = np.where(moved, anchor[done], log_first[rows])
        exact = moved & (stride[rows] == 1.0)
        if exact.any():
            base[exact] = log_term(rows[exact], lo[rows[exact]][None])[0]
        out[rows] = base + rel[done]
        if scores is not None:
            means[:, rows], covs[rows] = tilted[:, done], cov[done]
        if done.all():
            break
        # double the rest, not those rising: right, left or by half on each side
        rising = last > 0.0
        grow = ~done & ~rising
        rows = todo[grow]
        shift = np.where(left_ok[grow], 0.0, np.where(right_ok[grow], 1.0, 0.5)) * width[rows]
        lo[rows] = np.maximum(start, lo[rows] - shift)
        width[rows] *= 2.0
        stride[rows[lo[rows] == start]] = 1.0  # grown back to start: no smooth bell
        todo, rising = todo[~done], rising[~done]
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
        return order[i] * np.log(n) + n * log_mu[i] - log_gamma(n + 1.0) - safe_exp(log_mu[i])

    # the start window covers mu up to ~5 at the small orders of binary histories
    first = log_mu - safe_exp(log_mu)
    if not score:
        out.flat[rows] = _log_series_sum(1, _START, first, log_ratio, log_term)
        return float(out) if out.ndim == 0 else out
    d_log_mu, d2_log_mu = np.where(m == 0, 0.0, 1.0), np.zeros(out.shape)
    out.flat[rows], (mean,), cov = _log_series_sum(1, _START, first, log_ratio, log_term, _index)
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
        return detect + n * log_mu[i] - log_gamma(n + 1.0) - safe_exp(log_mu[i])

    def scores(i, n):
        # n and d log(1 - e^{-n w}) / dw = n / (e^{n w} - 1), which is 0 at w = +inf
        per_occasion = np.moveaxis(n[..., None] / np.expm1(w[i] * n[..., None]), -1, 0)
        return np.concatenate([np.broadcast_to(n, per_occasion.shape[1:])[None], per_occasion])

    # e^{n w} overflows to +inf for large exposures, where the step is log1p(0)
    with np.errstate(over="ignore"):
        # the start window covers mu up to ~6 at once; larger means move to the peak
        first = log_term(np.arange(rows.size), np.ones((1, rows.size)))[0]
        if not score:
            out[rows] = _log_series_sum(1, _START, first, log_ratio, log_term)
            return float(out[0]) if scalar else out
        out[rows], means, cov = _log_series_sum(1, _START, first, log_ratio, log_term, scores)
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

    @functools.cache
    def log_gamma_parameters():
        # taken once per call, and only by a call whose windows need exact terms
        return log_gamma(lower + gap), log_gamma(lower)

    # per-parameter arrays are (..., rows, p), summed along their contiguous
    # last axis: numpy then sums a row's parameters alike alone or batched
    def log_ratio(i, n):
        # log((a + n) / (b + n)) = log1p((a - b) / (b + n)), exactly 0 for a = b
        steps = np.log1p(gap[i] / (lower[i] + n[..., None])).sum(axis=-1)
        return steps + (log_z[i] - np.log(n + 1.0))

    def log_term(i, n):
        (lg_up, lg_low), up, low, m = log_gamma_parameters(), lower[i] + gap[i], lower[i], n[..., None]
        pochhammer = log_gamma(up + m) - lg_up[i] - log_gamma(low + m) + lg_low[i]
        return pochhammer.sum(axis=-1) + n * log_z[i] - log_gamma(n + 1.0)

    # the start window covers z up to ~5 with a few unit-sized parameter gaps
    if not score:
        out[rows] = _log_series_sum(0, _START, np.zeros(rows.size), log_ratio, log_term)
        return out if a.ndim == 2 else float(out[0])
    d_log_z, d2_log_z = np.zeros(z.shape), np.zeros(z.shape)
    out[rows], (d_log_z[rows],), cov = _log_series_sum(0, _START, np.zeros(rows.size), log_ratio, log_term, _index)
    d2_log_z[rows] = cov[:, 0, 0]
    derivs = (out, d_log_z, d2_log_z)
    return derivs if a.ndim == 2 else tuple(float(x[0]) for x in derivs)


# Poisson and binomial tails (see the module docstring). Each point's smaller
# tail is computed and the larger one is 1 less it. Both methods agree with
# the exact tails to ~1e-14 relative where they meet, far less than a term,
# so either tail is monotone in k across the switch.
_ASYM_FROM = 25.0  # the expansion takes both incomplete-beta parameters at least this
_ASYM_REACH = 0.3  # and a point at most this share of the smaller one from the mean
_ASYM_TERMS = 20  # the expansion's coefficients d_0..d_20
_ULP = 2.0**-54  # a sum stops once its rest is below this share of it
_FEW = 16  # trials, or twice the Poisson mean, up to which a pmf takes plain log-factorials
# stirlerr(x) = log x! - (x + 1/2) log x + x - log(2 pi) / 2 at x = 1..9 (index 0 unused)
_STIRLERR_SMALL = np.array([
    np.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733,
])
# Chebyshev coefficients of erfcx(y) = exp(y^2) erfc(y) in t = (y - 4) / (y + 4)
_ERFCX_CHEBYSHEV = (
    0.2981017936936576, -0.42908644125580536, 0.18027256568771055, -0.06523752449734899,
    0.020367256576744864, -0.005449087066459008, 0.0012278515372606755, -0.0002246979421877305,
    3.068543113098951e-05, -2.3178234999468535e-06, -1.4628356484727578e-07, 6.927830518748949e-08,
    -6.8831107633628464e-09, -6.858489149445451e-10, 2.4593734989496684e-10, -7.814909174028096e-12,
    -5.889394733817263e-12, 6.869230438567993e-13, 1.255049258010826e-13, -2.8232509502798152e-14,
    -2.6031646343175433e-15, 1.0249960195009234e-15, 5.72841468125685e-17, -3.692875129327215e-17,
)


def _erfcx(y):
    """exp(y^2) erfc(y) for y >= 0, within ~4e-15 relative up to y = 30."""
    return np.polynomial.chebyshev.chebval((y - 4.0) / (y + 4.0), _ERFCX_CHEBYSHEV)


def _rlog1(t):
    """t - log(1 + t) for t > -1; below |t| = 1/4 from the series in v = t / (2 + t)."""
    out = t - np.log1p(t)
    near = np.abs(t) < 0.25
    if near.any():
        v = t[near] / (2.0 + t[near])
        w = v * v
        # log(1 + t) = 2 atanh(v) = 2 (v + v^3 / 3 + v^5 / 5 + ...) and t = 2 v / (1 - v)
        series = np.polynomial.polynomial.polyval(w, [1.0 / (2 * j + 3) for j in range(10)])
        out[near] = 2.0 * w / (1.0 - v) - 2.0 * v * w * series
    return out


def _stirlerr(x):
    """log Gamma(x + 1) - (x + 1/2) log x + x - log(2 pi) / 2 at whole x >= 1
    (0 at x = inf): a table below 10, Stirling's series from there."""
    out = np.empty(x.shape)
    small = x < 10.0
    out[small] = _STIRLERR_SMALL[x[small].astype(np.int64)]
    big = x[~small]
    if big.size:
        out[~small] = _stirling_series(big, 1.0 / big, np.empty(big.size), np.empty(big.size))
    return out


def _bd0(x, m, d):
    """x log(x / m) + m - x for x > 0, given d = m - x to full precision (Loader's bd0)."""
    t = d / x
    out = x * _rlog1(np.maximum(t, -0.5))
    far = t < -0.5  # m < x / 2, where log(x / m) loses nothing
    if far.any():
        out[far] = x[far] * np.log(x[far] / m[far]) + d[far]
    return out


def _log_pmf(x, n, p, q):
    """log P(K = x) for K ~ Binomial(n, p), 0 <= x <= n, q = 1 - p; for K ~
    Poisson(p) where n is None.

    Up to _FEW trials or a mean of _FEW / 2, log n! - log x! - log (n - x)! +
    x log p + (n - x) log q (x log mu - mu - log x!), whose rounding, ~eps
    n log n, is no larger than the saddle-point form's there; past that, the
    saddle-point form, which loses nothing to the cancellation of large terms.
    """
    few = (p <= 0.5 * _FEW) if n is None else (n <= _FEW) & (p > 0.0) & (q > 0.0)
    if few.all():
        return _plain_log_pmf(x, n, p, q)
    out = np.empty(x.shape)
    for cells, form in ((np.flatnonzero(few), _plain_log_pmf), (np.flatnonzero(~few), _saddle_log_pmf)):
        if cells.size:
            out[cells] = form(*(None if v is None else v.take(cells) for v in (x, n, p, q)))
    return out


def _plain_log_pmf(x, n, p, q):
    if n is None:
        return x * np.log(p) - p - _LG_WHOLE.take((x + 1.0).astype(np.intp))
    whole = _LG_WHOLE.take((np.stack([n, x, n - x]) + 1.0).astype(np.intp))
    return x * np.log(p) + (n - x) * np.log(q) + (whole[0] - whole[1] - whole[2])


def _saddle_log_pmf(x, n, p, q):
    """-stirlerr(x) - bd0(x, mu) - log(2 pi x) / 2 for Poisson; for the
    binomial stirlerr(n) - stirlerr(x) - stirlerr(n - x) - bd0(x, n p) -
    bd0(n - x, n q) - log(2 pi x (n - x) / n) / 2, which at x = 0 or n keeps
    its bd0s alone."""
    if n is None:
        out = np.where(x > 0.0, -_bd0(np.maximum(x, 1.0), p, p - x), -p)
        some = x > 0.0
        out[some] -= _stirlerr(x[some]) + 0.5 * np.log(2.0 * np.pi * x[some])
        return out
    d = np.where(p <= 0.5, n * p - x, (n - x) - n * q)  # the mean less x, from the smaller of p and q
    y = n - x
    out = np.where(x > 0.0, -_bd0(np.maximum(x, 1.0), n * p, d), -n * p)
    out -= np.where(y > 0.0, _bd0(np.maximum(y, 1.0), n * q, -d), n * q)
    inner = (x > 0.0) & (y > 0.0)
    xi, ni, yi = x[inner], n[inner], y[inner]
    out[inner] += _stirlerr(ni) - _stirlerr(xi) - _stirlerr(yi) - 0.5 * np.log(2.0 * np.pi * xi * (yi / ni))
    return out


def _sum_away(u, du, v, dv, scale):
    """sum_{i >= 0} prod_{l < i} scale (u - l du) / (v + l dv), for ratios that
    fall below 1 and stay there: a tail's terms relative to its first.

    Blocks of 4, 8, 16, ... terms, each only for the sums that the blocks
    before left unfinished; a sum ends with the block after which its rest is
    below an ulp. The blocks are the same whatever other sums come along, so
    each sum is a function of its own arguments alone.
    """
    total, last, cells, first, width = np.ones(u.shape), 1.0, np.arange(u.size), 0, 4
    while True:
        i = np.arange(first, first + width, dtype=float)[:, None]  # (terms, sums): long inner loops
        terms = u - i * du
        terms /= v + i * dv
        terms *= scale
        ratio = terms[-1].copy()
        terms[0] *= last
        sums = terms[0].copy()
        for j in range(1, width):  # in order, however many sums come along
            terms[j] *= terms[j - 1]
            sums += terms[j]
        last = terms[-1]
        total[cells] += sums
        # the rest is below last * ratio / (1 - ratio): stop once that is an ulp or less
        more = np.flatnonzero(last * ratio > _ULP * total.take(cells) * (1.0 - ratio))
        if not more.size:
            return total
        cells = cells.take(more)
        last, u, du, v, dv, scale = (np.take(x, more) if np.ndim(x) else x for x in (last, u, du, v, dv, scale))
        first, width = first + width, 2 * width


@functools.cache
def _basym_polynomials():
    """BASYM's coefficients d_0..d_20 as polynomials in h = min(a, b) /
    max(a, b), lowest power first: row 0 for a >= b, row 1 for a < b. The
    recursion of Alg. 708 on polynomials; computed once, on first use."""
    table = np.zeros((2, _ASYM_TERMS + 1, _ASYM_TERMS + 2))
    for row, sign in enumerate((-1.0, 1.0)):  # r1 = sign (1 - h)
        a0 = [sign * np.array([2.0 / 3.0, -2.0 / 3.0])]
        c, d = [-0.5 * a0[0]], [0.5 * a0[0]]
        for n in range(2, _ASYM_TERMS + 1, 2):
            even = np.zeros(n + 1)
            even[::2] = 1.0
            a0 += [2.0 / (n + 2) * (-1.0) ** np.arange(n + 1), 2.0 * sign / (n + 3) * np.convolve([1.0, -1.0], even)]
            for i in (n, n + 1):
                r = -0.5 * (i + 1)
                b0 = [r * a0[0]]
                for m in range(2, i + 1):
                    bsum = sum((j * r - (m - j)) * np.convolve(a0[j - 1], b0[m - j - 1]) for j in range(1, m))
                    b0.append(r * a0[m - 1] + bsum / m)
                c.append(b0[i - 1] / (i + 1))
                d.append(-(sum(np.convolve(d[i - j - 1], c[j - 1]) for j in range(1, i)) + c[i - 1]))
        for i, poly in enumerate(d):
            table[row, i, : poly.size] = poly
    return table


def _basym(a, b, lam):
    """I_x(a, b) for lam = (a + b)(1 - x) - b >= 0, the smaller tail, with a
    and b large and one of them possibly inf (DiDonato & Morris's BASYM)."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    h = lo / hi
    f = np.zeros(lam.shape)
    for x, y in ((a, -lam), (b, lam)):  # x rlog1(y / x), which is 0 at x = inf
        finite = np.isfinite(x)
        f[finite] += x[finite] * _rlog1(y[finite] / x[finite])
    bcorr = _stirlerr(a) + _stirlerr(b) - _stirlerr(a + b)
    # d_0..d_20 at h by Horner's rule on the polynomials of the row for a < b
    # or a >= b, where d_i, of degree i + 1, joins at its leading power; at
    # h = 0 (Poisson) the last step leaves exactly the constant terms
    table, row, x = _basym_polynomials(), (a < b).astype(np.intp), h[:, None]
    d = table[:, :, _ASYM_TERMS + 1].take(row, axis=0)
    for j in range(_ASYM_TERMS, -1, -1):
        r = max(j - 1, 0)
        d[:, r:] *= x
        d[:, r:] += table[:, r:, j].take(row, axis=0)
    e1 = 2.0**-1.5
    z2 = 2.0 * f
    w0 = 1.0 / np.sqrt(lo * (1.0 + h))
    j0, j1 = 0.25 * math.sqrt(math.pi) * _erfcx(np.sqrt(f)), e1
    total = j0 + d[:, 0] * w0 * j1
    znm1, zn, w = np.sqrt(z2), z2, w0
    for n in range(2, _ASYM_TERMS + 1, 2):
        j0 = e1 * znm1 + (n - 1) * j0
        j1 = e1 * zn + n * j1
        znm1, zn, w = znm1 * z2, zn * z2, w * w0
        total += d[:, n - 1] * w * j0
        w = w * w0
        total += d[:, n] * w * j1
    return 2.0 / math.sqrt(math.pi) * np.exp(-f - bcorr) * total


def _split(a):
    """a as hi + lo, hi with at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """a * b as hi + lo exactly (Dekker)."""
    hi = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _tail(k, upper, n, p, q):
    """P(K > k) where ``upper``, else P(K <= k), for K ~ Binomial(n, p) with q =
    1 - p, or for K ~ Poisson(p) where n is None, at whole k >= 0."""
    poisson = n is None
    k, upper, p, q, n = np.broadcast_arrays(
        np.asarray(k, dtype=float), upper, p, 1.0 if poisson else q, np.inf if poisson else n
    )
    shape = k.shape
    k, upper, p, q, n = (np.ravel(v) for v in (k, upper, p, q, n))
    p, q, n = (v.astype(float, copy=False) for v in (p, q, n))
    beyond = k >= n  # where P(K <= k) = 1
    if beyond.any():
        out = np.where(upper, 0.0, 1.0)
        inside = np.flatnonzero(~beyond)
        k, upper, n, p, q = (v.take(inside) for v in (k, upper, n, p, q))
        out[inside] = _tail(k, upper, None if poisson else n, p, q)
        return out.reshape(shape)
    # lam = (n + 1) p - (k + 1), mu - (k + 1) for Poisson: P(K <= k) is the smaller tail where lam >= 0
    if poisson:
        lam, m = p - (k + 1.0), k + 1.0
    else:
        # lam to the last bit: (n + 1) p is the one product that rounds; q holds
        # the precision where p > 1/2, with lam = (n - k) - (n + 1) q
        by_q = p > 0.5
        hi, lo = _two_product(n + 1.0, np.where(by_q, q, p))
        lam = np.where(by_q, ((n - k) - hi) - lo, (hi - (k + 1.0)) + lo)
        m = np.minimum(k + 1.0, n - k)
    low = lam >= 0.0
    expand = (m >= _ASYM_FROM) & (np.abs(lam) <= _ASYM_REACH * m)
    if not expand.any():
        small = _summed_tail(k, n, p, q, low, poisson)
    else:
        near, rest = np.flatnonzero(expand), np.flatnonzero(~expand)
        kn, nn, below = k.take(near), n.take(near), low.take(near)
        # (a, b) = (n - k, k + 1) for the lower tail, (k + 1, n - k) for the upper
        a, b = np.where(below, nn - kn, kn + 1.0), np.where(below, kn + 1.0, nn - kn)
        small = np.empty(k.shape)
        small[near] = _basym(a, b, np.abs(lam.take(near)))
        small[rest] = _summed_tail(*(v.take(rest) for v in (k, n, p, q, low)), poisson)
    # the asked-for tail is the smaller one or 1 less it: |flip - small| is either exactly
    return np.abs((low == upper) - small).reshape(shape)


def _summed_tail(k, n, p, q, below, poisson):
    """The smaller tail, P(K <= k) where ``below`` and P(K > k) elsewhere,
    summed from its first term away from the mode."""
    x = k + 1.0 - below  # the first term
    above = ~below
    # term ratios (x - i) / mu below the mode and mu / (x + 1 + i) above for
    # Poisson; (x - i) q / ((n - x + 1 + i) p) and (n - x - i) p / ((x + 1 + i) q).
    # Each pick of two but the odds, which may be inf, is a sum of products by 1
    # and 0, exact for finite values
    if poisson:
        down = below.astype(float)
        steps = x * below + p * above, down, p * below + (x + 1.0) * above, 1.0 - down, 1.0
        return np.exp(_log_pmf(x, None, p, None)) * _sum_away(*steps)
    odds = np.where(below, q / p, p / q)
    steps = n - x + (x + x - n) * below, 1.0, x + 1.0 + (n - x - x) * below, 1.0, odds
    return np.exp(_log_pmf(x, n, p, q)) * _sum_away(*steps)


def poisson_tail(k, mu, upper=False):
    """P(K > k) where ``upper``, else P(K <= k), for K ~ Poisson(mu), at whole
    k >= 0; ``upper`` is a bool or a bool array, broadcast with k and mu."""
    with np.errstate(divide="ignore"):
        return _tail(k, upper, None, mu, None)


def binomial_tail(k, n, p, q, upper=False):
    """P(K > k) where ``upper``, else P(K <= k), for K ~ Binomial(n, p), at
    whole k >= 0. q = 1 - p comes separately, so that neither loses precision
    near 0 or 1; ``upper`` is a bool or a bool array, broadcast with the rest."""
    with np.errstate(divide="ignore"):
        return _tail(k, upper, n, p, q)
