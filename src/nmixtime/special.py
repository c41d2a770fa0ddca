"""Log-space special functions used by the likelihood kernels.

Everything here works on log scale because the quantities involved
(Stirling numbers, Poisson moments, hypergeometric partial sums) overflow
double precision long before the model sizes of interest are reached.
"""
from __future__ import annotations

import math
import sys
import threading

import numpy as np

from .errors import SeriesConvergenceError

__all__ = [
    "log_sum_exp",
    "safe_exp",
    "Stirling2Table",
    "log_stirling2",
    "log_poisson_raw_moment",
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


class Stirling2Table:
    """Triangular table of log Stirling numbers of the second kind.

    Row n holds log S(n, k) for k = 0..n, built by the two-term recurrence
    S(n, k) = k S(n-1, k) + S(n-1, k-1) evaluated with logaddexp so the
    table stays exact in log space well past the overflow point of the
    integer values (S(220, k) already exceeds 1e400).

    Rows are appended under a lock and never mutated afterwards, so reads
    of already-built rows are safe from multiple threads.
    """

    def __init__(self):
        self._rows: list[np.ndarray] = [np.array([0.0])]
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1

    def ensure(self, n: int) -> None:
        """Extend the table so row ``n`` exists."""
        if n <= self.max_n:
            return
        with self._lock:
            while self.max_n < n:
                prev = self._rows[-1]
                m = len(prev)  # building row index m
                row = np.empty(m + 1)
                row[0] = NEG_INF
                if m > 1:
                    ks = np.arange(1, m)
                    row[1:m] = np.logaddexp(np.log(ks) + prev[1:m], prev[0 : m - 1])
                row[m] = prev[m - 1]  # S(n, n) = S(n-1, n-1) = 1
                self._rows.append(row)

    def log_value(self, n: int, k: int) -> float:
        if n < 0 or k < 0:
            raise ValueError(f"Stirling arguments must be nonnegative, got n={n}, k={k}")
        if k > n:
            return NEG_INF
        self.ensure(n)
        return float(self._rows[n][k])

    def log_row(self, n: int) -> np.ndarray:
        """Read-only view of row n: log S(n, k) for k = 0..n."""
        if n < 0:
            raise ValueError(f"Stirling row index must be nonnegative, got {n}")
        self.ensure(n)
        return self._rows[n]


_TABLE = Stirling2Table()


def log_stirling2(n: int, k: int) -> float:
    """log S(n, k), the log count of partitions of n items into k nonempty blocks.

    Returns -inf where S(n, k) = 0 (k > n, or k = 0 with n > 0).
    """
    return _TABLE.log_value(n, k)


def log_poisson_raw_moment(m: int, log_mu):
    """log E[N^m] for N ~ Poisson(mu), passed as log mu.

    Uses the moment expansion E[N^m] = sum_k S(m, k) mu^k, which turns the
    infinite Poisson series into a finite sum of m log-space terms. m = 0
    gives 0 (the zeroth moment is 1) for any mu >= 0, including mu = 0.
    The order is one integer; ``log_mu`` may be a float or an array, and
    the result has its shape.
    """
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    log_mu = np.asarray(log_mu, dtype=float)
    if m == 0:
        return 0.0 if log_mu.ndim == 0 else np.zeros(log_mu.shape)
    if np.any(np.isnan(log_mu)):
        raise ValueError("log_mu must not be NaN")
    # a zero rate (log_mu = -inf) makes every k >= 1 term -inf: E[N^m] = 0
    row = _TABLE.log_row(m)[1:]
    ks = np.arange(1, m + 1)
    out = log_sum_exp(row + ks * log_mu[..., None], axis=-1)
    return float(out) if log_mu.ndim == 0 else out


# Terms summed in the first pass of the hypergeometric series; each later
# pass doubles the chunk, so a row needing n terms costs at most ~2n.
_FIRST_CHUNK = 16


def log_pfq_equal_order(a, b, z, *, tol: float = 1e-13, max_terms: int = 10_000):
    """log pFq(a; b; z) for equal-length positive parameter vectors and z >= 0.

    Every series term is positive, so the partial sums are accumulated in
    log space with logaddexp and no cancellation occurs. Terms follow the
    ratio recurrence t_{n+1}/t_n = prod(a+n)/prod(b+n) * z/(n+1); once that
    ratio drops below 1 the remaining tail is bounded geometrically and the
    sum stops when the bound falls below ``tol`` relative to the running
    sum.

    ``a`` and ``b`` may also be (R, p) arrays with ``z`` of shape (R,):
    each row is an independent series and the result is an (R,) array.
    Rows are summed together in chunks of terms that double in length,
    and each row stops at its own first term that meets the bound.

    Raises SeriesConvergenceError (carrying the partial sum of the first
    row that failed) if any row does not meet the bound within
    ``max_terms`` terms.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"parameter vectors must have equal length, got {a.size} and {b.size}")
    rowwise = a.ndim == 2
    upper = np.sort(np.atleast_2d(a), axis=1)
    lower = np.sort(np.atleast_2d(b), axis=1)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (upper.shape[0],):
        raise ValueError(f"need one series argument per parameter row, got shape {z.shape}")
    if np.any(upper <= 0) or np.any(lower <= 0):
        raise ValueError("hypergeometric parameters must be positive")
    if np.any(z < 0):
        raise ValueError(f"series argument must be nonnegative, got {z.min()}")

    out = np.zeros(z.shape)
    same = np.all(upper == lower, axis=1)
    out[same] = z[same]  # pFq(a; a; z) = exp(z)
    rows = np.flatnonzero(~same & (z > 0))  # z = 0 leaves the leading term, 1
    upper, lower, log_z = upper[rows, :, None], lower[rows, :, None], np.log(z[rows])
    log_tol = math.log(tol)
    log_term = np.zeros(rows.size)
    log_sum = np.zeros(rows.size)
    start, length = 0, _FIRST_CHUNK
    while rows.size and start < max_terms:
        n = np.arange(start, min(start + length, max_terms), dtype=float)
        log_ratio = (
            np.log(upper + n).sum(axis=1) - np.log(lower + n).sum(axis=1)
            + log_z[:, None] - np.log(n + 1.0)
        )
        # prepend the carried values so each row adds its terms in order
        terms = np.cumsum(np.column_stack([log_term, log_ratio]), axis=1)[:, 1:]
        sums = np.logaddexp.accumulate(np.column_stack([log_sum, terms]), axis=1)[:, 1:]
        # ratios decrease, so once one is below 1 it bounds all later ones
        falling = log_ratio < 0.0
        log_r = np.where(falling, log_ratio, -1.0)
        log_tail = terms + log_r - np.log(-np.expm1(log_r))
        done = falling & (log_tail - sums < log_tol)
        first = np.argmax(done, axis=1)
        hit = done[np.arange(rows.size), first]
        out[rows[hit]] = sums[hit, first[hit]]
        keep = ~hit
        rows, upper, lower, log_z = rows[keep], upper[keep], lower[keep], log_z[keep]
        log_term, log_sum = terms[keep, -1], sums[keep, -1]
        start += n.size
        length *= 2
    if rows.size:
        raise SeriesConvergenceError(
            f"hypergeometric series did not meet tolerance {tol} within {max_terms} terms",
            float(log_sum[0]),
            max_terms,
        )
    return out if rowwise else float(out[0])
