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


def safe_exp(x: float) -> float:
    """exp(x) clamped to the largest finite double instead of overflowing.

    Optimizers probing extreme log-scale values need a finite, monotone
    objective out there, not an OverflowError or a NaN from inf arithmetic.
    """
    if x > 709.0:
        return sys.float_info.max
    return math.exp(x)


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) with the usual max shift.

    Empty input and all three of ``[]``, ``[-inf]``, ``[-inf, -inf]`` give
    -inf (a sum of zero terms is zero). A +inf entry propagates to +inf.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = float(np.max(arr))
    if not np.isfinite(m):
        # all -inf, or a +inf/nan entry which should dominate the result
        return m
    return m + math.log(float(np.sum(np.exp(arr - m))))


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


def log_poisson_raw_moment(m: int, log_mu: float) -> float:
    """log E[N^m] for N ~ Poisson(mu), passed as log mu.

    Uses the moment expansion E[N^m] = sum_k S(m, k) mu^k, which turns the
    infinite Poisson series into a finite sum of m log-space terms. m = 0
    gives 0 (the zeroth moment is 1) for any mu >= 0, including mu = 0.
    """
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    if m == 0:
        return 0.0
    if math.isnan(log_mu):
        raise ValueError("log_mu must not be NaN")
    if log_mu == NEG_INF:
        return NEG_INF  # E[N^m] = 0 when the rate is zero and m >= 1
    row = _TABLE.log_row(m)
    ks = np.arange(1, m + 1)
    return log_sum_exp(row[1:] + ks * log_mu)


def log_pfq_equal_order(a, b, z: float, *, tol: float = 1e-13, max_terms: int = 10_000) -> float:
    """log pFq(a; b; z) for equal-length positive parameter vectors and z >= 0.

    Every series term is positive, so the partial sums are accumulated in
    log space with logaddexp and no cancellation occurs. Terms follow the
    ratio recurrence t_{n+1}/t_n = prod(a+n)/prod(b+n) * z/(n+1); once that
    ratio drops below 1 the remaining tail is bounded geometrically and the
    loop stops when the bound falls below ``tol`` relative to the running
    sum.

    Raises SeriesConvergenceError (carrying the partial sum) if the bound
    is not met within ``max_terms`` terms.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"parameter vectors must have equal length, got {a.size} and {b.size}")
    upper, lower = sorted(a.tolist()), sorted(b.tolist())
    if any(x <= 0 for x in upper + lower):
        raise ValueError("hypergeometric parameters must be positive")
    if z < 0:
        raise ValueError(f"series argument must be nonnegative, got {z}")
    if z == 0.0:
        return 0.0
    if upper == lower:
        return float(z)  # pFq(a; a; z) = exp(z)

    # scalar math: the vectors are short and numpy's per-call overhead
    # would dominate every term
    log = math.log
    log_z = log(z)
    log_tol = log(tol)
    log_term = 0.0
    log_sum = 0.0
    for n in range(max_terms):
        log_ratio = (
            sum([log(x + n) for x in upper]) - sum([log(x + n) for x in lower])
            + log_z - log(n + 1)
        )
        log_term += log_ratio
        # log(e^log_sum + e^log_term), with the larger one factored out
        if log_sum >= log_term:
            log_sum += math.log1p(math.exp(log_term - log_sum))
        else:
            log_sum = log_term + math.log1p(math.exp(log_sum - log_term))
        if log_ratio < 0.0:
            r = math.exp(log_ratio)  # ratios decrease, so r bounds all later ones
            log_tail = log_term + log_ratio - math.log1p(-r)
            if log_tail - log_sum < log_tol:
                return log_sum
    raise SeriesConvergenceError(
        f"hypergeometric series did not meet tolerance {tol} within {max_terms} terms",
        log_sum,
        max_terms,
    )
