"""Reference log-likelihoods by direct truncated summation over abundance.

The closed-form kernels in :mod:`nmixtime.likelihood` are fast but easy to
get subtly wrong. This module computes the same site log-likelihoods the
slow, obviously-correct way: mix the conditional density of the data given
n animals over the Poisson abundance prior, summing n from the smallest
feasible value up to a truncation point with a tail-tolerance stopping
rule. It deliberately shares no formula manipulation with the kernels;
each conditional density is assembled from first principles, and its
log-factorials come from the standard library's ``math.lgamma``, not from
the kernels' ``special.log_gamma``.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import OracleConvergenceError
from .model import Dataset, Family, ObservationProcess, Parameterization
from .special import log_sum_exp, safe_exp

__all__ = [
    "OracleConfig",
    "oracle_site_loglik",
    "oracle_site_logliks",
    "oracle_total_loglik",
    "site_loglik_by_summation",
]

_BLOCK = 64
_PER_SITE_CAP = 100_000  # terms evaluated for one site before giving up


@dataclass(frozen=True)
class OracleConfig:
    """Truncation controls for the mixture sum.

    ``n_max``: highest abundance included; ``None`` picks a default wide
    enough for the dataset (largest observed count plus a generous Poisson
    upper tail). ``tail_tol``, in (0, 1), is the relative size at which
    remaining terms are declared negligible.
    """

    n_max: int | None = None
    tail_tol: float = 1e-14

    def __post_init__(self):
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! of each whole number in ``n``, by the standard library's lgamma:
    the kernels' log_gamma is one of the things the oracle checks."""
    return np.fromiter(map(math.lgamma, (n + 1.0).tolist()), float, n.size)


def _n_max_for(kappa: int, lam: float) -> int:
    """Truncation point: the largest count plus a generous Poisson upper tail."""
    return kappa + math.ceil(lam + 12.0 * math.sqrt(lam) + 50.0)


def _default_n_max(dataset: Dataset, params: Parameterization) -> int:
    log_lam, _ = params.resolve(dataset.design)
    return _n_max_for(int(dataset.counts.max()), safe_exp(float(log_lam.max())))


def _conditional_log_density(
    family: Family,
    process: ObservationProcess,
    counts: np.ndarray,
    times: tuple[np.ndarray, ...],
    exposure: np.ndarray,
    rate: np.ndarray,
    n: np.ndarray,
) -> np.ndarray:
    """log density of one site's data given n animals, for a vector of n.

    Covers the n-dependent part only: conditional densities of the
    recorded times that do not depend on n (all count-family time records)
    are handled separately by :func:`_time_log_density`.
    """
    out = np.zeros_like(n, dtype=float)
    with np.errstate(divide="ignore"):
        log_n = np.log(n.astype(float))
        for j, yj in enumerate(counts):
            yj = int(yj)
            e = float(exposure[j])
            if family.is_binary:
                if yj == 1 and family.records_first_time:
                    # first arrival among n at t: n * rate * exp(-n * rate * t)
                    t1 = float(times[j][0])
                    log_rate_j = math.log(rate[j]) if rate[j] > 0 else -math.inf
                    out += log_n + log_rate_j - n * (rate[j] * t1)
                elif yj == 1:
                    out += np.log(-np.expm1(-n * e))
                else:
                    out += -n * e
            elif process is ObservationProcess.BINOMIAL_COUNT:
                # Binomial(n, p) with p = 1 - exp(-exposure)
                p = -math.expm1(-e)
                log_p = math.log(p) if p > 0 else -math.inf
                out += (
                    _log_factorial(n)
                    - _log_factorial(n - yj)
                    - math.lgamma(yj + 1)
                    + (yj * log_p if yj else 0.0)
                    + (n - yj) * (-e)
                )
            else:
                # Poisson(n * exposure) events in the window
                if yj:
                    log_e = math.log(e) if e > 0 else -math.inf
                    out += yj * (log_n + log_e) - n * e - math.lgamma(yj + 1)
                else:
                    out += -n * e
    return out


def _time_log_density(
    family: Family,
    process: ObservationProcess,
    counts: np.ndarray,
    times: tuple[np.ndarray, ...],
    search_time: np.ndarray,
    rate: np.ndarray,
    include_constants: bool,
) -> float:
    """log density of count-family time records given the counts (n-free).

    Binomial thinning makes each detection time an independent truncated
    exponential; the Poisson process makes times uniform over the window,
    a parameter-free factor reported only when constants are requested.
    """
    if not family.records_times or family.is_binary:
        return 0.0
    out = 0.0
    for j, yj in enumerate(counts):
        yj = int(yj)
        if yj == 0:
            continue
        t_max = float(search_time[j])
        if process is ObservationProcess.BINOMIAL_COUNT:
            h = float(rate[j])
            if h <= 0:
                return -math.inf  # recorded detections are impossible at zero rate
            e = h * t_max
            log_p = math.log(-math.expm1(-e))
            if family is Family.COUNT_T:
                tj = times[j]
                out += yj * math.log(h) - h * float(tj.sum()) - yj * log_p
            else:  # first detection time: minimum of yj truncated exponentials
                t1 = float(times[j][0])
                out += math.log(h) - h * t1 - yj * log_p
                if yj > 1:
                    if t1 >= t_max:
                        return -math.inf  # later detections would have nowhere to land
                    out += (yj - 1) * (-h * t1 + math.log(-math.expm1(-h * (t_max - t1))))
                if include_constants:
                    out += math.log(yj)
        else:
            if not include_constants:
                continue
            if family is Family.COUNT_T:
                out += math.lgamma(yj + 1) - yj * math.log(t_max)
            else:  # minimum of yj uniforms on (0, t_max)
                t1 = float(times[j][0])
                out += math.log(yj) - math.log(t_max)
                if yj > 1:
                    if t1 >= t_max:
                        return -math.inf
                    out += (yj - 1) * math.log1p(-t1 / t_max)
    return out


def site_loglik_by_summation(
    family: Family,
    process: ObservationProcess,
    counts: np.ndarray,
    times: tuple[np.ndarray, ...],
    search_time: np.ndarray,
    rate: np.ndarray,
    log_lambda: float,
    cfg: OracleConfig | None = None,
    *,
    include_constants: bool = False,
    site: int = 0,
) -> float:
    """Core truncated-sum evaluation from raw per-site pieces.

    Raises OracleConvergenceError when the tail bound is not met before
    the truncation point (or the per-site term cap) is reached. ``site``
    only labels error messages.
    """
    cfg = cfg or OracleConfig()
    counts = np.asarray(counts, dtype=np.int64)
    rate = np.asarray(rate, dtype=float)
    search_time = np.asarray(search_time, dtype=float)
    kappa = int(counts.max())
    exposure = rate * search_time

    lam = safe_exp(log_lambda)
    n_max = cfg.n_max if cfg.n_max is not None else _n_max_for(kappa, lam)
    if n_max < kappa:
        raise ValueError(
            f"n_max={n_max} is below the minimum feasible abundance {kappa} at site {site}"
        )

    time_part = _time_log_density(
        family, process, counts, times, search_time, rate, include_constants
    )

    if log_lambda == -math.inf:
        return time_part if kappa == 0 else -math.inf

    if process is ObservationProcess.BINOMIAL_COUNT:
        n_start = kappa
    else:
        n_start = 0 if counts.sum() == 0 else 1

    n_hi = min(n_max, n_start + _PER_SITE_CAP - 1)
    log_sum = -math.inf
    log_tol = math.log(cfg.tail_tol)
    n_terms = 0
    lo = n_start
    while lo <= n_hi:
        hi = min(lo + _BLOCK - 1, n_hi)
        n = np.arange(lo, hi + 1)
        log_prior = n * log_lambda - lam - _log_factorial(n)
        block = log_prior + _conditional_log_density(
            family, process, counts, times, exposure, rate, n
        )
        n_terms += n.size
        log_sum = log_sum_exp(np.append(block, log_sum))
        # Every factor of the per-n term is log-concave in n, so the term
        # sequence is unimodal with nonincreasing successive ratios. Once a
        # block ends on the downslope, the remaining tail is geometrically
        # bounded by the last observed ratio.
        if log_sum > -math.inf and n.size >= 2:
            last, prev = float(block[-1]), float(block[-2])
            if last == -math.inf:
                if float(np.max(block)) - log_sum < log_tol:
                    return log_sum + time_part
            elif math.isfinite(prev) and last < prev:
                log_r = last - prev
                log_tail = last + log_r - math.log1p(-math.exp(log_r))
                if log_tail - log_sum < log_tol:
                    return log_sum + time_part
        lo = hi + 1

    if log_sum == -math.inf:
        return -math.inf  # every feasible abundance gives this record zero density
    raise OracleConvergenceError(
        f"abundance sum for site {site} did not meet tail tolerance {cfg.tail_tol} "
        f"by n={n_hi}",
        log_sum + time_part,
        n_terms,
    )


def oracle_site_logliks(
    dataset: Dataset,
    params: Parameterization,
    cfg: OracleConfig | None = None,
    *,
    include_constants: bool = False,
    sites=None,
) -> Iterator[float]:
    """Site log-likelihoods by truncated summation, yielded in site order.

    The parameters are resolved and the default truncation point is found
    once per call, so a whole dataset costs one pass. ``sites`` restricts
    the output to those site indices.
    """
    cfg = cfg or OracleConfig()
    if cfg.n_max is None:
        cfg = replace(cfg, n_max=_default_n_max(dataset, params))
    log_lam_vec, log_rate_mat = params.resolve(dataset.design)
    for site in range(dataset.n_sites) if sites is None else sites:
        rec = dataset.records[site]
        yield site_loglik_by_summation(
            dataset.protocol.family,
            dataset.protocol.process,
            rec.counts,
            rec.times,
            dataset.design.search_time[site],
            np.exp(log_rate_mat[site]),
            float(log_lam_vec[site]),
            cfg,
            include_constants=include_constants,
            site=site,
        )


def oracle_site_loglik(
    dataset: Dataset,
    params: Parameterization,
    site: int,
    cfg: OracleConfig | None = None,
    *,
    include_constants: bool = False,
) -> float:
    """Site log-likelihood by truncated summation over latent abundance."""
    return next(oracle_site_logliks(dataset, params, cfg, include_constants=include_constants, sites=[site]))


def oracle_total_loglik(
    dataset: Dataset,
    params: Parameterization,
    cfg: OracleConfig | None = None,
    *,
    include_constants: bool = False,
) -> float:
    return float(sum(oracle_site_logliks(dataset, params, cfg, include_constants=include_constants)))
