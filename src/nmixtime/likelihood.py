"""Closed-form site log-likelihood kernels and dataset-level dispatch.

Each kernel integrates the latent site abundance out of the data density
analytically, so no truncated summation is involved. The binary kernel
with repeat visits is the one place where the exact expression alternates
in sign; it monitors its own cancellation and falls back to the summation
oracle when double precision cannot support the expansion.

Kernels return the log joint density of everything the protocol records,
except that for three protocols a data-only factor is conventionally
dropped (it shifts the log-likelihood without moving the maximum). Those
factors live only in ``irrelevant_constants``; ``total_loglik(...,
include_constants=True)`` adds them back, which is what any AIC
computation uses.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExpansionCapError, LikelihoodDomainError, NumericalFallbackWarning
from .model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteWorkspace,
    _workspace_from_rows,
)
from .oracle import site_loglik_by_summation
from .special import log_pfq_equal_order, log_poisson_raw_moment, log_sum_exp, safe_exp

__all__ = [
    "SUBSET_EXPANSION_CAP",
    "LogLik",
    "site_loglik_binary",
    "site_loglik_binary_t1",
    "site_loglik_count_single",
    "site_loglik_count_multi",
    "time_factor_count_t",
    "time_factor_count_t1",
    "site_loglik_poisson_count",
    "site_loglik",
    "total_loglik",
    "irrelevant_constants",
]

# 2^cap signed terms is the practical limit of the exact detection-history
# expansion; beyond it memory and cancellation both become unreasonable.
SUBSET_EXPANSION_CAP = 20

# The signed subset expansion computes g = pos - neg with pos, neg each
# accurate to a few ulps, so the result's relative error is about
# eps / (1 - exp(log_neg - log_pos)). Falling back once that gap drops
# below ~4e-7 keeps the expansion good to ~1e-9 before the slower
# summation takes over.
_CANCELLATION_GUARD = 4e-7


@dataclass(frozen=True)
class LogLik:
    """Total and per-site log-likelihood for one dataset and parameter set."""

    total: float
    per_site: np.ndarray
    irrelevant_constants_included: bool

    def __post_init__(self):
        arr = np.asarray(self.per_site, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "per_site", arr)


def site_loglik_binary(ws: SiteWorkspace) -> float:
    """Detection/non-detection history over one or more occasions.

    Marginalizing abundance turns the history probability into a signed
    sum of exp(lambda * exp(-exposure)) terms over subsets of the detected
    occasions. Positive and negative parts are each accumulated with
    log-sum-exp; if their difference loses nearly all mass to rounding,
    the summation oracle supplies the value instead.
    """
    lam = safe_exp(ws.log_lambda)
    w = ws.detected_exposures
    n_det = int(w.size)
    if n_det > SUBSET_EXPANSION_CAP:
        raise ExpansionCapError(n_det, SUBSET_EXPANSION_CAP)
    if n_det == 0:
        return -lam * -math.expm1(-ws.undetected_exposure)
    if lam == 0.0:
        return -math.inf  # detections recorded but nothing is there to detect
    if np.any(w <= 0):
        return -math.inf  # a detection on an occasion with zero detection pressure

    sums = np.zeros(1)
    odd = np.zeros(1, dtype=bool)
    for wj in w:
        sums = np.concatenate([sums, sums + wj])
        odd = np.concatenate([odd, ~odd])
    v = lam * np.exp(-(ws.undetected_exposure + sums))
    log_pos = log_sum_exp(v[~odd])
    log_neg = log_sum_exp(v[odd])

    diff = log_neg - log_pos
    if diff >= 0.0 or -math.expm1(diff) < _CANCELLATION_GUARD:
        warnings.warn(
            f"binary detection-history expansion lost precision at site {ws.site}; "
            "substituting the summation oracle",
            NumericalFallbackWarning,
            stacklevel=2,
        )
        return site_loglik_by_summation(
            Family.BINARY,
            ObservationProcess.BINOMIAL_COUNT,
            ws.counts,
            ws.times,
            ws.search_time,
            ws.rate,
            ws.log_lambda,
            site=ws.site,
        )
    return -lam + log_pos + math.log1p(-math.exp(diff))


def site_loglik_binary_t1(ws: SiteWorkspace) -> float:
    """Detection histories augmented with each occasion's first detection time.

    The mixture over abundance reduces to a Poisson raw moment of order
    equal to the number of detecting occasions, evaluated at the
    time-weighted exposure.
    """
    if ws.time_exposure is None:
        raise LikelihoodDomainError(
            f"site {ws.site} has a detection without a recorded first time"
        )
    lam = safe_exp(ws.log_lambda)
    detected = ws.counts > 0
    n_det = int(np.count_nonzero(detected))
    if n_det == 0:
        return -lam * -math.expm1(-ws.undetected_exposure)
    log_rate_sum = float(ws.log_rate[detected].sum())
    if log_rate_sum == -math.inf:
        return -math.inf
    wt = ws.time_exposure
    return (
        log_rate_sum
        - lam * -math.expm1(-wt)
        + log_poisson_raw_moment(n_det, ws.log_lambda - wt)
    )


def site_loglik_count_single(y: int, log_lambda: float, log_rate: float, search_time: float) -> float:
    """Single-visit count: a Poisson thinned by the per-occasion detection probability."""
    if y < 0:
        raise LikelihoodDomainError(f"count must be nonnegative, got {y}")
    if search_time <= 0:
        raise LikelihoodDomainError(f"search time must be positive, got {search_time}")
    exposure = safe_exp(log_rate) * search_time
    mean = safe_exp(log_lambda) * -math.expm1(-exposure)
    if mean == 0.0:
        return 0.0 if y == 0 else -math.inf
    return y * math.log(mean) - mean - math.lgamma(y + 1)


def site_loglik_count_multi(ws: SiteWorkspace) -> float:
    """Repeat-visit counts under binomial thinning of a shared abundance.

    The abundance sum collapses to a generalized hypergeometric factor
    anchored at an occasion attaining the site maximum count (any occasion
    tied at the maximum gives the same value).
    """
    y = ws.counts
    n_occ = int(y.size)
    if n_occ < 2:
        raise LikelihoodDomainError("repeat-visit count kernel needs at least two occasions")
    lam = safe_exp(ws.log_lambda)
    exposure = ws.rate * ws.search_time
    total_exposure = float(exposure.sum())
    y_max = ws.max_count
    if y_max == 0:
        return -lam * -math.expm1(-total_exposure)

    log_z = ws.log_lambda - total_exposure
    # odds part: sum_j y_j * log(p_j / (1 - p_j)); log(1 - p_j) is exactly -exposure
    odds = 0.0
    for j in range(n_occ):
        yj = int(y[j])
        if yj == 0:
            continue
        pj = float(ws.detect_prob[j])
        if pj == 0.0:
            return -math.inf
        odds += yj * (math.log(pj) + float(exposure[j]))

    anchor = int(np.flatnonzero(y == y_max)[-1])
    choose = 0.0
    lower = np.empty(n_occ - 1)
    k = 0
    for j in range(n_occ):
        if j == anchor:
            continue
        yj = int(y[j])
        choose += (
            math.lgamma(y_max + 1) - math.lgamma(yj + 1) - math.lgamma(y_max - yj + 1)
        )
        lower[k] = y_max - yj + 1
        k += 1
    upper = np.full(n_occ - 1, y_max + 1.0)

    return (
        -lam
        + odds
        + y_max * log_z
        - math.lgamma(y_max + 1)
        + choose
        + log_pfq_equal_order(upper, lower, safe_exp(log_z))
    )


def time_factor_count_t(ws: SiteWorkspace) -> float:
    """Log density of all recorded detection times given the counts.

    Binomial thinning makes each detection time an independent exponential
    truncated to the search window, so this factor carries the rate
    information that makes single-visit counts identifiable.
    """
    out = 0.0
    for j in np.flatnonzero(ws.counts > 0):
        yj = int(ws.counts[j])
        tj = ws.times[j]
        if tj.size != yj:
            raise LikelihoodDomainError(
                f"occasion {j} at site {ws.site} needs {yj} recorded times, has {tj.size}"
            )
        h = float(ws.rate[j])
        if h <= 0.0:
            return -math.inf
        pj = float(ws.detect_prob[j])
        out += yj * math.log(h) - h * float(tj.sum()) - yj * math.log(pj)
    return out


def time_factor_count_t1(ws: SiteWorkspace) -> float:
    """Log density of each occasion's first detection time given the counts.

    The first time is the minimum of y independent truncated exponentials.
    The count multiplier log(y_j) is a data-only constant, left to
    ``irrelevant_constants``.
    """
    out = 0.0
    for j in np.flatnonzero(ws.counts > 0):
        yj = int(ws.counts[j])
        tj = ws.times[j]
        if tj.size == 0:
            raise LikelihoodDomainError(
                f"occasion {j} at site {ws.site} has detections but no first time"
            )
        t1 = float(tj[0])
        t_max = float(ws.search_time[j])
        if yj > 1 and t1 >= t_max:
            raise LikelihoodDomainError(
                f"first detection at the end of the window at site {ws.site} occasion {j} "
                f"leaves no room for the remaining {yj - 1} detections"
            )
        h = float(ws.rate[j])
        if h <= 0.0:
            return -math.inf
        pj = float(ws.detect_prob[j])
        out += math.log(h) - h * t1 - yj * math.log(pj)
        if yj > 1:
            out += (yj - 1) * (-h * t1 + math.log(-math.expm1(-h * (t_max - t1))))
    return out


def site_loglik_poisson_count(ws: SiteWorkspace) -> float:
    """Counts when each individual produces a Poisson stream of detections.

    One expression covers single and repeat visits: a Poisson raw moment
    of order equal to the site's summed count. Counts here can exceed the
    latent abundance, so the usual max-count support bound does not apply.
    """
    lam = safe_exp(ws.log_lambda)
    exposure = ws.rate * ws.search_time
    total_exposure = float(exposure.sum())
    out = -lam * -math.expm1(-total_exposure)
    for j in np.flatnonzero(ws.counts > 0):
        yj = int(ws.counts[j])
        ej = float(exposure[j])
        if ej == 0.0:
            return -math.inf
        out += yj * math.log(ej) - math.lgamma(yj + 1)
    return out + log_poisson_raw_moment(ws.total_count, ws.log_lambda - total_exposure)


def site_loglik(ws: SiteWorkspace, protocol: Protocol) -> float:
    """Dispatch one site to the kernel its protocol calls for."""
    family, process = protocol.family, protocol.process
    if family.is_binary:
        if family.records_first_time:
            return site_loglik_binary_t1(ws)
        return site_loglik_binary(ws)
    if process is ObservationProcess.POISSON_PROCESS:
        return site_loglik_poisson_count(ws)
    if ws.counts.size == 1:
        value = site_loglik_count_single(
            int(ws.counts[0]), ws.log_lambda, float(ws.log_rate[0]), float(ws.search_time[0])
        )
    else:
        value = site_loglik_count_multi(ws)
    if family is Family.COUNT_T:
        value += time_factor_count_t(ws)
    elif family is Family.COUNT_T1:
        value += time_factor_count_t1(ws)
    return value


def _site_constants(dataset: Dataset) -> np.ndarray:
    """Per-site data-only log terms the kernels drop, shape (R,).

    Binomial CountT1 keeps the log(y_j) multiplier of a minimum of y_j
    arrival times. Under the Poisson process, CountT times are y_j ordered
    uniforms and a CountT1 first time is the minimum of y_j uniforms, so
    neither involves the parameters at all.
    """
    out = np.zeros(dataset.n_sites)
    fam, proc = dataset.protocol.family, dataset.protocol.process
    if not fam.records_times or fam.is_binary:
        return out
    binomial = proc is ObservationProcess.BINOMIAL_COUNT
    if binomial and fam is Family.COUNT_T:
        return out  # every factor of the all-times density is parameter-bearing
    for i, rec in enumerate(dataset.records):
        for j in np.flatnonzero(rec.counts > 0):
            yj = int(rec.counts[j])
            t_max = float(dataset.design.search_time[i, j])
            if binomial:
                out[i] += math.log(yj)
            elif fam is Family.COUNT_T:
                out[i] += math.lgamma(yj + 1) - yj * math.log(t_max)
            else:
                t1 = float(rec.times[j][0])
                out[i] += math.log(yj) - math.log(t_max)
                if yj > 1:
                    if t1 >= t_max:
                        out[i] = -math.inf
                        break
                    out[i] += (yj - 1) * math.log1p(-t1 / t_max)
    return out


def irrelevant_constants(dataset: Dataset) -> float:
    """Data-only log terms the kernels drop.

    These depend on the recorded counts and times but never on the
    parameters, so they shift every log-likelihood by the same amount.
    ``total_loglik(..., include_constants=True)`` equals the plain total
    plus this value; AIC always includes it.
    """
    return float(_site_constants(dataset).sum())


def total_loglik(
    dataset: Dataset, params: Parameterization, *, include_constants: bool = False
) -> LogLik:
    """Log-likelihood of a dataset: independent sites, summed in site order."""
    log_lam, log_rate = params.resolve(dataset.design)
    per_site = np.empty(dataset.n_sites)
    for i, rec in enumerate(dataset.records):
        ws = _workspace_from_rows(
            rec, dataset.design.search_time[i], log_rate[i], float(log_lam[i])
        )
        per_site[i] = site_loglik(ws, dataset.protocol)
    if include_constants:
        per_site += _site_constants(dataset)
    return LogLik(float(per_site.sum()), per_site, include_constants)
