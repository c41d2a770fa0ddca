"""Closed-form log-likelihoods, evaluated for every site at once.

Each kernel integrates the latent site abundance out of the data density
analytically, so no truncated summation is involved. An evaluation has
two parts. The data-only part (counts, detection masks, first times, time
sums, series parameters, lgamma sums and the data-only constants) is
built once per dataset by ``data_pass`` and cached on the dataset as
``Dataset.site_data``. The parameter part is numpy arithmetic across all
sites: four array kernels cover the sixteen distinct laws (binary records
do not depend on the observation process, so the twenty variants share
sixteen laws).

The binary kernel with repeat visits is the one place where the exact
expression alternates in sign; it monitors its own cancellation and
scores the sites where double precision cannot support the expansion by
the summation oracle, one at a time.

Kernels return the log joint density of everything the protocol records,
except that for three protocols a data-only factor is conventionally
dropped (it shifts the log-likelihood without moving the maximum). Those
factors live only in ``SiteData.constants``; ``irrelevant_constants`` is
their sum and ``total_loglik(..., include_constants=True)`` adds them
back, which is what any AIC computation uses.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ExpansionCapError, LikelihoodDomainError, NumericalFallbackWarning
from .model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    _workspace_from_rows,  # noqa: F401 -- perfbench/tracing.py rebinds this name
)
from .oracle import site_loglik_by_summation
from .special import log_pfq_equal_order, log_poisson_raw_moment, log_sum_exp, safe_exp

__all__ = [
    "SUBSET_EXPANSION_CAP",
    "LogLik",
    "SiteData",
    "data_pass",
    "total_loglik",
    "irrelevant_constants",
]

# 2^cap signed terms is the practical limit of the exact detection-history
# expansion; beyond it memory and cancellation both become unreasonable.
# It also bounds the subset sums formed at once for a block of sites.
SUBSET_EXPANSION_CAP = 20

# The signed subset expansion computes g = pos - neg with pos, neg each
# accurate to a few ulps, so the result's relative error is about
# eps / (1 - exp(log_neg - log_pos)). Falling back once that gap drops
# below ~4e-7 keeps the expansion good to ~1e-9 before the slower
# summation takes over.
_CANCELLATION_GUARD = 4e-7

# Site indices named in the one fallback warning of a call.
_NAMED_FALLBACKS = 5


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


@dataclass(frozen=True)
class SiteData:
    """Data-only arrays of one dataset, shared by every evaluation.

    Per-cell arrays are (R, J). The ``det_*`` arrays list the cells with
    at least one detection in row-major order, so per-site sums of a
    per-detection term are one ``np.bincount`` over ``det_rows``.
    """

    search_time: np.ndarray            # (R, J)
    detected: np.ndarray               # (R, J) counts > 0
    det_rows: np.ndarray               # site of each detection cell
    det_cols: np.ndarray               # occasion of each detection cell
    det_counts: np.ndarray             # count of each detection cell
    det_time: np.ndarray | None        # CountT: sum of the times; *T1: the first time
    constants: np.ndarray              # (R,) data-only log terms the kernels drop
    log_coef: np.ndarray               # (R,) data-only log terms the kernels keep
    # Binomial counts: the series sites (not all detections on one occasion),
    # their pFq parameters, and per-cell max_count - y for the leading term.
    max_count: np.ndarray | None = None
    gap_cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    series_rows: np.ndarray | None = None
    upper: np.ndarray | None = None
    lower: np.ndarray | None = None
    # Moment kernels: (order, sites) per distinct order >= 1. Binary: (sites,
    # their detection occasions) per block of sites sharing a detection count.
    groups: tuple = ()


def _by_value(values: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(value, sites holding it) for each distinct positive value."""
    return [(int(v), np.flatnonzero(values == v)) for v in np.unique(values) if v > 0]


def _cells(rows: np.ndarray, values: np.ndarray, n_sites: int) -> np.ndarray:
    """Per-site sums of per-cell values, in occasion order."""
    return np.bincount(rows, weights=values, minlength=n_sites)


def data_pass(dataset: Dataset) -> SiteData:
    """Build every data-only array the protocol's kernel reads.

    Records the density cannot score raise here: a negative count, a
    detection without its first time, a first time at the end of the
    window with more detections to place, a CountT occasion whose times do
    not match its count, and a binary history with more detection
    occasions than the exact expansion allows.
    """
    family, process = dataset.protocol.family, dataset.protocol.process
    binomial = process is ObservationProcess.BINOMIAL_COUNT
    t_max = dataset.design.search_time
    n_sites = dataset.n_sites
    y = dataset.counts_matrix()
    if np.any(y < 0):
        i, j = np.argwhere(y < 0)[0]
        raise LikelihoodDomainError(f"count must be nonnegative, got {y[i, j]} at site {i}")
    detected = y > 0
    det_rows, det_cols = np.nonzero(detected)
    det_counts = y[detected]
    det_search = t_max[detected]

    det_time = None
    if family.records_first_time or (binomial and family is Family.COUNT_T):
        cell_times = [dataset.records[i].times[j] for i, j in zip(det_rows, det_cols)]
        sizes = np.array([t.size for t in cell_times], dtype=np.int64)
        if family is Family.COUNT_T and binomial:
            bad = np.flatnonzero(sizes != det_counts)
            if bad.size:
                k = bad[0]
                raise LikelihoodDomainError(
                    f"occasion {det_cols[k]} at site {det_rows[k]} needs {det_counts[k]} "
                    f"recorded times, has {sizes[k]}"
                )
            flat = np.concatenate(cell_times) if cell_times else np.empty(0)
            det_time = np.bincount(
                np.repeat(np.arange(sizes.size), sizes), weights=flat, minlength=sizes.size
            )
        elif family.records_first_time:
            bad = np.flatnonzero(sizes == 0)
            if bad.size:
                k = bad[0]
                raise LikelihoodDomainError(
                    f"site {det_rows[k]} occasion {det_cols[k]} has a detection "
                    "without a recorded first time"
                )
            det_time = np.array([t[0] for t in cell_times], dtype=float)
            edge = (det_counts > 1) & (det_time >= det_search)
            if binomial and np.any(edge):
                k = np.flatnonzero(edge)[0]
                raise LikelihoodDomainError(
                    f"first detection at the end of the window at site {det_rows[k]} "
                    f"occasion {det_cols[k]} leaves no room for the remaining "
                    f"{det_counts[k] - 1} detections"
                )

    zeros = np.zeros(n_sites)
    common = dict(
        search_time=t_max,
        detected=detected,
        det_rows=det_rows,
        det_cols=det_cols,
        det_counts=det_counts,
        det_time=det_time,
    )
    n_detected = detected.sum(axis=1)

    if family is Family.BINARY:
        if n_detected.max() > SUBSET_EXPANSION_CAP:
            raise ExpansionCapError(int(n_detected.max()), SUBSET_EXPANSION_CAP)
        blocks = []
        for d, rows in _by_value(n_detected):
            occasions = np.nonzero(detected[rows])[1].reshape(rows.size, d)
            step = 2 ** (SUBSET_EXPANSION_CAP - d)
            blocks += [(rows[k : k + step], occasions[k : k + step]) for k in range(0, rows.size, step)]
        return SiteData(**common, constants=zeros, log_coef=zeros, groups=tuple(blocks))

    if family is Family.BINARY_T1:
        return SiteData(**common, constants=zeros, log_coef=zeros, groups=tuple(_by_value(n_detected)))

    log_y = np.log(det_counts)
    if not binomial:
        # Poisson events: the times are parameter-free given the counts
        if family is Family.COUNT_T:
            constants = _cells(det_rows, gammaln(det_counts + 1.0) - det_counts * np.log(det_search), n_sites)
        elif family is Family.COUNT_T1:
            # the first time is the minimum of y uniforms on (0, T)
            multi = det_counts > 1
            inside = det_time < det_search
            spread = np.full(det_counts.size, -math.inf)
            spread[~multi] = 0.0
            ok = multi & inside
            spread[ok] = (det_counts[ok] - 1) * np.log1p(-det_time[ok] / det_search[ok])
            constants = _cells(det_rows, log_y - np.log(det_search) + spread, n_sites)
        else:
            constants = zeros
        log_coef = _cells(det_rows, det_counts * np.log(det_search) - gammaln(det_counts + 1.0), n_sites)
        return SiteData(
            **common, constants=constants, log_coef=log_coef, groups=tuple(_by_value(y.sum(axis=1)))
        )

    # binomial thinning: anchor the series at the last occasion with the max count
    constants = _cells(det_rows, log_y, n_sites) if family is Family.COUNT_T1 else zeros
    max_count = y.max(axis=1)
    gap = max_count[:, None] - y
    anchor = y.shape[1] - 1 - np.argmax((y == max_count[:, None])[:, ::-1], axis=1)
    others = np.ones(y.shape, dtype=bool)
    others[np.arange(n_sites), anchor] = False
    y_other = y[others].reshape(n_sites, -1)
    lg_max = gammaln(max_count + 1.0)
    choose = (lg_max[:, None] - gammaln(y_other + 1.0) - gammaln(max_count[:, None] - y_other + 1.0)).sum(axis=1)
    # every detection on one occasion leaves pFq(a; a; z) = exp(z), no series
    series_rows = np.flatnonzero(y.sum(axis=1) > max_count)
    lower = (max_count[:, None] - y_other + 1.0)[series_rows]
    gap_rows, gap_cols = np.nonzero(gap)
    return SiteData(
        **common,
        constants=constants,
        log_coef=choose - lg_max,
        max_count=max_count,
        gap_cells=(gap_rows, gap_cols, gap[gap_rows, gap_cols].astype(float)),
        series_rows=series_rows,
        upper=np.broadcast_to((max_count[series_rows] + 1.0)[:, None], lower.shape),
        lower=lower,
    )


def _binary(dataset: Dataset, data: SiteData, log_lam, log_rate) -> np.ndarray:
    """Detection/non-detection histories over one or more occasions.

    Marginalizing abundance turns a history's probability into a signed
    sum of exp(lambda * exp(-exposure)) terms over subsets of the detected
    occasions. Positive and negative parts are each accumulated with
    log-sum-exp; where their difference loses nearly all mass to rounding,
    the summation oracle supplies the site's value instead.
    """
    lam = safe_exp(log_lam)
    rate = np.exp(log_rate)
    exposure = rate * data.search_time
    undetected = np.where(data.detected, 0.0, exposure).sum(axis=1)
    out = -lam * -np.expm1(-undetected)
    fallback = []
    for rows, occasions in data.groups:
        w = exposure[rows[:, None], occasions]
        sums = np.zeros((rows.size, 1))
        odd = np.zeros(1, dtype=bool)
        for k in range(occasions.shape[1]):
            sums = np.hstack([sums, sums + w[:, k : k + 1]])
            odd = np.concatenate([odd, ~odd])
        v = lam[rows, None] * np.exp(-(undetected[rows, None] + sums))
        log_pos = log_sum_exp(v[:, ~odd], axis=1)
        diff = log_sum_exp(v[:, odd], axis=1) - log_pos
        # nothing there to detect, a detection without detection pressure, or
        # a miss on an occasion that cannot miss
        impossible = (lam[rows] == 0.0) | np.any(w <= 0.0, axis=1) | np.isinf(undetected[rows])
        cancelled = ~impossible & ((diff >= 0.0) | (-np.expm1(np.minimum(diff, 0.0)) < _CANCELLATION_GUARD))
        ok = ~impossible & ~cancelled
        value = np.full(rows.size, -math.inf)
        value[ok] = -lam[rows][ok] + log_pos[ok] + np.log(-np.expm1(diff[ok]))
        out[rows] = value
        fallback += rows[cancelled].tolist()
    if fallback:
        fallback.sort()
        for i in fallback:
            rec = dataset.records[i]
            out[i] = site_loglik_by_summation(
                Family.BINARY,
                ObservationProcess.BINOMIAL_COUNT,
                rec.counts,
                rec.times,
                data.search_time[i],
                rate[i],
                float(log_lam[i]),
                site=i,
            )
        named = ", ".join(str(i) for i in fallback[:_NAMED_FALLBACKS])
        warnings.warn(
            f"binary detection-history expansion lost precision at {len(fallback)} site(s) "
            f"(first: {named}); substituting the summation oracle",
            NumericalFallbackWarning,
            stacklevel=3,
        )
    return out


def _binary_t1(dataset: Dataset, data: SiteData, log_lam, log_rate) -> np.ndarray:
    """Detection histories augmented with each occasion's first detection time.

    The mixture over abundance reduces to a Poisson raw moment of order
    equal to the number of detecting occasions, evaluated at the
    time-weighted exposure: rate times the first time on detecting
    occasions, rate times the search time elsewhere.
    """
    lam = safe_exp(log_lam)
    rate = np.exp(log_rate)
    time_exposure = np.where(data.detected, 0.0, rate * data.search_time).sum(axis=1)
    time_exposure += _cells(data.det_rows, rate[data.det_rows, data.det_cols] * data.det_time, lam.size)
    out = -lam * -np.expm1(-time_exposure)
    out += _cells(data.det_rows, log_rate[data.det_rows, data.det_cols], lam.size)
    for m, rows in data.groups:
        out[rows] += log_poisson_raw_moment(m, log_lam[rows] - time_exposure[rows])
    return out


def _count_binomial(dataset: Dataset, data: SiteData, log_lam, log_rate) -> np.ndarray:
    """Counts under binomial thinning of a shared abundance, with their times.

    The abundance sum collapses to its leading term at n = max count times
    a generalized hypergeometric factor anchored at an occasion attaining
    that maximum (any occasion tied at the maximum gives the same value).
    Each detecting occasion adds y log p for Count; for CountT and CountT1
    the density of the recorded times given the counts replaces it,
    because the times carry the y log p of their truncation with the
    opposite sign.
    """
    family = dataset.protocol.family
    n_sites = log_lam.size
    lam = safe_exp(log_lam)
    rate = np.exp(log_rate)
    exposure = rate * data.search_time
    total_exposure = exposure.sum(axis=1)
    r, c, y = data.det_rows, data.det_cols, data.det_counts
    log_h, h = log_rate[r, c], rate[r, c]
    if family is Family.COUNT:
        cell = y * np.log(-np.expm1(-exposure[r, c]))
    elif family is Family.COUNT_T:
        cell = y * log_h - h * data.det_time
    else:
        # the first time is the minimum of y truncated exponentials
        t1 = data.det_time
        cell = log_h - h * t1
        multi = y > 1
        later = -np.expm1(-h[multi] * (data.search_time[r, c][multi] - t1[multi]))
        cell[multi] += (y[multi] - 1) * (-h[multi] * t1[multi] + np.log(later))
    gap_rows, gap_cols, gap = data.gap_cells
    out = np.multiply(data.max_count, log_lam, out=np.zeros(n_sites), where=data.max_count > 0)
    out += data.log_coef + _cells(r, cell, n_sites)
    out -= _cells(gap_rows, gap * exposure[gap_rows, gap_cols], n_sites)

    out -= lam * -np.expm1(-total_exposure)  # -lambda + lambda q, exact for the plain sites
    rows = data.series_rows
    finite = np.isfinite(out[rows])
    rows = rows[finite]
    if rows.size:
        z = safe_exp(log_lam[rows] - total_exposure[rows])
        # the series replaces the exp(z) the plain form above assumed
        out[rows] += log_pfq_equal_order(data.upper[finite], data.lower[finite], z) - z
    return out


def _count_poisson(dataset: Dataset, data: SiteData, log_lam, log_rate) -> np.ndarray:
    """Counts when each individual produces a Poisson stream of detections.

    One expression covers single and repeat visits: a Poisson raw moment
    of order equal to the site's summed count. Counts here can exceed the
    latent abundance, so the usual max-count support bound does not apply.
    """
    lam = safe_exp(log_lam)
    total_exposure = (np.exp(log_rate) * data.search_time).sum(axis=1)
    r, c = data.det_rows, data.det_cols
    out = -lam * -np.expm1(-total_exposure) + data.log_coef
    out += _cells(r, data.det_counts * log_rate[r, c], lam.size)
    for m, rows in data.groups:
        out[rows] += log_poisson_raw_moment(m, log_lam[rows] - total_exposure[rows])
    return out


def irrelevant_constants(dataset: Dataset) -> float:
    """Data-only log terms the kernels drop.

    These depend on the recorded counts and times but never on the
    parameters, so they shift every log-likelihood by the same amount.
    ``total_loglik(..., include_constants=True)`` equals the plain total
    plus this value; AIC always includes it. Binomial CountT1 keeps the
    log(y_j) multiplier of a minimum of y_j arrival times. Under the
    Poisson process, CountT times are y_j ordered uniforms and a CountT1
    first time is the minimum of y_j uniforms, so neither involves the
    parameters at all.
    """
    return float(dataset.site_data.constants.sum())


def total_loglik(
    dataset: Dataset, params: Parameterization, *, include_constants: bool = False
) -> LogLik:
    """Log-likelihood of a dataset: independent sites, summed in site order."""
    data = dataset.site_data
    log_lam, log_rate = params.resolve(dataset.design)
    family = dataset.protocol.family
    if family is Family.BINARY:
        kernel = _binary
    elif family is Family.BINARY_T1:
        kernel = _binary_t1
    elif dataset.protocol.process is ObservationProcess.POISSON_PROCESS:
        kernel = _count_poisson
    else:
        kernel = _count_binomial
    # log(0) and exp overflow are the limits these kernels are written for
    with np.errstate(divide="ignore", over="ignore"):
        per_site = kernel(dataset, data, log_lam, log_rate)
    if include_constants:
        per_site = per_site + data.constants
    return LogLik(float(per_site.sum()), per_site, include_constants)
