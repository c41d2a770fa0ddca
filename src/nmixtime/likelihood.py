"""Closed-form log-likelihoods, evaluated for every site at once.

Each kernel integrates the latent site abundance out of the data density
analytically, so no truncated summation is involved. An evaluation has
two parts. The data-only part (counts, detection masks, first times, time
sums, series parameters, lgamma sums and the data-only constants) is
built once per dataset by ``data_pass`` and cached on the dataset as
``Dataset.site_data``. The parameter part is numpy arithmetic across all
sites: three array kernels cover the sixteen distinct laws (binary records
do not depend on the observation process, so the twenty variants share
sixteen laws). The data pass also checks every record against the
protocol's support and picks the kernel, so an evaluation never branches
on the protocol.

Kernels return the log joint density of everything the protocol records,
except that for three protocols a data-only factor is conventionally
dropped (it shifts the log-likelihood without moving the maximum). Those
factors live only in ``SiteData.constants``; ``irrelevant_constants`` is
their sum and ``total_loglik(..., include_constants=True)`` adds them
back, which is what any AIC computation uses.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import LikelihoodDomainError
from .model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    record_faults,
    _workspace_from_rows,  # noqa: F401 -- perfbench/tracing.py rebinds this name
)
from . import special
from .oracle import site_loglik_by_summation  # noqa: F401 -- perfbench/tracing.py rebinds this name
from .special import log_pfq_equal_order, safe_exp
from .special import log_poisson_raw_moment  # noqa: F401 -- perfbench/tracing.py rebinds this name

__all__ = [
    "LogLik",
    "SiteData",
    "data_pass",
    "total_loglik",
    "irrelevant_constants",
]


@dataclass(frozen=True, eq=False)
class LogLik:
    """Total and per-site log-likelihood for one dataset and parameter set."""

    total: float
    per_site: np.ndarray
    irrelevant_constants_included: bool
    score: np.ndarray | None = None    # gradient of ``total`` over the free coefficients

    def __post_init__(self):
        for name in ("per_site", "score"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name), dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class SiteData:
    """Data-only arrays of one dataset, shared by every evaluation.

    Per-cell arrays are (R, J). The ``det_*`` arrays list the cells with
    at least one detection in row-major order, so per-site sums of a
    per-detection term are one ``np.bincount`` over ``det_rows``.
    ``kernel(data, log_lam, log_rate)`` is the protocol's law; with
    ``score=True`` it also returns the per-site derivative along log lambda
    (R,) and the per-cell derivative along log rate (R, J).
    """

    family: Family                     # picks the binomial count kernel's per-cell law
    kernel: Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]]
    window: np.ndarray                 # (R, J) search time; BinaryT1: the first time where detected
    detected: np.ndarray               # (R, J) counts > 0
    det_rows: np.ndarray               # site of each detection cell
    det_cols: np.ndarray               # occasion of each detection cell
    det_counts: np.ndarray             # count of each detection cell (1 for binary families)
    det_time: np.ndarray               # sum of each detection cell's times (*T1: the first time)
    constants: np.ndarray              # (R,) data-only log terms the kernels drop
    log_coef: np.ndarray               # (R,) data-only log terms the kernels keep
    # Binomial counts: per-cell max_count - y for the leading term, the series
    # sites (not all detections on one occasion) and their pFq parameters.
    # Binary: the series sites are those with a detection.
    max_count: np.ndarray | None = None
    gap_cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    series_rows: np.ndarray | None = None
    upper: np.ndarray | None = None
    lower: np.ndarray | None = None
    order: np.ndarray | None = None    # raw-moment kernel: each site's Poisson moment order
    # Binary: per series site, the flat (R*J) cell index of each detecting
    # occasion in occasion order, padded with -1 to the widest history
    slots: np.ndarray | None = None


def _cells(rows: np.ndarray, values: np.ndarray, n_sites: int) -> np.ndarray:
    """Per-site sums of per-cell values, in occasion order."""
    return np.bincount(rows, weights=values, minlength=n_sites)


def data_pass(dataset: Dataset) -> SiteData:
    """Build every data-only array the protocol's kernel reads, and pick the kernel.

    A record outside the protocol's support, any one that ``record_faults``
    (and so ``validate_dataset``) reports, raises LikelihoodDomainError
    naming the first such cell; past that check every record is scorable.
    """
    faults, _ = record_faults(dataset)
    if faults:
        raise LikelihoodDomainError(
            f"{dataset.protocol.label} cannot score {len(faults)} record(s); first: {faults[0]}"
        )
    family = dataset.protocol.family
    binomial = dataset.protocol.process is ObservationProcess.BINOMIAL_COUNT
    t_max = dataset.design.search_time
    n_sites = dataset.n_sites
    y = dataset.counts
    detected = y > 0
    det_rows, det_cols = np.nonzero(detected)
    det_counts = y[detected]
    det_search = t_max[detected]
    cell = np.repeat(np.arange(y.size), dataset.times_per_cell.ravel())
    det_time = np.bincount(cell, weights=dataset.times_flat, minlength=y.size)[detected.ravel()]

    zeros = np.zeros(n_sites)
    common = dict(
        family=family,
        window=t_max,
        detected=detected,
        det_rows=det_rows,
        det_cols=det_cols,
        det_counts=det_counts,
        det_time=det_time,
    )
    n_detected = detected.sum(axis=1)

    if family is Family.BINARY:
        series_rows = np.flatnonzero(n_detected)
        # at least one column, so a survey without detections packs as (0, 1)
        slots = np.full((series_rows.size, n_detected.max(initial=1)), -1)
        rank = np.cumsum(detected, axis=1)[detected] - 1
        slots[np.searchsorted(series_rows, det_rows), rank] = np.flatnonzero(detected)
        return SiteData(
            **common, kernel=_binary, constants=zeros, log_coef=zeros, series_rows=series_rows, slots=slots
        )

    if family is Family.BINARY_T1:
        # a detecting occasion exposes its individuals only up to the first time
        window = t_max.copy()
        window[detected] = det_time
        common.update(window=window)
        return SiteData(**common, kernel=_raw_moment, constants=zeros, log_coef=zeros, order=n_detected)

    log_y = np.log(det_counts)
    if not binomial:
        # Poisson events: the times are parameter-free given the counts
        if family is Family.COUNT_T:
            constants = _cells(det_rows, gammaln(det_counts + 1.0) - det_counts * np.log(det_search), n_sites)
        elif family is Family.COUNT_T1:
            # the first time is the minimum of y uniforms on (0, T)
            multi = det_counts > 1
            spread = np.zeros(det_counts.size)
            spread[multi] = (det_counts[multi] - 1) * np.log1p(-det_time[multi] / det_search[multi])
            constants = _cells(det_rows, log_y - np.log(det_search) + spread, n_sites)
        else:
            constants = zeros
        log_coef = _cells(det_rows, det_counts * np.log(det_search) - gammaln(det_counts + 1.0), n_sites)
        return SiteData(
            **common, kernel=_raw_moment, constants=constants, log_coef=log_coef, order=y.sum(axis=1)
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
        kernel=_count_binomial,
        constants=constants,
        log_coef=choose - lg_max,
        max_count=max_count,
        gap_cells=(gap_rows, gap_cols, gap[gap_rows, gap_cols].astype(float)),
        series_rows=series_rows,
        upper=np.broadcast_to((max_count[series_rows] + 1.0)[:, None], lower.shape),
        lower=lower,
    )


def _binary(data: SiteData, log_lam, log_rate, score=False):
    """Detection/non-detection histories over one or more occasions.

    Given abundance n, an occasion with exposure w misses all n individuals
    with probability e^{-n w}. Mixing over n leaves e^{-lambda (1 - e^{-U})},
    U the exposure of the undetected occasions, times the chance that every
    detecting occasion detects someone when the abundance is Poisson with
    mean lambda e^{-U}: a positive series in n, summed like the moments.
    The abundance mean under that series' tilted terms, nu, gives the
    scores: nu - lambda along log lambda, and -nu times the exposure of
    each undetected occasion.
    """
    lam = safe_exp(log_lam)
    exposure = np.exp(log_rate) * data.window
    undetected = np.where(data.detected, 0.0, exposure).sum(axis=1)
    out = -lam * -np.expm1(-undetected)
    rows = data.series_rows
    # a -1 slot reads the appended +inf, an occasion that cannot miss
    w = np.append(exposure, np.inf)[data.slots]
    log_mu = log_lam - undetected
    if not score:
        out[rows] += special.log_poisson_detection_moment(w, log_mu[rows])
        return out
    series, d_log_mu, d_w = special.log_poisson_detection_moment(w, log_mu[rows], score=True)
    out[rows] += series
    nu = safe_exp(log_mu)
    nu[rows] += d_log_mu
    d_rate = np.where(data.detected, 0.0, -exposure * nu[:, None])
    cells = data.slots >= 0
    d_rate.flat[data.slots[cells]] = exposure.flat[data.slots[cells]] * d_w[cells]
    return out, nu - lam, d_rate


def _raw_moment(data: SiteData, log_lam, log_rate, score=False):
    """Poisson-process counts, and detection histories with first times.

    Both mix the abundance out into a Poisson raw moment whose order is
    the site's summed count (for BinaryT1, its number of detecting
    occasions), at the exposure rate times ``window`` summed over the
    occasions; each detection adds its log rate. Poisson counts can exceed
    the latent abundance, so the usual max-count support bound does not
    apply. With nu the abundance mean under the moment's tilted terms, the
    scores are nu - lambda along log lambda and y - nu times the exposure
    along each cell's log rate.
    """
    lam = safe_exp(log_lam)
    cell_exposure = np.exp(log_rate) * data.window
    exposure = cell_exposure.sum(axis=1)
    r, c = data.det_rows, data.det_cols
    out = -lam * -np.expm1(-exposure) + data.log_coef
    out += _cells(r, data.det_counts * log_rate[r, c], lam.size)
    if not score:
        return out + special.log_poisson_raw_moment(data.order, log_lam - exposure)
    moment, d_log_mu = special.log_poisson_raw_moment(data.order, log_lam - exposure, score=True)
    nu = safe_exp(log_lam - exposure) + d_log_mu
    d_rate = -cell_exposure * nu[:, None]
    d_rate[r, c] += data.det_counts
    return out + moment, nu - lam, d_rate


def _count_binomial(data: SiteData, log_lam, log_rate, score=False):
    """Counts under binomial thinning of a shared abundance, with their times.

    The abundance sum collapses to its leading term at n = max count times
    a generalized hypergeometric factor anchored at an occasion attaining
    that maximum (any occasion tied at the maximum gives the same value).
    Each detecting occasion adds y log p for Count; for CountT and CountT1
    the density of the recorded times given the counts replaces it,
    because the times carry the y log p of their truncation with the
    opposite sign. The scores take nu, the series index's mean under its
    tilted terms (z itself where the series is exp(z)): max count - lambda
    + nu along log lambda, and along each cell's log rate the cell term's
    derivative less (gap + nu) times the exposure.
    """
    n_sites = log_lam.size
    lam = safe_exp(log_lam)
    rate = np.exp(log_rate)
    exposure = rate * data.window
    total_exposure = exposure.sum(axis=1)
    r, c, y = data.det_rows, data.det_cols, data.det_counts
    log_h, h = log_rate[r, c], rate[r, c]
    if data.family is Family.COUNT:
        cell = y * np.log(-np.expm1(-exposure[r, c]))
        if score:
            d_cell = y * exposure[r, c] / np.expm1(exposure[r, c])
    elif data.family is Family.COUNT_T:
        cell = y * log_h - h * data.det_time
        if score:
            d_cell = y - h * data.det_time
    else:
        # the first time is the minimum of y truncated exponentials
        t1 = data.det_time
        cell = log_h - h * t1
        multi = y > 1
        later_exposure = h[multi] * (data.window[r, c][multi] - t1[multi])
        cell[multi] += (y[multi] - 1) * (-h[multi] * t1[multi] + np.log(-np.expm1(-later_exposure)))
        if score:
            d_cell = 1.0 - h * t1
            d_cell[multi] += (y[multi] - 1) * (-h[multi] * t1[multi] + later_exposure / np.expm1(later_exposure))
    gap_rows, gap_cols, gap = data.gap_cells
    out = np.multiply(data.max_count, log_lam, out=np.zeros(n_sites), where=data.max_count > 0)
    out += data.log_coef + _cells(r, cell, n_sites)
    out -= _cells(gap_rows, gap * exposure[gap_rows, gap_cols], n_sites)

    out -= lam * -np.expm1(-total_exposure)  # -lambda + lambda q, exact for the plain sites
    rows = data.series_rows
    finite = np.isfinite(out[rows])
    rows = rows[finite]
    nu = safe_exp(log_lam - total_exposure) if score else None
    if rows.size:
        z = safe_exp(log_lam[rows] - total_exposure[rows])
        # the series replaces the exp(z) the plain form above assumed
        series = log_pfq_equal_order(data.upper[finite], data.lower[finite], z, score=score)
        if score:
            series, nu[rows] = series
        out[rows] += series - z
    if not score:
        return out
    d_rate = -exposure * nu[:, None]
    d_rate[gap_rows, gap_cols] -= gap * exposure[gap_rows, gap_cols]
    d_rate[r, c] += d_cell
    return out, data.max_count - lam + nu, d_rate


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
    dataset: Dataset, params: Parameterization, *, include_constants: bool = False, score: bool = False
) -> LogLik:
    """Log-likelihood of a dataset: independent sites, summed in site order.

    With ``score=True`` the result also carries the exact gradient of the
    total over ``params.free_values()``; ``total`` is the same either way.
    Where a rate or abundance overflows, or the total is -inf, the gradient
    may hold NaN or infinite entries.
    """
    data = dataset.site_data
    log_lam, log_rate = params.resolve(dataset.design)
    # log(0) and exp overflow, also in the sum over sites, are the limits these
    # kernels are written for; at those limits a score can meet 0 * inf: NaN
    limits = {"divide": "ignore", "over": "ignore", **({"invalid": "ignore"} if score else {})}
    with np.errstate(**limits):
        if score:
            per_site, d_log_lam, d_log_rate = data.kernel(data, log_lam, log_rate, score=True)
            gradient = params.free_gradient(d_log_lam, d_log_rate)
        else:
            per_site, gradient = data.kernel(data, log_lam, log_rate), None
        if include_constants:
            per_site = per_site + data.constants
        total = float(per_site.sum())
    return LogLik(total, per_site, include_constants, gradient)
