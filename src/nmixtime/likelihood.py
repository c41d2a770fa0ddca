"""Closed-form log-likelihoods, evaluated for every site at once.

Each kernel integrates the latent site abundance out of the data density
analytically, so no truncated summation is involved. An evaluation has
two parts. The data-only part (counts, detection masks, first times, time
sums, series parameters, log-factorial sums from ``special.log_gamma`` and
the data-only constants) is built once per dataset by ``data_pass`` and
cached on the dataset as ``Dataset.site_data``. The parameter part is
numpy arithmetic across all sites: three array kernels cover the sixteen
distinct laws (binary records do not depend on the observation process,
so the twenty variants share sixteen laws). The data pass also checks
every record against the protocol's support and picks the kernel, so an
evaluation never branches on the protocol.

Each kernel's series rows (a pFq, a detection moment or a raw moment per
site) repeat on a field survey: with a constant rate, a row depends on
the data only through a few integers and the site's search times. So the
data pass also groups the series rows by a data-only key (the series
parameters and the times that set the row's exposures) and names each
row's representative, the first row of its group. Every evaluation then
checks, in O(R), that each row's actual series inputs equal its
representative's exactly, and sums the representatives and any row that
differs (under covariates or per-cell rates, say) in one series call,
gathering the sums back to their rows. Each row's sum is the one it would
get alone, so grouping changes no bit of any result.

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

from .errors import LikelihoodDomainError
from .model import Dataset, Family, ObservationProcess, Parameterization
from . import special
from .oracle import site_loglik_by_summation  # noqa: F401 -- perfbench/tracing.py rebinds this name
from .special import log_gamma, log_pfq_equal_order, safe_exp
from .special import log_poisson_raw_moment  # noqa: F401 -- perfbench/tracing.py rebinds this name

# Nothing calls this name. perfbench/tracing.py's model.workspace entry still
# rebinds it and reports 0 calls; the entry and this line go together.
_workspace_from_rows = None

__all__ = [
    "LogLik",
    "SiteData",
    "data_pass",
    "total_loglik",
    "irrelevant_constants",
]


@dataclass(frozen=True, eq=False)
class LogLik:
    """Total and per-site log-likelihood for one dataset and parameter set.

    ``score`` and ``hessian`` are present when ``total_loglik`` was asked
    for them with ``score=True``; all arrays are read-only.
    """

    total: float
    per_site: np.ndarray
    irrelevant_constants_included: bool
    score: np.ndarray | None = None    # gradient of ``total`` over the free coefficients
    hessian: np.ndarray | None = None  # its (k, k) Hessian over them

    def __post_init__(self):
        for name in ("per_site", "score", "hessian"):
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
    ``kernel(data, log_lam, log_rate)`` is the protocol's law, the (R,)
    per-site values; with ``score=True`` it returns them with the per-site
    derivative along log lambda (R,), the per-cell derivative along log
    rate (R, J) and each site's (1 + J, 1 + J) Hessian over (log lambda,
    log rate_1, ..., log rate_J).

    ``representative`` holds, for each series row (each of ``series_rows``;
    every site for the raw-moment kernel), the position of the first row
    whose data-only key equals its own: the sorted pFq parameters and the
    search-time row (binomial counts), the slotted and the sorted undetected
    search times (binary), or the moment order and the exposure window (raw
    moment). A key is only a guess: an evaluation sums a row itself unless
    its series inputs equal its representative's exactly.
    """

    family: Family                     # picks the binomial count kernel's per-cell law
    kernel: Callable[..., np.ndarray | tuple[np.ndarray, ...]]
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
    representative: np.ndarray | None = None  # per series row, its group's first row


def _cells(rows: np.ndarray, values: np.ndarray, n_sites: int) -> np.ndarray:
    """Per-site sums of per-cell values, in occasion order."""
    return np.bincount(rows, weights=values, minlength=n_sites)


def _first_of_group(*keys: np.ndarray) -> np.ndarray:
    """Per row, the position of the first row whose key columns (the columns
    of every (rows,) or (rows, c) array in ``keys``) all equal its own."""
    columns = np.column_stack(keys)
    order = np.lexsort(columns.T)  # stable: within a group, row order
    ranked = columns[order]
    starts = np.ones(order.size, dtype=bool)
    # != rather than a difference, so that +inf keys compare equal
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.empty(order.size, dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _distinct_rows(representative, same, keep=True):
    """The series rows to sum, and where each row finds its sum among theirs.

    A row (of those in ``keep``) is summed itself when it is a
    representative or when its inputs differ from its representative's
    (``same`` False); any other row reads its representative's sum.
    ``same`` must be False where the representative is not kept."""
    position = np.arange(representative.size)
    own = ((representative == position) | ~same) & keep
    place = np.cumsum(own) - 1
    return np.flatnonzero(own), place[np.where(own, position, representative)]


def _series_hessian(lam, exposure, nu, var):
    """Per-site Hessian (R, 1 + J, 1 + J) over (log lambda, log rate_j) of
    -lambda + l(log lambda - sum_j exposure_j), each exposure a rate times a
    fixed window, for a series l with first and second derivatives nu and
    var along its argument (its tilted mean and variance of n)."""
    n_sites, n_occasions = exposure.shape
    d_arg = np.concatenate([np.ones((n_sites, 1)), -exposure], axis=1)
    hess = var[:, None, None] * d_arg[:, :, None] * d_arg[:, None, :]
    hess[:, 0, 0] -= lam
    diagonal = np.arange(1, 1 + n_occasions)
    hess[:, diagonal, diagonal] -= nu[:, None] * exposure
    return hess


def data_pass(dataset: Dataset) -> SiteData:
    """Build every data-only array the protocol's kernel reads, and pick the kernel.

    A record outside the protocol's support, any one that ``record_faults``
    (and so ``validate_dataset``) reports, raises LikelihoodDomainError
    naming the first such cell; past that check every record is scorable.
    """
    faults, _ = dataset.faults
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
        missed = np.sort(np.where(detected, np.inf, t_max)[series_rows], axis=1)
        return SiteData(
            **common, kernel=_binary, constants=zeros, log_coef=zeros, series_rows=series_rows, slots=slots,
            representative=_first_of_group(np.append(t_max, np.inf)[slots], missed),
        )

    if family is Family.BINARY_T1:
        # a detecting occasion exposes its individuals only up to the first time
        window = t_max.copy()
        window[detected] = det_time
        common.update(window=window)
        return SiteData(
            **common, kernel=_raw_moment, constants=zeros, log_coef=zeros, order=n_detected,
            representative=_first_of_group(n_detected, window),
        )

    log_y = np.log(det_counts)
    if not binomial:
        # Poisson events: the times are parameter-free given the counts
        if family is Family.COUNT_T:
            constants = _cells(det_rows, log_gamma(det_counts + 1.0) - det_counts * np.log(det_search), n_sites)
        elif family is Family.COUNT_T1:
            # the first time is the minimum of y uniforms on (0, T)
            multi = det_counts > 1
            spread = np.zeros(det_counts.size)
            spread[multi] = (det_counts[multi] - 1) * np.log1p(-det_time[multi] / det_search[multi])
            constants = _cells(det_rows, log_y - np.log(det_search) + spread, n_sites)
        else:
            constants = zeros
        log_coef = _cells(det_rows, det_counts * np.log(det_search) - log_gamma(det_counts + 1.0), n_sites)
        order = y.sum(axis=1)
        return SiteData(
            **common, kernel=_raw_moment, constants=constants, log_coef=log_coef, order=order,
            representative=_first_of_group(order, t_max),
        )

    # binomial thinning: the series reads every occasion but one at the max count
    constants = _cells(det_rows, log_y, n_sites) if family is Family.COUNT_T1 else zeros
    max_count = y.max(axis=1)
    gap = max_count[:, None] - y
    y_other = np.sort(y, axis=1)[:, :-1]
    lg_max = log_gamma(max_count + 1.0)
    choose = (lg_max[:, None] - log_gamma(y_other + 1.0) - log_gamma(max_count[:, None] - y_other + 1.0)).sum(axis=1)
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
        # lower comes out sorted, so rows alike up to occasion order share a key
        representative=_first_of_group(max_count[series_rows], lower, t_max[series_rows]),
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
    each undetected occasion. The series' Hessian over (log mu, w) reaches
    (log lambda, log rate) through log mu = log lambda - U and w_j = e_j.
    """
    lam = safe_exp(log_lam)
    exposure = np.exp(log_rate) * data.window
    missed = np.where(data.detected, 0.0, exposure)
    undetected = missed.sum(axis=1)
    out = -lam * -np.expm1(-undetected)
    rows = data.series_rows
    # a -1 slot reads the appended +inf, an occasion that cannot miss
    w = np.append(exposure, np.inf)[data.slots]
    log_mu = log_lam - undetected
    rep = data.representative
    summed, place = _distinct_rows(rep, np.all(w == w[rep], axis=1) & (log_mu[rows] == log_mu[rows[rep]]))
    moment = special.log_poisson_detection_moment(w[summed], log_mu[rows[summed]], score=score)
    if not score:
        out[rows] += moment[place]
        return out
    series, d_log_mu, d_w, series_hess = (part[place] for part in moment)
    out[rows] += series
    mu = safe_exp(log_mu)
    nu = mu.copy()
    nu[rows] += d_log_mu
    d_rate = -missed * nu[:, None]
    cells = data.slots >= 0
    d_rate.flat[data.slots[cells]] = exposure.flat[data.slots[cells]] * d_w[cells]
    # l = mu outside the series rows; inside, the series' Hessian carries the rest
    hess = _series_hessian(lam, missed, nu, mu)
    n_occasions = exposure.shape[1]
    jac = np.zeros((rows.size, 1 + data.slots.shape[1], 1 + n_occasions))
    jac[:, 0, 0] = 1.0
    jac[:, 0, 1:] = -missed[rows]
    # a padded slot's entries are 0; its zero factor lands on an arbitrary occasion
    slot = np.arange(1, jac.shape[1])
    jac[np.arange(rows.size)[:, None], slot, 1 + data.slots % n_occasions] = np.where(cells, w, 0.0)
    hess[rows] += np.swapaxes(jac, 1, 2) @ series_hess @ jac
    diagonal = np.arange(1, 1 + n_occasions)
    hess[:, diagonal, diagonal] += np.where(data.detected, d_rate, 0.0)
    return out, nu - lam, d_rate, hess


def _raw_moment(data: SiteData, log_lam, log_rate, score=False):
    """Poisson-process counts, and detection histories with first times.

    Both mix the abundance out into a Poisson raw moment whose order is
    the site's summed count (for BinaryT1, its number of detecting
    occasions), at the exposure rate times ``window`` summed over the
    occasions; each detection adds its log rate. Poisson counts can exceed
    the latent abundance, so the usual max-count support bound does not
    apply. With nu the abundance mean under the moment's tilted terms, the
    scores are nu - lambda along log lambda and y - nu times the exposure
    along each cell's log rate; the Hessian adds that mean's variance.
    """
    lam = safe_exp(log_lam)
    cell_exposure = np.exp(log_rate) * data.window
    exposure = cell_exposure.sum(axis=1)
    r, c = data.det_rows, data.det_cols
    out = -lam * -np.expm1(-exposure) + data.log_coef
    out += _cells(r, data.det_counts * log_rate[r, c], lam.size)
    log_mu = log_lam - exposure
    rep = data.representative
    summed, place = _distinct_rows(rep, log_mu == log_mu[rep])
    parts = special.log_poisson_raw_moment(data.order[summed], log_mu[summed], score=score)
    if not score:
        return out + parts[place]
    moment, d_log_mu, d2_log_mu = (part[place] for part in parts)
    mu = safe_exp(log_mu)
    nu = mu + d_log_mu
    d_rate = -cell_exposure * nu[:, None]
    d_rate[r, c] += data.det_counts
    return out + moment, nu - lam, d_rate, _series_hessian(lam, cell_exposure, nu, mu + d2_log_mu)


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
    derivative less (gap + nu) times the exposure. The Hessian adds the
    variance of that index (z again where the series is exp(z)) and each
    cell term's second derivative.
    """
    n_sites = log_lam.size
    lam = safe_exp(log_lam)
    rate = np.exp(log_rate)
    exposure = rate * data.window
    total_exposure = exposure.sum(axis=1)
    r, c, y = data.det_rows, data.det_cols, data.det_counts
    if data.family is Family.COUNT:
        e = exposure[r, c]
        cell = y * np.log(-np.expm1(-e))
        if score:
            q = e / np.expm1(e)
            d_cell = y * q
            d2_cell = d_cell * (1.0 - q - e)
    elif data.family is Family.COUNT_T:
        ht = rate[r, c] * data.det_time
        cell = y * log_rate[r, c] - ht
        if score:
            d_cell, d2_cell = y - ht, -ht
    else:
        # the first time is the minimum of y truncated exponentials
        h, t1 = rate[r, c], data.det_time
        ht = h * t1
        cell = log_rate[r, c] - ht
        multi = y > 1
        later = h[multi] * (data.window[r, c][multi] - t1[multi])
        extra, ht_multi = y[multi] - 1, ht[multi]
        cell[multi] += extra * (np.log(-np.expm1(-later)) - ht_multi)
        if score:
            q = later / np.expm1(later)
            d_cell, d2_cell = 1.0 - ht, -ht
            d_cell[multi] += extra * (q - ht_multi)
            d2_cell[multi] += extra * (q * (1.0 - q - later) - ht_multi)
    gap_rows, gap_cols, gap = data.gap_cells
    gap_exposure = gap * exposure[gap_rows, gap_cols]
    out = np.multiply(data.max_count, log_lam, out=np.zeros(n_sites), where=data.max_count > 0)
    out += data.log_coef + _cells(r, cell, n_sites)
    out -= _cells(gap_rows, gap_exposure, n_sites)

    out -= lam * -np.expm1(-total_exposure)  # -lambda + lambda q, exact for the plain sites
    rows, rep = data.series_rows, data.representative
    finite = np.isfinite(out[rows])
    z = np.full(rows.size, np.nan)  # equal to nothing on the rows the series skips
    z[finite] = safe_exp(log_lam[rows[finite]] - total_exposure[rows[finite]])
    summed, place = _distinct_rows(rep, z == z[rep], finite)
    nu = safe_exp(log_lam - total_exposure) if score else None
    var = nu.copy() if score else None
    if summed.size:
        # the series replaces the exp(z) the plain form above assumed
        parts = log_pfq_equal_order(data.upper[summed], data.lower[summed], z[summed], score=score)
        rows, z, place = rows[finite], z[finite], place[finite]
        if score:
            series, nu[rows], var[rows] = (part[place] for part in parts)
        else:
            series = parts[place]
        out[rows] += series - z
    if not score:
        return out
    d_rate = -exposure * nu[:, None]
    d_rate[gap_rows, gap_cols] -= gap_exposure
    d_rate[r, c] += d_cell
    hess = _series_hessian(lam, exposure, nu, var)
    hess[gap_rows, 1 + gap_cols, 1 + gap_cols] -= gap_exposure
    hess[r, 1 + c, 1 + c] += d2_cell
    return out, data.max_count - lam + nu, d_rate, hess


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
    dataset: Dataset,
    params: Parameterization,
    *,
    include_constants: bool = False,
    score: bool = False,
) -> LogLik:
    """Log-likelihood of a dataset: independent sites, summed in site order.

    With ``score=True`` the result also carries the exact gradient of the
    total over ``params.free_values()`` and the exact (k, k) Hessian over the
    same coefficients, minus the observed information; ``total`` and
    ``per_site`` are the value-only ones. Where a rate or abundance
    overflows, or the total is -inf, the gradient and Hessian may hold NaN
    or infinite entries.
    """
    data = dataset.site_data
    log_lam, log_rate = params.resolve(dataset.design)
    # log(0) and exp overflow, also in the sum over sites, are the limits these
    # kernels are written for; at those limits a score can meet 0 * inf: NaN
    limits = {"divide": "ignore", "over": "ignore", **({"invalid": "ignore"} if score else {})}
    gradient = curvature = None
    with np.errstate(**limits):
        if score:
            per_site, d_log_lam, d_log_rate, hess = data.kernel(data, log_lam, log_rate, score=True)
            gradient = params.free_gradient(d_log_lam, d_log_rate)
            curvature = params.free_hessian(dataset.design, hess)
        else:
            per_site = data.kernel(data, log_lam, log_rate)
        if include_constants:
            per_site = per_site + data.constants
        total = float(per_site.sum())
    return LogLik(total, per_site, include_constants, gradient, curvature)
