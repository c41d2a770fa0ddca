"""Core data types: survey protocols, designs, datasets, and parameter sets.

The data model mirrors how repeated-survey abundance data are collected:
R sites are each visited on J occasions, occasion j at site i is searched
for a known time T[i, j], and what gets recorded per occasion depends on
the protocol family (a binary detection, a count of detections, and
optionally detection times or the time of the first detection).
"""
from __future__ import annotations

import enum
import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DesignSizeError, EndOfWindowWarning

__all__ = [
    "Family",
    "ObservationProcess",
    "Visits",
    "Protocol",
    "SurveyDesign",
    "SiteRecord",
    "Dataset",
    "Parameterization",
    "Violation",
    "record_faults",
    "validate_dataset",
]


class Family(enum.Enum):
    """What each survey occasion records.

    BINARY    detected / not detected
    BINARY_T1 detected / not detected, plus time of first detection
    COUNT     number of detections
    COUNT_T   number of detections plus every detection time
    COUNT_T1  number of detections plus the first detection time
    """

    BINARY = "Binary"
    BINARY_T1 = "BinaryT1"
    COUNT = "Count"
    COUNT_T = "CountT"
    COUNT_T1 = "CountT1"

    @property
    def is_binary(self) -> bool:
        return self in (Family.BINARY, Family.BINARY_T1)

    @property
    def records_all_times(self) -> bool:
        return self is Family.COUNT_T

    @property
    def records_first_time(self) -> bool:
        return self in (Family.BINARY_T1, Family.COUNT_T1)

    @property
    def records_times(self) -> bool:
        return self.records_all_times or self.records_first_time


class ObservationProcess(enum.Enum):
    """How individuals generate detections during a search.

    BINOMIAL_COUNT: each of the n individuals present is detected at most
    once per occasion, after an exponential waiting time censored at the
    search time, so occasion counts are binomial thinnings of n.

    POISSON_PROCESS: each individual generates a Poisson stream of
    detection events, so an occasion count can exceed n.
    """

    BINOMIAL_COUNT = "binomial"
    POISSON_PROCESS = "poisson"


class Visits(enum.Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class Protocol:
    family: Family
    process: ObservationProcess = ObservationProcess.BINOMIAL_COUNT
    visits: Visits = Visits.MULTIPLE

    @classmethod
    def for_design(cls, family: Family, process: ObservationProcess, n_occasions: int) -> "Protocol":
        visits = Visits.SINGLE if n_occasions == 1 else Visits.MULTIPLE
        return cls(family, process, visits)

    @property
    def times_uninformative(self) -> bool:
        """True when recorded times carry no information about the rate.

        Under the Poisson observation process, event times are uniform over
        the search window whatever the rate, so the time records of CountT
        and CountT1 data contribute only a parameter-free factor.
        """
        return self.process is ObservationProcess.POISSON_PROCESS and self.family.records_times

    @property
    def label(self) -> str:
        prefix = "P" if self.process is ObservationProcess.POISSON_PROCESS else ""
        suffix = "S" if self.visits is Visits.SINGLE else "M"
        return f"{prefix}{self.family.value}:{suffix}"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _assign(obj, **fields):
    """Set the fields of a frozen dataclass instance; returns the instance."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class SurveyDesign:
    """Site-by-occasion layout with known search times.

    ``search_time`` follows the layout rule of ``Parameterization``: a scalar
    or size-1 array (all cells equal), a length-J vector (shared across sites)
    or an (R, J) matrix, stored as the full matrix; all positive and finite.
    """

    n_sites: int
    n_occasions: int
    search_time: np.ndarray

    def __init__(self, n_sites: int, n_occasions: int, search_time):
        if n_sites < 1 or n_occasions < 1:
            raise ValueError("design needs at least one site and one occasion")
        cells = int(n_sites) * int(n_occasions)
        if 8 * cells > _physical_memory():  # checked before the matrix is allocated
            raise DesignSizeError(
                f"a design of {n_sites} sites x {n_occasions} occasions has {cells:.3g} cells, whose "
                f"search times alone ({8 * cells / 2**30:.3g} GiB) exceed this machine's memory"
            )
        try:
            t = np.asarray(search_time, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"search_time must hold numbers: {exc}") from exc
        t = _broadcast(t, None, (n_sites, n_occasions), "",
                       "search_time must be scalar, length {1}, or shape ({0}, {1}); got shape {shape}")
        if not np.all(np.isfinite(t)) or np.any(t <= 0):
            raise ValueError("search times must be positive and finite")
        _assign(self, n_sites=int(n_sites), n_occasions=int(n_occasions), search_time=_readonly(t))


def _physical_memory() -> float:
    """The machine's physical memory in bytes, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


@dataclass(frozen=True, eq=False)
class SiteRecord:
    """Observations for one site: per-occasion counts and detection times.

    ``times`` always has one entry per occasion; occasions without recorded
    times hold empty arrays. For binary families the count is the 0/1
    detection indicator.
    """

    site: int
    counts: np.ndarray
    times: tuple[np.ndarray, ...] = ()

    def __init__(self, site: int, counts, times=None):
        y = np.asarray(counts, dtype=np.int64).copy()
        if y.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        n_occ = y.shape[0]
        if times is None:
            ts = tuple(_readonly(np.empty(0)) for _ in range(n_occ))
        else:
            if len(times) != n_occ:
                raise ValueError(f"times must have one entry per occasion ({n_occ}), got {len(times)}")
            ts = tuple(_readonly(np.asarray(t, dtype=float).copy()) for t in times)
        _assign(self, site=int(site), counts=_readonly(y), times=ts)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A survey's observations, stored as columns.

    ``counts`` is the (R, J) count matrix and ``times_per_cell`` the (R, J)
    number of detection times each cell records; ``times_flat`` holds every
    recorded time in site, occasion, detection-index order. All three are
    read-only. ``records`` is a per-site view of the same columns.
    """

    protocol: Protocol
    design: SurveyDesign
    counts: np.ndarray
    times_per_cell: np.ndarray
    times_flat: np.ndarray

    def __init__(self, protocol: Protocol, design: SurveyDesign, records):
        records = tuple(records)
        if len(records) != design.n_sites:
            raise ValueError(
                f"dataset has {len(records)} site records "
                f"but the design declares {design.n_sites} sites"
            )
        for i, rec in enumerate(records):
            if rec.site != i:
                raise ValueError(f"site record labelled {rec.site} found in position {i}")
            if rec.counts.shape[0] != design.n_occasions:
                raise ValueError(
                    f"counts must have length {design.n_occasions}, got {rec.counts.shape[0]}"
                )
        times = [t for rec in records for t in rec.times]
        sizes = np.reshape([t.size for t in times], (design.n_sites, design.n_occasions))
        self._assign_columns(protocol, design, [rec.counts for rec in records], sizes, np.concatenate(times))

    @classmethod
    def from_arrays(
        cls, protocol: Protocol, design: SurveyDesign, counts, times_per_cell=None, times_flat=()
    ) -> "Dataset":
        """Build a dataset straight from (copies of) its columns; by default no times."""
        if times_per_cell is None:
            times_per_cell = np.zeros(np.shape(counts), dtype=np.int64)
        ds = object.__new__(cls)
        ds._assign_columns(protocol, design, counts, times_per_cell, times_flat)
        return ds

    def _assign_columns(self, protocol, design, counts, times_per_cell, times_flat) -> None:
        counts = _readonly(np.array(counts, dtype=np.int64))
        times_per_cell = _readonly(np.array(times_per_cell, dtype=np.int64))
        times_flat = _readonly(np.array(times_flat, dtype=float))
        shape = (design.n_sites, design.n_occasions)
        if counts.shape != shape or times_per_cell.shape != shape:
            raise ValueError(
                f"counts and times_per_cell must have shape {shape}, "
                f"got {counts.shape} and {times_per_cell.shape}"
            )
        if np.any(times_per_cell < 0) or times_flat.shape != (times_per_cell.sum(),):
            raise ValueError("times_per_cell must be nonnegative and sum to the number of times")
        _assign(self, protocol=protocol, design=design, counts=counts)
        _assign(self, times_per_cell=times_per_cell, times_flat=times_flat)

    @property
    def n_sites(self) -> int:
        return self.design.n_sites

    @property
    def n_occasions(self) -> int:
        return self.design.n_occasions

    @functools.cached_property
    def times_start(self) -> np.ndarray:
        """(R, J) offset of each cell's first time in ``times_flat``."""
        ends = np.cumsum(self.times_per_cell.ravel())
        return _readonly((ends - self.times_per_cell.ravel()).reshape(self.times_per_cell.shape))

    @functools.cached_property
    def records(self) -> tuple[SiteRecord, ...]:
        """One SiteRecord per site whose arrays are read-only views of the columns."""
        cells = np.split(self.times_flat, self.times_start.ravel()[1:])
        j = self.n_occasions
        return tuple(
            _assign(object.__new__(SiteRecord), site=i, counts=row, times=tuple(cells[i * j : (i + 1) * j]))
            for i, row in enumerate(self.counts)
        )

    @functools.cached_property
    def faults(self) -> tuple[tuple[Violation, ...], np.ndarray]:
        """``record_faults`` of this dataset, scanned once for its life."""
        return record_faults(self)

    @functools.cached_property
    def site_data(self):
        """Data-only arrays the likelihood kernels read, built on first use.

        A record the protocol's density cannot score raises here, on every
        access until the data are fixed; a successful pass is kept for the
        life of the dataset, which is immutable.
        """
        from .likelihood import data_pass  # that module imports this one

        return data_pass(self)


@dataclass(frozen=True)
class Violation:
    """One validation failure, with site/occasion coordinates where they apply."""

    message: str
    site: int | None = None
    occasion: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.site is not None:
            where = f" at site {self.site}"
            if self.occasion is not None:
                where += f" occasion {self.occasion}"
        return self.message + where


def _broadcast(coef: np.ndarray, covariates, shape: tuple, mismatch: str, refused: str) -> np.ndarray:
    """One parameter or the search times over ``shape``, (R,) or (R, J), by the layout
    rule of ``Parameterization``. ValueError: ``mismatch`` for covariates of another leading
    shape, ``refused`` (formatted with R, J, ``shape``) for other coefficients."""
    if covariates is not None:
        if covariates.shape[: len(shape)] != shape:
            raise ValueError(mismatch)
        return covariates @ coef
    if coef.size == 1:
        coef = coef.reshape(())
    elif coef.shape != shape[len(shape) - coef.ndim :]:
        raise ValueError(refused.format(*shape, shape=coef.shape))
    return np.full(shape, coef)


def _pull_back(coef: np.ndarray, covariates, d: np.ndarray) -> np.ndarray:
    """Transpose of ``_broadcast``: derivatives ``d`` over the resolved shape as
    a flat gradient over ``coef``."""
    if covariates is not None:
        return np.tensordot(d, covariates, axes=d.ndim)  # over the site (and occasion) axes
    kept = 0 if coef.size == 1 else coef.ndim  # a size-1 array is a scalar: its total
    return d.sum(axis=tuple(range(d.ndim - kept))).ravel()


@dataclass(frozen=True, eq=False)
class Parameterization:
    """Model parameters on the log scale, optionally through design matrices.

    One rule maps the coefficients to the per-site log abundance (R,) and
    per-cell log rate (R, J), and ``free_gradient`` is its transpose. With
    ``site_covariates`` X of shape (R, p), ``log_lambda`` holds the p
    coefficients of the log-linear predictor X @ beta; likewise
    ``rate_covariates`` Z of shape (R, J, q) makes ``log_rate`` a length-q
    coefficient vector. Otherwise the coefficients broadcast over the leading
    axes they lack, a size-1 array counting as a scalar: ``log_lambda`` is a
    scalar or a length-R vector, ``log_rate`` a scalar, a length-J vector or
    an (R, J) matrix.

    Entries may be -inf (a zero rate or abundance boundary, useful when
    simulating) but never NaN or +inf.
    """

    log_lambda: np.ndarray
    log_rate: np.ndarray
    site_covariates: np.ndarray | None = None
    rate_covariates: np.ndarray | None = None

    def __init__(self, log_lambda, log_rate, site_covariates=None, rate_covariates=None):
        ll = np.asarray(log_lambda, dtype=float).copy()
        lr = np.asarray(log_rate, dtype=float).copy()
        for name, arr in (("log_lambda", ll), ("log_rate", lr)):
            if np.any(np.isnan(arr)) or np.any(arr == np.inf):
                raise ValueError(f"{name} entries must not be NaN or +inf")
        x = None if site_covariates is None else np.asarray(site_covariates, dtype=float).copy()
        z = None if rate_covariates is None else np.asarray(rate_covariates, dtype=float).copy()
        if x is not None:
            if x.ndim != 2:
                raise ValueError("site_covariates must be a (n_sites, p) matrix")
            if ll.ndim != 1 or ll.shape[0] != x.shape[1]:
                raise ValueError(
                    f"log_lambda must hold {x.shape[1]} coefficients to match site_covariates"
                )
            x = _readonly(x)
        if z is not None:
            if z.ndim != 3:
                raise ValueError("rate_covariates must be a (n_sites, n_occasions, q) array")
            if lr.ndim != 1 or lr.shape[0] != z.shape[2]:
                raise ValueError(
                    f"log_rate must hold {z.shape[2]} coefficients to match rate_covariates"
                )
            z = _readonly(z)
        _assign(self, log_lambda=_readonly(ll), log_rate=_readonly(lr), site_covariates=x, rate_covariates=z)
        # resolved unit coefficient vectors by design shape, shared with every
        # parameterization ``with_free_values`` derives (see ``free_hessian``)
        _assign(self, _units={})

    def resolve(self, design: SurveyDesign) -> tuple[np.ndarray, np.ndarray]:
        """Per-site log abundance (R,) and per-cell log rate (R, J)."""
        r, j = design.n_sites, design.n_occasions
        lam = _broadcast(self.log_lambda, self.site_covariates, (r,),
                         "site_covariates row count does not match the design",
                         "log_lambda must be scalar or length {0}, got shape {shape}")
        rate = _broadcast(self.log_rate, self.rate_covariates, (r, j),
                          "rate_covariates leading shape does not match the design",
                          "log_rate must be scalar, length {1}, or shape ({0}, {1}); got shape {shape}")
        return lam, rate

    def free_gradient(self, d_log_lambda: np.ndarray, d_log_rate: np.ndarray) -> np.ndarray:
        """Chain rule back through ``resolve``: derivatives with respect to the
        per-site log abundance (R,) and per-cell log rate (R, J) as a gradient
        over the free coefficients, in ``free_values()`` order."""
        lam = _pull_back(self.log_lambda, self.site_covariates, d_log_lambda)
        return np.concatenate([lam, _pull_back(self.log_rate, self.rate_covariates, d_log_rate)])

    def free_hessian(self, design: SurveyDesign, hess: np.ndarray) -> np.ndarray:
        """Chain rule back through ``resolve`` for per-site Hessians (R, 1 + J,
        1 + J) over (log abundance, log rate_1, ..., log rate_J): the (k, k)
        Hessian over the free coefficients. ``resolve`` is linear in them, so
        column c is ``free_gradient`` of each site's Hessian applied to the
        resolved unit coefficient vector c. Those vectors depend only on the
        coefficient layout, the covariates and the design's shape, so they
        are resolved once for this parameterization and every one derived
        from it by ``with_free_values``."""
        shape = (design.n_sites, design.n_occasions)
        if shape not in self._units:
            resolved = (self.with_free_values(unit).resolve(design) for unit in np.eye(self.n_free))
            self._units[shape] = [np.concatenate([ll[:, None], lr], axis=1)[:, :, None] for ll, lr in resolved]
        along = (hess @ unit for unit in self._units[shape])
        out = np.column_stack([self.free_gradient(a[:, 0, 0], a[:, 1:, 0]) for a in along])
        return 0.5 * (out + out.T)

    # --- flat coefficient vector view, used by the fitting routines ---

    def free_values(self) -> np.ndarray:
        return np.concatenate([self.log_lambda.ravel(), self.log_rate.ravel()])

    def with_free_values(self, x: np.ndarray) -> "Parameterization":
        x = np.asarray(x, dtype=float)
        n_lam = self.log_lambda.size
        ll, lr = x[:n_lam].reshape(self.log_lambda.shape), x[n_lam:].reshape(self.log_rate.shape)
        derived = Parameterization(ll, lr, self.site_covariates, self.rate_covariates)
        return _assign(derived, _units=self._units)

    @property
    def n_free(self) -> int:
        return self.log_lambda.size + self.log_rate.size


def record_faults(dataset: Dataset) -> tuple[tuple[Violation, ...], np.ndarray]:
    """Check every cell's recorded values against the protocol's support.

    Returns one Violation per faulty cell, in site and occasion order (the
    scan does not stop at the first), and the read-only flat (R*J,) mask of
    the clean cells whose last detection time equals the search time. A
    cell's first failing check among a negative count, a binary response
    above 1, a times length that does not match the count and a time that
    is not positive and finite ends that cell's scan; unsorted times and a
    time past the search window are both reported. A first detection time
    at the end of the window is a fault when the cell has later detections
    to place, since those have no time left.
    """
    family, design = dataset.protocol.family, dataset.design
    j_total = design.n_occasions
    y, size = dataset.counts.ravel(), dataset.times_per_cell.ravel()
    if family.records_all_times:
        want = y
    elif family.records_first_time:
        want = np.minimum(y, 1)
    else:
        want = np.zeros_like(y)
    negative = y < 0
    out_of_range = ~negative & (y > 1) if family.is_binary else np.zeros_like(negative)
    bad_size = ~negative & ~out_of_range & (size != want)
    timed = ~negative & ~out_of_range & ~bad_size & (size > 0)

    # per-time checks, gathered to their cells; comparisons stay quiet on NaN
    t, t_max = dataset.times_flat, design.search_time.ravel()
    cell = np.repeat(np.arange(y.size), size)
    first, last = np.diff(cell, prepend=-1) != 0, np.diff(cell, append=-1) != 0

    def any_in_cell(per_time: np.ndarray) -> np.ndarray:
        return np.bincount(cell[per_time], minlength=y.size) > 0

    bad_value = timed & any_in_cell(~np.isfinite(t) | (t <= 0))
    timed &= ~bad_value
    unsorted = timed & any_in_cell(~first & (t < np.roll(t, 1)))
    exceeds = timed & any_in_cell(t > t_max[cell])
    edge = timed & ~exceeds & any_in_cell(last & (t == t_max[cell]))
    crowded = edge & (y > 1) if family.records_first_time else np.zeros_like(edge)

    faults = (
        (negative, "negative count"),
        (out_of_range, "binary response out of range"),
        (bad_size, None),
        (bad_value, "detection times must be positive and finite"),
        (unsorted, "detection times must be sorted ascending"),
        (exceeds, "detection time exceeds search time"),
        (crowded, "first detection time equals search time, leaving no room for later detections"),
    )
    found = sorted((c, k) for k, (mask, _) in enumerate(faults) for c in np.flatnonzero(mask).tolist())
    out: list[Violation] = []
    for c, k in found:
        message = faults[k][1] or f"times length != expected ({size[c]} recorded, {want[c]} required)"
        out.append(Violation(message, site=c // j_total, occasion=c % j_total))
    return tuple(out), _readonly(edge & ~crowded)


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """Check a dataset against its protocol: the visit count and every record.

    Returns an empty list when the dataset is clean; otherwise a visits
    mismatch, if any, followed by the ``record_faults`` violations, which
    are exactly the records ``total_loglik`` refuses to score. That scan is
    the dataset's cached ``faults``, so scoring the dataset afterwards does
    not repeat it. Detection times exactly at the end of the search window
    are otherwise legal but unusual, so they raise one EndOfWindowWarning
    per call instead.
    """
    proto = dataset.protocol
    j_total = dataset.design.n_occasions
    out: list[Violation] = []
    if proto.visits is not Protocol.for_design(proto.family, proto.process, j_total).visits:
        out.append(
            Violation(
                f"protocol declares {proto.visits.value} visits "
                f"but the design has {j_total} occasion(s)"
            )
        )
    faults, edge = dataset.faults
    out.extend(faults)
    if np.any(edge):
        c = int(np.flatnonzero(edge)[0])
        warnings.warn(EndOfWindowWarning(int(edge.sum()), c // j_total, c % j_total), stacklevel=2)
    return out
