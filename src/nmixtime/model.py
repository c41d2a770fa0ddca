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
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "ObservationProcess",
    "Visits",
    "Protocol",
    "SurveyDesign",
    "SiteRecord",
    "Dataset",
    "Parameterization",
    "SiteWorkspace",
    "Violation",
    "validate_dataset",
    "build_workspace",
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


@dataclass(frozen=True)
class SurveyDesign:
    """Site-by-occasion layout with known search times.

    ``search_time`` accepts a scalar (all cells equal), a length-J vector
    (shared across sites), or a full (R, J) matrix; it is stored as the
    full matrix. All entries must be positive and finite.
    """

    n_sites: int
    n_occasions: int
    search_time: np.ndarray

    def __init__(self, n_sites: int, n_occasions: int, search_time):
        if n_sites < 1 or n_occasions < 1:
            raise ValueError("design needs at least one site and one occasion")
        t = np.asarray(search_time, dtype=float)
        if t.ndim == 0:
            t = np.full((n_sites, n_occasions), float(t))
        elif t.ndim == 1:
            if t.shape[0] != n_occasions:
                raise ValueError(
                    f"per-occasion search times must have length {n_occasions}, got {t.shape[0]}"
                )
            t = np.tile(t, (n_sites, 1))
        elif t.shape != (n_sites, n_occasions):
            raise ValueError(
                f"search time matrix must have shape ({n_sites}, {n_occasions}), got {t.shape}"
            )
        else:
            t = t.copy()
        if not np.all(np.isfinite(t)) or np.any(t <= 0):
            raise ValueError("search times must be positive and finite")
        object.__setattr__(self, "n_sites", int(n_sites))
        object.__setattr__(self, "n_occasions", int(n_occasions))
        object.__setattr__(self, "search_time", _readonly(t))


@dataclass(frozen=True)
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
        object.__setattr__(self, "site", int(site))
        object.__setattr__(self, "counts", _readonly(y))
        object.__setattr__(self, "times", ts)


@dataclass(frozen=True)
class Dataset:
    protocol: Protocol
    design: SurveyDesign
    records: tuple[SiteRecord, ...]

    def __init__(self, protocol: Protocol, design: SurveyDesign, records):
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "records", tuple(records))

    @property
    def n_sites(self) -> int:
        return self.design.n_sites

    @property
    def n_occasions(self) -> int:
        return self.design.n_occasions

    def counts_matrix(self) -> np.ndarray:
        return np.vstack([r.counts for r in self.records])

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


@dataclass(frozen=True)
class Parameterization:
    """Model parameters on the log scale, optionally through design matrices.

    Without covariates, ``log_lambda`` is a scalar (shared across sites) or a
    length-R vector, and ``log_rate`` is a scalar or an (R, J) matrix. With
    ``site_covariates`` X of shape (R, p), ``log_lambda`` holds the p
    coefficients of the log-linear predictor X @ beta; likewise
    ``rate_covariates`` Z of shape (R, J, q) makes ``log_rate`` a length-q
    coefficient vector.

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
        object.__setattr__(self, "log_lambda", _readonly(ll))
        object.__setattr__(self, "log_rate", _readonly(lr))
        object.__setattr__(self, "site_covariates", x)
        object.__setattr__(self, "rate_covariates", z)

    def resolve(self, design: SurveyDesign) -> tuple[np.ndarray, np.ndarray]:
        """Per-site log abundance (R,) and per-cell log rate (R, J)."""
        r, j = design.n_sites, design.n_occasions
        if self.site_covariates is not None:
            if self.site_covariates.shape[0] != r:
                raise ValueError("site_covariates row count does not match the design")
            ll = self.site_covariates @ self.log_lambda
        elif self.log_lambda.ndim == 0:
            ll = np.full(r, float(self.log_lambda))
        elif self.log_lambda.shape == (r,):
            ll = self.log_lambda.copy()
        elif self.log_lambda.size == 1:
            ll = np.full(r, float(self.log_lambda.reshape(())))
        else:
            raise ValueError(
                f"log_lambda must be scalar or length {r}, got shape {self.log_lambda.shape}"
            )
        if self.rate_covariates is not None:
            if self.rate_covariates.shape[:2] != (r, j):
                raise ValueError("rate_covariates leading shape does not match the design")
            lr = self.rate_covariates @ self.log_rate
        elif self.log_rate.ndim == 0:
            lr = np.full((r, j), float(self.log_rate))
        elif self.log_rate.shape == (r, j):
            lr = self.log_rate.copy()
        elif self.log_rate.size == 1:
            lr = np.full((r, j), float(self.log_rate.reshape(())))
        elif self.log_rate.shape == (j,):
            lr = np.tile(self.log_rate, (r, 1))
        else:
            raise ValueError(
                f"log_rate must be scalar, length {j}, or shape ({r}, {j}); "
                f"got shape {self.log_rate.shape}"
            )
        return ll, lr

    # --- flat coefficient vector view, used by the fitting routines ---

    def free_values(self) -> np.ndarray:
        return np.concatenate([np.atleast_1d(self.log_lambda).ravel(), np.atleast_1d(self.log_rate).ravel()])

    def with_free_values(self, x: np.ndarray) -> "Parameterization":
        x = np.asarray(x, dtype=float)
        n_lam = np.atleast_1d(self.log_lambda).size
        ll = x[:n_lam].reshape(np.atleast_1d(self.log_lambda).shape)
        lr = x[n_lam:].reshape(np.atleast_1d(self.log_rate).shape)
        if self.log_lambda.ndim == 0:
            ll = ll.reshape(())
        if self.log_rate.ndim == 0:
            lr = lr.reshape(())
        return Parameterization(ll, lr, self.site_covariates, self.rate_covariates)

    @property
    def n_free(self) -> int:
        return self.free_values().size


@dataclass(frozen=True)
class SiteWorkspace:
    """Per-site quantities shared by the likelihood kernels.

    Exposure here means rate * time: the expected number of detection
    events per individual over a window. Detection occasions are those
    with at least one detection.
    """

    site: int
    counts: np.ndarray
    times: tuple[np.ndarray, ...]
    search_time: np.ndarray            # (J,)
    log_rate: np.ndarray               # (J,) log of per-occasion hazard / event rate
    rate: np.ndarray                   # (J,)
    detect_prob: np.ndarray            # (J,) 1 - exp(-rate * T), binomial thinning probability
    max_count: int                     # largest single-occasion count: no fewer animals than that
    total_count: int
    undetected_exposure: float         # sum of rate * T over occasions with no detection
    detected_exposures: np.ndarray     # rate * T per detection occasion, in occasion order
    time_exposure: float | None        # rate * first-time over detections + rate * T elsewhere
    log_lambda: float

    def __post_init__(self):
        for name in ("counts", "search_time", "log_rate", "rate", "detect_prob", "detected_exposures"):
            arr = getattr(self, name)
            if arr.flags.writeable:
                object.__setattr__(self, name, _readonly(np.asarray(arr)))


def _workspace_from_rows(
    record: SiteRecord,
    search_row: np.ndarray,
    log_rate_row: np.ndarray,
    log_lambda: float,
) -> SiteWorkspace:
    y = record.counts
    rate = np.exp(log_rate_row)
    exposure = rate * search_row
    detect_prob = -np.expm1(-exposure)
    detected = y > 0
    undetected_exposure = float(exposure[~detected].sum())
    detected_exposures = exposure[detected]

    time_exposure: float | None = float(undetected_exposure)
    for j in np.flatnonzero(detected):
        tj = record.times[j]
        if tj.size == 0:
            time_exposure = None
            break
        time_exposure += float(rate[j]) * float(tj[0])

    return SiteWorkspace(
        site=record.site,
        counts=y,
        times=record.times,
        search_time=search_row,
        log_rate=log_rate_row,
        rate=rate,
        detect_prob=detect_prob,
        max_count=int(y.max()) if y.size else 0,
        total_count=int(y.sum()),
        undetected_exposure=undetected_exposure,
        detected_exposures=detected_exposures,
        time_exposure=time_exposure,
        log_lambda=float(log_lambda),
    )


def build_workspace(dataset: Dataset, params: Parameterization, site: int) -> SiteWorkspace:
    """Assemble the derived per-site quantities the kernels work from."""
    if not 0 <= site < dataset.n_sites:
        raise IndexError(f"site index {site} out of range for {dataset.n_sites} sites")
    log_lambda_vec, log_rate_mat = params.resolve(dataset.design)
    return _workspace_from_rows(
        dataset.records[site],
        dataset.design.search_time[site],
        log_rate_mat[site],
        float(log_lambda_vec[site]),
    )


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """Check structural integrity of a dataset against its protocol.

    Returns an empty list when the dataset is clean; otherwise one
    Violation per problem found (the scan does not stop at the first).
    Detection times exactly at the end of the search window are legal but
    unusual, so they raise a warning rather than a violation.
    """
    out: list[Violation] = []
    proto, design = dataset.protocol, dataset.design
    j_total = design.n_occasions

    expected_visits = Visits.SINGLE if j_total == 1 else Visits.MULTIPLE
    if proto.visits is not expected_visits:
        out.append(
            Violation(
                f"protocol declares {proto.visits.value} visits "
                f"but the design has {j_total} occasion(s)"
            )
        )

    if len(dataset.records) != design.n_sites:
        out.append(
            Violation(
                f"dataset has {len(dataset.records)} site records "
                f"but the design declares {design.n_sites} sites"
            )
        )

    for i, rec in enumerate(dataset.records):
        if rec.site != i:
            out.append(Violation(f"site record labelled {rec.site} found in position {i}", site=i))
        y = rec.counts
        if y.shape[0] != j_total:
            out.append(Violation(f"counts must have length {j_total}, got {y.shape[0]}", site=i))
            continue
        if len(rec.times) != j_total:
            out.append(Violation("times must have one entry per occasion", site=i))
            continue
        for j in range(j_total):
            yj = int(y[j])
            tj = rec.times[j]
            t_max = float(design.search_time[i, j])
            if yj < 0:
                out.append(Violation("negative count", site=i, occasion=j))
                continue
            if proto.family.is_binary and yj not in (0, 1):
                out.append(Violation("binary response out of range", site=i, occasion=j))
                continue
            if proto.family.records_all_times:
                want = yj
            elif proto.family.records_first_time:
                want = min(yj, 1)
            else:
                want = 0
            if tj.size != want:
                out.append(
                    Violation(
                        f"times length != expected ({tj.size} recorded, {want} required)",
                        site=i,
                        occasion=j,
                    )
                )
                continue
            if tj.size:
                if np.any(~np.isfinite(tj)) or np.any(tj <= 0):
                    out.append(Violation("detection times must be positive and finite", site=i, occasion=j))
                    continue
                if np.any(np.diff(tj) < 0):
                    out.append(Violation("detection times must be sorted ascending", site=i, occasion=j))
                if np.any(tj > t_max):
                    out.append(Violation("detection time exceeds search time", site=i, occasion=j))
                elif tj[-1] == t_max:
                    warnings.warn(
                        f"detection time equals search time at site {i} occasion {j}",
                        stacklevel=2,
                    )
    return out
