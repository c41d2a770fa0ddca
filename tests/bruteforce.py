"""Independent brute-force reference likelihoods for the test suite.

Everything here is computed from first principles with scipy building
blocks: conditional densities given abundance n are assembled from
binom/poisson log-pmfs and elementary exponential-arrival formulas, then
mixed over a wide fixed Poisson grid with logsumexp. No adaptive
truncation, no shared code with the package kernels. Values are exact
joint log densities (the include_constants=True convention):

  * Count-with-times records are densities of the unordered time multiset,
    so no y! factor appears for CountT.
  * CountT1 carries the combinatorial y factor (the first of y detections
    can be any of them).
  * Poisson-process time variants are the usual point-process likelihoods.

``binary_subset_log_density`` is the one reference that is not a sum over
n: it scores a binary history by the signed subset expansion instead.

``reference_load_dataset`` is the row-wise CSV reader: csv rows and
Python's int/float on every value, with no bulk parse.

Deliberately slow and transparent; keep instance sizes small.
"""
from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import binom, poisson

from nmixtime.errors import DataFormatError
from nmixtime.model import Dataset, Family, ObservationProcess, Protocol, SurveyDesign


def _log_diff_exp(a: float, b: float) -> float:
    """log(e^a - e^b) for a > b."""
    if b == -math.inf:
        return a
    return a + math.log1p(-math.exp(b - a))


def occasion_log_density_binomial(
    family: Family, y: int, t: np.ndarray, h: float, t_max: float, n: int
) -> float:
    """log f(one occasion's record | n) under per-individual exponential arrivals."""
    exposure = h * t_max
    if family is Family.BINARY:
        if y == 0:
            return -n * exposure
        return -math.inf if n == 0 else math.log(-math.expm1(-n * exposure))
    if family is Family.BINARY_T1:
        if y == 0:
            return -n * exposure
        if n == 0:
            return -math.inf
        return math.log(n * h) - n * h * float(t[0])
    if family is Family.COUNT:
        p = -math.expm1(-exposure)
        return float(binom.logpmf(y, n, p))
    if family is Family.COUNT_T:
        if y > n:
            return -math.inf
        choose = math.lgamma(n + 1) - math.lgamma(n - y + 1) - math.lgamma(y + 1)
        return choose + y * math.log(h) - h * float(np.sum(t)) - exposure * (n - y)
    # COUNT_T1: one of n individuals arrives first at t1, y-1 more of the
    # remaining n-1 arrive in (t1, t_max], the rest never do.
    if y == 0:
        return -n * exposure
    if y > n:
        return -math.inf
    t1 = float(t[0])
    log_between = _log_diff_exp(-h * t1, -exposure)
    choose = math.lgamma(n) - math.lgamma(n - y + 1) - math.lgamma(y)
    return (
        math.log(n * h)
        - h * t1
        + choose
        + (y - 1) * log_between
        - exposure * (n - y)
    )


def occasion_log_density_poisson(
    family: Family, y: int, t: np.ndarray, h: float, t_max: float, n: int
) -> float:
    """log f(one occasion's record | n) when each individual emits a Poisson stream."""
    mu = n * h * t_max
    if family is Family.BINARY:
        if y == 0:
            return -mu
        return -math.inf if mu == 0.0 else math.log(-math.expm1(-mu))
    if family is Family.BINARY_T1:
        if y == 0:
            return -mu
        if n == 0:
            return -math.inf
        return math.log(n * h) - n * h * float(t[0])
    if family is Family.COUNT:
        return float(poisson.logpmf(y, mu))
    if family is Family.COUNT_T:
        if y == 0:
            return -mu
        if n == 0:
            return -math.inf
        return y * math.log(n * h) - mu
    # COUNT_T1: first event at t1, then y-1 events anywhere in (t1, t_max].
    if y == 0:
        return -mu
    if n == 0:
        return -math.inf
    t1 = float(t[0])
    rest = float(poisson.logpmf(y - 1, n * h * (t_max - t1)))
    return math.log(n * h) - n * h * t1 + rest


def site_log_density(
    family: Family,
    process: ObservationProcess,
    counts,
    times,
    search_time,
    rate,
    lam: float,
    n_hi: int | None = None,
) -> float:
    """Exact log joint density of one site's records, mixed over n ~ Poisson(lam)."""
    counts = np.asarray(counts, dtype=np.int64)
    search_time = np.asarray(search_time, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if times is None:
        times = tuple(np.empty(0) for _ in counts)
    occasion_fn = (
        occasion_log_density_binomial
        if process is ObservationProcess.BINOMIAL_COUNT
        else occasion_log_density_poisson
    )
    if n_hi is None:
        n_hi = int(counts.max(initial=0) + math.ceil(lam + 20.0 * math.sqrt(lam)) + 80)
    terms = np.empty(n_hi + 1)
    for n in range(n_hi + 1):
        acc = float(poisson.logpmf(n, lam))
        for j in range(counts.size):
            if acc == -math.inf:
                break
            acc += occasion_fn(
                family, int(counts[j]), times[j], float(rate[j]), float(search_time[j]), n
            )
        terms[n] = acc
    return float(logsumexp(terms))


def binary_subset_log_density(counts, search_time, rate, lam: float) -> float:
    """Exact log probability of a binary history by inclusion-exclusion.

    P = sum over subsets S of the detecting occasions of
    (-1)^|S| exp(-lam (1 - exp(-U - sum_{j in S} w_j))), with w_j = rate_j T_j
    and U the exposure of the undetected occasions (Royle & Nichols 2003).
    The signed terms cancel, so keep to d <= 12 detections and rates and
    abundances near 1, where the exact sum of rounded terms stays accurate.
    """
    counts = np.asarray(counts)
    exposure = np.asarray(rate, dtype=float) * np.asarray(search_time, dtype=float)
    w = exposure[counts > 0]
    if w.size > 12:
        raise ValueError(f"{w.size} detections: too many for the subset expansion")
    undetected = float(exposure[counts == 0].sum())
    terms = []
    for k in range(w.size + 1):
        for subset in itertools.combinations(w, k):
            terms.append((-1) ** k * math.exp(-lam * -math.expm1(-undetected - sum(subset))))
    return math.log(math.fsum(terms))


def tilted_mean(log_terms, values) -> float:
    """sum_n t_n v_n / sum_n t_n for terms given as log t_n, summed directly.

    This is the derivative of log sum_n t_n along a parameter whose
    derivative of log t_n is v_n.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    # both sums over the same weights: a log-sum of size L, rounded, would
    # scale weights normalised by it by 1 + eps * L
    weights = np.exp(log_terms - np.max(log_terms))
    return float(np.sum(weights * np.asarray(values, dtype=float)) / np.sum(weights))


def series_window(mode: float, sd: float, start: int) -> np.ndarray:
    """Every index n >= start within 40 standard deviations of the mode: a
    fixed window wide enough that a direct sum over it is the whole series."""
    return np.arange(max(start, math.floor(mode - 40.0 * sd)), math.ceil(mode + 40.0 * sd) + 1, dtype=float)


def raw_moment_log_terms(m: int, mu: float, n: np.ndarray) -> np.ndarray:
    """log(n^m e^{-mu} mu^n / n!): the terms of Dobinski's E[N^m], N ~ Poisson(mu)."""
    return m * np.log(n) + n * math.log(mu) - gammaln(n + 1.0) - mu


def detection_log_terms(w, mu: float, n: np.ndarray) -> np.ndarray:
    """log(Poi(n; mu) prod_j (1 - e^{-n w_j})): the terms of E[prod_j (1 - e^{-N w_j})]."""
    detect = sum(np.log(-np.expm1(-n * x)) for x in w)
    return detect + n * math.log(mu) - gammaln(n + 1.0) - mu


def pfq_log_terms(a, b, z: float, n: np.ndarray) -> np.ndarray:
    """log(prod (a)_n / prod (b)_n z^n / n!): the terms of pFq(a; b; z).

    The sorted upper and lower parameters go in pairs, whose log-gammas at
    large n cancel pair by pair with their rounding."""
    pairs = zip(sorted(a), sorted(b))
    rising = sum(gammaln(x + n) - gammaln(y + n) - gammaln(x) + gammaln(y) for x, y in pairs)
    return rising + n * math.log(z) - gammaln(n + 1.0)


def dataset_log_density(dataset, params, n_hi: int | None = None) -> np.ndarray:
    """Per-site exact log densities for a whole dataset (constants included)."""
    log_lam, log_rate = params.resolve(dataset.design)
    out = np.empty(dataset.design.n_sites)
    for i, rec in enumerate(dataset.records):
        out[i] = site_log_density(
            dataset.protocol.family,
            dataset.protocol.process,
            rec.counts,
            rec.times if dataset.protocol.family.records_times else None,
            dataset.design.search_time[i],
            np.exp(log_rate[i]),
            float(np.exp(log_lam[i])),
            n_hi=n_hi,
        )
    return out


FD_REL_STEP = 1e-4


def finite_difference_hessian(f, x, f0: float | None = None) -> np.ndarray:
    """Central finite-difference Hessian of the value f at x, step relative to |x|.

    ``f0`` is f(x) when the caller already has it. Its rounding noise is of
    order eps * |f| / step^2."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = FD_REL_STEP * np.maximum(1.0, np.abs(x))
    hess = np.empty((k, k))
    if f0 is None:
        f0 = f(x)
    for a in range(k):
        ea = np.zeros(k)
        ea[a] = h[a]
        hess[a, a] = (f(x + ea) - 2.0 * f0 + f(x - ea)) / h[a] ** 2
        for b in range(a + 1, k):
            eb = np.zeros(k)
            eb[b] = h[b]
            quad = f(x + ea + eb) - f(x + ea - eb) - f(x - ea + eb) + f(x - ea - eb)
            hess[a, b] = hess[b, a] = quad / (4.0 * h[a] * h[b])
    return hess


def score_difference_hessian(grad, x, step: float = 1e-5) -> np.ndarray:
    """Symmetrised central differences of the gradient ``grad`` at x, an
    absolute step along each coordinate."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, x.size))
    for c in range(x.size):
        e = np.zeros(x.size)
        e[c] = step
        out[:, c] = (grad(x + e) - grad(x - e)) / (2.0 * step)
    return 0.5 * (out + out.T)


def _reference_columns(path: Path, required: list[str]) -> tuple[list[list], list[int]]:
    """The required columns of a CSV file, by name, and the line on which
    each row ends; blank lines are skipped and a short row reads None for its
    missing fields."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            numbered = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    missing = [c for c in required if c not in header]
    if missing:
        raise DataFormatError(f"{path}: missing column(s) {', '.join(missing)}")
    where = {name: k for k, name in enumerate(header)}
    rows = [row + [None] * (len(header) - len(row)) for _, row in numbered]
    return [[row[where[c]] for row in rows] for c in required], [line for line, _ in numbered]


def _reference_parse(values: list, kind) -> tuple[np.ndarray, np.ndarray]:
    out = np.zeros(len(values), dtype=np.int64 if kind is int else np.float64)
    bad = np.zeros(len(values), dtype=bool)
    for k, v in enumerate(values):
        try:
            out[k] = kind(v)
        except (TypeError, ValueError, OverflowError):
            bad[k] = True
    return out, bad


def _reference_raise_first(path: Path, lines: list[int], checks: list) -> None:
    """Raise for the earliest row failing a check, checks tried in order."""
    for row, line in enumerate(lines):
        for mask, message in checks:
            if mask[row]:
                text = message if isinstance(message, str) else message(row)
                raise DataFormatError(f"{path} line {line}: {text}")


def _reference_cells(site: list, occasion: list) -> tuple[np.ndarray, np.ndarray, list]:
    (i, bad_i), (j, bad_j) = _reference_parse(site, int), _reference_parse(occasion, int)
    return i - 1, j - 1, [
        (bad_i | bad_j, "non-integer site/occasion"),
        ((i < 1) | (j < 1), "site and occasion are 1-based"),
    ]


def reference_load_dataset(
    counts_path, times_path=None, *, family: Family, process: ObservationProcess
) -> Dataset:
    """``nmixtime.datafiles.load_dataset`` done row by row: the same Dataset,
    or the same DataFormatError text."""
    if times_path is not None and not Path(times_path).exists():
        raise DataFormatError(f"cannot read {times_path}: no such file")
    counts_path = Path(counts_path)
    (site, occasion, search_col, count_col), lines = _reference_columns(
        counts_path, ["site", "occasion", "search_time", "count"]
    )
    n = len(site)
    if not n:
        raise DataFormatError(f"{counts_path}: no data rows")
    i, j, checks = _reference_cells(site, occasion)
    (t, bad_t), (y, bad_y) = _reference_parse(search_col, float), _reference_parse(count_col, int)
    seen: set = set()
    repeat = np.zeros(n, dtype=bool)
    for r, key in enumerate(zip(i.tolist(), j.tolist())):
        repeat[r] = key in seen
        seen.add(key)
    checks.append((bad_t | bad_y, "bad search_time/count value"))
    checks.append((repeat, lambda r: f"duplicate cell site {i[r] + 1} occasion {j[r] + 1}"))
    _reference_raise_first(counts_path, lines, checks)
    n_sites, n_occ = int(i.max()) + 1, int(j.max()) + 1
    if n != n_sites * n_occ:
        raise DataFormatError(
            f"{counts_path}: expected a complete {n_sites} x {n_occ} grid, found {n} distinct cells"
        )
    search = np.empty((n_sites, n_occ))
    counts = np.empty((n_sites, n_occ), dtype=np.int64)
    search[i, j], counts[i, j] = t, y
    sizes = np.zeros((n_sites, n_occ), dtype=np.int64)
    flat: list[float] = []
    if times_path is not None:
        times_path = Path(times_path)
        (t_site, t_occ, index_col, time_col), lines = _reference_columns(
            times_path, ["site", "occasion", "detection_index", "time"]
        )
        ti, tj, checks = _reference_cells(t_site, t_occ)
        (d, bad_d), (times, bad_time) = _reference_parse(index_col, int), _reference_parse(time_col, float)
        checks.append((bad_d | bad_time, "bad detection_index/time value"))
        checks.append((
            (ti >= n_sites) | (tj >= n_occ),
            lambda r: f"site {ti[r] + 1} occasion {tj[r] + 1} not present in the counts file",
        ))
        _reference_raise_first(times_path, lines, checks)
        by_cell: dict = {}
        for a, b, index, time in zip(ti.tolist(), tj.tolist(), d.tolist(), times.tolist()):
            by_cell.setdefault((a, b), []).append((index, time))
        for a, b in sorted(by_cell):
            entries = sorted(by_cell[a, b])
            indices = [index for index, _ in entries]
            if indices != list(range(1, len(entries) + 1)):
                raise DataFormatError(
                    f"detection_index values for site {a + 1} occasion {b + 1} "
                    f"must run 1..{len(indices)}, got {indices}"
                )
            sizes[a, b] = len(entries)
            flat.extend(time for _, time in entries)
    protocol = Protocol.for_design(family, process, n_occ)
    design = SurveyDesign(n_sites, n_occ, search)
    return Dataset.from_arrays(protocol, design, counts, sizes, flat)
