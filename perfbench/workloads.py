"""Inputs, operations and correctness checks of the three benchmark workloads.

Every input is drawn here from the run's seed with numpy and written as the
CSV files the CLI reads; the package only ever sees those inputs. Each
workload yields cycles of operations. An operation returns the output its
check needs; the check runs after the operation's timed span and returns
``None`` or the reason the output is wrong.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammaln

from nmixtime import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SimConfig,
    SiteRecord,
    SurveyDesign,
    oracle_site_loglik,
    oracle_total_loglik,
    simulate_dataset,
)
import nmixtime.cli
import nmixtime.likelihood
from nmixtime.datafiles import load_dataset

BINOMIAL = ObservationProcess.BINOMIAL_COUNT
POISSON = ObservationProcess.POISSON_PROCESS
PER_SITE_TOL = 1e-8


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class CliExit(Exception):
    """A CLI call returned a non-zero exit code."""

    def __init__(self, code: int, stderr: str):
        self.code = code
        self.label = f"exit{code}"
        super().__init__(f"exit {code}: {stderr.strip()[-300:]}")


def cli(argv: list[str]) -> None:
    """Run ``nmixtime.cli.main`` in this process, looked up at call time so
    tracing wrappers apply; its console output is swallowed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nmixtime.cli.main(argv)
    if code != 0:
        raise CliExit(code, err.getvalue())


# ---------------------------------------------------------------- inputs


def draw_survey(
    rng, family: Family, process, n_sites, n_occ, lam, rate, search_time=1.0, *, spread_n=False
) -> Dataset:
    """Draw one survey from the model's law with numpy alone.

    Abundance is Poisson(lam); each present individual is detected on an
    occasion after an Exp(rate) wait censored at the search time (binomial
    process), or emits a Poisson(rate * T) stream of events (poisson
    process). Binary occasions use 1 - exp(-n * rate * T). With
    ``spread_n`` the abundances are the Poisson quantiles at evenly spaced
    levels, in random site order, so the largest site varies little
    between seeds.
    """
    if spread_n:
        k = np.arange(int(lam + 12.0 * math.sqrt(lam) + 30.0))
        cdf = np.cumsum(np.exp(k * math.log(lam) - lam - gammaln(k + 1.0)))
        n = rng.permutation(np.searchsorted(cdf, (np.arange(n_sites) + 0.5) / n_sites))
    else:
        n = rng.poisson(lam, n_sites)
    t = float(search_time)
    exposure = rate * t
    p = -math.expm1(-exposure)
    empty = np.empty(0)
    times = [[empty] * n_occ for _ in range(n_sites)]
    nn = n[:, None] * np.ones((1, n_occ), dtype=np.int64)
    if family is Family.BINARY:
        counts = (rng.random((n_sites, n_occ)) < -np.expm1(-nn * exposure)).astype(np.int64)
    elif family is Family.BINARY_T1:
        with np.errstate(divide="ignore"):
            first = rng.exponential(1.0, (n_sites, n_occ)) / (nn * rate)
        counts = (first <= t).astype(np.int64)
        for i, j in zip(*np.nonzero(counts)):
            times[i][j] = np.array([first[i, j]])
    elif process is POISSON:
        counts = rng.poisson(nn * exposure)
    else:
        counts = rng.binomial(nn, p)
    if family is Family.COUNT_T1:
        # the first of y detection times, each Exp(rate) truncated to [0, T]
        u = rng.random((n_sites, n_occ))
        for i, j in zip(*np.nonzero(counts)):
            v = 1.0 - (1.0 - u[i, j]) ** (1.0 / counts[i, j])
            times[i][j] = np.array([-math.log1p(-v * p) / rate])
    protocol = Protocol.for_design(family, process, n_occ)
    records = [SiteRecord(i, counts[i], times[i]) for i in range(n_sites)]
    return Dataset(protocol, SurveyDesign(n_sites, n_occ, t), records)


def write_csv(dataset: Dataset, out_dir: Path) -> None:
    """counts.csv (and times.csv) in the CLI's long format."""
    out_dir.mkdir(parents=True, exist_ok=True)
    search = dataset.design.search_time
    rows = ["site,occasion,search_time,count"]
    trows = ["site,occasion,detection_index,time"]
    for rec in dataset.records:
        for j, y in enumerate(rec.counts):
            rows.append(f"{rec.site + 1},{j + 1},{float(search[rec.site, j])!r},{int(y)}")
            for d, tt in enumerate(rec.times[j]):
                trows.append(f"{rec.site + 1},{j + 1},{d + 1},{float(tt)!r}")
    (out_dir / "counts.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if dataset.protocol.family.records_times:
        (out_dir / "times.csv").write_text("\n".join(trows) + "\n", encoding="utf-8")


def model_name(dataset: Dataset) -> str:
    prefix = "P" if dataset.protocol.process is POISSON else ""
    return prefix + dataset.protocol.family.value


def write_params(path: Path, params: Parameterization) -> Path:
    path.write_text(
        json.dumps({"log_lambda": float(params.log_lambda), "log_rate": float(params.log_rate)}),
        encoding="utf-8",
    )
    return path


def truth(lam: float, rate: float) -> Parameterization:
    return Parameterization(math.log(lam), math.log(rate))


def check_sites(dataset, params, per_site, sites, *, include_constants=False) -> str | None:
    """Closed-form per-site values against the summation oracle."""
    for i in sites:
        want = oracle_site_loglik(dataset, params, int(i), include_constants=include_constants)
        got = float(per_site[i])
        if not abs(got - want) <= PER_SITE_TOL:
            return f"site {i}: loglik {got!r}, oracle {want!r}"
    return None


def check_total(total: float, per_site) -> str | None:
    if not abs(total - math.fsum(per_site)) <= PER_SITE_TOL * len(per_site):
        return f"total {total!r} is not the sum of the per-site values"
    return None


# ---------------------------------------------------------------- workloads


class FieldFit:
    """CLI ``fit`` on field surveys of ~200 sites, one per variant per cycle.

    Each cycle draws fresh surveys, so a run averages fit cost over several
    datasets; the number of cycles is fixed by the run length, not by how
    fast the fits go, so every run of one seed fits the same data.
    """

    SITES = 200
    LAMBDA, RATE = 3.0, 0.5
    VARIANTS = ((Family.COUNT, 4), (Family.COUNT_T1, 4), (Family.BINARY_T1, 4), (Family.BINARY, 8))
    SECONDS_PER_CYCLE = 15.0  # sets the fixed number of cycles from the run length

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.truth = truth(self.LAMBDA, self.RATE)

    def fixed_cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.SECONDS_PER_CYCLE))

    def _dataset(self, cycle: int, variant: int) -> Dataset:
        family, n_occ = self.VARIANTS[variant]
        rng = np.random.default_rng([self.seed, 1, cycle, variant])
        return draw_survey(rng, family, BINOMIAL, self.SITES, n_occ, self.LAMBDA, self.RATE)

    def cold_argv(self) -> list[list[str]]:
        ds = self._dataset(0, 0)
        d = self.work / "cold"
        write_csv(ds, d)
        params = write_params(self.work / "cold_params.json", self.truth)
        return [["loglik", "--data", str(d), "--model", model_name(ds), "--params", str(params),
                 "--out", str(d / "loglik.json")]]

    def cycle(self, cycle: int) -> list[Op]:
        ops = []
        for v in range(len(self.VARIANTS)):
            ds = self._dataset(cycle, v)
            d = self.work / f"fit_{cycle}_{v}"
            write_csv(ds, d)
            ops.append(self._fit_op(ds, d))
        return ops

    def _fit_op(self, ds: Dataset, d: Path) -> Op:
        out = d / "fit.json"
        argv = ["fit", "--data", str(d), "--model", model_name(ds), "--out", str(out)]
        truth_ll = oracle_total_loglik(ds, self.truth, include_constants=True)

        def run():
            cli(argv)
            return json.loads(out.read_text(encoding="utf-8"))

        def check(res) -> str | None:
            if not res["converged"]:
                return "fit did not converge"
            if not res["loglik"] >= truth_ll - 1e-6:
                return f"fit loglik {res['loglik']!r} is below the truth's {truth_ll!r}"
            est = Parameterization(res["estimates"]["log_lambda"], res["estimates"]["log_rate"])
            want = oracle_total_loglik(ds, est, include_constants=True)
            if not abs(res["loglik"] - want) <= PER_SITE_TOL * ds.n_sites:
                return f"fit loglik {res['loglik']!r}, oracle at the estimates {want!r}"
            return None

        return Op(ds.protocol.label, run, check)


class LargeSurvey:
    """CLI ``simulate`` then ``loglik --constants`` on 10^4 sites of CountT:M.

    Every detection time is written and read back, so simulation, CSV
    write and load, validation and the kernels all carry real shares.
    Each pass repeats the same configuration; no fit runs and no site
    pattern repeats.
    """

    SITES, OCCASIONS = 10_000, 4
    LAMBDA, RATE = 3.0, 0.5
    CHECKED_SITES = 20

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.params = truth(self.LAMBDA, self.RATE)
        self.params_path = write_params(work / "params.json", self.params)
        self.config = self._config(self.SITES, "survey_config.json")
        self.reference: Dataset | None = None
        self.digest: str | None = None
        self.first_per_site: list[float] | None = None

    def _config(self, sites: int, name: str) -> Path:
        path = self.work / name
        path.write_text(json.dumps({
            "model": "CountT", "sites": sites, "occasions": self.OCCASIONS, "search_time": 1.0,
            "lambda": self.LAMBDA, "rate": self.RATE, "seed": self.seed,
        }), encoding="utf-8")
        return path

    def fixed_cycles(self, seconds: float) -> None:
        return None

    def _argv(self, config: Path, d: Path) -> list[list[str]]:
        return [
            ["simulate", "--config", str(config), "--out", str(d)],
            ["loglik", "--data", str(d), "--model", "CountT", "--params", str(self.params_path),
             "--constants", "--out", str(d / "loglik.json")],
        ]

    def cold_argv(self) -> list[list[str]]:
        return self._argv(self._config(500, "cold_config.json"), self.work / "cold")

    def _digest(self, d: Path) -> str:
        h = hashlib.sha256()
        for name in ("counts.csv", "times.csv"):
            h.update((d / name).read_bytes())
        return h.hexdigest()

    def cycle(self, cycle: int) -> list[Op]:
        d = self.work / "survey"
        argv = self._argv(self.config, d)
        rng = np.random.default_rng([self.seed, 2, cycle])
        sites = rng.choice(self.SITES, self.CHECKED_SITES, replace=False)

        def run():
            for a in argv:
                cli(a)
            return json.loads((d / "loglik.json").read_text(encoding="utf-8"))

        def check(res) -> str | None:
            if self.reference is None:
                self.reference = simulate_dataset(SimConfig(
                    Protocol.for_design(Family.COUNT_T, BINOMIAL, self.OCCASIONS),
                    SurveyDesign(self.SITES, self.OCCASIONS, 1.0), self.params, self.seed))
            if self.digest is None:
                loaded = load_dataset(d / "counts.csv", d / "times.csv",
                                      family=Family.COUNT_T, process=BINOMIAL)
                problem = same_dataset(self.reference, loaded)
                if problem:
                    return f"CSV round trip: {problem}"
                self.digest = self._digest(d)
            elif self._digest(d) != self.digest:
                return "simulate wrote different files for the same configuration"
            per_site = res["per_site"]
            if len(per_site) != self.SITES or not res["constants_included"]:
                return "loglik output has the wrong shape"
            if self.first_per_site is None:
                self.first_per_site = per_site
            elif per_site != self.first_per_site:
                return "loglik changed between identical passes"
            return check_total(res["total"], per_site) or check_sites(
                self.reference, self.params, per_site, sites, include_constants=True)

        return [Op("simulate+loglik", run, check)]


def same_dataset(a: Dataset, b: Dataset) -> str | None:
    if a.protocol != b.protocol or a.n_sites != b.n_sites:
        return "protocol or site count differs"
    if not np.array_equal(a.design.search_time, b.design.search_time):
        return "search times differ"
    for ra, rb in zip(a.records, b.records):
        if not np.array_equal(ra.counts, rb.counts):
            return f"counts differ at site {ra.site}"
        if any(not np.array_equal(x, y) for x, y in zip(ra.times, rb.times)):
            return f"detection times differ at site {ra.site}"
    return None


class LargeInputs:
    """``total_loglik`` at optimizer-like probes on valid but large inputs.

    Each cycle sweeps five parameter points around the truth; a sweep
    evaluates the two large inputs the kernels handle today (Count:M and
    PCount:M at lambda ~ 2000). The two extreme inputs, which today raise
    SeriesConvergenceError and ExpansionCapError, are evaluated once per
    cycle at the truth as operations of their own, and count as failures.
    """

    PROBES = ((0.0, 0.0), (0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.0, -0.05))
    CHECKED_SITES = 2

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

        # Abundances sit at evenly spaced Poisson quantiles: the largest PCount
        # site sets the size of the Stirling table, and so the peak memory.
        def draw(tag, family, process, sites, occ, lam, rate):
            rng = np.random.default_rng([seed, 3, tag])
            ds = draw_survey(rng, family, process, sites, occ, lam, rate, spread_n=True)
            return ds, truth(lam, rate)

        self.sweep = [
            draw(0, Family.COUNT, BINOMIAL, 20, 4, 2000.0, 0.5),
            draw(1, Family.COUNT, POISSON, 500, 4, 2000.0, 0.5),
        ]
        self.extreme = [
            draw(2, Family.COUNT, BINOMIAL, 5, 4, 5e4, 0.01),
            draw(3, Family.BINARY, BINOMIAL, 200, 30, 3.0, 0.5),
        ]

    def fixed_cycles(self, seconds: float) -> None:
        return None

    def cold_argv(self) -> list[list[str]]:
        ds, params = self.sweep[1]  # the first PCount call builds the Stirling table
        d = self.work / "cold"
        write_csv(ds, d)
        p = write_params(self.work / "cold_params.json", params)
        return [["loglik", "--data", str(d), "--model", model_name(ds), "--params", str(p),
                 "--out", str(d / "loglik.json")]]

    def cycle(self, cycle: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 4, cycle])
        ops = []
        for dl, dr in self.PROBES:
            points = [(ds, Parameterization(p.log_lambda + dl, p.log_rate + dr)) for ds, p in self.sweep]
            picks = [rng.choice(ds.n_sites, self.CHECKED_SITES, replace=False) for ds, _ in points]
            ops.append(self._op("sweep", points, picks))
        for ds, p in self.extreme:
            ops.append(self._op("extreme " + ds.protocol.label, [(ds, p)], [rng.choice(ds.n_sites, 1)]))
        return ops

    def _op(self, kind, points, picks) -> Op:
        def run():
            return [nmixtime.likelihood.total_loglik(ds, p) for ds, p in points]

        def check(results) -> str | None:
            for (ds, p), ll, sites in zip(points, results, picks):
                problem = check_total(ll.total, ll.per_site) or check_sites(ds, p, ll.per_site, sites)
                if problem:
                    return f"{ds.protocol.label}: {problem}"
            return None

        return Op(kind, run, check)


WORKLOADS = {"field_fit": FieldFit, "large_survey": LargeSurvey, "large_inputs": LargeInputs}
