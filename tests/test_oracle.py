"""Truncated-summation reference: analytic anchors and failure modes."""
import math

import numpy as np
import pytest

import bruteforce as bf
import nmixtime.oracle as oracle_module
from nmixtime.errors import OracleConvergenceError
from nmixtime.model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SurveyDesign,
)
from nmixtime.oracle import (
    OracleConfig,
    oracle_site_loglik,
    oracle_site_logliks,
    oracle_total_loglik,
)

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def one_site(family, process, counts, times=None, search_time=1.0):
    counts = np.asarray(counts, dtype=np.int64)
    proto = Protocol.for_design(family, process, counts.size)
    design = SurveyDesign(1, counts.size, search_time)
    t = None if times is None else [np.asarray(x, dtype=float) for x in times]
    return Dataset(proto, design, [SiteRecord(0, counts, t)])


def test_zero_detection_closed_form():
    # all-zero binary record: P = exp(-lambda (1 - e^{-hT}))
    ds = one_site(Family.BINARY, BIN, [0])
    got = oracle_site_loglik(ds, Parameterization(0.0, 0.0), 0, OracleConfig(n_max=200))
    assert got == pytest.approx(-(1.0 - math.exp(-1.0)), abs=1e-12)


def test_poisson_mixture_of_poisson_counts():
    # single Poisson-process occasion: mixture is analytic via the raw moment run
    # in reverse; cross-check against the independent brute force instead
    ds = one_site(Family.COUNT, POI, [3], search_time=1.5)
    p = Parameterization(math.log(2.0), math.log(0.7))
    got = oracle_site_loglik(ds, p, 0, include_constants=True)
    want = bf.site_log_density(Family.COUNT, POI, [3], None, [1.5], [0.7], 2.0)
    assert got == pytest.approx(want, abs=1e-11)


def test_zero_lambda_boundary():
    ds = one_site(Family.COUNT, BIN, [0, 0])
    assert oracle_site_loglik(ds, Parameterization(-math.inf, 0.0), 0) == 0.0
    impossible = one_site(Family.COUNT, BIN, [1, 0])
    assert (
        oracle_site_loglik(impossible, Parameterization(-math.inf, 0.0), 0) == -math.inf
    )


def test_n_max_below_support_is_an_error():
    ds = one_site(Family.COUNT, BIN, [5])
    with pytest.raises(ValueError, match="below the minimum feasible abundance"):
        oracle_site_loglik(ds, Parameterization(0.0, 0.0), 0, OracleConfig(n_max=3))


def test_term_cap_reports_partial_progress():
    ds = one_site(Family.COUNT, BIN, [5])
    with pytest.raises(OracleConvergenceError) as info:
        oracle_site_loglik(ds, Parameterization(0.0, 0.0), 0, OracleConfig(n_max=12))
    assert info.value.n_terms == 8
    assert math.isfinite(info.value.partial_value)


def test_total_is_sum_of_sites():
    counts = np.array([[1, 0], [0, 2], [3, 1]])
    proto = Protocol.for_design(Family.COUNT, BIN, 2)
    design = SurveyDesign(3, 2, 1.0)
    ds = Dataset(proto, design, [SiteRecord(i, counts[i]) for i in range(3)])
    p = Parameterization(math.log(2.5), math.log(0.6))
    total = oracle_total_loglik(ds, p)
    parts = sum(oracle_site_loglik(ds, p, i) for i in range(3))
    assert total == pytest.approx(parts, rel=1e-14)


def test_dataset_pass_finds_the_truncation_point_once(monkeypatch):
    counts = np.array([[1, 0], [0, 2], [3, 1], [0, 0], [2, 2], [1, 4]])
    proto = Protocol.for_design(Family.COUNT, BIN, 2)
    ds = Dataset(proto, SurveyDesign(6, 2, 1.0), [SiteRecord(i, counts[i]) for i in range(6)])
    p = Parameterization(np.log([2.5, 1.0, 3.0, 0.5, 2.0, 4.0]), math.log(0.6))
    singles = [oracle_site_loglik(ds, p, i) for i in range(6)]
    calls = []
    original = oracle_module._default_n_max
    monkeypatch.setattr(
        oracle_module, "_default_n_max", lambda *a: calls.append(1) or original(*a)
    )
    assert list(oracle_site_logliks(ds, p)) == singles
    assert oracle_total_loglik(ds, p) == float(sum(singles))
    assert len(calls) == 2  # one per whole-dataset call, not one per site
    assert list(oracle_site_logliks(ds, p, OracleConfig(n_max=60), sites=[4, 1])) == [
        oracle_site_loglik(ds, p, i, OracleConfig(n_max=60)) for i in (4, 1)
    ]
    assert len(calls) == 2  # an explicit n_max needs no default


def test_matches_brute_force_across_variants():
    rng = np.random.default_rng(11)
    for family in Family:
        for process in (BIN, POI):
            for _ in range(4):
                j = int(rng.integers(1, 4))
                lam = float(rng.uniform(0.3, 5.0))
                t_max = rng.uniform(0.5, 2.0, size=j)
                h = rng.uniform(0.2, 1.5, size=j)
                if family.is_binary:
                    y = rng.integers(0, 2, size=j)
                else:
                    y = rng.poisson(1.2, size=j)
                times = None
                if family.records_times:
                    times = []
                    for jj in range(j):
                        if y[jj] == 0:
                            times.append(np.empty(0))
                        elif family.records_first_time:
                            times.append(rng.uniform(0.01, t_max[jj], size=1))
                        else:
                            times.append(
                                np.sort(rng.uniform(0.01, t_max[jj], size=int(y[jj])))
                            )
                ds = one_site(family, process, y, times, search_time=t_max)
                p = Parameterization(math.log(lam), np.log(h))
                got = oracle_site_loglik(ds, p, 0, include_constants=True)
                want = bf.site_log_density(family, process, y, times, t_max, h, lam)
                assert got == pytest.approx(want, abs=5e-11), (family, process, y)


def test_tail_tolerance_is_honored():
    # a loose tolerance and a tight one must agree to roughly the loose one
    ds = one_site(Family.COUNT, BIN, [2], search_time=2.0)
    p = Parameterization(math.log(30.0), math.log(0.05))
    loose = oracle_site_loglik(ds, p, 0, OracleConfig(tail_tol=1e-6))
    tight = oracle_site_loglik(ds, p, 0, OracleConfig(tail_tol=1e-14))
    assert loose == pytest.approx(tight, abs=1e-5)
    assert loose != tight  # the loose run really did stop earlier
