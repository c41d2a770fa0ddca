"""Series rows summed once per group: every result equals the ungrouped one, bit for bit."""
import dataclasses
import math

import numpy as np
import pytest

import nmixtime.likelihood
from nmixtime.likelihood import total_loglik
from nmixtime.model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SurveyDesign,
)
from nmixtime.simulate import SimConfig, simulate_dataset

from test_score import N_SITES, VARIANTS, layouts

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def ungrouped(ds):
    """The same data, with every series row its own group."""
    twin = Dataset.from_arrays(ds.protocol, ds.design, ds.counts, ds.times_per_cell, ds.times_flat)
    data = ds.site_data
    twin.__dict__["site_data"] = dataclasses.replace(data, representative=np.arange(data.representative.size))
    return twin


def repeated_survey(family, process, j):
    """Seven sites, the first three of four simulated sites repeated."""
    proto = Protocol.for_design(family, process, j)
    truth = Parameterization(math.log(3.0), math.log(0.7))
    base = simulate_dataset(SimConfig(proto, SurveyDesign(4, j, 1.0), truth, seed=3))
    records = [base.records[k] for k in (0, 1, 2, 3, 0, 1, 2)]
    return Dataset(proto, SurveyDesign(N_SITES, j, 1.0), [SiteRecord(i, r.counts, r.times) for i, r in enumerate(records)])


def results(ds, params):
    out = []
    for kw in ({}, {"score": True}):
        got = total_loglik(ds, params, **kw)
        out.append((got.total, got.per_site, got.score, got.hessian))
    return out


def assert_identical(got, want, label=None):
    for a, b in zip(got, want):
        assert a[0] == b[0] or (math.isnan(a[0]) and math.isnan(b[0])), label
        for x, y in zip(a[1:], b[1:]):
            assert (x is None) == (y is None), label
            if x is not None:
                assert x.tobytes() == y.tobytes(), label


@pytest.mark.parametrize("variant", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_grouped_sums_are_bit_identical_to_ungrouped(variant):
    ds = repeated_survey(*variant)
    rep = ds.site_data.representative
    binomial_count = not variant[0].is_binary and variant[1] is BIN
    if not (binomial_count and variant[2] == 1):  # a single-visit count has no series rows
        assert np.any(rep != np.arange(rep.size)), "no two series rows share a group"
    twin = ungrouped(ds)
    for name, params in layouts(np.random.default_rng(5), variant[2]).items():
        assert_identical(results(ds, params), results(twin, params), name)


def count_series_rows(monkeypatch):
    """Record how many rows each pFq call sums."""
    sizes = []
    original = nmixtime.likelihood.log_pfq_equal_order

    def counted(a, b, z, score=False):
        sizes.append(len(z))
        return original(a, b, z, score=score)

    monkeypatch.setattr(nmixtime.likelihood, "log_pfq_equal_order", counted)
    return sizes


def test_rows_whose_rates_differ_fall_back_to_their_own_sums(monkeypatch):
    # ten copies of one site: one key, one sum under a constant rate, but
    # ten sums once every cell has its own rate
    proto = Protocol.for_design(Family.COUNT, BIN, 3)
    ds = Dataset(proto, SurveyDesign(10, 3, 1.0), [SiteRecord(i, [2, 1, 3]) for i in range(10)])
    assert np.all(ds.site_data.representative == 0)
    sizes = count_series_rows(monkeypatch)
    per_cell = Parameterization(1.0, np.random.default_rng(1).normal(-0.5, 0.3, (10, 3)))
    for params, n_summed in ((Parameterization(1.0, -0.5), 1), (per_cell, 10)):
        sizes.clear()
        got = results(ds, params)
        assert sizes == [n_summed] * 2
        assert_identical(got, results(ungrouped(ds), params))


@pytest.mark.parametrize("impossible", [0, 1], ids=["representative", "member"])
def test_an_impossible_site_among_duplicates(impossible):
    # the first two sites key alike (max 2, lower parameters {2, 3}); a zero
    # rate on occasion 2 makes the one that detected there impossible. An
    # infinite exposure on occasion 1, where both counted the max, leaves
    # the other one possible with a series argument of 0, that of a dropped
    # row; it must not read the sum of the third site, whose rates differ
    proto = Protocol.for_design(Family.COUNT, BIN, 3)
    pair = [[2, 1, 0], [2, 0, 1]]
    counts = (pair if impossible == 0 else pair[::-1]) + [[1, 0, 3]]
    ds = Dataset(proto, SurveyDesign(3, 3, 1.0), [SiteRecord(i, c) for i, c in enumerate(counts)])
    assert list(ds.site_data.representative) == [0, 0, 2]
    log_rate = np.log(np.full((3, 3), 0.6))
    log_rate[:2, 0] = 800.0
    log_rate[:2, 1] = -math.inf
    params = Parameterization(1.2, log_rate)
    got = total_loglik(ds, params).per_site
    assert got[impossible] == -math.inf
    for i in (1 - impossible, 2):
        alone = Dataset(proto, SurveyDesign(1, 3, 1.0), [SiteRecord(0, counts[i])])
        assert got[i] == total_loglik(alone, Parameterization(1.2, log_rate[i])).total, i
    assert_identical(results(ds, params), results(ungrouped(ds), params))


@pytest.mark.parametrize(
    "family, process, j",
    [(Family.COUNT, BIN, 1), (Family.COUNT, BIN, 3), (Family.BINARY, BIN, 3), (Family.COUNT, POI, 3)],
    ids=["Count:S", "Count:M zeros", "Binary:M zeros", "PCount:M zeros"],
)
def test_a_survey_without_series_rows(family, process, j):
    proto = Protocol.for_design(family, process, j)
    counts = [[1], [0], [3]] if j == 1 else [[0] * j] * 3
    ds = Dataset(proto, SurveyDesign(3, j, 1.0), [SiteRecord(i, c) for i, c in enumerate(counts)])
    params = Parameterization(0.4, -0.2)
    got = results(ds, params)
    assert all(np.all(np.isfinite(r[1])) for r in got)
    assert_identical(got, results(ungrouped(ds), params))


@pytest.mark.parametrize(
    "family, process", [(Family.BINARY, BIN), (Family.BINARY_T1, BIN), (Family.COUNT, POI), (Family.COUNT, BIN)]
)
def test_a_nan_input_never_reads_its_representatives_sum(family, process):
    # site 1 repeats site 0; a NaN abundance there must meet the series
    # itself (which rejects it) or be dropped with it, as if ungrouped
    proto = Protocol.for_design(family, process, 2)
    times = [[0.3], [0.6]] if family.records_times else None
    ds = Dataset(proto, SurveyDesign(2, 2, 1.0), [SiteRecord(i, [1, 1], times) for i in range(2)])
    assert list(ds.site_data.representative) == [0, 0]
    log_lam, log_rate = np.array([0.5, math.nan]), np.full((2, 2), -0.3)
    outcomes = []
    for data in (ds.site_data, ungrouped(ds).site_data):
        try:
            outcomes.append(data.kernel(data, log_lam, log_rate).tobytes())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    # the binomial count kernel drops the NaN site before its series
    assert isinstance(outcomes[0], str) == ((family, process) != (Family.COUNT, BIN))


def test_an_evaluation_does_no_sorting(monkeypatch):
    surveys = [repeated_survey(f, p, 3) for f, p in ((Family.COUNT, BIN), (Family.BINARY, BIN), (Family.COUNT, POI))]
    for ds in surveys:
        ds.site_data

    def no_sorting(*args, **kwargs):
        raise AssertionError("an evaluation sorted")

    monkeypatch.setattr(np, "lexsort", no_sorting)
    monkeypatch.setattr(np, "unique", no_sorting)
    for ds in surveys:
        results(ds, Parameterization(1.0, -0.3))


@pytest.mark.parametrize("family", [Family.COUNT, Family.COUNT_T, Family.COUNT_T1])
def test_permuted_histories_with_a_tied_maximum_share_one_sum(family):
    # every site permutes site 0's occasions and has two occasions at its max
    # count; the series must read the same counts whichever it anchors
    base = [2, 0, 2]
    base_times = [[0.2, 0.7], [], [0.4, 0.9]] if family is Family.COUNT_T else [[0.2], [], [0.4]]
    perms = ([(0, 1, 2), (1, 0, 2), (0, 2, 1)] * 3)[:N_SITES]
    proto = Protocol.for_design(family, BIN, 3)
    records = [
        SiteRecord(i, [base[k] for k in p], [base_times[k] for k in p] if family.records_times else None)
        for i, p in enumerate(perms)
    ]
    ds = Dataset(proto, SurveyDesign(N_SITES, 3, 1.0), records)
    assert np.all(ds.site_data.representative == 0)
    data = ds.site_data
    log_lam, log_rate = np.full(N_SITES, 1.0), np.full((N_SITES, 3), -0.3)
    per_site, d_log_lam, d_rate, hess = data.kernel(data, log_lam, log_rate, score=True)
    for i, p in enumerate(perms):
        occasions = [0, *(1 + k for k in p)]
        assert per_site[i] == per_site[0] and d_log_lam[i] == d_log_lam[0]
        assert d_rate[i].tobytes() == d_rate[0, list(p)].tobytes()
        assert hess[i].tobytes() == hess[0][np.ix_(occasions, occasions)].tobytes()
    for params in (Parameterization(1.0, -0.3), *layouts(np.random.default_rng(5), 3).values()):
        assert_identical(results(ds, params), results(ungrouped(ds), params))
