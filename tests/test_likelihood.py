"""Closed-form site likelihoods against frozen references and worked cases.

Frozen expected values were computed with tests/bruteforce.py (scipy-based
mixture summation, no shared code with the package) and checked stable
under a deeper truncation before being pinned here.
"""
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

import bruteforce as bf
from nmixtime.errors import ExpansionCapError, LikelihoodDomainError, NumericalFallbackWarning
from nmixtime.likelihood import (
    irrelevant_constants,
    site_loglik_binary,
    site_loglik_binary_t1,
    time_factor_count_t,
    time_factor_count_t1,
    total_loglik,
)
from nmixtime.model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SurveyDesign,
    build_workspace,
)
from nmixtime.simulate import SimConfig, simulate_dataset

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def one_site(family, process, counts, times=None, search_time=1.0):
    counts = np.asarray(counts, dtype=np.int64)
    proto = Protocol.for_design(family, process, counts.size)
    design = SurveyDesign(1, counts.size, search_time)
    t = None if times is None else [np.asarray(x, dtype=float) for x in times]
    return Dataset(proto, design, [SiteRecord(0, counts, t)])


def workspace(family, process, counts, times=None, search_time=1.0, lam=1.0, h=1.0):
    ds = one_site(family, process, counts, times, search_time)
    h = np.asarray(h, dtype=float)
    return build_workspace(ds, Parameterization(math.log(lam), np.log(h)), 0)


# (family, process, counts, times, search_time, rate, lambda, frozen log density)
FROZEN = [
    ("Binary:S", Family.BINARY, BIN, [1], None, [1.2], [0.8], 2.5, -0.2405295163766883),
    ("Binary:M", Family.BINARY, BIN, [1, 0, 1], None, [1.0, 1.5, 0.5], [0.8, 0.3, 1.2], 2.5, -1.8270373050343738),
    ("BinaryT1:S", Family.BINARY_T1, BIN, [1], [[0.42]], [1.3], [0.6], 1.7, -0.6108813179866119),
    ("BinaryT1:M", Family.BINARY_T1, BIN, [1, 1], [[0.31], [1.7]], [1.0, 2.0], [0.7, 0.4], 1.8, -2.097710039222651),
    ("Count:S", Family.COUNT, BIN, [3], None, [1.2], [0.9], 4.0, -1.519202658507006),
    ("Count:M", Family.COUNT, BIN, [2, 0, 3], None, [1.0, 1.0, 2.0], [0.5, 0.8, 0.25], 3.2, -6.983869831351154),
    ("CountT:S", Family.COUNT_T, BIN, [2], [[0.2, 0.9]], [1.0], [1.1], 2.0, -1.6604902924352456),
    ("CountT:M", Family.COUNT_T, BIN, [2, 1], [[0.2, 0.9], [0.55]], [1.0, 1.4], [1.1, 0.6], 2.0, -2.8922309291744464),
    ("CountT1:S", Family.COUNT_T1, BIN, [3], [[0.12]], [1.5], [0.9], 5.0, -0.6796127966330714),
    ("CountT1:M", Family.COUNT_T1, BIN, [3, 0], [[0.12], []], [1.5, 1.0], [0.9, 0.9], 5.0, -4.148817977053207),
    ("PBinary:S", Family.BINARY, POI, [1], None, [0.9], [1.1], 1.4, -0.5359194108056182),
    ("PBinary:M", Family.BINARY, POI, [0, 1], None, [1.0, 1.1], [0.5, 0.9], 2.2, -1.4318616412620206),
    ("PBinaryT1:S", Family.BINARY_T1, POI, [1], [[0.77]], [1.6], [0.5], 2.0, -1.0240987275908249),
    ("PBinaryT1:M", Family.BINARY_T1, POI, [1, 0], [[0.33], []], [1.0, 1.2], [0.8, 0.7], 1.1, -1.967136886846517),
    ("PCount:S", Family.COUNT, POI, [4], None, [1.5], [0.7], 2.8, -2.1451823681685247),
    ("PCount:M", Family.COUNT, POI, [2, 1], None, [0.5, 0.5], [1.0, 1.0], 2.0, -3.0222954793080015),
    ("PCountT:S", Family.COUNT_T, POI, [3], [[0.1, 0.4, 1.1]], [1.2], [0.9], 1.9, -0.7994335549110418),
    ("PCountT:M", Family.COUNT_T, POI, [3, 1], [[0.1, 0.4, 1.1], [0.25]], [1.2, 0.6], [0.9, 1.3], 1.9, -1.5892717193458616),
    ("PCountT1:S", Family.COUNT_T1, POI, [5], [[0.05]], [2.0], [0.8], 3.3, -1.4336069981363098),
    ("PCountT1:M", Family.COUNT_T1, POI, [5, 2], [[0.05], [0.9]], [2.0, 1.5], [0.8, 0.4], 3.3, -3.4750829442665703),
]


@pytest.mark.parametrize("case", FROZEN, ids=[c[0] for c in FROZEN])
def test_frozen_exact_values(case):
    _, family, process, counts, times, t_max, h, lam, expected = case
    ds = one_site(family, process, counts, times, search_time=t_max)
    p = Parameterization(math.log(lam), np.log(h))
    got = total_loglik(ds, p, include_constants=True)
    assert got.total == pytest.approx(expected, abs=1e-10)
    assert got.irrelevant_constants_included


@pytest.mark.parametrize("case", FROZEN, ids=[c[0] for c in FROZEN])
def test_display_form_differs_by_data_constant(case):
    _, family, process, counts, times, t_max, h, lam, _ = case
    ds = one_site(family, process, counts, times, search_time=t_max)
    p = Parameterization(math.log(lam), np.log(h))
    exact = total_loglik(ds, p, include_constants=True)
    display = total_loglik(ds, p, include_constants=False)
    assert not display.irrelevant_constants_included
    assert display.total + irrelevant_constants(ds) == pytest.approx(
        exact.total, rel=1e-13, abs=1e-13
    )


class TestBinaryKernel:
    def test_single_visit_zero_record(self):
        ws = workspace(Family.BINARY, BIN, [0])
        assert site_loglik_binary(ws) == pytest.approx(-(1 - math.exp(-1)), abs=1e-12)

    def test_two_visit_analytic_expansion(self):
        ws = workspace(Family.BINARY, BIN, [1, 0])
        want = math.log(math.exp(-(1 - math.exp(-1))) - math.exp(-(1 - math.exp(-2))))
        assert want == pytest.approx(-2.204815598302638, abs=1e-14)
        assert site_loglik_binary(ws) == pytest.approx(want, abs=1e-12)

    def test_detection_impossible_without_individuals(self):
        ds = one_site(Family.BINARY, BIN, [1])
        got = total_loglik(ds, Parameterization(-math.inf, 0.0))
        assert got.total == -math.inf

    def test_expansion_cap(self):
        j = 25
        ws = workspace(Family.BINARY, BIN, np.ones(j, dtype=int), search_time=np.full(j, 1.0), h=np.full(j, 1.0))
        with pytest.raises(ExpansionCapError):
            site_loglik_binary(ws)
        # at the cap the expansion is attempted; this width cancels too much,
        # so the guard hands the site to the summation oracle
        mixed = np.zeros(j, dtype=int)
        mixed[:20] = 1
        ws2 = workspace(Family.BINARY, BIN, mixed, search_time=np.full(j, 1.0), h=np.full(j, 0.3), lam=2.0)
        with pytest.warns(NumericalFallbackWarning):
            val = site_loglik_binary(ws2)
        want = bf.site_log_density(Family.BINARY, BIN, mixed, None, np.full(j, 1.0), np.full(j, 0.3), 2.0)
        assert val == pytest.approx(want, rel=1e-9)

    def test_cancellation_falls_back_to_summation(self):
        ws = workspace(
            Family.BINARY, BIN, [1, 1], search_time=[1.0, 1.0], h=[1e-9, 1e-9], lam=0.5
        )
        with pytest.warns(NumericalFallbackWarning):
            got = site_loglik_binary(ws)
        want = bf.site_log_density(
            Family.BINARY, BIN, [1, 1], None, [1.0, 1.0], [1e-9, 1e-9], 0.5
        )
        assert got == pytest.approx(want, rel=1e-6)


class TestFirstTimeKernel:
    def test_single_visit_display_value(self):
        ws = workspace(Family.BINARY_T1, BIN, [1], [[0.5]])
        want = -(1 - math.exp(-0.5)) - 0.5
        assert site_loglik_binary_t1(ws) == pytest.approx(want, abs=1e-12)

    def test_zero_detections_reduce_to_binary(self):
        ws_t = workspace(Family.BINARY_T1, BIN, [0, 0], [[], []], search_time=[1.0, 0.7], h=[0.9, 1.3], lam=2.0)
        ws_b = workspace(Family.BINARY, BIN, [0, 0], search_time=[1.0, 0.7], h=[0.9, 1.3], lam=2.0)
        assert site_loglik_binary_t1(ws_t) == pytest.approx(site_loglik_binary(ws_b), rel=1e-14)

    def test_two_detection_mixture(self):
        ds = one_site(Family.BINARY_T1, BIN, [1, 1], [[0.3], [0.7]])
        got = total_loglik(ds, Parameterization(math.log(2.0), 0.0), include_constants=True)
        assert got.total == pytest.approx(-1.0196492231651186, abs=1e-11)


class TestCountKernels:
    def test_single_visit_zero(self):
        ds = one_site(Family.COUNT, BIN, [0])
        got = total_loglik(ds, Parameterization(0.0, 0.0))
        assert got.total == pytest.approx(-(1 - math.exp(-1)), abs=1e-12)

    def test_single_visit_thinned_poisson(self):
        # lambda * p = 1 gives the unit-mean Poisson pmf at 2
        ds = one_site(Family.COUNT, BIN, [2])
        p = Parameterization(math.log(2.0), math.log(math.log(2.0)))
        got = total_loglik(ds, p, include_constants=True)
        assert got.total == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)

    def test_single_visit_larger_mean(self):
        ds = one_site(Family.COUNT, BIN, [3], search_time=2.0)
        p = Parameterization(math.log(4.0), math.log(0.5))
        mean = 4.0 * (1 - math.exp(-1.0))
        want = float(poisson.logpmf(3, mean))
        assert total_loglik(ds, p, include_constants=True).total == pytest.approx(want, abs=1e-11)

    def test_multi_visit_all_zero(self):
        # detection misses both occasions: -lambda (1 - q1 q2)
        hts = -math.log(0.5)
        ds = one_site(Family.COUNT, BIN, [0, 0], search_time=[1.0, 1.0])
        p = Parameterization(0.0, math.log(hts))
        assert total_loglik(ds, p).total == pytest.approx(-0.75, abs=1e-12)

    def test_multi_visit_frozen_pair(self):
        ds = one_site(Family.COUNT, BIN, [1, 1])
        got = total_loglik(ds, Parameterization(0.0, 0.0), include_constants=True)
        assert got.total == pytest.approx(-1.6550869964945787, abs=1e-11)

    def test_three_visit_probability_grid(self):
        h = [-math.log(0.7), -math.log(0.5), -math.log(0.8)]
        ds = one_site(Family.COUNT, BIN, [2, 1, 0], search_time=[1.0, 1.0, 1.0])
        p = Parameterization(math.log(3.0), np.log(h))
        got = total_loglik(ds, p, include_constants=True)
        assert got.total == pytest.approx(-3.8526456234507926, abs=1e-9)

    def test_anchor_choice_invariant_under_ties(self):
        y = [2, 2, 1]
        h = [0.4, 0.9, 0.6]
        ds = one_site(Family.COUNT, BIN, y, search_time=[1.0, 1.0, 1.0])
        p = Parameterization(math.log(2.0), np.log(h))
        got = total_loglik(ds, p, include_constants=True)
        want = bf.site_log_density(Family.COUNT, BIN, y, None, [1.0, 1.0, 1.0], h, 2.0)
        assert got.total == pytest.approx(want, rel=1e-12)

    def test_switched_off_occasion_reduces_to_single_visit(self):
        ds2 = one_site(Family.COUNT, BIN, [3, 0], search_time=[1.2, 1.0])
        p2 = Parameterization(math.log(4.0), np.array([math.log(0.9), -math.inf]))
        ds1 = one_site(Family.COUNT, BIN, [3], search_time=[1.2])
        p1 = Parameterization(math.log(4.0), np.array([math.log(0.9)]))
        a = total_loglik(ds2, p2, include_constants=True).total
        b = total_loglik(ds1, p1, include_constants=True).total
        assert a == pytest.approx(b, rel=1e-13)


class TestTimeFactors:
    def test_all_zero_counts_contribute_nothing(self):
        ws = workspace(Family.COUNT_T, BIN, [0, 0], [[], []])
        assert time_factor_count_t(ws) == 0.0

    def test_two_times_single_occasion(self):
        ws = workspace(Family.COUNT_T, BIN, [2], [[0.2, 0.5]])
        want = -0.7 - 2.0 * math.log(1 - math.exp(-1))
        assert time_factor_count_t(ws) == pytest.approx(want, abs=1e-12)

    def test_factor_grows_with_rate_when_times_are_early(self):
        vals = []
        for h in (0.01, 0.02, 0.04):
            ws = workspace(Family.COUNT_T, BIN, [1], [[1e-9]], h=[h])
            vals.append(time_factor_count_t(ws))
        assert vals[0] < vals[1] < vals[2]

    def test_first_time_single_detection(self):
        ws = workspace(Family.COUNT_T1, BIN, [1], [[0.4]])
        want = -0.4 - math.log(1 - math.exp(-1))
        assert time_factor_count_t1(ws) == pytest.approx(want, abs=1e-12)

    def test_first_time_equals_full_times_when_single(self):
        ws1 = workspace(Family.COUNT_T1, BIN, [1], [[0.4]], h=[0.7], search_time=[1.3])
        wsT = workspace(Family.COUNT_T, BIN, [1], [[0.4]], h=[0.7], search_time=[1.3])
        assert time_factor_count_t1(ws1) == pytest.approx(time_factor_count_t(wsT), rel=1e-14)

    def test_first_time_density_of_minimum(self):
        # y=3: the factor plus its combinatorial constant is the density of the
        # smallest of three truncated-exponential arrival times
        t1 = 0.1
        ws = workspace(Family.COUNT_T1, BIN, [3], [[t1]])
        constant = irrelevant_constants(one_site(Family.COUNT_T1, BIN, [3], [[t1]]))
        got = time_factor_count_t1(ws) + constant
        p1 = 1 - math.exp(-1)
        want = math.log(3.0) - t1 + 2.0 * math.log(math.exp(-t1) - math.exp(-1)) - 3.0 * math.log(p1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_first_time_density_against_simulation(self):
        # simulate 3 exponential arrivals, keep trials where all are detected,
        # and compare the histogram mass on a window to the integrated density
        rng = np.random.default_rng(314)
        draws = rng.exponential(size=(1_000_000, 3))
        kept = draws[(draws <= 1.0).all(axis=1)]
        mins = kept.min(axis=1)
        lo, hi = 0.05, 0.15
        empirical = float(np.mean((mins >= lo) & (mins < hi)))

        def density(t):
            ws = workspace(Family.COUNT_T1, BIN, [3], [[t]])
            constant = irrelevant_constants(one_site(Family.COUNT_T1, BIN, [3], [[t]]))
            return math.exp(time_factor_count_t1(ws) + constant)

        mass, _ = quad(density, lo, hi)
        assert empirical == pytest.approx(mass, rel=0.02)

    def test_first_time_at_window_edge_is_out_of_domain(self):
        ws = workspace(Family.COUNT_T1, BIN, [2], [[1.0]])
        with pytest.raises(LikelihoodDomainError):
            time_factor_count_t1(ws)

    def test_count_time_split_is_lambda_invariant(self):
        rng = np.random.default_rng(5)
        proto = Protocol.for_design(Family.COUNT_T, BIN, 2)
        design = SurveyDesign(6, 2, 1.0)
        truth = Parameterization(math.log(2.0), math.log(0.8))
        ds_t = simulate_dataset(SimConfig(proto, design, truth, seed=21))
        ds_c = Dataset(
            Protocol.for_design(Family.COUNT, BIN, 2),
            design,
            [SiteRecord(r.site, r.counts) for r in ds_t.records],
        )
        diffs = []
        for lam in rng.uniform(0.5, 8.0, size=5):
            p = Parameterization(math.log(lam), math.log(0.8))
            diffs.append(
                total_loglik(ds_t, p).total - total_loglik(ds_c, p).total
            )
        assert np.ptp(diffs) < 1e-12


class TestPoissonProcessKernels:
    def test_all_zero_record(self):
        ds = one_site(Family.COUNT, POI, [0, 0], search_time=[1.0, 0.5])
        p = Parameterization(math.log(2.0), math.log(1.0))
        want = -2.0 * (1 - math.exp(-1.5))
        assert total_loglik(ds, p).total == pytest.approx(want, abs=1e-12)

    def test_single_event_single_visit(self):
        ds = one_site(Family.COUNT, POI, [1])
        got = total_loglik(ds, Parameterization(0.0, 0.0))
        want = -(1 - math.exp(-1)) - 1.0
        assert got.total == pytest.approx(want, abs=1e-12)

    def test_counts_above_abundance_are_possible(self):
        # five events from lambda = 0.5 sites is unlikely but not impossible
        ds = one_site(Family.COUNT, POI, [5])
        got = total_loglik(ds, Parameterization(math.log(0.5), 0.0), include_constants=True)
        assert math.isfinite(got.total)
        want = bf.site_log_density(Family.COUNT, POI, [5], None, [1.0], [1.0], 0.5)
        assert got.total == pytest.approx(want, rel=1e-11)


def test_two_identical_sites_double_the_total():
    counts = np.array([[1, 2], [1, 2]])
    proto = Protocol.for_design(Family.COUNT, BIN, 2)
    ds = Dataset(
        proto,
        SurveyDesign(2, 2, 1.0),
        [SiteRecord(0, counts[0]), SiteRecord(1, counts[1])],
    )
    p = Parameterization(math.log(2.0), math.log(0.7))
    got = total_loglik(ds, p, include_constants=True)
    assert got.total == pytest.approx(2.0 * got.per_site[0], rel=1e-14)
    assert got.per_site[0] == got.per_site[1]


def test_random_sweep_against_brute_force():
    rng = np.random.default_rng(1234)
    for family in Family:
        for process in (BIN, POI):
            for j in (1, 3):
                proto = Protocol.for_design(family, process, j)
                for _ in range(3):
                    r = int(rng.integers(1, 4))
                    lam = float(rng.uniform(0.3, 5.0))
                    t_max = rng.uniform(0.5, 2.0, size=(r, j))
                    h = rng.uniform(0.2, 2.0, size=(r, j)) / t_max
                    design = SurveyDesign(r, j, t_max)
                    p = Parameterization(math.log(lam), np.log(h))
                    ds = simulate_dataset(
                        SimConfig(proto, design, p, seed=int(rng.integers(0, 2**31)))
                    )
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = total_loglik(ds, p, include_constants=True)
                    want = bf.dataset_log_density(ds, p)
                    np.testing.assert_allclose(got.per_site, want, rtol=1e-9, atol=1e-10)
