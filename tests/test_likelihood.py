"""Closed-form site likelihoods against frozen references and worked cases.

Frozen expected values were computed with tests/bruteforce.py (scipy-based
mixture summation, no shared code with the package) and checked stable
under a deeper truncation before being pinned here.
"""
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

import bruteforce as bf
import nmixtime.likelihood
import nmixtime.oracle
from nmixtime.errors import LikelihoodDomainError, NMixTimeError
from nmixtime.likelihood import irrelevant_constants, total_loglik
from nmixtime.model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SurveyDesign,
    validate_dataset,
)
from nmixtime.oracle import oracle_site_loglik
from nmixtime.simulate import SimConfig, simulate_dataset

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def one_site(family, process, counts, times=None, search_time=1.0):
    counts = np.asarray(counts, dtype=np.int64)
    proto = Protocol.for_design(family, process, counts.size)
    design = SurveyDesign(1, counts.size, search_time)
    t = None if times is None else [np.asarray(x, dtype=float) for x in times]
    return Dataset(proto, design, [SiteRecord(0, counts, t)])


def loglik(family, process, counts, times=None, search_time=1.0, lam=1.0, h=1.0, **kw):
    """Total log-likelihood of a one-site dataset."""
    ds = one_site(family, process, counts, times, search_time)
    h = np.asarray(h, dtype=float)
    return total_loglik(ds, Parameterization(math.log(lam), np.log(h)), **kw).total


def time_factor(family, counts, times, search_time=1.0, h=1.0, **kw):
    """Log density of a site's recorded times given its counts (binomial).

    The same counts scored with and without their times differ by exactly
    this factor.
    """
    with_times = loglik(family, BIN, counts, times, search_time, h=h, **kw)
    return with_times - loglik(Family.COUNT, BIN, counts, None, search_time, h=h)


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
        got = loglik(Family.BINARY, BIN, [0])
        assert got == pytest.approx(-(1 - math.exp(-1)), abs=1e-12)

    def test_two_visit_analytic_expansion(self):
        want = math.log(math.exp(-(1 - math.exp(-1))) - math.exp(-(1 - math.exp(-2))))
        assert want == pytest.approx(-2.204815598302638, abs=1e-14)
        assert loglik(Family.BINARY, BIN, [1, 0]) == pytest.approx(want, abs=1e-12)

    def test_detection_impossible_without_individuals(self):
        ds = one_site(Family.BINARY, BIN, [1])
        got = total_loglik(ds, Parameterization(-math.inf, 0.0))
        assert got.total == -math.inf

    def test_long_histories(self):
        j = 25
        t_max = np.full(j, 1.0)
        mixed = np.zeros(j, dtype=int)
        mixed[:20] = 1
        for counts, h, lam in ((np.ones(j, dtype=int), 1.0, 1.0), (mixed, 0.3, 2.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = loglik(Family.BINARY, BIN, counts, search_time=t_max, h=np.full(j, h), lam=lam)
            want = bf.site_log_density(Family.BINARY, BIN, counts, None, t_max, np.full(j, h), lam)
            assert got == pytest.approx(want, rel=1e-9)

    def test_tiny_rates_match_summation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loglik(Family.BINARY, BIN, [1, 1], search_time=[1.0, 1.0], h=[1e-9, 1e-9], lam=0.5)
        want = bf.site_log_density(
            Family.BINARY, BIN, [1, 1], None, [1.0, 1.0], [1e-9, 1e-9], 0.5
        )
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("log_lam", [-700.0, -30.0])
    def test_undetected_exposure_near_overflow_is_finite(self, log_lam):
        # lambda e^{-U} underflows to 0, yet the record has probability
        # ~lambda e^{-U}: its log is finite
        ds = one_site(Family.BINARY, POI, [0, 1], search_time=[1.0, 1.1])
        got = total_loglik(ds, Parameterization(log_lam, 709.5)).total
        assert math.isfinite(got)
        assert got == pytest.approx(log_lam - math.exp(709.5), rel=1e-12)

    def test_thirty_occasions_match_oracle(self):
        proto = Protocol.for_design(Family.BINARY, BIN, 30)
        p = Parameterization(math.log(3.0), math.log(0.5))
        ds = simulate_dataset(SimConfig(proto, SurveyDesign(20, 30, 1.0), p, seed=8))
        assert ds.counts.sum(axis=1).max() > 20
        got = total_loglik(ds, p).per_site
        for i in range(ds.n_sites):
            assert got[i] == pytest.approx(oracle_site_loglik(ds, p, i), abs=1e-8), i

    def test_large_abundance_tiny_rate(self):
        # mu = e^22 ~ 3.6e9 individuals, each detected with probability ~e^-30
        # per occasion; the pinned value was summed with 60-digit arithmetic
        got = loglik(Family.BINARY, BIN, [1, 1, 1], lam=math.exp(22.0), h=math.exp(-30.0))
        assert got == pytest.approx(-24.000503179, abs=1e-5)

    def test_against_subset_expansion(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 5, 8, 12):
            j = d + 2
            counts = np.zeros(j, dtype=int)
            counts[rng.permutation(j)[:d]] = 1
            t_max = rng.uniform(0.5, 2.0, size=j)
            h = rng.uniform(0.5, 2.0, size=j) / t_max
            lam = float(rng.uniform(0.5, 3.0))
            got = loglik(Family.BINARY, BIN, counts, search_time=t_max, h=h, lam=lam)
            want = bf.binary_subset_log_density(counts, t_max, h, lam)
            assert got == pytest.approx(want, rel=1e-9), d


class TestFirstTimeKernel:
    def test_single_visit_display_value(self):
        want = -(1 - math.exp(-0.5)) - 0.5
        assert loglik(Family.BINARY_T1, BIN, [1], [[0.5]]) == pytest.approx(want, abs=1e-12)

    def test_zero_detections_reduce_to_binary(self):
        got_t = loglik(Family.BINARY_T1, BIN, [0, 0], [[], []], search_time=[1.0, 0.7], h=[0.9, 1.3], lam=2.0)
        got_b = loglik(Family.BINARY, BIN, [0, 0], search_time=[1.0, 0.7], h=[0.9, 1.3], lam=2.0)
        assert got_t == pytest.approx(got_b, rel=1e-14)

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
        assert time_factor(Family.COUNT_T, [0, 0], [[], []]) == 0.0

    def test_two_times_single_occasion(self):
        want = -0.7 - 2.0 * math.log(1 - math.exp(-1))
        assert time_factor(Family.COUNT_T, [2], [[0.2, 0.5]]) == pytest.approx(want, abs=1e-12)

    def test_factor_grows_with_rate_when_times_are_early(self):
        vals = []
        for h in (0.01, 0.02, 0.04):
            vals.append(time_factor(Family.COUNT_T, [1], [[1e-9]], h=[h]))
        assert vals[0] < vals[1] < vals[2]

    def test_first_time_single_detection(self):
        want = -0.4 - math.log(1 - math.exp(-1))
        assert time_factor(Family.COUNT_T1, [1], [[0.4]]) == pytest.approx(want, abs=1e-12)

    def test_first_time_equals_full_times_when_single(self):
        first = time_factor(Family.COUNT_T1, [1], [[0.4]], h=[0.7], search_time=[1.3])
        every = time_factor(Family.COUNT_T, [1], [[0.4]], h=[0.7], search_time=[1.3])
        assert first == pytest.approx(every, rel=1e-14)

    def test_first_time_density_of_minimum(self):
        # y=3: the factor plus its combinatorial constant is the density of the
        # smallest of three truncated-exponential arrival times
        t1 = 0.1
        constant = irrelevant_constants(one_site(Family.COUNT_T1, BIN, [3], [[t1]]))
        got = time_factor(Family.COUNT_T1, [3], [[t1]]) + constant
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
            constant = irrelevant_constants(one_site(Family.COUNT_T1, BIN, [3], [[t]]))
            return math.exp(time_factor(Family.COUNT_T1, [3], [[t]]) + constant)

        mass, _ = quad(density, lo, hi)
        assert empirical == pytest.approx(mass, rel=0.02)

    def test_first_time_at_window_edge_is_out_of_domain(self):
        with pytest.raises(LikelihoodDomainError):
            loglik(Family.COUNT_T1, BIN, [2], [[1.0]])

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


LOG_LAMBDAS = (-math.inf, -700.0, -30.0, 30.0, 710.0, 800.0)
LOG_RATES = (-math.inf, -700.0, -30.0, 30.0, 100.0, 709.5, 710.0, 1e4)


@pytest.mark.parametrize("case", FROZEN, ids=[c[0] for c in FROZEN])
def test_extreme_parameters_give_a_value_or_a_typed_error(case):
    # an overflowing rate * T used to turn into NaN; the limit, -inf or a
    # typed error are the only acceptable outcomes
    _, family, process, counts, times, t_max, _, _, _ = case
    ds = one_site(family, process, counts, times, search_time=t_max)
    for log_lam in LOG_LAMBDAS:
        for log_h in LOG_RATES:
            try:
                got = total_loglik(ds, Parameterization(log_lam, log_h), include_constants=True)
            except NMixTimeError:
                continue
            assert not math.isnan(got.total) and got.total != math.inf, (log_lam, log_h, got.total)


@pytest.mark.parametrize(
    "process, lam, rate, seed",
    [
        # Count:M with z = lambda * exp(-sum h T) near 5e4: the series peaks far from n = 0
        (BIN, 5e4, 0.01, 11),
        # PCount:M with 4-5 thousand events per site: moment orders in the thousands
        (POI, 2000.0, 0.55, 12),
    ],
    ids=["Count:M lambda 5e4", "PCount:M 4e3 events"],
)
def test_large_inputs_match_oracle(process, lam, rate, seed):
    proto = Protocol.for_design(Family.COUNT, process, 4)
    p = Parameterization(math.log(lam), math.log(rate))
    ds = simulate_dataset(SimConfig(proto, SurveyDesign(5, 4, 1.0), p, seed=seed))
    if process is POI:
        assert 4000 <= ds.counts.sum(axis=1).min() and ds.counts.sum(axis=1).max() <= 5000
    got = total_loglik(ds, p).per_site
    for i in range(ds.n_sites):
        assert got[i] == pytest.approx(oracle_site_loglik(ds, p, i), abs=1e-8), i


def test_data_pass_is_kept_and_data_errors_repeat():
    ds = one_site(Family.COUNT, BIN, [2, 1])
    first = ds.site_data
    total_loglik(ds, Parameterization(0.0, 0.0))
    assert ds.site_data is first
    bad = one_site(Family.COUNT_T1, BIN, [2], [[1.0]])
    for _ in range(2):
        with pytest.raises(LikelihoodDomainError):
            total_loglik(bad, Parameterization(0.0, 0.0))


@pytest.mark.parametrize(
    "family, process, count, times",
    [
        pytest.param(Family.COUNT, BIN, -1, [], id="negative count"),
        pytest.param(Family.BINARY, BIN, 2, [], id="Binary response 2"),
        pytest.param(Family.BINARY_T1, POI, 2, [0.5], id="BinaryT1 response 2"),
        pytest.param(Family.COUNT_T, BIN, 2, [0.5], id="times length"),
        pytest.param(Family.BINARY_T1, BIN, 1, [], id="missing first time"),
        pytest.param(Family.COUNT_T, BIN, 1, [0.0], id="time 0"),
        pytest.param(Family.COUNT_T1, POI, 1, [math.nan], id="time NaN"),
        pytest.param(Family.COUNT_T, POI, 2, [0.6, 0.3], id="unsorted"),
        pytest.param(Family.COUNT_T, BIN, 1, [1.7], id="past the window"),
        pytest.param(Family.COUNT_T1, BIN, 2, [1.0], id="CountT1 first time at T"),
        pytest.param(Family.COUNT_T1, POI, 2, [1.0], id="PCountT1 first time at T"),
    ],
)
def test_every_record_fault_raises_at_its_cell(family, process, count, times):
    # a clean detection at site 0 occasion 0, the fault at site 1 occasion 1
    first = [0.5] if family.records_times else []
    ds = Dataset(
        Protocol.for_design(family, process, 2),
        SurveyDesign(2, 2, 1.0),
        [SiteRecord(0, [1, 0], [first, []]), SiteRecord(1, [0, count], [[], times])],
    )
    found = validate_dataset(ds)
    assert [(v.site, v.occasion) for v in found] == [(1, 1)]
    for _ in range(2):
        with pytest.raises(LikelihoodDomainError, match=re.escape(str(found[0]))):
            total_loglik(ds, Parameterization(0.0, 0.0))


def tiny_rate_dataset():
    proto = Protocol.for_design(Family.BINARY, BIN, 2)
    records = [SiteRecord(0, [1, 1]), SiteRecord(1, [1, 0]), SiteRecord(2, [1, 1])]
    ds = Dataset(proto, SurveyDesign(3, 2, 1.0), records)
    return ds, Parameterization(math.log(0.5), np.log([[1e-9, 1e-9], [0.5, 0.5], [1e-9, 1e-9]]))


def test_tiny_rate_sites_score_without_warning():
    ds, p = tiny_rate_dataset()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = total_loglik(ds, p)
    assert not caught, [str(w.message) for w in caught]
    for i in range(3):
        assert got.per_site[i] == pytest.approx(oracle_site_loglik(ds, p, i), abs=1e-8)


# The sixteen distinct laws: binary records do not depend on the process.
LAWS = [
    (family, process, j)
    for family in Family
    for process in ((BIN,) if family.is_binary else (BIN, POI))
    for j in (1, 3)
]

# all-zero sites, ties at the max count, one to three detecting occasions;
# the last site's rates are tiny
MIXED_COUNTS = [[0, 0, 0], [2, 2, 1], [1, 0, 0], [3, 0, 1], [1, 1, 0], [0, 2, 0], [1, 1, 1], [1, 1, 0]]


def mixed_dataset(family, process, j):
    counts = np.array(MIXED_COUNTS)[:, :j]
    if family.is_binary:
        counts = np.minimum(counts, 1)
    r = counts.shape[0]
    t_max = np.tile([1.0, 0.8, 1.3][:j], (r, 1))
    records = []
    for i in range(r):
        times = None
        if family.records_times:
            times = []
            for y, t in zip(counts[i], t_max[i]):
                k = int(y) if family.records_all_times else min(int(y), 1)
                times.append(t * np.linspace(0.15, 0.85, k))
        records.append(SiteRecord(i, counts[i], times))
    log_h = np.log(np.tile([0.7, 1.1, 0.4][:j], (r, 1)))
    log_h[-1] = math.log(1e-9)
    proto = Protocol.for_design(family, process, j)
    return Dataset(proto, SurveyDesign(r, j, t_max), records), Parameterization(math.log(2.0), log_h)


@pytest.mark.parametrize(
    "law", LAWS, ids=[Protocol.for_design(*law).label for law in LAWS]
)
def test_mixed_patterns_match_oracle_and_single_sites(law):
    family, process, j = law
    ds, p = mixed_dataset(family, process, j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = total_loglik(ds, p).per_site
    assert not caught, [str(w.message) for w in caught]
    for i in range(ds.n_sites):
        assert got[i] == pytest.approx(oracle_site_loglik(ds, p, i), abs=1e-8), i
    log_lam, log_rate = p.resolve(ds.design)
    for i in np.random.default_rng(3).permutation(ds.n_sites):
        rec = ds.records[i]
        alone = Dataset(
            ds.protocol,
            SurveyDesign(1, j, ds.design.search_time[i]),
            [SiteRecord(0, rec.counts, rec.times)],
        )
        value = total_loglik(alone, Parameterization(log_lam[i], log_rate[i])).total
        assert value == pytest.approx(got[i], rel=1e-14, abs=0.0), i


def test_no_kernel_reaches_the_oracle(monkeypatch):
    # the oracle checks the kernels, so no kernel may lean on it
    def oracle_called(*args, **kwargs):
        raise AssertionError("a kernel called the summation oracle")

    monkeypatch.setattr(nmixtime.likelihood, "site_loglik_by_summation", oracle_called)
    monkeypatch.setattr(nmixtime.oracle, "site_loglik_by_summation", oracle_called)
    for law in LAWS:
        ds, p = mixed_dataset(*law)
        assert np.all(np.isfinite(total_loglik(ds, p).per_site)), law
    ds, p = tiny_rate_dataset()
    assert np.all(np.isfinite(total_loglik(ds, p).per_site))
