"""Special-function checks against enumeration and direct summation."""
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import bruteforce
from bruteforce import tilted_mean
from nmixtime import special
from nmixtime.errors import SeriesConvergenceError
from nmixtime.special import (
    log_pfq_equal_order,
    log_poisson_detection_moment,
    log_poisson_raw_moment,
    log_sum_exp,
    safe_exp,
)


def set_partitions(items):
    """Yield every partition of `items` into nonempty blocks."""
    if len(items) <= 1:
        yield [list(items)] if items else []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def stirling2_exact(n_max):
    """Integer table S(n, k) for 0 <= k <= n <= n_max via the standard recurrence."""
    table = [[1]]
    for n in range(1, n_max + 1):
        prev = table[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = k * (prev[k] if k < n else 0) + prev[k - 1]
        table.append(row)
    return table


MUS = (1e-3, 0.3, 1.0, 2.5, 7.0, 40.0)


def test_poisson_moment_pinned_polynomials():
    # E[N^m] is the Touchard polynomial sum_k S(m, k) mu^k
    for mu in MUS:
        assert log_poisson_raw_moment(3, math.log(mu)) == pytest.approx(
            math.log(mu + 3 * mu**2 + mu**3), rel=1e-13
        ), mu
        assert log_poisson_raw_moment(4, math.log(mu)) == pytest.approx(
            math.log(mu + 7 * mu**2 + 6 * mu**3 + mu**4), rel=1e-13
        ), mu
    with pytest.raises(ValueError):
        log_poisson_raw_moment(-1, 0.0)
    with pytest.raises(ValueError):
        log_poisson_raw_moment(2, math.nan)


def test_poisson_moment_matches_partition_enumeration():
    # S(m, k) counted as the partitions of m items into k blocks
    for m in range(1, 11):
        blocks = [0] * (m + 1)
        for part in set_partitions(list(range(m))):
            blocks[len(part)] += 1
        for mu in MUS:
            want = math.log(sum(c * mu**k for k, c in enumerate(blocks)))
            assert log_poisson_raw_moment(m, math.log(mu)) == pytest.approx(want, rel=1e-12), (m, mu)


def test_poisson_moment_matches_integer_stirling_sums():
    exact = stirling2_exact(15)
    for m in range(16):
        for mu in MUS:
            want = math.log(sum(c * mu**k for k, c in enumerate(exact[m])))
            got = log_poisson_raw_moment(m, math.log(mu))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (m, mu)


def test_log_sum_exp_pinned():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)
    assert log_sum_exp([-math.inf, 2.5]) == 2.5
    assert log_sum_exp([700.0, 700.0]) == pytest.approx(700.0 + math.log(2), abs=1e-12)
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
    assert log_sum_exp([math.inf, 0.0]) == math.inf
    assert math.isnan(log_sum_exp([0.0, math.nan]))
    rows = log_sum_exp([[0.0, 0.0], [-math.inf, -math.inf], [math.inf, 0.0]], axis=1)
    np.testing.assert_array_equal(rows, [log_sum_exp([0.0, 0.0]), -math.inf, math.inf])


def test_log_sum_exp_random_against_scipy():
    rng = np.random.default_rng(42)
    for _ in range(200):
        vals = rng.normal(scale=rng.uniform(0.5, 300.0), size=rng.integers(1, 40))
        assert log_sum_exp(vals) == pytest.approx(float(logsumexp(vals)), rel=1e-13)


def test_safe_exp():
    assert safe_exp(0.0) == 1.0
    assert safe_exp(709.0) == math.exp(709.0)
    assert safe_exp(710.0) == sys.float_info.max
    assert safe_exp(1e9) == sys.float_info.max
    assert safe_exp(-math.inf) == 0.0
    assert safe_exp(-745.0) == math.exp(-745.0)


def moment_by_direct_series(m, mu):
    """log E[N^m], N ~ Poisson(mu), by summing n^m e^{-mu} mu^n / n! in log space."""
    if m == 0:
        return 0.0
    n_hi = int(mu + m + 25.0 * math.sqrt(mu + m) + 120)
    n = np.arange(1, n_hi + 1, dtype=float)
    terms = m * np.log(n) + n * math.log(mu) - [math.lgamma(v + 1) for v in n] - mu
    return float(logsumexp(terms))


def test_poisson_moment_pinned():
    assert log_poisson_raw_moment(0, math.log(7.0)) == 0.0
    assert log_poisson_raw_moment(0, -math.inf) == 0.0
    assert log_poisson_raw_moment(1, math.log(2.0)) == pytest.approx(math.log(2), rel=1e-14)
    # E[N^2] = mu + mu^2 = 6 at mu = 2
    assert log_poisson_raw_moment(2, math.log(2.0)) == pytest.approx(math.log(6), rel=1e-14)
    assert log_poisson_raw_moment(3, -math.inf) == -math.inf


def test_poisson_moment_matches_direct_series():
    for m in (1, 2, 3, 5, 8, 12, 20):
        for mu in (0.1, 0.7, 2.0, 5.0, 20.0, 50.0):
            got = log_poisson_raw_moment(m, math.log(mu))
            want = moment_by_direct_series(m, mu)
            assert got == pytest.approx(want, rel=1e-10), (m, mu)


def test_poisson_moment_at_large_orders_matches_direct_series():
    # PCount sites with thousands of events: the peak term lies far from n = 1
    for m in (300, 1500, 4470, 5000):
        for mu in (0.5, 40.0, 800.0, 2000.0):
            got = log_poisson_raw_moment(m, math.log(mu))
            want = moment_by_direct_series(m, mu)
            assert got == pytest.approx(want, rel=1e-12), (m, mu)


def test_pfq_identities():
    # equal parameter multisets collapse to exp(z)
    for z in (0.0, 0.1, 2.0, 10.0):
        assert log_pfq_equal_order([3.7], [3.7], z) == pytest.approx(z, abs=1e-12)
    assert log_pfq_equal_order([2.0, 5.0], [5.0, 2.0], 1.5) == pytest.approx(1.5, abs=1e-12)
    # sum (n+1) z^n / n! = (1+z) e^z ; at z=1 this is the classic log(2e)
    assert log_pfq_equal_order([2.0], [1.0], 1.0) == pytest.approx(
        1.0 + math.log(2.0), abs=1e-12
    )
    for z in (0.3, 1.0, 4.0):
        assert log_pfq_equal_order([2.0], [1.0], z) == pytest.approx(
            math.log1p(z) + z, abs=1e-12
        )
    # sum z^n / (n+1)! = (e^z - 1) / z
    for z in (0.5, 3.0):
        want = math.log(math.expm1(z)) - math.log(z)
        assert log_pfq_equal_order([1.0], [2.0], z) == pytest.approx(want, abs=1e-12)


def test_pfq_validation_and_convergence():
    with pytest.raises(ValueError):
        log_pfq_equal_order([-1.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        log_pfq_equal_order([1.0, 2.0], [2.0], 1.0)
    with pytest.raises(ValueError):
        log_pfq_equal_order([1.0], [2.0], -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            log_pfq_equal_order([1.0], [2.0], bad)
    # the terms z^n / (n+1)! rise past any term bound: the error carries the
    # log-sum of the terms it did add
    z = 1e300
    with pytest.raises(SeriesConvergenceError) as info:
        log_pfq_equal_order([1.0], [2.0], z)
    n = np.arange(info.value.n_terms)
    assert info.value.n_terms >= 1
    assert info.value.partial_log_sum == pytest.approx(
        float(logsumexp(n * math.log(z) - [math.lgamma(k + 2.0) for k in n])), rel=1e-13
    )


def test_poisson_moment_array_matches_scalar_loop():
    log_mu = np.array([-math.inf, -3.0, 0.0, 1.7, 4.0, 9.0])
    for m in (0, 1, 4, 17):
        got = log_poisson_raw_moment(m, log_mu)
        want = [log_poisson_raw_moment(m, float(x)) for x in log_mu]
        assert got.shape == log_mu.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # an array of orders, with peaks from n = 1 out to n ~ 6000, broadcast
    # against a column of log-means
    orders = np.array([0, 1, 4, 17, 300, 4470])
    got = log_poisson_raw_moment(orders, log_mu[:, None])
    assert got.shape == (log_mu.size, orders.size)
    for i, x in enumerate(log_mu):
        want = [log_poisson_raw_moment(int(m), float(x)) for m in orders]
        np.testing.assert_allclose(got[i], want, rtol=1e-15, atol=0.0)


def test_pfq_rows_match_single_calls():
    rng = np.random.default_rng(7)
    r, p = 60, 3
    top = rng.integers(1, 25, r)
    a = np.repeat(top[:, None] + 1.0, p, axis=1)
    b = top[:, None] - rng.integers(0, top[:, None] + 1, (r, p)) + 1.0
    b[::7] = a[::7]  # pFq(a; a; z) = exp(z)
    z = rng.uniform(0.0, 40.0, r)
    z[::9] = 0.0
    # rows whose peaks lie far from 0, as at large abundance
    far = rng.integers(100, 600, 12)
    a = np.vstack([a, np.repeat(far[:, None] + 1.0, p, axis=1)])
    b = np.vstack([b, far[:, None] - rng.integers(0, 50, (12, p)) + 1.0])
    z = np.concatenate([z, rng.uniform(1e3, 5e4, 12)])
    r = z.size
    got = log_pfq_equal_order(a, b, z)
    want = [log_pfq_equal_order(a[i], b[i], z[i]) for i in range(r)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_pfq_capped_row_raises_while_others_converge():
    # the middle row's peak lies far past the series' bound on the peak index
    a = np.array([[2.0], [1.0], [3.0]])
    b = np.array([[1.0], [2.0], [1.0]])
    z = np.array([0.5, 1e300, 1.0])
    fine = log_pfq_equal_order(a[[0, 2]], b[[0, 2]], z[[0, 2]])
    assert np.all(np.isfinite(fine))
    with pytest.raises(SeriesConvergenceError) as together:
        log_pfq_equal_order(a, b, z)
    with pytest.raises(SeriesConvergenceError) as alone:
        log_pfq_equal_order(a[1], b[1], z[1])
    assert together.value.n_terms == alone.value.n_terms
    assert together.value.partial_log_sum == alone.value.partial_log_sum


def detection_moment_by_direct_series(w, mu):
    """log sum_{n >= 1} Poi(n; mu) prod_j (1 - e^{-n w_j}) over a wide fixed range."""
    n_hi = int(mu + 40.0 * math.sqrt(mu) + 200)
    n = np.arange(1, n_hi + 1, dtype=float)
    terms = n * math.log(mu) - [math.lgamma(v + 1) for v in n] - mu
    terms += sum(np.log(-np.expm1(-n * x)) for x in w)
    return float(logsumexp(terms))


def test_detection_moment_closed_forms():
    for mu in (0.05, 1.0, 3.0, 40.0):
        for a in (0.01, 0.5, 2.0):
            # one occasion: 1 - E[e^{-N a}] = 1 - exp(-mu (1 - e^{-a}))
            want = math.log(-math.expm1(-mu * -math.expm1(-a)))
            assert log_poisson_detection_moment([a], math.log(mu)) == pytest.approx(want, rel=1e-13)
            # two occasions by inclusion-exclusion
            b = 1.3
            both = 1.0 - sum(math.exp(-mu * -math.expm1(-x)) for x in (a, b)) + math.exp(-mu * -math.expm1(-a - b))
            got = log_poisson_detection_moment([a, b], math.log(mu))
            assert got == pytest.approx(math.log(both), rel=1e-12), (mu, a)
        # occasions that cannot miss detect whenever N >= 1
        got = log_poisson_detection_moment([math.inf, math.inf], math.log(mu))
        assert got == pytest.approx(math.log(-math.expm1(-mu)), rel=1e-13)
    assert log_poisson_detection_moment([0.0, 1.0], 0.0) == -math.inf
    assert log_poisson_detection_moment([1.0], -math.inf) == -math.inf


def test_detection_moment_matches_direct_series():
    rng = np.random.default_rng(11)
    for mu in (0.3, 5.0, 60.0, 2000.0, 1e5):
        for d in (1, 4, 30):
            w = rng.uniform(0.001, 3.0, d)
            got = log_poisson_detection_moment(w, math.log(mu))
            want = detection_moment_by_direct_series(w, mu)
            # terms carry the Poisson log-pmf floor, ~eps * mu * log(mu) absolute
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * mu), (mu, d)


def test_detection_moment_rows_match_single_calls():
    rng = np.random.default_rng(12)
    r, d = 40, 6
    w = rng.uniform(1e-3, 3.0, (r, d))
    widths = rng.integers(1, d + 1, r)
    w[np.arange(d) >= widths[:, None]] = math.inf  # shorter histories, padded
    log_mu = rng.uniform(-3.0, 9.0, r)
    got = log_poisson_detection_moment(w, log_mu)
    assert got.shape == (r,)
    want = [log_poisson_detection_moment(w[i, : widths[i]], log_mu[i]) for i in range(r)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_detection_moment_validation_and_limits():
    for w, log_mu in (([math.nan], 0.0), ([-1.0], 0.0), ([], 0.0), ([1.0], [0.0]), ([[1.0]], 0.0), ([[[1.0]]], [[0.0]])):
        with pytest.raises(ValueError):
            log_poisson_detection_moment(w, log_mu)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            log_poisson_detection_moment([1.0], bad)
    with pytest.raises(SeriesConvergenceError):
        log_poisson_detection_moment([1.0], 23.0)
    # exposures whose e^{n w} overflows, and a mean that underflows, raise no
    # RuntimeWarning and keep their limits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = log_poisson_detection_moment([1e300, 1.0], 0.0)
        tiny = log_poisson_detection_moment([1.0, 2.0], -1e308)
    assert huge == log_poisson_detection_moment([math.inf, 1.0], 0.0)
    assert tiny == pytest.approx(-1e308 + math.log(-math.expm1(-1.0)) + math.log(-math.expm1(-2.0)), rel=1e-15)


# Scores: the summer's tilted means against direct sums and shift identities.


def test_pfq_score_is_the_tilted_mean_and_the_shift_identity():
    cases = [
        ([2.0], [1.0], 0.7),
        ([3.0, 5.0], [1.0, 2.0], 4.0),
        ([4.0, 4.0, 4.0], [2.0, 3.0, 4.0], 30.0),
        ([26.0, 26.0], [20.0, 3.0], 800.0),  # the window moves to the peak
    ]
    for a, b, z in cases:
        value, d_log_z, _ = log_pfq_equal_order(a, b, z, score=True)
        assert value == log_pfq_equal_order(a, b, z)
        n = np.arange(0.0, z + 40.0 * math.sqrt(z) + 200.0)
        log_terms = sum(gammaln(x + n) - gammaln(x) for x in a) - sum(gammaln(x + n) - gammaln(x) for x in b)
        log_terms += n * math.log(z) - gammaln(n + 1.0)
        assert d_log_z == pytest.approx(tilted_mean(log_terms, n), rel=1e-11), (a, b, z)
        # z d/dz pFq(a; b; z) = z (prod a / prod b) pFq(a + 1; b + 1; z)
        shifted = log_pfq_equal_order(np.add(a, 1.0), np.add(b, 1.0), z)
        want = z * math.prod(a) / math.prod(b) * math.exp(shifted - value)
        assert d_log_z == pytest.approx(want, rel=1e-11), (a, b, z)
    assert log_pfq_equal_order([2.0], [1.0], 0.0, score=True) == (0.0, 0.0, 0.0)


def test_pfq_scores_of_rows_match_single_calls():
    a = np.array([[3.0, 3.0], [2.0, 2.0], [40.0, 40.0], [5.0, 5.0]])
    b = np.array([[1.0, 2.0], [2.0, 2.0], [30.0, 11.0], [1.0, 4.0]])
    z = np.array([1.5, 3.0, 2e3, 0.0])
    _, rows, _ = log_pfq_equal_order(a, b, z, score=True)
    single = [log_pfq_equal_order(a[i], b[i], z[i], score=True)[1] for i in range(z.size)]
    np.testing.assert_allclose(rows, single, rtol=1e-14, atol=0.0)
    assert rows[1] == pytest.approx(3.0, rel=1e-14)  # pFq(a; a; z) = e^z


def test_raw_moment_score_is_the_tilted_mean_and_the_moment_ratio():
    for m in (1, 2, 5, 20, 300):
        for mu in (0.01, 0.7, 4.0, 60.0, 2000.0):
            value, d_log_mu, _ = log_poisson_raw_moment(m, math.log(mu), score=True)
            assert value == log_poisson_raw_moment(m, math.log(mu))
            n = np.arange(1.0, mu + m + 40.0 * math.sqrt(mu + m) + 200.0)
            log_terms = m * np.log(n) + n * math.log(mu) - gammaln(n + 1.0)
            assert d_log_mu + mu == pytest.approx(tilted_mean(log_terms, n), rel=1e-11), (m, mu)
            # d log E[N^m] / d log mu = E[N^{m+1}] / E[N^m] - mu
            ratio = math.exp(log_poisson_raw_moment(m + 1, math.log(mu)) - value)
            assert d_log_mu == pytest.approx(ratio - mu, rel=1e-9, abs=1e-9 * mu), (m, mu)
    orders = np.array([0, 0, 3, 3, 7])
    log_mu = np.array([1.0, -math.inf, -math.inf, 0.5, 8.0])
    values, scores, _ = log_poisson_raw_moment(orders, log_mu, score=True)
    np.testing.assert_array_equal(values, log_poisson_raw_moment(orders, log_mu))
    # order 0 has no dependence on mu; E_t[n] -> 1 as mu -> 0
    assert scores[0] == scores[1] == 0.0 and scores[2] == 1.0
    single = [log_poisson_raw_moment(int(m), float(x), score=True)[1] for m, x in zip(orders, log_mu)]
    np.testing.assert_allclose(scores, single, rtol=1e-14, atol=0.0)


def test_detection_moment_scores_are_tilted_means():
    rng = np.random.default_rng(13)
    for mu in (0.3, 5.0, 60.0, 2000.0):
        for d in (1, 4, 12):
            w = rng.uniform(0.01, 3.0, d)
            value, d_log_mu, d_w, _ = log_poisson_detection_moment(w, math.log(mu), score=True)
            assert value == log_poisson_detection_moment(w, math.log(mu))
            n = np.arange(1.0, mu + 40.0 * math.sqrt(mu) + 200.0)
            log_terms = n * math.log(mu) - gammaln(n + 1.0) + sum(np.log(-np.expm1(-n * x)) for x in w)
            assert d_log_mu + mu == pytest.approx(tilted_mean(log_terms, n), rel=1e-11), (mu, d)
            with np.errstate(over="ignore"):
                want = [tilted_mean(log_terms, n / np.expm1(n * x)) for x in w]
            # a score that falls off fast with n, such as e^{-n w} near 1e-135,
            # weighs the window's left tail more than the sum does
            np.testing.assert_allclose(d_w, want, rtol=1e-10, atol=1e-12)
    # a padded occasion that cannot miss has score 0 and leaves the rest as they were
    short = log_poisson_detection_moment([0.4, 1.1], 1.0, score=True)
    padded = log_poisson_detection_moment([[0.4, 1.1, math.inf]], [1.0], score=True)
    assert padded[0][0] == short[0] and padded[1][0] == short[1]
    np.testing.assert_array_equal(padded[2][0], [*short[2], 0.0])
    # rows whose value is -inf carry no score
    _, d_log_mu, d_w, _ = log_poisson_detection_moment([[0.0, 1.0], [1.0, 1.0]], [0.0, -math.inf], score=True)
    assert np.all(np.isnan(d_log_mu)) and np.all(np.isnan(d_w))


# Far peaks: windows clear of the series' start sum every k-th exact term
# times k, at a stride set by the width of the row's own bell.

EPS = np.finfo(float).eps


def lgamma_floor(peak):
    """The rounding of exact log terms near index ``peak``: ~eps n log n."""
    return EPS * peak * math.log(peak)


def term_reads(monkeypatch):
    """Record, per call, how many indices a row's exact log terms are read at:
    1 for the first term of a window, more for a window sampled at a stride."""
    reads = []
    real = special._log_series_sum

    def counted_sum(start, first, log_first, log_ratio, log_term, *scores):
        def counted(rows, n):
            reads.append(np.shape(n)[0])
            return log_term(rows, n)

        return real(start, first, log_first, log_ratio, counted, *scores)

    monkeypatch.setattr(special, "_log_series_sum", counted_sum)
    return reads


@pytest.mark.parametrize("peak", [1e3, 1e5, 1e7])
def test_far_peaks_match_direct_sums_of_exact_terms(peak, monkeypatch):
    reads = term_reads(monkeypatch)
    log_mu, floor = math.log(peak), lgamma_floor(peak)
    n = bruteforce.series_window(peak, math.sqrt(peak), 1)
    for m in (1, 3):
        value, d_log_mu, _ = log_poisson_raw_moment(m, log_mu, score=True)
        log_terms = bruteforce.raw_moment_log_terms(m, peak, n)
        want = float(logsumexp(log_terms))
        assert abs(value - want) <= max(1e-12 * abs(want), floor), (m, value, want)
        assert d_log_mu + peak == pytest.approx(tilted_mean(log_terms, n), rel=1e-10), m
    # exposures of order 1 / mu keep the occasion scores n / (e^{n w} - 1) of order mu
    w = np.array([0.5, 2.0, 9.0]) / peak
    value, d_log_mu, d_w, _ = log_poisson_detection_moment(w, log_mu, score=True)
    log_terms = bruteforce.detection_log_terms(w, peak, n)
    want = float(logsumexp(log_terms))
    assert abs(value - want) <= max(1e-12 * abs(want), floor), (value, want)
    assert d_log_mu + peak == pytest.approx(tilted_mean(log_terms, n), rel=1e-10)
    np.testing.assert_allclose(d_w, [tilted_mean(log_terms, n / np.expm1(n * x)) for x in w], rtol=1e-10)
    a, b = [5.0, 12.0], [1.0, 3.0]
    value, d_log_z, _ = log_pfq_equal_order(a, b, peak, score=True)
    n = bruteforce.series_window(peak, math.sqrt(peak), 0)
    log_terms = bruteforce.pfq_log_terms(a, b, peak, n)
    want = float(logsumexp(log_terms))
    assert abs(value - want) <= max(1e-12 * abs(want), floor), (value, want)
    assert d_log_z == pytest.approx(tilted_mean(log_terms, n), rel=1e-10)
    assert min(reads) == 1 and max(reads) > 1  # the windows were sampled at a stride


def test_rows_mixing_strided_unstrided_and_empty_match_single_calls(monkeypatch):
    reads = term_reads(monkeypatch)
    # empty, first-window, moved (sigma < 8) and strided rows
    log_mu = np.array([-math.inf, *np.log([0.5, 3.0, 30.0, 1e-10, 2e3, 1e5, 1e7])])
    orders = np.array([3, 3, 0, 2, 10**4, 1, 40, 3])
    rows = log_poisson_raw_moment(orders, log_mu, score=True)
    single = [log_poisson_raw_moment(int(m), float(x), score=True) for m, x in zip(orders, log_mu)]
    for got, want in zip(rows, zip(*single)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    w = np.outer(np.exp(-log_mu[1:]), [0.5, 1.0, 4.0])
    w = np.vstack([w[:2], [[0.0, 1.0, 1.0]], w, [[1.0, 1.0, 1.0]]])  # a zero exposure and a zero mean
    mus = np.concatenate([log_mu[1:3], [0.0], log_mu[1:], [-math.inf]])
    rows = log_poisson_detection_moment(w, mus, score=True)
    single = [log_poisson_detection_moment(w[i], mus[i], score=True) for i in range(mus.size)]
    for got, want in zip(rows, zip(*single)):
        np.testing.assert_allclose(got, np.array(want), rtol=1e-14, atol=0.0)
    z = np.array([0.0, 1.5, 40.0, 2e3, 1e5, 1e7])
    a = np.tile([5.0, 12.0], (z.size, 1))
    b = np.tile([1.0, 3.0], (z.size, 1))
    rows = log_pfq_equal_order(a, b, z, score=True)
    single = [log_pfq_equal_order(a[i], b[i], z[i], score=True) for i in range(z.size)]
    for got, want in zip(rows, zip(*single)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert max(reads) > 1


def test_far_peak_cost_is_bounded_whatever_the_peak():
    # Dobinski's rows for E[N] = mu: n mu^n e^{-mu} / n!, from n = 1
    reads = {}
    for mu in (1e4, 1e6, 1e9):
        log_mu = math.log(mu)
        count = [0]

        def log_ratio(i, n):
            count[0] += np.size(n)
            return np.log1p(1.0 / n) + (log_mu - np.log(n + 1.0))

        def log_term(i, n):
            count[0] += np.size(n)
            return np.log(n) + n * log_mu - gammaln(n + 1.0) - mu

        value = special._log_series_sum(1, 32, np.array([log_mu - mu]), log_ratio, log_term)
        assert value[0] == pytest.approx(log_mu, abs=2 * lgamma_floor(mu)), mu
        reads[mu] = count[0]
    assert max(reads.values()) < 2000, reads
    assert reads[1e9] <= 2 * reads[1e4], reads


def reflected_poisson(top, mu):
    """Callbacks of the finite series t_n = Poi(top - n; mu), 0 <= n <= top,
    whose bell is cut off at n = 0 or at n = top when mu is near top or 0."""
    log_mu = math.log(mu)

    def log_ratio(i, n):
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(top - n, 0.0)) - log_mu + np.zeros(i.shape)

    def log_term(i, n):
        k = top - n
        return np.where(k >= 0, k * log_mu - mu - gammaln(np.maximum(k, 0.0) + 1.0), -math.inf)

    return log_ratio, log_term


@pytest.mark.parametrize(
    "top, mu, strides_first",
    [
        (1e4 + 40.0, 1e4, False),  # a wide bell whose window is placed at n = 0
        (1e4 + 300.0, 1e4, True),  # a strided window whose tails send it back to n = 0
        (1e6, 0.5, False),  # the peak at the last term: the ratio past it is -inf
    ],
)
def test_windows_cut_off_by_a_series_end_sum_every_term(top, mu, strides_first):
    log_ratio, log_term = reflected_poisson(top, mu)
    reads = []

    def counted(i, n):
        reads.append(np.shape(n)[0])
        return log_term(i, n)

    got = special._log_series_sum(0, 16, log_term(np.arange(1), np.zeros((1, 1)))[0], log_ratio, counted)
    want = float(logsumexp(log_term(None, np.arange(top + 1.0))))
    # a stride across the cut-off would be wrong by 3e-4 or more
    assert abs(got[0] - want) <= max(1e-12 * abs(want), lgamma_floor(top)), (got, want)
    assert (max(reads, default=1) > 1) == strides_first


def test_narrow_bells_keep_stride_one(monkeypatch):
    reads = term_reads(monkeypatch)
    # a large moment order at a tiny mean: the peak near n = 330 has sigma ~ 3
    m, mu = 10**4, 1e-10
    n = bruteforce.series_window(330.0, 5.0, 1)
    want = float(logsumexp(bruteforce.raw_moment_log_terms(m, mu, n)))
    assert log_poisson_raw_moment(m, math.log(mu)) == pytest.approx(want, rel=1e-12)
    # three large parameter gaps at a small argument: terms ~ (1e6^3 z)^n / n!^4,
    # sigma ~ 7 around n ~ 200
    a, b, z = [1e6] * 3, [1.0] * 3, 1.6e-9
    n = bruteforce.series_window(200.0, 10.0, 0)
    want = float(logsumexp(bruteforce.pfq_log_terms(a, b, z, n)))
    assert abs(log_pfq_equal_order(a, b, z) - want) <= lgamma_floor(1e6)
    assert reads and max(reads) == 1


def test_strided_windows_of_narrow_far_bells_read_at_most_128_terms(monkeypatch):
    reads = term_reads(monkeypatch)
    # bells of width ~25 around peaks near 2000 and 1200, much narrower than
    # sqrt(peak): a lambda ~ 2000 PCount:M raw moment and Count:M site series
    rows = [
        (log_poisson_raw_moment(4000, math.log(270.0), score=True), 1998.0, 26.0, 1,
         lambda n: bruteforce.raw_moment_log_terms(4000, 270.0, n), 270.0),
        (log_pfq_equal_order([801.0] * 3, [1.0, 30.0, 60.0], 270.0, score=True), 1182.0, 24.0, 0,
         lambda n: bruteforce.pfq_log_terms([801.0] * 3, [1.0, 30.0, 60.0], 270.0, n), 0.0),
    ]
    for (value, d1, d2), peak, sigma, start, log_terms_at, shift in rows:
        n = bruteforce.series_window(peak, sigma, start)
        log_terms = log_terms_at(n)
        want = float(logsumexp(log_terms))
        assert abs(value - want) <= max(1e-12 * abs(want), lgamma_floor(peak)), (value, want)
        assert d1 + shift == pytest.approx(tilted_mean(log_terms, n), rel=1e-10)
        rtol = max(1e-10, lgamma_floor(peak))
        assert d2 + shift == pytest.approx(tilted_covariance(log_terms, [n])[0, 0], rel=rtol)
    assert 1 < max(reads) <= 128, reads  # strided, and 128 samples at most


def test_stride_is_one_for_a_flat_or_non_finite_slope():
    # log ratios at peak -+ d per row: flat, NaN, falling to -inf, rising, and
    # a bell of width sigma = sqrt(2 * 1000 / 2e-3) = 1000
    ends = np.array([[0.0, math.nan, 1.0, -1.0, 1e-3], [0.0, -1.0, -math.inf, 1.0, -1e-3]])
    peak = np.full(5, 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special._strides(lambda i, n: ends, np.arange(5), peak)
    np.testing.assert_array_equal(got, [1.0, 1.0, 1.0, 1.0, 128.0])


# Second derivatives: the tilted covariance of the scores, centred on their
# means, over the same final window as the value.


def tilted_covariance(log_terms, scores):
    """Direct (q, q) covariance of the rows of ``scores`` under weights t_n."""
    means = [tilted_mean(log_terms, s) for s in scores]
    return np.array([[tilted_mean(log_terms, (a - ma) * (b - mb)) for b, mb in zip(scores, means)]
                     for a, ma in zip(scores, means)])


@pytest.mark.parametrize("peak", [1.0, 1e3, 1e7])
def test_tilted_covariances_match_direct_sums(peak):
    log_mu = math.log(peak)
    # the terms' own rounding, ~eps n log n, limits the weights at far peaks
    rtol = max(1e-10, lgamma_floor(peak))
    n = bruteforce.series_window(peak, math.sqrt(peak), 1)
    for m in (1, 3):
        *_, d2 = log_poisson_raw_moment(m, log_mu, score=True)
        log_terms = bruteforce.raw_moment_log_terms(m, peak, n)
        assert d2 + peak == pytest.approx(tilted_covariance(log_terms, [n])[0, 0], rel=rtol), m
    # exposures of order 1 / mu, and an occasion that cannot miss
    w = np.array([0.5, 2.0, 9.0, math.inf]) / peak
    *_, hess = log_poisson_detection_moment(w, log_mu, score=True)
    log_terms = bruteforce.detection_log_terms(w[:3], peak, n)
    with np.errstate(over="ignore"):
        per_occasion = [n / np.expm1(n * x) for x in w]
    want = tilted_covariance(log_terms, [n, *per_occasion])
    want[0, 0] -= peak
    for j, s in enumerate(per_occasion):
        want[1 + j, 1 + j] += tilted_mean(log_terms, -s * (n + s))
    np.testing.assert_allclose(hess, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))
    assert not np.any(hess[-1]) and not np.any(hess[:, -1])
    a, b = [5.0, 12.0], [1.0, 3.0]
    *_, d2 = log_pfq_equal_order(a, b, peak, score=True)
    n = bruteforce.series_window(peak, math.sqrt(peak), 0)
    log_terms = bruteforce.pfq_log_terms(a, b, peak, n)
    assert d2 == pytest.approx(tilted_covariance(log_terms, [n])[0, 0], rel=rtol)


def test_second_derivatives_keep_values_and_scores_and_rows_apart():
    # a row whose value is -inf has a NaN Hessian and leaves the other rows
    # as their own calls
    log_mu = np.log([0.5, 30.0, 2e3, 1e7])
    orders = np.array([3, 0, 2, 40])
    got = log_poisson_raw_moment(orders, log_mu, score=True)
    assert got[2][1] == 0.0
    w = np.vstack([np.outer(np.exp(-log_mu), [0.5, 1.0, 4.0]), [[0.0, 1.0, 1.0]]])
    mus = np.append(log_mu, 0.0)
    got = log_poisson_detection_moment(w, mus, score=True)
    assert np.all(np.isnan(got[3][-1]))
    for i in range(log_mu.size):
        np.testing.assert_allclose(got[3][i], log_poisson_detection_moment(w[i], mus[i], score=True)[3], rtol=1e-13)
    z = np.array([0.0, 1.5, 2e3, 1e7])
    a, b = np.tile([5.0, 12.0], (z.size, 1)), np.tile([1.0, 3.0], (z.size, 1))
    got = log_pfq_equal_order(a, b, z, score=True)
    assert got[2][0] == 0.0
