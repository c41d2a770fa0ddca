"""Special-function checks against enumeration and direct summation."""
import math
import sys

import numpy as np
import pytest
from scipy.special import logsumexp

from nmixtime.errors import SeriesConvergenceError
from nmixtime.special import (
    Stirling2Table,
    log_pfq_equal_order,
    log_poisson_raw_moment,
    log_stirling2,
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


def test_stirling_pinned_values():
    assert log_stirling2(3, 3) == 0.0
    assert log_stirling2(3, 2) == pytest.approx(math.log(3), abs=1e-14)
    assert log_stirling2(4, 2) == pytest.approx(math.log(7), abs=1e-14)
    assert log_stirling2(0, 0) == 0.0
    assert log_stirling2(5, 0) == -math.inf
    assert log_stirling2(2, 5) == -math.inf
    with pytest.raises(ValueError):
        log_stirling2(-1, 0)


def test_stirling_matches_partition_enumeration():
    for n in range(1, 11):
        counts = [0] * (n + 1)
        for part in set_partitions(list(range(n))):
            counts[len(part)] += 1
        for k in range(1, n + 1):
            assert log_stirling2(n, k) == pytest.approx(
                math.log(counts[k]), rel=1e-12
            ), (n, k)


def test_stirling_matches_integer_recurrence():
    exact = stirling2_exact(15)
    for n in range(16):
        for k in range(n + 1):
            got = log_stirling2(n, k)
            if exact[n][k] == 0:
                assert got == -math.inf
            else:
                assert got == pytest.approx(math.log(exact[n][k]), rel=1e-12)


def test_stirling_table_growth_consistency():
    fresh = Stirling2Table()
    big_first = fresh.log_value(60, 17)
    grown = Stirling2Table()
    for n in (5, 23, 60):
        grown.log_value(n, min(n, 17))
    assert grown.log_value(60, 17) == big_first
    row = fresh.log_row(12)
    for k in range(13):
        assert row[k] == fresh.log_value(12, k)


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
    with pytest.raises(SeriesConvergenceError) as info:
        log_pfq_equal_order([1.0], [2.0], 30.0, max_terms=5)
    assert info.value.n_terms == 5
    assert math.isfinite(info.value.partial_log_sum)


def test_poisson_moment_array_matches_scalar_loop():
    log_mu = np.array([-math.inf, -3.0, 0.0, 1.7, 4.0, 9.0])
    for m in (0, 1, 4, 17):
        got = log_poisson_raw_moment(m, log_mu)
        want = [log_poisson_raw_moment(m, float(x)) for x in log_mu]
        assert got.shape == log_mu.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_pfq_rows_match_single_calls():
    rng = np.random.default_rng(7)
    r, p = 60, 3
    top = rng.integers(1, 25, r)
    a = np.repeat(top[:, None] + 1.0, p, axis=1)
    b = top[:, None] - rng.integers(0, top[:, None] + 1, (r, p)) + 1.0
    b[::7] = a[::7]  # pFq(a; a; z) = exp(z)
    z = rng.uniform(0.0, 40.0, r)
    z[::9] = 0.0
    got = log_pfq_equal_order(a, b, z)
    want = [log_pfq_equal_order(a[i], b[i], z[i]) for i in range(r)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_pfq_capped_row_raises_while_others_converge():
    a = np.array([[2.0], [1.0], [3.0]])
    b = np.array([[1.0], [2.0], [1.0]])
    z = np.array([0.5, 30.0, 1.0])
    fine = log_pfq_equal_order(a[[0, 2]], b[[0, 2]], z[[0, 2]], max_terms=40)
    assert np.all(np.isfinite(fine))
    with pytest.raises(SeriesConvergenceError) as together:
        log_pfq_equal_order(a, b, z, max_terms=40)
    with pytest.raises(SeriesConvergenceError) as alone:
        log_pfq_equal_order(a[1], b[1], z[1], max_terms=40)
    assert together.value.n_terms == alone.value.n_terms == 40
    assert together.value.partial_log_sum == alone.value.partial_log_sum
