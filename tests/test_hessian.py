"""Exact Hessians of ``total_loglik`` against central differences of its exact score."""
import math
import warnings

import numpy as np
import pytest

from bruteforce import score_difference_hessian
from nmixtime.estimate import _CountedLoglik
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
from test_score import VARIANTS, layouts, survey

RTOL, ATOL = 1e-6, 1e-6


def exact_hessian(ds, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return total_loglik(ds, params, score=True).hessian


def score_differences(ds, params):
    def score(x):
        return total_loglik(ds, params.with_free_values(x), score=True).score

    return score_difference_hessian(score, params.free_values())


def around(params, lam):
    """The same layout with every site's log lambda moved by log(lam / 3)."""
    log_lambda = np.array(params.log_lambda, dtype=float)
    if params.site_covariates is None:
        log_lambda += math.log(lam / 3.0)
    else:  # the intercept: the first covariate column is all ones
        log_lambda[0] += math.log(lam / 3.0)
    return Parameterization(log_lambda, params.log_rate, params.site_covariates, params.rate_covariates)


@pytest.mark.parametrize("lam", [3.0, 30.0])
@pytest.mark.parametrize("variant", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_hessian_matches_score_differences(variant, lam):
    ds, rng = survey(*variant, lam)
    for name, params in layouts(rng, variant[2]).items():
        params = around(params, lam)
        got = exact_hessian(ds, params)
        assert got.shape == (params.n_free, params.n_free), name
        np.testing.assert_allclose(got, score_differences(ds, params), rtol=RTOL, atol=ATOL, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_hessian_comes_with_the_scored_total_and_score(variant):
    ds, rng = survey(*variant, 3.0)
    for name, params in layouts(rng, variant[2]).items():
        plain = total_loglik(ds, params)
        curved = total_loglik(ds, params, score=True)
        assert curved.total == plain.total, name
        np.testing.assert_array_equal(curved.per_site, plain.per_site)
        assert plain.hessian is None and curved.score.shape == (params.n_free,)
        np.testing.assert_array_equal(curved.hessian, curved.hessian.T)
        assert not curved.hessian.flags.writeable


@pytest.mark.parametrize(
    "family, process",
    [
        (Family.COUNT, ObservationProcess.BINOMIAL_COUNT),
        (Family.COUNT, ObservationProcess.POISSON_PROCESS),
        (Family.BINARY_T1, ObservationProcess.BINOMIAL_COUNT),
    ],
    ids=["Count:M", "PCount:M", "BinaryT1:M"],
)
def test_far_peak_hessians_match_score_differences(family, process):
    # every series row strides at log lambda = 20
    proto = Protocol.for_design(family, process, 4)
    truth = Parameterization(math.log(3.0), math.log(0.5))
    ds = simulate_dataset(SimConfig(proto, SurveyDesign(200, 4, 1.0), truth, seed=1))
    params = Parameterization(20.0, math.log(0.5))
    got = exact_hessian(ds, params)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, score_differences(ds, params), rtol=RTOL, atol=ATOL)


def binary_survey(rows):
    j = len(rows[0])
    proto = Protocol.for_design(Family.BINARY, ObservationProcess.BINOMIAL_COUNT, j)
    t_max = np.random.default_rng(2).uniform(0.6, 1.4, size=(len(rows), j))
    records = [SiteRecord(i, np.array(r)) for i, r in enumerate(rows)]
    return Dataset(proto, SurveyDesign(len(rows), j, t_max), records)


def test_binary_histories_padded_to_a_site_detected_every_time():
    # one site detects on every occasion, so every shorter history is padded
    # with occasions that cannot miss
    ds = binary_survey([[1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0], [1, 1, 0, 1]])
    assert ds.site_data.slots.shape == (4, 4) and np.any(ds.site_data.slots < 0)
    rng = np.random.default_rng(8)
    for params in (
        Parameterization(1.2, -0.3),
        Parameterization(0.8, rng.normal(-0.3, 0.3, 4)),
        Parameterization(rng.normal(1.0, 0.3, 5), rng.normal(-0.3, 0.3, (5, 4))),
    ):
        np.testing.assert_allclose(exact_hessian(ds, params), score_differences(ds, params), rtol=RTOL, atol=ATOL)


def test_a_site_whose_value_is_minus_inf_leaves_the_others_blocks_alone():
    # a zero rate on a detecting occasion: that site cannot have its record
    ds = binary_survey([[1, 1, 0], [1, 0, 1], [0, 0, 0], [0, 1, 1]])
    data = ds.site_data
    log_lam = np.full(4, 1.1)
    log_rate = np.full((4, 3), -0.4)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        *_, hess = data.kernel(data, log_lam, log_rate, score=True)
        log_rate[1, 2] = -math.inf
        dead, *_, dead_hess = data.kernel(data, log_lam, log_rate, score=True)
    assert dead[1] == -math.inf and np.all(np.isfinite(np.delete(dead, 1)))
    np.testing.assert_allclose(np.delete(dead_hess, 1, axis=0), np.delete(hess, 1, axis=0), rtol=1e-13, atol=1e-15)
    # a fit scores such a proposal as impossible, with a finite zero curvature
    params = Parameterization(1.1, log_rate)
    value, score, curvature = _CountedLoglik(ds, params).curved(params.free_values())
    assert value == -math.inf and not np.any(score) and not np.any(curvature)
