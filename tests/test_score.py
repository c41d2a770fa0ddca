"""Exact scores of ``total_loglik`` against central differences of its value."""
import math
import warnings

import numpy as np
import pytest

from nmixtime.errors import SeriesConvergenceError
from nmixtime.likelihood import total_loglik
from nmixtime.model import (
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SurveyDesign,
)
from nmixtime.simulate import SimConfig, simulate_dataset

VARIANTS = [
    (family, process, j)
    for family in Family
    for process in ObservationProcess
    for j in (1, 3)
]
N_SITES = 7
STEP = 1e-5


def survey(family, process, j, lam=3.0):
    rng = np.random.default_rng(5)
    t_max = rng.uniform(0.6, 1.4, size=(N_SITES, j))
    proto = Protocol.for_design(family, process, j)
    truth = Parameterization(math.log(lam), math.log(0.7))
    return simulate_dataset(SimConfig(proto, SurveyDesign(N_SITES, j, t_max), truth, seed=3)), rng


def layouts(rng, j):
    """One parameter set per coefficient layout ``Parameterization`` supports."""
    x = np.column_stack([np.ones(N_SITES), np.linspace(-1.0, 1.0, N_SITES)])
    z = np.stack([np.ones((N_SITES, j)), rng.normal(size=(N_SITES, j))], axis=2)
    return {
        "scalar": Parameterization(1.3, -0.2),
        "per-site log lambda": Parameterization(rng.normal(1.0, 0.3, N_SITES), -0.4),
        "(J,) log rate": Parameterization(1.1, rng.normal(-0.3, 0.3, j)),
        "(R, J) log rate": Parameterization(0.9, rng.normal(-0.3, 0.3, (N_SITES, j))),
        "site covariates": Parameterization([1.0, 0.4], 0.1, site_covariates=x),
        "rate covariates": Parameterization(1.2, [-0.3, 0.5], rate_covariates=z),
    }


def central_differences(ds, params):
    x = params.free_values()
    out = np.empty(x.size)
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = STEP
        up = total_loglik(ds, params.with_free_values(x + e)).total
        down = total_loglik(ds, params.with_free_values(x - e)).total
        out[k] = (up - down) / (2.0 * STEP)
    return out


@pytest.mark.parametrize("variant", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_score_matches_central_differences(variant):
    ds, rng = survey(*variant)
    for name, params in layouts(rng, variant[2]).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = total_loglik(ds, params, score=True)
        assert got.score.shape == (params.n_free,), name
        want = central_differences(ds, params)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got.score - want)) <= 1e-6 * scale, (name, got.score, want)


@pytest.mark.parametrize("variant", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_scored_total_is_the_value_only_total(variant):
    ds, rng = survey(*variant)
    for name, params in layouts(rng, variant[2]).items():
        for constants in (False, True):
            plain = total_loglik(ds, params, include_constants=constants)
            scored = total_loglik(ds, params, include_constants=constants, score=True)
            assert scored.total == plain.total, name
            np.testing.assert_array_equal(scored.per_site, plain.per_site)
            assert plain.score is None


def test_score_at_the_limits_warns_nothing():
    # tiny and overflowing rates and abundances, whose per-site values can
    # also overflow in the sum over sites: on both paths the same total and
    # no RuntimeWarning
    for variant in VARIANTS:
        ds, _ = survey(*variant)
        for log_lam in (-30.0, 1.0, 30.0, 710.0):
            for log_h in (-30.0, 0.0, 30.0, 709.5, 1e4):
                params = Parameterization(log_lam, log_h)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        got = total_loglik(ds, params, score=True)
                    except SeriesConvergenceError:
                        continue
                    assert got.total == total_loglik(ds, params).total


@pytest.mark.parametrize(
    "family, process",
    [
        (Family.COUNT, ObservationProcess.BINOMIAL_COUNT),
        (Family.COUNT, ObservationProcess.POISSON_PROCESS),
        (Family.BINARY_T1, ObservationProcess.BINOMIAL_COUNT),
    ],
    ids=["Count:M", "PCount:M", "BinaryT1:M"],
)
def test_far_peak_scores_match_central_differences(family, process):
    # a 200-site, 4-occasion field survey probed at abundances near the
    # series' bound on the peak index, where every series row strides
    proto = Protocol.for_design(family, process, 4)
    truth = Parameterization(math.log(3.0), math.log(0.5))
    ds = simulate_dataset(SimConfig(proto, SurveyDesign(200, 4, 1.0), truth, seed=1))
    for log_lam in (20.0, 22.0):
        params = Parameterization(log_lam, math.log(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = total_loglik(ds, params, score=True)
            want = central_differences(ds, params)
        assert np.isfinite(got.total) and np.all(np.isfinite(got.score)), log_lam
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got.score - want)) <= 1e-6 * scale, (log_lam, got.score, want)
