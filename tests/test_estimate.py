"""Fitting, curvature reporting, and profile behavior on simulated data."""
import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nmixtime.estimate
from nmixtime.errors import LikelihoodDomainError, SeriesConvergenceError
from nmixtime.estimate import (
    _CountedLoglik,
    _curvature_report,
    _step,
    default_init,
    fit,
    profile_loglik,
)
from nmixtime.likelihood import irrelevant_constants, total_loglik
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

from bruteforce import finite_difference_hessian, score_difference_hessian

BIN = ObservationProcess.BINOMIAL_COUNT


def simulated(family, r, j, lam, h, seed, t_max=1.0):
    proto = Protocol.for_design(family, BIN, j)
    design = SurveyDesign(r, j, t_max)
    truth = Parameterization(math.log(lam), math.log(h))
    return simulate_dataset(SimConfig(proto, design, truth, seed=seed)), truth


def strip_times(dataset):
    proto = Protocol.for_design(Family.COUNT, dataset.protocol.process, dataset.design.n_occasions)
    return Dataset(
        proto, dataset.design, [SiteRecord(r.site, r.counts) for r in dataset.records]
    )


def test_default_init_is_finite_and_sized():
    ds, _ = simulated(Family.COUNT, 40, 3, 2.0, 1.0, seed=10)
    init = default_init(ds)
    x = init.free_values()
    assert x.shape == (2,)
    assert np.all(np.isfinite(x))


def test_count_recovery_close_to_truth():
    ds, truth = simulated(Family.COUNT, 300, 3, 2.0, 1.0, seed=42)
    res = fit(ds)
    assert res.converged
    est = res.estimates.free_values()
    assert np.all(np.isfinite(res.se))
    assert np.all(np.abs(est - truth.free_values()) < 3.0 * res.se)
    assert res.hessian_condition < 1e6


def test_optimum_dominates_truth_and_default_start():
    ds, truth = simulated(Family.COUNT, 80, 2, 2.0, 1.0, seed=7)
    res = fit(ds, init=truth)
    at_truth = total_loglik(ds, truth, include_constants=True).total
    assert res.loglik >= at_truth - 1e-9
    res2 = fit(ds)
    assert res2.loglik == pytest.approx(res.loglik, abs=1e-5)


def test_aic_definition():
    ds, _ = simulated(Family.COUNT, 50, 2, 2.0, 1.0, seed=19)
    res = fit(ds)
    k = res.estimates.n_free
    assert k == 2
    assert res.aic == pytest.approx(2.0 * k - 2.0 * res.loglik, rel=1e-12)


def test_nested_models_order_logliks():
    ds, _ = simulated(Family.COUNT, 60, 2, 2.0, 1.0, seed=33)
    x = np.column_stack([np.ones(60), np.linspace(-1, 1, 60)])
    reduced = fit(ds)
    rich_init = Parameterization(
        [float(reduced.estimates.log_lambda), 0.0],
        float(reduced.estimates.log_rate),
        site_covariates=x,
    )
    rich = fit(ds, init=rich_init)
    assert rich.estimates.n_free == 3
    assert rich.loglik >= reduced.loglik - 1e-6


def test_single_visit_binary_flags_ridge():
    # constant-parameter Binary:S only identifies lambda(1 - e^{-hT})
    ds, _ = simulated(Family.BINARY, 150, 1, 2.0, 1.0, seed=3)
    res = fit(ds)
    assert res.hessian_condition > 1e8
    assert any("condition" in m or "identifiab" in m for m in res.messages)


def test_profile_flat_for_single_visit_counts_but_curved_with_times():
    ds_t, truth = simulated(Family.COUNT_T, 120, 1, 2.0, 1.0, seed=11)
    ds_c = strip_times(ds_t)
    # abundance grid above the observed mean count: below it the
    # single-visit profile has no interior optimum to compare against
    grid = np.log(np.linspace(1.5, 3.4, 7))
    flat = profile_loglik(ds_c, truth, 0, grid)
    curved = profile_loglik(ds_t, truth, 0, grid)
    assert np.ptp(flat.loglik) < 0.01
    assert np.ptp(curved.loglik) > 1.0
    inner = np.argmax(curved.loglik)
    assert 0 < inner < grid.size - 1


def test_profile_at_mle_matches_fit():
    ds, _ = simulated(Family.COUNT, 60, 3, 2.0, 1.0, seed=29)
    res = fit(ds)
    mle = res.estimates.free_values()
    prof = profile_loglik(ds, res.estimates, 0, np.array([mle[0]]))
    assert prof.loglik[0] == pytest.approx(res.loglik, abs=1e-6)


def test_profile_index_bounds():
    ds, truth = simulated(Family.COUNT, 20, 2, 2.0, 1.0, seed=2)
    with pytest.raises(IndexError):
        profile_loglik(ds, truth, 5, np.array([0.0]))


def test_finite_difference_hessian_on_quadratic():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])

    def f(x):
        return -0.5 * float(x @ a @ x)

    h = finite_difference_hessian(f, np.array([0.4, -0.2]))
    assert np.allclose(h, -a, atol=1e-6)
    h = score_difference_hessian(lambda x: -a @ x, np.array([0.4, -0.2]))
    assert np.allclose(h, -a, atol=1e-9)


def test_finite_difference_hessian_reuses_the_value_at_x():
    calls = []

    def f(x):
        calls.append(x)
        return -0.5 * float(x @ x)

    x = np.array([0.4, -0.2, 1.0])
    fresh = finite_difference_hessian(f, x)
    assert len(calls) == 2 * x.size**2 + 1
    f0 = f(x)
    calls.clear()
    reused = finite_difference_hessian(f, x, f0)
    assert len(calls) == 2 * x.size**2  # only the off-centre points
    np.testing.assert_array_equal(reused, fresh)


def test_fit_reports_eval_count_and_messages_list():
    ds, _ = simulated(Family.COUNT, 30, 2, 2.0, 1.0, seed=55)
    res = fit(ds)
    assert res.n_evals > 0
    assert isinstance(res.messages, list)


def test_unconverged_proposal_scores_impossible_and_data_errors_propagate(monkeypatch):
    ds, truth = simulated(Family.COUNT, 5, 2, 2.0, 1.0, seed=3)
    loglik_fn = _CountedLoglik(ds, truth)

    def series_fails(*args, **kwargs):
        raise SeriesConvergenceError("series peak past 2^32 terms", -1.0, 16)

    monkeypatch.setattr(nmixtime.estimate, "total_loglik", series_fails)
    assert loglik_fn(truth.free_values()) == -math.inf
    assert loglik_fn.convergence_failures == 1

    def record_outside_support(*args, **kwargs):
        raise LikelihoodDomainError("count must be nonnegative, got -1 at site 0")

    monkeypatch.setattr(nmixtime.estimate, "total_loglik", record_outside_support)
    with pytest.raises(LikelihoodDomainError):
        loglik_fn(truth.free_values())


def test_fit_on_scores_takes_few_evaluations():
    # trust-region Newton on the exact Hessian: each evaluation is a value, a
    # score and a Hessian, and the covariance reuses the last one
    ds, _ = simulated(Family.COUNT, 200, 4, 3.0, 0.5, seed=0)
    res = fit(ds)
    assert res.converged and not res.flagged
    assert res.n_evals <= 10


def test_fit_stops_at_its_evaluation_budget():
    ds, _ = simulated(Family.COUNT, 200, 4, 3.0, 0.5, seed=0)
    res = fit(ds, max_evals=3, multistart=0)
    assert not res.converged
    assert any("stopped after 3 evaluations" in m for m in res.messages)
    assert res.n_evals <= 3 + 1  # the search; the covariance needs no more


def wall_past(log_lambda, monkeypatch):
    """Make every series fail past ``log_lambda``, as past a series' bound."""
    original = nmixtime.estimate.total_loglik

    def series_fails_past_a_wall(dataset, params, **kwargs):
        if float(params.log_lambda) > log_lambda:
            raise SeriesConvergenceError("series peak past 2^32 terms", 0.0, 16)
        return original(dataset, params, **kwargs)

    monkeypatch.setattr(nmixtime.estimate, "total_loglik", series_fails_past_a_wall)


def test_impossible_proposals_on_the_search_path_are_rejected(monkeypatch):
    # the first Newton step from this start overshoots log lambda = 1.3; the
    # optimum lies at ~1.12, so the search backs off and still converges
    ds, _ = simulated(Family.COUNT, 200, 4, 3.0, 0.5, seed=0)
    init = Parameterization(0.5, -1.0)
    free = fit(ds, init=init)
    assert free.estimates.free_values()[0] < 1.2
    wall_past(1.3, monkeypatch)
    walled = fit(ds, init=init)
    assert walled.converged and not walled.flagged
    assert any("scored as impossible" in m for m in walled.messages)
    np.testing.assert_allclose(walled.estimates.free_values(), free.estimates.free_values(), atol=1e-5)
    assert walled.loglik == pytest.approx(free.loglik, abs=1e-8)


@pytest.mark.parametrize("family, seed", [(Family.COUNT_T1, 1), (Family.COUNT, 2)], ids=["CountT1:M", "Count:M"])
def test_a_wall_near_the_optimum_needs_no_restarts(family, seed, monkeypatch):
    # surveys whose optimum lies below a region where every series fails:
    # the search must converge from the default start without jittered
    # restarts, on about as many evaluations as without the wall
    ds, _ = simulated(family, 200, 4, 3.0, 0.5, seed=seed)
    free = fit(ds)
    wall_past(1.3, monkeypatch)
    walled = fit(ds)
    assert walled.converged and not walled.flagged
    assert not any("restarted" in m for m in walled.messages)
    assert walled.n_evals <= 15
    np.testing.assert_allclose(walled.estimates.free_values(), free.estimates.free_values(), atol=1e-5)


def test_covariate_fit_recovers_all_coefficients():
    r, j = 300, 3
    rng = np.random.default_rng(1)
    x = np.column_stack([np.ones(r), rng.normal(size=r)])
    z = np.stack([np.ones((r, j)), rng.normal(size=(r, j))], axis=2)
    truth = Parameterization([math.log(2.0), 0.5], [0.0, -0.4], site_covariates=x, rate_covariates=z)
    proto = Protocol.for_design(Family.COUNT, BIN, j)
    ds = simulate_dataset(SimConfig(proto, SurveyDesign(r, j, 1.0), truth, seed=1))
    start = default_init(ds)
    init = Parameterization(
        [float(start.log_lambda), 0.0], [float(start.log_rate), 0.0], site_covariates=x, rate_covariates=z
    )
    res = fit(ds, init=init)
    assert res.converged and not res.flagged
    assert res.estimates.n_free == 4
    assert np.all(np.abs(res.estimates.free_values() - truth.free_values()) < 3.0 * res.se)


def overflowing_survey():
    # search times of 1e-300 and 1e300 make scores and Hessians of ~1e300,
    # too large for the trust-region solver to take their norms
    proto = Protocol.for_design(Family.COUNT, BIN, 2)
    design = SurveyDesign(2, 2, np.array([[1e-300, 1e300], [1.0, 1.0]]))
    return Dataset(proto, design, [SiteRecord(0, [5, 1]), SiteRecord(1, [0, 0])])


def test_a_step_the_solver_cannot_compute_gives_a_flagged_fit():
    ds = overflowing_survey()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(ds)
    assert not res.converged and res.flagged
    assert any("the trust-region step could not be computed" in m for m in res.messages)
    # the best finite point the searches evaluated
    assert np.all(np.isfinite(res.estimates.free_values())) and math.isfinite(res.loglik)
    assert res.loglik >= total_loglik(ds, default_init(ds), include_constants=True).total


def test_likelihood_errors_still_propagate_out_of_the_search(monkeypatch):
    ds, truth = simulated(Family.COUNT, 5, 2, 2.0, 1.0, seed=3)

    def record_outside_support(*args, **kwargs):
        raise LikelihoodDomainError("count must be nonnegative, got -1 at site 0")

    monkeypatch.setattr(nmixtime.estimate, "total_loglik", record_outside_support)
    with pytest.raises(LikelihoodDomainError):
        fit(ds, truth)


# (information, residual score, log-likelihood): the outcomes of the curvature
# report on fixed matrices
CURVATURE_TABLE = {
    "well conditioned": (np.array([[2.0, 0.5], [0.5, 1.0]]), [0.0, 0.0], -10.0),
    "ridge below resolution": (np.diag([1.0, 1e-12]), [1e-9, 0.0], -100.0),
    "resolvable but condition above 1e10": (np.diag([1.0, 1e-11]), [0.0, 0.0], 0.0),
    "indefinite": (np.diag([1.0, -0.5]), [0.0, 0.0], -10.0),
    "no curvature": (np.diag([1e-20, -1e-20]), [0.0, 0.0], -10.0),
}


@pytest.mark.parametrize("case", CURVATURE_TABLE)
def test_curvature_report_outcomes(case):
    info, score, f0 = CURVATURE_TABLE[case]
    cov, se, cond, messages = _curvature_report(info, np.array(score), f0)
    if case == "well conditioned":
        np.testing.assert_allclose(cov, np.linalg.inv(info), rtol=0, atol=1e-13)
        assert cond == pytest.approx(np.linalg.cond(info), rel=1e-12) and messages == []
        np.testing.assert_allclose(se, np.sqrt(np.diag(np.linalg.inv(info))), rtol=1e-13)
    elif case == "ridge below resolution":
        assert cond == math.inf
        assert "smallest eigenvalue (1.0e-12) is below the resolution" in messages[0]
        # the flat direction is dropped from the covariance, so its standard error is NaN;
        # the ridge message alone says why, as no kept curvature is nonpositive
        assert len(messages) == 1
        np.testing.assert_allclose(cov, np.diag([1.0, 0.0]), rtol=0, atol=1e-13)
        assert se[0] == pytest.approx(1.0, rel=1e-13) and math.isnan(se[1])
    elif case == "resolvable but condition above 1e10":
        assert cond == pytest.approx(1e11, rel=1e-12)
        assert messages == [
            "hessian condition number 1.000e+11 exceeds 1e+10; the likelihood is flat along "
            "some coefficient direction and standard errors are unreliable"
        ]
        np.testing.assert_allclose(cov, np.diag([1.0, 1e11]), rtol=1e-12)
    elif case == "indefinite":
        assert cond == pytest.approx(2.0, rel=1e-12)
        assert se[0] == pytest.approx(1.0, rel=1e-13) and math.isnan(se[1])
        assert messages == ["nonpositive curvature along some coefficient; its standard error is NaN"]
    else:
        assert cond == math.inf and np.all(np.isnan(cov)) and np.all(np.isnan(se))
        assert messages == ["no measurable curvature at the optimum; standard errors unavailable"]


@pytest.mark.parametrize(
    "name, value",
    [("tol", -1.0), ("tol", 0.0), ("tol", math.nan), ("tol", math.inf),
     ("max_evals", 0), ("max_evals", -5), ("multistart", -3)],
)
def test_search_arguments_are_checked(name, value):
    ds, truth = simulated(Family.COUNT, 5, 2, 2.0, 1.0, seed=3)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        fit(ds, **{name: value})
    if name != "multistart":
        with pytest.raises(ValueError, match=f"^{name} must be"):
            profile_loglik(ds, truth, 0, [0.5], **{name: value})


def test_an_impossible_start_stops_at_once(monkeypatch):
    # every series fails past log lambda = 0, and the start lies past it
    ds, _ = simulated(Family.COUNT, 200, 4, 3.0, 0.5, seed=0)
    wall_past(0.0, monkeypatch)
    res = fit(ds, init=Parameterization(0.5, -1.0), multistart=0)
    assert not res.converged and res.n_evals == 1
    assert res.messages[0] == (
        "optimizer stopped without meeting tolerances: the log-likelihood is not finite at the start"
    )


def test_importing_the_package_loads_no_optimizer():
    # in a fresh interpreter: test_search_matches_scipys_trust_exact imports scipy.optimize here
    code = "import sys, nmixtime; print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)"
    src = str(Path(nmixtime.estimate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "False"]


def rotated(eigs, seed=4):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigs), len(eigs))))
    return q @ np.diag(eigs) @ q.T, q


_B2, _Q2 = rotated([0.5, 2.0])
_B3, _Q3 = rotated([-1.0, 2.0, 3.0])
# (information B, score g, radius, whether the step lies on the boundary)
STEP_TABLE = {
    "interior newton step": (_B2, _Q2 @ [0.1, -0.2], 10.0, False),
    "newton step past the boundary": (_B2, _Q2 @ [5.0, -4.0], 0.5, True),
    "indefinite": (np.array([[1.0, 0.3], [0.3, -2.0]]), np.array([0.4, 0.7]), 1.0, True),
    "singular": (np.diag([0.0, 1.0]), np.array([1e-3, 0.2]), 2.0, True),
    # the score is orthogonal to the lowest eigenvector and the shifted
    # Newton step falls short of the boundary, so the step slides along it
    "hard case": (_B3, _Q3 @ [0.0, 1.0, 1.0], 2.0, True),
}


@pytest.mark.parametrize("case", STEP_TABLE)
def test_step_meets_the_exact_subproblem_conditions(case):
    b, g, radius, on_boundary = STEP_TABLE[case]
    p, hits = _step(g, b, radius)
    assert hits is on_boundary
    size = np.linalg.norm(p)
    s = float(p @ (g - b @ p)) / float(p @ p)  # the shift: (B + sI) p = g
    np.testing.assert_allclose((b + s * np.eye(len(g))) @ p, g, rtol=0, atol=1e-12)
    assert s >= -1e-12
    assert abs(s * (radius - size)) <= 1e-10 and size <= radius * (1 + 1e-10)
    assert np.linalg.eigvalsh(b + s * np.eye(len(g)))[0] >= -1e-12
    if case == "interior newton step":
        np.testing.assert_allclose(p, np.linalg.solve(b, g), rtol=1e-13)
    if case == "hard case":
        assert s == pytest.approx(1.0, rel=1e-12) and abs(_Q3[:, 0] @ p) > 1.0


@pytest.mark.parametrize(
    "family, n_occ",
    [(Family.COUNT, 4), (Family.COUNT_T1, 4), (Family.BINARY_T1, 4), (Family.BINARY, 8)],
    ids=["Count:M", "CountT1:M", "BinaryT1:M", "Binary:M"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning:scipy.optimize")
@pytest.mark.filterwarnings("error::scipy.optimize.OptimizeWarning")
def test_search_matches_scipys_trust_exact(family, n_occ):
    from scipy.optimize import minimize as scipy_minimize

    ds, _ = simulated(family, 200, n_occ, 3.0, 0.5, seed=1)
    res = fit(ds, multistart=0)
    start = default_init(ds)
    counted = _CountedLoglik(ds, start)
    curved = functools.lru_cache(lambda x: counted.curved(np.array(x)))  # one evaluation per point
    ref = scipy_minimize(
        lambda x: -curved(tuple(x))[0], start.free_values(), method="trust-exact",
        jac=lambda x: -curved(tuple(x))[1], hess=lambda x: -curved(tuple(x))[2], options={"gtol": 1e-4},
    )
    assert res.converged and ref.success
    assert res.n_evals <= ref.nfev
    assert res.loglik - irrelevant_constants(ds) == pytest.approx(-ref.fun, rel=0, abs=1e-10)
