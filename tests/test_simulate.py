"""Simulator determinism, counter layout, exact draw laws and frequency agreement."""
import hashlib
import math

import numpy as np
import pytest
from scipy import special, stats

from nmixtime import simulate
from nmixtime.datafiles import write_dataset
from nmixtime.model import (
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SurveyDesign,
    validate_dataset,
)
from nmixtime.simulate import (
    SimConfig,
    empirical_pmf_check,
    simulate_dataset,
    simulate_with_latent,
)

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def config(family, process, r, j, lam, h, t_max=1.0, seed=0):
    proto = Protocol.for_design(family, process, j)
    design = SurveyDesign(r, j, t_max)
    params = Parameterization(math.log(lam) if lam > 0 else -math.inf, math.log(h))
    return SimConfig(proto, design, params, seed)


def records_equal(a, b):
    if not np.array_equal(a.counts, b.counts):
        return False
    if len(a.times) != len(b.times):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a.times, b.times))


def test_fixed_seed_reproduces_bitwise():
    cfg = config(Family.COUNT_T, BIN, 12, 3, 2.0, 1.0, seed=77)
    d1 = simulate_dataset(cfg)
    d2 = simulate_dataset(cfg)
    assert all(records_equal(a, b) for a, b in zip(d1.records, d2.records))


def test_different_seeds_differ():
    a = simulate_dataset(config(Family.COUNT, BIN, 30, 3, 3.0, 1.0, seed=1))
    b = simulate_dataset(config(Family.COUNT, BIN, 30, 3, 3.0, 1.0, seed=2))
    assert any(not records_equal(x, y) for x, y in zip(a.records, b.records))


def test_sites_have_independent_streams():
    # growing the design leaves earlier sites' draws untouched
    small = simulate_dataset(config(Family.COUNT_T, BIN, 5, 2, 2.0, 0.8, seed=13))
    large = simulate_dataset(config(Family.COUNT_T, BIN, 9, 2, 2.0, 0.8, seed=13))
    assert all(records_equal(a, b) for a, b in zip(small.records, large.records[:5]))


def test_other_sites_parameters_leave_a_site_alone():
    # a site's records depend on its own abundance and search times only
    r, j, kept = 30, 3, (0, 7, 29)
    rng = np.random.default_rng(4)
    search = rng.uniform(0.5, 2.0, (r, j))
    log_lam = np.log(rng.uniform(1.0, 6.0, r))
    others = ~np.isin(np.arange(r), kept)
    for family, process in ((Family.COUNT_T, BIN), (Family.BINARY_T1, POI), (Family.COUNT, POI)):
        proto = Protocol.for_design(family, process, j)

        def run(log_lam, search):
            cfg = SimConfig(proto, SurveyDesign(r, j, search), Parameterization(log_lam, 0.1), 19)
            return simulate_with_latent(cfg)

        base, latent = run(log_lam, search)
        moved, moved_latent = run(
            np.where(others, log_lam + 1.3, log_lam), np.where(others[:, None], 0.4 * search, search)
        )
        for i in kept:
            a, b = base.records[i], moved.records[i]
            assert a.counts.tobytes() == b.counts.tobytes() and latent[i] == moved_latent[i]
            assert [t.tobytes() for t in a.times] == [t.tobytes() for t in b.times]
        assert not np.array_equal(base.counts[others], moved.counts[others])


# sha256 of counts.csv followed by times.csv (when written) for 25 sites, seed
# 2024, lambda 3, rate 0.8 and the search times of _pinned_search_times.
PINNED_DIGESTS = {
    ("Binary", "binomial", 1): "d8d753e0d79d442b884d310f55dd1b8364c7119557d8db7f7beeca31f631bc6a",
    ("Binary", "binomial", 3): "7537605154affce9ebaf017da2d09300503367fccec767577411d79d7180f557",
    ("BinaryT1", "binomial", 1): "55f2176eef6f935845569146cc513c16c39d41c53be37fde2c7dff3691606ac9",
    ("BinaryT1", "binomial", 3): "7f660a7c7306ba846838891edd3b2be3377ed0d6e49986f131101ff1e0ba863f",
    ("Count", "binomial", 1): "75dfc688d96bcaebacc4061d130288973100d35481bc6dfaaaf3d7c5ac677bf4",
    ("Count", "binomial", 3): "b3992195fc3cb4e359aade2bb7239ce80f0d2acadf1bda829659455fea0c633a",
    ("CountT", "binomial", 1): "87e11fe77ff4c67369aa9b4467488c1016c77bb3b206d39dc5c42adcc86b06bd",
    ("CountT", "binomial", 3): "f4d9cb7e64aad5555596dceaff61d87aae5ade9e07939153ce776514705c7031",
    ("CountT1", "binomial", 1): "db652bc38d7305b5260e11d6ab0648eb390d1f3e3f7ddadce27ed8ad689c2f78",
    ("CountT1", "binomial", 3): "a996200a4b322cf3a288d4a9c1b048229c633f64c3898e474aadd45bad6c45c8",
    ("Binary", "poisson", 1): "d8d753e0d79d442b884d310f55dd1b8364c7119557d8db7f7beeca31f631bc6a",
    ("Binary", "poisson", 3): "7537605154affce9ebaf017da2d09300503367fccec767577411d79d7180f557",
    ("BinaryT1", "poisson", 1): "b7812adc3ecc88f12ddaa7bb0ae91302d5b9d8edc931c7b760ba68966d5ec102",
    ("BinaryT1", "poisson", 3): "1604fc714991f94faf2821b1f05c6444b3ae0cabbfd85fc54c7f1ac75beacdaf",
    ("Count", "poisson", 1): "1d675cfa44d7a592cb814fa795f60d38933cce4d3b96d81e94f4698924b628cc",
    ("Count", "poisson", 3): "b3669e3ca878354c532ab0ddd90a9cdc95e57b9c761392dc46fa2755895b5443",
    ("CountT", "poisson", 1): "0a77b336661da610dee1e8406834b0b595b736bbdb1b3d3d616b7f9f34f3f4e6",
    ("CountT", "poisson", 3): "8ddb7ec96f4ba24ea7f7db4b216fa435de34deac340001fb854f3baec0387a06",
    ("CountT1", "poisson", 1): "2504f7cc536e8f1621eb5361362035180f3c960dc721731bc8210b3635e799f9",
    ("CountT1", "poisson", 3): "f78468a4ffa9914a3863f48d9f2df831de9d07a0d6259c7263100192d7a69f37",
}


def _pinned_search_times(r, j):
    i, k = np.meshgrid(np.arange(r), np.arange(j), indexing="ij")
    return 0.4 + 0.35 * ((3 * i + 7 * k) % 5)


@pytest.mark.parametrize("family, process, j", list(PINNED_DIGESTS))
def test_seeded_output_is_pinned(tmp_path, family, process, j):
    # any change to a stream, a draw or the file format moves these digests
    proto = Protocol.for_design(Family(family), ObservationProcess(process), j)
    design = SurveyDesign(25, j, _pinned_search_times(25, j))
    cfg = SimConfig(proto, design, Parameterization(math.log(3.0), math.log(0.8)), seed=2024)
    paths = write_dataset(simulate_dataset(cfg), tmp_path)
    h = hashlib.sha256(paths["counts"].read_bytes())
    if paths["times"] is not None:
        h.update(paths["times"].read_bytes())
    assert h.hexdigest() == PINNED_DIGESTS[family, process, j]


U_MIN, U_MAX = 2.0**-53, 1.0 - 2.0**-53  # the extreme uniforms the hash can produce
U_GRID = np.concatenate([
    [U_MIN, U_MAX],
    np.linspace(0.0, 1.0, 1001)[1:-1],
    np.geomspace(U_MIN, 0.01, 60),
    1.0 - np.geomspace(2.0**-53, 0.01, 60),
])


def test_uniforms_lie_strictly_inside_the_unit_interval(monkeypatch):
    u = simulate._uniforms(5, np.arange(50_000)[:, None], np.arange(4), 0)
    assert u.shape == (50_000, 4) and U_MIN <= u.min() and u.max() <= U_MAX
    for bits, extreme in ((0, U_MIN), (2**64 - 1, U_MAX)):  # the extreme hash outputs
        monkeypatch.setattr(simulate, "_mix", lambda x: np.full(x.shape, bits, dtype=np.uint64))
        assert simulate._uniforms(3, np.arange(4), 1, 2).tolist() == [extreme] * 4


class CountedTails:
    """scipy.special with its tail functions counted. An inverse CDF calls one
    lower-tail and one upper-tail function per pass; past ``budget`` passes this
    raises, so a search that never settles fails instead of hanging."""

    def __init__(self, budget):
        self.budget, self.passes = budget, 0.0

    def __getattr__(self, name):
        f = getattr(special, name)
        if name not in ("pdtr", "pdtrc", "betainc"):
            return f

        def counted(*args):
            self.passes += 0.5
            if self.passes > self.budget:
                raise AssertionError(f"the search ran past {self.budget:.1f} passes")
            return f(*args)

        return counted


def check_quantiles(k, u, dist, top):
    assert k.dtype == np.int64 and k.shape == u.shape
    assert np.all((k >= 0) & (k <= top))
    # scipy's ppf rounds P(K <= k) to 1 near u = 1 and can miss by one or more
    # there (binom(1e5, 0.39).ppf(1 - 2^-53) is 40280, the exact quantile 40269),
    # so the top of the grid checks the quantile's definition on the upper tail
    top_u = u > 1.0 - 1e-12
    assert np.array_equal(k[~top_u], dist.ppf(u[~top_u]))
    assert np.all(dist.sf(k[top_u]) <= 1.0 - u[top_u])
    assert np.all(dist.sf(k[top_u] - 1) > 1.0 - u[top_u])


@pytest.mark.parametrize("mu", [0.0, 3.0, 2000.0, 5e4, 1e5])
def test_poisson_inverse_cdf_is_exact_and_bounded(monkeypatch, mu):
    top = math.ceil(mu + 40 * math.sqrt(mu) + 40) if mu > 0 else 0
    tails = CountedTails(2 * math.log2(top + 1) + 3)
    monkeypatch.setattr(simulate, "special", tails)
    check_quantiles(simulate._poisson(U_GRID, mu), U_GRID, stats.poisson(mu), top)


@pytest.mark.parametrize(
    "n, p, q",
    [
        (0, 0.3, None),
        (10, 0.0, None),
        (10, 1.0 - 1e-15, None),
        (10, -math.expm1(-50.0), math.exp(-50.0)),  # the simulator's p, q at rate T = 50: p is 1.0
        (25, 0.39, None),
        (100_000, 0.39, None),
    ],
)
def test_binomial_inverse_cdf_is_exact_and_bounded(monkeypatch, n, p, q):
    q = 1.0 - p if q is None else q
    tails = CountedTails(2 * math.log2(n + 1) + 3)
    monkeypatch.setattr(simulate, "special", tails)
    k = simulate._binomial(U_GRID, np.int64(n), p, q)
    check_quantiles(k, U_GRID, stats.binom(n, p), n)


def test_poisson_means_past_exact_integers_are_refused():
    with pytest.raises(ValueError, match="Poisson mean"):
        simulate_dataset(config(Family.COUNT, BIN, 3, 1, 1e20, 1.0))


def test_simulator_builds_no_numpy_random_generator(monkeypatch):
    # every draw hashes (seed, site, tag, index): there is no second stream
    class NoRandom:
        def __getattr__(self, name):
            raise AssertionError(f"the simulator used np.random.{name}")

    monkeypatch.setattr(np, "random", NoRandom())
    for family in Family:
        for process in (BIN, POI):
            simulate_dataset(config(family, process, 20, 2, 2.0, 0.9, seed=5))
    empirical_pmf_check(config(Family.COUNT, POI, 1, 2, 2.0, 0.9), [[0, 0], [1, 1]], 1000)


@pytest.mark.parametrize("lam", [2000.0, 5e4])
def test_latent_abundances_follow_the_poisson_law(lam):
    # chi-square of 10^5 abundances over 40 bins of near-equal Poisson probability
    n_sites = 100_000
    _, latent = simulate_with_latent(config(Family.COUNT, BIN, n_sites, 1, lam, 1.0, seed=61))
    dist = stats.poisson(lam)
    edges = np.unique(dist.ppf(np.linspace(0.0, 1.0, 41)[1:-1]))  # bin b is (edges[b-1], edges[b]]
    observed = np.bincount(np.searchsorted(edges, latent), minlength=edges.size + 1)
    expected = n_sites * np.diff(np.append(dist.cdf(edges), 1.0), prepend=0.0)
    assert stats.chisquare(observed, expected).pvalue > 1e-3
    assert abs(latent.mean() - lam) < 4 * math.sqrt(lam / n_sites)


def _varied_search_times(r, j):
    i, k = np.meshgrid(np.arange(r), np.arange(j), indexing="ij")
    return 0.2 + 0.6 * ((i + 2 * k) % 4)


@pytest.mark.parametrize("process", [BIN, POI], ids=["binomial", "poisson"])
def test_counts_given_abundance_follow_the_occasion_law(process):
    # randomized PIT: F(y - 1 | N) + w P(y | N), w uniform, is uniform exactly
    # when each count y given the site's abundance N has law F
    r, j, rate = 40_000, 4, 0.7
    search = _varied_search_times(r, j)
    proto = Protocol.for_design(Family.COUNT, process, j)
    params = Parameterization(math.log(4.0), math.log(rate))
    ds, latent = simulate_with_latent(SimConfig(proto, SurveyDesign(r, j, search), params, 62))
    n, x = latent[:, None], rate * search
    law = stats.binom(n, -np.expm1(-x)) if process is BIN else stats.poisson(n * x)
    w = np.random.default_rng(63).random(ds.counts.shape)
    pit = law.cdf(ds.counts - 1) + w * law.pmf(ds.counts)
    assert stats.kstest(pit.ravel(), "uniform").pvalue > 1e-3


@pytest.mark.parametrize("process", [BIN, POI], ids=["binomial", "poisson"])
def test_detection_times_follow_their_window_law(process):
    # given the count, times are uniform over the window (poisson process) or
    # exponential clocks truncated to it (binomial process)
    r, j, rate = 40_000, 3, 0.8
    search = _varied_search_times(r, j)
    proto = Protocol.for_design(Family.COUNT_T, process, j)
    params = Parameterization(math.log(1.5), math.log(rate))
    ds = simulate_dataset(SimConfig(proto, SurveyDesign(r, j, search), params, 64))
    t_max = np.repeat(search.ravel(), ds.times_per_cell.ravel())
    t = ds.times_flat
    assert np.all((t > 0) & (t <= t_max))
    if process is BIN:
        cdf = np.expm1(-rate * t) / np.expm1(-rate * t_max)
    else:
        cdf = t / t_max
    assert stats.kstest(cdf, "uniform").pvalue > 1e-3


def test_zero_abundance_gives_empty_records():
    for family in Family:
        for process in (BIN, POI):
            cfg = config(family, process, 6, 2, 0.0, 1.0, seed=3)
            ds, latent = simulate_with_latent(cfg)
            assert np.all(latent == 0)
            for rec in ds.records:
                assert rec.counts.max(initial=0) == 0
                assert all(t.size == 0 for t in rec.times)


def test_saturating_effort_detects_everyone():
    # hT = 50 makes per-individual miss probability e^{-50}
    cfg = config(Family.COUNT, BIN, 10_000, 1, 3.0, 50.0, seed=8)
    ds, latent = simulate_with_latent(cfg)
    y = np.array([rec.counts[0] for rec in ds.records])
    assert np.mean(y == latent) > 0.999


def test_binomial_counts_never_exceed_abundance():
    cfg = config(Family.COUNT, BIN, 400, 3, 4.0, 1.5, seed=21)
    ds, latent = simulate_with_latent(cfg)
    for rec, n in zip(ds.records, latent):
        assert rec.counts.max(initial=0) <= n


def test_poisson_process_counts_can_exceed_abundance():
    cfg = config(Family.COUNT, POI, 300, 2, 1.0, 4.0, seed=5)
    ds, latent = simulate_with_latent(cfg)
    excesses = [
        int(rec.counts.max(initial=0)) - int(n) for rec, n in zip(ds.records, latent)
    ]
    assert max(excesses) > 0


def test_simulated_records_validate_cleanly():
    rng = np.random.default_rng(6)
    for family in Family:
        for process in (BIN, POI):
            cfg = config(
                family, process, 25, 3, 2.5, 1.2, t_max=1.3, seed=int(rng.integers(1, 10_000))
            )
            ds = simulate_dataset(cfg)
            assert validate_dataset(ds) == []


def test_recorded_times_respect_family_shape():
    ds = simulate_dataset(config(Family.COUNT_T, BIN, 60, 2, 3.0, 1.0, seed=9))
    saw_multi = False
    for rec in ds.records:
        for j, t in enumerate(rec.times):
            assert t.size == rec.counts[j]
            assert np.all(np.diff(t) >= 0)
            assert t.size == 0 or (t.min() > 0 and t.max() <= 1.0)
            saw_multi = saw_multi or t.size > 1
    assert saw_multi

    ds1 = simulate_dataset(config(Family.COUNT_T1, BIN, 60, 2, 3.0, 1.0, seed=9))
    for rec in ds1.records:
        for j, t in enumerate(rec.times):
            assert t.size == (1 if rec.counts[j] > 0 else 0)


class TestEmpiricalFrequencies:
    def test_binary_zero_pattern(self):
        cfg = config(Family.BINARY, BIN, 1, 1, 1.0, 1.0, seed=17)
        out = empirical_pmf_check(cfg, [0], 1_000_000)
        assert out["exact"] == pytest.approx(math.exp(-(1 - math.exp(-1))), abs=1e-12)
        assert out["exact"] == pytest.approx(0.5314636, abs=1e-7)
        assert abs(out["z_score"]) < 4

    def test_certain_pattern_has_zero_z(self):
        cfg = config(Family.COUNT, BIN, 1, 1, 0.0, 1.0, seed=17)
        out = empirical_pmf_check(cfg, [0], 10_000)
        assert out["empirical"] == 1.0
        assert out["exact"] == 1.0
        assert out["z_score"] == 0.0

    def test_thinned_count_pattern(self):
        # lambda p = 1: P(y=1) = e^{-1}
        cfg = config(Family.COUNT, BIN, 1, 1, 2.0, math.log(2.0), seed=23)
        out = empirical_pmf_check(cfg, [1], 1_000_000)
        assert out["exact"] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert abs(out["z_score"]) < 4

    def test_patterns_share_one_draw(self):
        # a sequence of patterns is counted on the replicates each pattern alone sees
        cfg = config(Family.COUNT, POI, 1, 2, 1.5, 0.8, seed=29)
        patterns = [[0, 0], [1, 0], [0, 1], [2, 1]]
        batch = empirical_pmf_check(cfg, patterns, 50_000)
        assert batch == [empirical_pmf_check(cfg, pattern, 50_000) for pattern in patterns]
        assert sum(res["empirical"] for res in batch) < 1.0

    def test_rejects_time_recording_protocols(self):
        cfg = config(Family.COUNT_T, BIN, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="records detection times"):
            empirical_pmf_check(cfg, [0], 100)

    def test_rejects_impossible_pattern(self):
        cfg = config(Family.BINARY, BIN, 1, 2, 0.0, 1.0)
        with pytest.raises(ValueError, match="zero probability"):
            empirical_pmf_check(cfg, [1, 0], 100)

    def test_rejects_wrong_pattern_length(self):
        cfg = config(Family.COUNT, BIN, 1, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match="one count per occasion"):
            empirical_pmf_check(cfg, [1], 100)


@pytest.mark.parametrize("process", [BIN, POI], ids=["binomial", "poisson"])
def test_first_detection_time_law(process):
    # a detected first time t has P(T1 <= t) = 1 - exp(-lam (1 - e^{-h t})),
    # under both processes, conditioned on detection by the window end
    lam, h, t_max = 2.0, 0.8, 1.5
    ds = simulate_dataset(config(Family.BINARY_T1, process, 5000, 1, lam, h, t_max, seed=41))
    first = np.concatenate([rec.times[0] for rec in ds.records])
    assert first.size == sum(int(rec.counts[0]) for rec in ds.records)

    def cdf(t):
        return np.expm1(-lam * -np.expm1(-h * t)) / math.expm1(-lam * -math.expm1(-h * t_max))

    assert stats.kstest(first, cdf).pvalue > 1e-3


def test_seed_validation():
    design = SurveyDesign(1, 1, 1.0)
    proto = Protocol.for_design(Family.COUNT, BIN, 1)
    params = Parameterization(0.0, 0.0)
    with pytest.raises(ValueError):
        SimConfig(proto, design, params, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(proto, design, params, seed=2**63)
