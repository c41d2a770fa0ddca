"""Simulator determinism, stream layout, and frequency agreement."""
import math

import numpy as np
import pytest
from scipy import stats

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

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("process", [BIN, POI], ids=["binomial", "poisson"])
    @pytest.mark.parametrize("family", [Family.BINARY, Family.COUNT], ids=lambda f: f.value)
    def test_batch_law_matches_per_site_simulator(self, family, process, j):
        # the vectorized checker and the per-site simulator draw from
        # different streams but must share one distribution
        cfg = config(family, process, 4000, j, 2.0, 1.0, seed=31)
        ds = simulate_dataset(cfg)
        pattern = np.array([1, 0][:j])
        freq = np.mean([np.array_equal(rec.counts, pattern) for rec in ds.records])
        out = empirical_pmf_check(cfg, pattern, 200_000)
        se = math.sqrt(out["exact"] * (1 - out["exact"]) / 4000)
        assert abs(freq - out["exact"]) < 4 * se

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
