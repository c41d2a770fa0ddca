"""Simulator determinism, stream layout, and frequency agreement."""
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

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


# sha256 of counts.csv followed by times.csv (when written) for 25 sites, seed
# 2024, lambda 3, rate 0.8 and the search times of _pinned_search_times.
PINNED_DIGESTS = {
    ("Binary", "binomial", 1): "571522ef777dfc1546bcb9b66f156a493640605513b43d1e201614555679e97e",
    ("Binary", "binomial", 3): "953d51b8e83b8cdb923af7ab3a03aec37d5550644a0fd0cc36e3dfff42d80847",
    ("BinaryT1", "binomial", 1): "b121a14ad661725a95f9c2f62f0b489cc1f27165200181f4c75745090238584a",
    ("BinaryT1", "binomial", 3): "c4f7dddf518fb1ac36dbf6f2d2f2c2b38973fbe7cf502edd10fbaf6ed2bd64ef",
    ("Count", "binomial", 1): "efe18edf6b0f726d7f7afac6e24f12abdc06e55ba3326889fa7e7352d5976051",
    ("Count", "binomial", 3): "2f3449fd39eab5f6c6194ebac1ac40bb7df2b972d3d76e1166ce7d4e869e37e2",
    ("CountT", "binomial", 1): "9a050b89edfd3ea80e193a601441c0aecd9dd99cd301ce4f6062162f562e8608",
    ("CountT", "binomial", 3): "1afa486020656624e25030e233dfe7d73b7f35ae51c451e97c88d52dcf98141d",
    ("CountT1", "binomial", 1): "1f9392a95df3b0105e752f948cd03e6dd10ffc34aa94e382f281092059a0f31d",
    ("CountT1", "binomial", 3): "8f955a2e7c1e67ad1580eb5a1b468444ee32e62cd268b56ce77da64002ece638",
    ("Binary", "poisson", 1): "3207f141312c91f5947f4b663d24c2b99fecae4d45414ffdd3289e7524f27af1",
    ("Binary", "poisson", 3): "f48fe4c3d2b8e55fdd64545b3bfc4affe27bb9a033ff6d580e7b1133593ceff9",
    ("BinaryT1", "poisson", 1): "a0622e2a372575ac7d1a375657a0c7e7422cb951a52c6babe153ced2625a835b",
    ("BinaryT1", "poisson", 3): "6d8a02cb7f0e2661823e9176b71ddccb4789dc8f54d73624ea0b688c068a7106",
    ("Count", "poisson", 1): "922eb0dabce4f00e1edf894103a1ad693e363c131f21916bff4e6045f09424b2",
    ("Count", "poisson", 3): "869c9b273ff6dcc655e8a3d9d7ebda6c8e7185acc10961614d624e515349c600",
    ("CountT", "poisson", 1): "58dc29bd0fc1b8e336fa467ca3233cad0f9b95bbfa3341d5006db079a88330e4",
    ("CountT", "poisson", 3): "5b8db6641d49044be0a9e4ae3635ebc78f890fe3cf9a7ae412add4f6a5a3981d",
    ("CountT1", "poisson", 1): "3490c88990483cb1f19c8b8837cdf7232d6abcf5bcdf64e66b9d8512733dd9db",
    ("CountT1", "poisson", 3): "015986aa2dc14cabd6c113545668cb7b27809ca2be729a5f53df937781921e9a",
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
