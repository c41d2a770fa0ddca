"""Forward simulation of survey datasets, faithful to the observation process.

Each site gets its own counter-based random stream keyed by (seed, site,
stream), so regenerating any one site gives identical draws no matter how
many sites surround it or in what order sites are produced. Stream 0 draws
the site's abundance; stream j+1 drives occasion j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import total_loglik
from .model import (
    Dataset,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SurveyDesign,
)

__all__ = ["SimConfig", "simulate_dataset", "simulate_with_latent", "empirical_pmf_check"]

_ABUNDANCE_STREAM_TAG = 0
_OCCASION_STREAM_BASE = 1


@dataclass(frozen=True)
class SimConfig:
    protocol: Protocol
    design: SurveyDesign
    params: Parameterization
    seed: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**63:
            raise ValueError("seed must fit in a nonnegative 63-bit integer")


def _stream(seed: int, site: int, tag: int) -> np.random.Generator:
    # Philox keys are 128-bit; site and tag live in the counter's high words,
    # which the low 128 bits of sequential draws can never reach.
    return np.random.Generator(np.random.Philox(counter=[0, 0, site, tag], key=[seed, 0]))


def _occasion_counts(
    process: ObservationProcess, rng: np.random.Generator, n, rate: float, t_max: float
):
    """Detections on one occasion for abundance n (an int or an array of them).

    Binomial thinning detects each individual with probability 1 - exp(-h T);
    under the Poisson process each individual emits Poisson(h T) events.
    """
    if process is ObservationProcess.BINOMIAL_COUNT:
        return rng.binomial(n, -math.expm1(-rate * t_max))
    return rng.poisson(n * rate * t_max)


def _occasion_times(
    process: ObservationProcess, rng: np.random.Generator, y: int, rate: float, t_max: float
) -> np.ndarray:
    """Sorted times of y detections on one occasion, given that there were y."""
    if process is ObservationProcess.BINOMIAL_COUNT:
        # inverse CDF of an Exp(rate) waiting time truncated to [0, t_max];
        # the clip absorbs rounding at u -> 1
        u = rng.random(y)
        times = np.minimum(-np.log1p(u * math.expm1(-rate * t_max)) / rate, t_max)
    else:
        # event times of a homogeneous stream are uniform over the window
        times = rng.uniform(0.0, t_max, size=y)
    return np.sort(times)


def simulate_with_latent(cfg: SimConfig) -> tuple[Dataset, np.ndarray]:
    """Simulate a dataset and also return the latent per-site abundances."""
    design = cfg.design
    log_lam, log_rate = cfg.params.resolve(design)
    lam = np.exp(log_lam)
    rate = np.exp(log_rate)
    family, process = cfg.protocol.family, cfg.protocol.process

    abundances = np.empty(design.n_sites, dtype=np.int64)
    records = []
    for i in range(design.n_sites):
        n_i = int(_stream(cfg.seed, i, _ABUNDANCE_STREAM_TAG).poisson(lam[i]))
        abundances[i] = n_i
        counts = np.empty(design.n_occasions, dtype=np.int64)
        times: list[np.ndarray] = []
        for j in range(design.n_occasions):
            rng = _stream(cfg.seed, i, _OCCASION_STREAM_BASE + j)
            h, t_max = float(rate[i, j]), float(design.search_time[i, j])
            y = int(_occasion_counts(process, rng, n_i, h, t_max))
            tj = np.empty(0)
            if y > 0 and family.records_times:
                tj = _occasion_times(process, rng, y, h, t_max)
                if family.records_first_time:
                    tj = tj[:1]
            counts[j] = min(y, 1) if family.is_binary else y
            times.append(tj)
        records.append(SiteRecord(i, counts, times))
    return Dataset(cfg.protocol, design, records), abundances


def simulate_dataset(cfg: SimConfig) -> Dataset:
    """Simulate a dataset. Identical config (seed included) gives identical data."""
    return simulate_with_latent(cfg)[0]


def empirical_pmf_check(
    cfg: SimConfig, pattern, n_draws: int, *, site: int = 0, block: int = 200_000
) -> dict:
    """Compare the simulated frequency of one count pattern to its exact probability.

    Only meaningful for protocols whose records are purely discrete
    (binary or count families without time records); detection times make
    every exact pattern a measure-zero event. Returns the empirical
    frequency, the exact probability, and a binomial z-score.
    """
    if cfg.protocol.family.records_times:
        raise ValueError(
            "pattern frequencies need a discrete-only protocol; "
            f"{cfg.protocol.label} records detection times"
        )
    pattern = np.asarray(pattern, dtype=np.int64)
    if pattern.shape != (cfg.design.n_occasions,):
        raise ValueError(
            f"pattern must have one count per occasion ({cfg.design.n_occasions})"
        )
    log_lam, log_rate = cfg.params.resolve(cfg.design)
    one_site = Dataset(
        cfg.protocol,
        SurveyDesign(1, cfg.design.n_occasions, cfg.design.search_time[site]),
        [SiteRecord(0, pattern)],
    )
    exact = math.exp(total_loglik(one_site, Parameterization(log_lam[site], log_rate[site])).total)
    if exact <= 0.0:
        raise ValueError(f"pattern {pattern.tolist()} has zero probability; nothing to check")

    lam = float(np.exp(log_lam[site]))
    cells = list(zip(np.exp(log_rate[site]).tolist(), cfg.design.search_time[site].tolist()))
    process = cfg.protocol.process
    # key word 1 set to 1 keeps this stream disjoint from every _stream() family
    rng = np.random.Generator(np.random.Philox(counter=[0, 0, site, 0], key=[cfg.seed, 1]))
    hits = 0
    left = int(n_draws)
    while left > 0:
        b = min(block, left)
        n = rng.poisson(lam, size=b)
        counts = np.column_stack([_occasion_counts(process, rng, n, h, t) for h, t in cells])
        if cfg.protocol.family.is_binary:
            counts = np.minimum(counts, 1)
        hits += int(np.all(counts == pattern, axis=1).sum())
        left -= b
    empirical = hits / n_draws
    se = math.sqrt(exact * (1.0 - exact) / n_draws)
    z = 0.0 if se == 0.0 else (empirical - exact) / se
    return {
        "empirical": empirical,
        "exact": exact,
        "z_score": z,
        "n_draws": int(n_draws),
    }
