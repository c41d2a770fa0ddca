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


def _streams(seed: int):
    """A function that rewinds one generator to the start of stream (seed, site, tag).

    Philox keys are 128-bit; site and tag live in the counter's high words,
    which the low 128 bits of sequential draws can never reach. Resetting
    the counter, key and (empty) buffer gives the draws of a fresh
    ``Philox(counter=[0, 0, site, tag], key=[seed, 0])`` at a fraction of its cost.
    """
    bit_gen = np.random.Philox(key=[seed, 0])
    state = bit_gen.state
    counter = state["state"]["counter"]
    rng = np.random.Generator(bit_gen)

    def start(site: int, tag: int) -> np.random.Generator:
        counter[2:] = (site, tag)
        bit_gen.state = state
        return rng

    return start


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
    process: ObservationProcess, u: np.ndarray, y: np.ndarray, rate: list, t_max: list
) -> np.ndarray:
    """Detection times of cells with y detections, given that there were y.

    ``u`` holds each cell's y uniform draws, cell after cell; ``rate`` and
    ``t_max`` hold one value per cell. Times come back sorted within each
    cell.
    """
    cell = np.repeat(np.arange(y.size), y)
    t_max_u = np.repeat(t_max, y)
    if process is ObservationProcess.BINOMIAL_COUNT:
        # inverse CDF of an Exp(rate) waiting time truncated to [0, t_max];
        # the clip absorbs rounding at u -> 1
        scale = np.repeat([math.expm1(-h * t) for h, t in zip(rate, t_max)], y)
        times = np.minimum(-np.log1p(u * scale) / np.repeat(rate, y), t_max_u)
    else:
        # event times of a homogeneous stream are uniform over the window
        times = u * t_max_u
    return times[np.lexsort((times, cell))]


def simulate_with_latent(cfg: SimConfig) -> tuple[Dataset, np.ndarray]:
    """Simulate a dataset and also return the latent per-site abundances."""
    design = cfg.design
    log_lam, log_rate = cfg.params.resolve(design)
    lam = np.exp(log_lam).tolist()
    rate = np.exp(log_rate).ravel().tolist()
    search = design.search_time.ravel().tolist()
    family, process = cfg.protocol.family, cfg.protocol.process
    records_times = family.records_times
    stream = _streams(cfg.seed)

    abundances = []
    counts = []
    draws = []
    timed = []  # cells with detections whose times are recorded
    cell = 0
    for i in range(design.n_sites):
        n_i = int(stream(i, _ABUNDANCE_STREAM_TAG).poisson(lam[i]))
        abundances.append(n_i)
        for j in range(design.n_occasions):
            rng = stream(i, _OCCASION_STREAM_BASE + j)
            y = int(_occasion_counts(process, rng, n_i, rate[cell], search[cell]))
            if y > 0 and records_times:
                draws.append(rng.random(y))
                timed.append(cell)
            counts.append(y)
            cell += 1
    counts = np.reshape(counts, design.search_time.shape)
    sizes = np.zeros(counts.size, dtype=np.int64)
    times = ()
    if timed:
        y = counts.ravel()[timed]
        times = _occasion_times(
            process, np.concatenate(draws), y, [rate[c] for c in timed], [search[c] for c in timed]
        )
        if family.records_first_time:
            times = times[np.cumsum(y) - y]
            y = 1
        sizes[timed] = y
    if family.is_binary:
        counts = np.minimum(counts, 1)
    dataset = Dataset.from_arrays(cfg.protocol, design, counts, sizes.reshape(counts.shape), times)
    return dataset, np.array(abundances, dtype=np.int64)


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
    one_site = Dataset.from_arrays(
        cfg.protocol, SurveyDesign(1, cfg.design.n_occasions, cfg.design.search_time[site]), [pattern]
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
