"""Forward simulation of survey datasets, faithful to the observation process.

Every random number is a pure function of (seed, site, tag, index): SplitMix64's
finaliser hashes the four words into a uniform strictly inside (0, 1). Tag 0 is
a site's abundance; tag j + 1 is occasion j, whose index 0 draws the count and
whose indices 1..y draw its y detection times. So a site regenerates alike
whatever sites surround it, in whatever order and with whatever parameters.
Each count is the exact discrete inverse CDF of its uniform and each time an
inverse CDF, all computed over arrays of cells at once; a first-time protocol
inverts only each cell's least uniform, whose time is the cell's first. The
count searches use the Poisson and binomial tails of ``special``, numpy alone,
each tail value a function of its own arguments, so a draw loads no scipy.
"""
from __future__ import annotations

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
from .special import binomial_tail, poisson_tail

__all__ = ["SimConfig", "simulate_dataset", "simulate_with_latent", "empirical_pmf_check"]

_GOLDEN = 0x9E3779B97F4A7C15
_MAX_MEAN = 2.0**52  # every count below 2^53 is exact as a float
_PMF_BLOCK = 200_000  # replicates drawn at once by empirical_pmf_check


@dataclass(frozen=True)
class SimConfig:
    protocol: Protocol
    design: SurveyDesign
    params: Parameterization
    seed: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**63:
            raise ValueError("seed must fit in a nonnegative 63-bit integer")


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection of uint64 whose outputs pass for independent."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _uniforms(seed: int, site, tag, index) -> np.ndarray:
    """The uniform of each broadcast (site, tag, index), in [2^-53, 1 - 2^-53]."""
    h = _mix(np.array([seed], dtype=np.uint64) + _GOLDEN)
    for word in (site, tag, index):
        h = _mix(h + np.asarray(word, dtype=np.uint64) * _GOLDEN)
    return ((h >> 12) + 0.5) * 2.0**-52


def _quantiles(tail, u, mean, var, skew, top, *params) -> np.ndarray:
    """Per cell, the smallest k in [0, top] with P(K <= k) >= u, or top if none.

    ``tail(k, *params, upper=upper)`` is P(K > k) where ``upper`` and P(K <= k)
    elsewhere; cells with u > 1/2 compare P(K > k) with 1 - u, which is exact,
    so no precision is lost near 1. The search starts at a Cornish-Fisher
    quantile from the mean, variance and skew * sd, steps away by 1, 2, 4, ...
    until the answer is bracketed, then halves the bracket. Every probe lies in
    the bracket and narrows it, so a cell settles within 2 log2(top + 1) + 3
    passes, each one call of ``tail``. The answer does not depend on the start,
    only the number of passes does, so the start's normal quantile z is
    Hastings' approximation (Abramowitz & Stegun 26.2.23, |error| < 4.5e-4).
    """
    t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))  # 1 - u is exact for u >= 1/2
    z = np.copysign(t - (2.515517 + t * (0.802853 + t * 0.010328))
                    / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))), u - 0.5)
    start = np.ceil(mean + np.sqrt(var) * z + (z * z - 1) * skew / 6 - 0.5)
    start, top, *params = (np.broadcast_to(a, u.shape).ravel() for a in (start, top, *params))
    found = top.copy()
    shape, u = u.shape, u.ravel()
    cells = np.flatnonzero(top > 0)
    upper = u[cells] > 0.5
    target = u[cells] - upper  # -(1 - u) on the upper tail, exact
    lo, hi = np.zeros_like(cells), top[cells]
    k = np.clip(start[cells], 0, hi - 1).astype(np.int64)
    step, hit, split = np.ones_like(lo), np.zeros(cells.shape, bool), np.zeros(cells.shape, bool)
    while cells.size:
        now = np.copysign(tail(k, *(a.take(cells) for a in params), upper=upper), target) >= target
        split |= (now != hit) & (step > 1)
        hit = now
        # np.where's picks as sums of products by 1 and 0, which are exact on integers
        miss = ~hit
        hi += hit * (k - hi)
        lo += miss * (k + 1 - lo)
        gallop = hit * np.maximum(k - step, lo) + miss * np.minimum(k + step, hi - 1)
        k = gallop + split * ((lo + hi) // 2 - gallop)
        step *= 2
        done = lo >= hi
        if done.any():
            ends, keep = np.flatnonzero(done), np.flatnonzero(~done)
            found[cells.take(ends)] = lo.take(ends)
            cells, upper, target, lo, hi, k, step, hit, split = (
                a.take(keep) for a in (cells, upper, target, lo, hi, k, step, hit, split)
            )
    return found.reshape(shape)


def _poisson(u: np.ndarray, mu) -> np.ndarray:
    mu = np.broadcast_to(mu, u.shape)
    if not np.all(mu < _MAX_MEAN):
        raise ValueError(f"cannot simulate a Poisson mean of {mu.max():g}; it must be below 2^52")
    # Bernstein's inequality puts P(K > top) below 2^-53, under any uniform's 1 - u
    top = np.where(mu > 0, np.ceil(mu + 40 * np.sqrt(mu) + 40), 0).astype(np.int64)
    return _quantiles(poisson_tail, u, mu, mu, 1.0, top, mu)


def _binomial(u: np.ndarray, n, p, q) -> np.ndarray:
    """Binomial(n, p) quantiles; q = 1 - p comes separately so neither loses precision."""
    m = n * p
    return _quantiles(binomial_tail, u, m, m * q, q - p, n, n, p, q)


def _counts(process: ObservationProcess, seed: int, sites, lam, rate, t_max):
    """Abundances (S,) and per-occasion detection counts (S, J) of the sites keyed
    ``sites`` (S,), from per-site ``lam`` and per-cell ``rate`` and ``t_max``.

    Binomial thinning detects each individual with probability 1 - exp(-h T);
    under the Poisson process each individual emits Poisson(h T) events.
    """
    n = _poisson(_uniforms(seed, sites, 0, 0), lam)
    u = _uniforms(seed, sites[:, None], np.arange(1, np.shape(t_max)[-1] + 1), 0)
    if process is ObservationProcess.BINOMIAL_COUNT:
        return n, _binomial(u, n[:, None], -np.expm1(-rate * t_max), np.exp(-rate * t_max))
    return n, _poisson(u, n[:, None] * (rate * t_max))


def simulate_with_latent(cfg: SimConfig) -> tuple[Dataset, np.ndarray]:
    """Simulate a dataset and also return the latent per-site abundances."""
    design, family, process = cfg.design, cfg.protocol.family, cfg.protocol.process
    log_lam, log_rate = cfg.params.resolve(design)
    rate, search = np.exp(log_rate), design.search_time
    latent, counts = _counts(process, cfg.seed, np.arange(design.n_sites), np.exp(log_lam), rate, search)
    sizes = np.zeros(counts.shape, dtype=np.int64)
    times = ()
    if family.records_times:
        # the y detection times of a cell, given y, from indices 1..y of its tag
        cells = np.flatnonzero(counts)
        y = counts.flat[cells]
        first = np.cumsum(y) - y
        owner, j = np.repeat(cells, y), design.n_occasions
        u = _uniforms(cfg.seed, owner // j, owner % j + 1, np.arange(owner.size) - np.repeat(first - 1, y))
        if family.records_first_time:
            # each time is a nondecreasing function of its own uniform: the first is the least's
            u, owner, y = np.minimum.reduceat(u, first), cells, 1
        h, t_max = rate.take(owner), search.take(owner)
        if process is ObservationProcess.BINOMIAL_COUNT:
            # inverse CDF of an Exp(h) waiting time truncated to [0, t_max];
            # the clip absorbs rounding at u -> 1
            times = np.minimum(-np.log1p(u * np.expm1(-h * t_max)) / h, t_max)
        else:
            # event times of a homogeneous stream are uniform over the window
            times = u * t_max
        if not family.records_first_time:
            # sorted within each cell: complex numbers sort by real part, then imaginary part, exactly
            times = times[np.argsort(owner + 1j * times)]
        sizes.flat[cells] = y
    if family.is_binary:
        counts = np.minimum(counts, 1)
    return Dataset.from_arrays(cfg.protocol, design, counts, sizes, times), latent


def simulate_dataset(cfg: SimConfig) -> Dataset:
    """Simulate a dataset. Identical config (seed included) gives identical data."""
    return simulate_with_latent(cfg)[0]


def empirical_pmf_check(cfg: SimConfig, patterns, n_draws: int, *, site: int = 0) -> dict | list[dict]:
    """Compare simulated frequencies of count patterns to their exact probabilities.

    ``patterns`` is one pattern (a count per occasion) or a sequence of them;
    all are counted on the same ``n_draws`` replicates of ``site``, drawn by
    the simulator's own law with the replicate number as the site key. Only
    meaningful for protocols whose records are purely discrete (binary or
    count families without time records); detection times make every exact
    pattern a measure-zero event. Returns, per pattern, the empirical
    frequency, the exact probability, and a binomial z-score: one dict for
    one pattern, a list for a sequence.
    """
    if cfg.protocol.family.records_times:
        raise ValueError(
            "pattern frequencies need a discrete-only protocol; "
            f"{cfg.protocol.label} records detection times"
        )
    j = cfg.design.n_occasions
    grid = np.array(patterns, dtype=np.int64, ndmin=2)
    if grid.ndim != 2 or grid.shape[1] != j:
        raise ValueError(f"pattern must have one count per occasion ({j})")
    log_lam, log_rate = cfg.params.resolve(cfg.design)
    t_max = cfg.design.search_time[site]
    design = SurveyDesign(len(grid), j, t_max)
    params = Parameterization(log_lam[site], log_rate[site])
    exact = np.exp(total_loglik(Dataset.from_arrays(cfg.protocol, design, grid), params).per_site)
    if np.any(exact <= 0.0):
        pattern = grid[np.argmax(exact <= 0.0)].tolist()
        raise ValueError(f"pattern {pattern} has zero probability; nothing to check")

    rate, hits = np.exp(log_rate[site]), np.zeros(len(grid), dtype=np.int64)
    for first in range(0, int(n_draws), _PMF_BLOCK):
        reps = np.arange(first, min(first + _PMF_BLOCK, int(n_draws)))
        counts = _counts(cfg.protocol.process, cfg.seed, reps, np.exp(log_lam[site]), rate, t_max)[1]
        if cfg.protocol.family.is_binary:
            counts = np.minimum(counts, 1)
        hits += np.count_nonzero(np.all(counts[:, None, :] == grid, axis=2), axis=0)
    empirical = hits / n_draws
    se = np.sqrt(exact * (1.0 - exact) / n_draws)
    z = np.divide(empirical - exact, se, out=np.zeros_like(se), where=se > 0.0)
    results = [
        {"empirical": f, "exact": p, "z_score": score, "n_draws": int(n_draws)}
        for f, p, score in zip(empirical.tolist(), exact.tolist(), z.tolist())
    ]
    return results if np.ndim(patterns) == 2 else results[0]
