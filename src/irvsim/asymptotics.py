"""Stick-breaking simulation and large-k limit laws for plurality elections.

With k uniform candidates the gaps between neighbors are stick-breaking
spacings, the maximal vote share obeys a Gumbel law after centering at
(log n + log log n)/(2n) with n = k + 1, and the winner position becomes
uniform on [0, 1]. The circle model (no boundary) couples to the interval
model: cutting the circle at 0 perturbs only the two candidates adjacent to
the cut, which drives the disagreement rate between the two winners to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tabulate, zones
from .chunks import DRAWS_PER_CHUNK, map_chunks
from .dist import Uniform, VoterDistribution
from .errors import DomainError, require
# Unused here, but perfbench/tracer.py looks up asymptotics.{irv,plurality}_batch by name.
from .tabulate import Rule, irv_batch, plurality_batch, shares_batch  # noqa: F401

__all__ = [
    "gumbel_cdf",
    "spacings",
    "gaps_from_uniform",
    "GumbelExperimentResult",
    "winning_share_experiment",
    "max_gap_experiment",
    "circle_coupling_experiment",
    "winner_uniformity_experiment",
    "ks_statistic",
]


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise DomainError("need at least one sample")
    f = np.asarray(cdf(s), dtype=float)
    grid = np.arange(n + 1) / n
    return float(max(np.max(f - grid[:-1]), np.max(grid[1:] - f)))


def spacings(n: int, trials: int, rng) -> np.ndarray:
    """(trials, n) spacings of [0, 1], drawn without a sort: exponentials X_i / sum(X)."""
    x = rng.standard_exponential((trials, n))
    x /= x.sum(axis=1, keepdims=True)
    return x


def gaps_from_uniform(n: int, rng) -> np.ndarray:
    """The n spacings of [0, 1] cut at n - 1 sorted uniform breakpoints."""
    if n < 1:
        raise DomainError("n must be >= 1")
    cuts = np.sort(rng.random(n - 1))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


@dataclass(frozen=True)
class GumbelExperimentResult:
    k: int  # candidate count (or gap count for the max-gap experiment)
    trials: int
    statistics: np.ndarray  # per-trial normalized statistic
    ks_statistic: float

    def summary(self) -> dict:
        return {
            "k": self.k,
            "trials": self.trials,
            "ks": self.ks_statistic,
            "median": float(np.median(self.statistics)),
            "mean": float(np.mean(self.statistics)),
        }


def _map_trials(kernel, seed, experiment_id, trials, threads, draws_per_trial):
    """map_chunks with chunks sized in draws: each holds about DRAWS_PER_CHUNK values."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    return map_chunks(kernel, seed, experiment_id, trials, threads,
                      trials_per_chunk=max(1, DRAWS_PER_CHUNK // draws_per_trial))


def _gap_shares(gaps: np.ndarray) -> np.ndarray:
    """Uniform-voter plurality shares of the k = n - 1 candidates between n gaps.

    Candidate i takes half of each adjacent gap; each end candidate also takes
    the other half of its outer gap, which no other candidate borders.
    """
    shares = gaps[:, :-1] + gaps[:, 1:]
    shares[:, 0] += gaps[:, 0]
    shares[:, -1] += gaps[:, -1]
    shares *= 0.5
    return shares


def winning_share_experiment(k: int, trials: int, seed: int,
                             threads: int = 1) -> GumbelExperimentResult:
    """Normalized winning plurality vote share 2nV - log n - log log n, n = k + 1.

    Per trial: k uniform candidates, uniform voters, V = max vote share. The
    statistic converges to the standard Gumbel law as k grows.
    """
    if k < 3:
        raise DomainError("k must be >= 3 so that log log n is defined")
    n = k + 1
    center = math.log(n) + math.log(math.log(n))

    def chunk(_index, chunk_trials, rng):
        v = _gap_shares(spacings(n, chunk_trials, rng)).max(axis=1)
        require(np.all(v >= 1.0 / k), "a winning share below 1/k")  # pigeonhole
        return 2.0 * n * v - center

    stats = np.concatenate(_map_trials(chunk, seed, f"gumbel-share/k={k}", trials, threads, n))
    return GumbelExperimentResult(k, trials, stats, ks_statistic(stats, gumbel_cdf))


def max_gap_experiment(n: int, trials: int, seed: int,
                       threads: int = 1) -> GumbelExperimentResult:
    """Classic maximal-spacing statistic n*max(gaps) - log n, Gumbel in the limit.

    Converges faster than the winning-share statistic and serves as its
    calibration oracle.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    logn = math.log(n)

    def chunk(_index, chunk_trials, rng):
        gaps = spacings(n, chunk_trials, rng)
        require(np.all(np.abs(gaps.sum(axis=1) - 1.0) < 1e-12), "gaps do not sum to 1")
        return n * gaps.max(axis=1) - logn

    stats = np.concatenate(_map_trials(chunk, seed, f"max-gap/n={n}", trials, threads, n))
    return GumbelExperimentResult(n, trials, stats, ks_statistic(stats, gumbel_cdf))


def circle_coupling_experiment(k: int, trials: int, seed: int, threads: int = 1) -> float:
    """Fraction of trials where the circle and cut-interval winners differ.

    Cutting the circle at 0 reassigns only the wrap-around arc, so the two
    share vectors differ solely at the extreme candidates; the rate decreases
    in k because the boundary candidates rarely hold the maximal share.
    """
    if k < 3:
        raise DomainError("k must be >= 3")

    def chunk(_index, chunk_trials, rng):
        gaps = spacings(k + 1, chunk_trials, rng)
        # On the circle the two outer gaps form one wrap arc g_0 + g_k, half
        # of which goes to each end candidate.
        circle = gaps[:, :-1] + gaps[:, 1:]
        circle[:, 0] += gaps[:, -1]
        circle[:, -1] += gaps[:, 0]
        circle *= 0.5
        interval = shares_batch(np.cumsum(gaps[:, :-1], axis=1), Uniform())
        require(np.all(np.abs(circle.sum(axis=1) - 1.0) < 1e-12),
                "circle shares do not sum to 1")
        require(np.all(np.abs(circle[:, 1:-1] - interval[:, 1:-1]) < 1e-12),
                "circle and interval shares differ away from the cut")
        return int(np.count_nonzero(circle.argmax(axis=1) != interval.argmax(axis=1)))

    return sum(_map_trials(chunk, seed, f"circle/k={k}", trials, threads, k + 1)) / trials


@dataclass(frozen=True)
class UniformityResult:
    rule: Rule
    k: int
    trials: int
    winner_positions: np.ndarray
    ks_vs_uniform: float | None  # only meaningful for uniform voters


def winner_uniformity_experiment(
    rule: Rule, k: int, trials: int, d: VoterDistribution, seed: int, threads: int = 1
) -> UniformityResult:
    """Winner positions over repeated random profiles, with KS vs Uniform(0,1).

    For uniform voters under IRV this also checks, per trial, that the winner
    lies in [1/6, 5/6] whenever any candidate does.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    uniform_voters = isinstance(d, Uniform)
    zone = zones.zone_closed_form(d) if uniform_voters and rule is Rule.IRV else None

    def chunk(_index, chunk_trials, rng):
        pos = tabulate.sample_sorted_positions(d, k, chunk_trials, rng)
        w, _ = tabulate.winners(rule, pos, d)
        if zone is not None:
            require(not zone.violations(pos, w).any(), "an IRV winner escaped [1/6, 5/6]")
        return w

    winners = np.concatenate(
        _map_trials(chunk, seed, f"winner-uniformity/{rule.value}/k={k}", trials, threads, k))
    ks = ks_statistic(winners, lambda x: x) if uniform_voters else None
    return UniformityResult(rule, k, trials, winners, ks)
