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

from .dist import Uniform, VoterDistribution
from .errors import DomainError, require
from .tabulate import Rule, irv_batch, plurality_batch, shares_batch

__all__ = [
    "gumbel_cdf",
    "StickBreakingSample",
    "gaps_from_uniform",
    "gaps_from_exponential",
    "GumbelExperimentResult",
    "winning_share_experiment",
    "max_gap_experiment",
    "circle_coupling_experiment",
    "winner_uniformity_experiment",
    "ks_statistic",
]

# Gap counts n and candidate counts k are related by n = k + 1 throughout:
# k candidates cut the interval into k + 1 half-open voter blocks.


def n_from_k(k: int) -> int:
    return k + 1


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


@dataclass(frozen=True)
class StickBreakingSample:
    """Spacings of the unit interval with their exponential representation.

    gaps are the n spacings produced by n - 1 uniform breakpoints; they are
    equal in distribution (and here equal exactly) to X_i / T_n for unit
    exponentials X_i with sum T_n.
    """

    gaps: np.ndarray
    exponentials: np.ndarray
    total: float

    def __post_init__(self):
        if abs(float(self.gaps.sum()) - 1.0) > 1e-12:
            raise DomainError("gaps must sum to 1")


def gaps_from_uniform(n: int, rng) -> StickBreakingSample:
    """Spacings from n - 1 sorted uniform breakpoints.

    The exponential representation is recovered by scaling the gaps with an
    independent Gamma(n) total, so both constructions round-trip.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    cuts = np.sort(rng.random(n - 1))
    gaps = np.diff(np.concatenate(([0.0], cuts, [1.0])))
    total = float(rng.gamma(n))
    return StickBreakingSample(gaps=gaps, exponentials=gaps * total, total=total)


def gaps_from_exponential(n: int, rng) -> StickBreakingSample:
    """Spacings as normalized unit exponentials X_i / T_n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    x = rng.exponential(size=n)
    total = float(x.sum())
    return StickBreakingSample(gaps=x / total, exponentials=x, total=total)


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


# Chunk size (in random draws) for the big-k experiments; keeps peak memory
# around a few hundred MB while staying vectorized.
_CHUNK_DRAWS = 8_000_000


def _trial_chunks(trials: int, per_trial: int):
    step = max(1, _CHUNK_DRAWS // max(per_trial, 1))
    done = 0
    while done < trials:
        yield min(step, trials - done)
        done += step


def winning_share_experiment(k: int, trials: int, rng) -> GumbelExperimentResult:
    """Normalized winning plurality vote share 2nV - log n - log log n, n = k + 1.

    Per trial: k sorted uniform candidates, uniform voters, V = max vote
    share. The statistic converges to the standard Gumbel law as k grows.
    """
    if k < 3:
        raise DomainError("k must be >= 3 so that log log n is defined")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    n = n_from_k(k)
    center = math.log(n) + math.log(math.log(n))
    stats = np.empty(trials)
    out = 0
    for chunk in _trial_chunks(trials, k):
        pos = np.sort(rng.random((chunk, k)), axis=1)
        v = shares_batch(pos, Uniform()).max(axis=1)
        require(np.all(v >= 1.0 / k), "a winning share below 1/k")  # pigeonhole
        stats[out : out + chunk] = 2.0 * n * v - center
        out += chunk
    return GumbelExperimentResult(k, trials, stats, ks_statistic(stats, gumbel_cdf))


def max_gap_experiment(n: int, trials: int, rng) -> GumbelExperimentResult:
    """Classic maximal-spacing statistic n*max(gaps) - log n, Gumbel in the limit.

    Converges faster than the winning-share statistic and serves as its
    calibration oracle.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    logn = math.log(n)
    stats = np.empty(trials)
    out = 0
    for chunk in _trial_chunks(trials, n):
        cuts = np.sort(rng.random((chunk, n - 1)), axis=1)
        edges = np.empty((chunk, n + 1))
        edges[:, 0] = 0.0
        edges[:, 1:-1] = cuts
        edges[:, -1] = 1.0
        gaps = np.diff(edges, axis=1)
        require(np.all(np.abs(gaps.sum(axis=1) - 1.0) < 1e-12), "gaps do not sum to 1")
        stats[out : out + chunk] = n * gaps.max(axis=1) - logn
        out += chunk
    return GumbelExperimentResult(n, trials, stats, ks_statistic(stats, gumbel_cdf))


def _circle_shares(sorted_pos: np.ndarray) -> np.ndarray:
    """Plurality shares on a unit-circumference circle: half of each adjacent arc."""
    wrap = 1.0 - sorted_pos[:, -1] + sorted_pos[:, 0]
    arcs = np.concatenate(
        (wrap[:, None], np.diff(sorted_pos, axis=1), wrap[:, None]), axis=1
    )
    return 0.5 * (arcs[:, :-1] + arcs[:, 1:])


def circle_coupling_experiment(k: int, trials: int, rng) -> float:
    """Fraction of trials where the circle and cut-interval winners differ.

    Cutting the circle at 0 reassigns only the wrap-around arc, so the two
    share vectors differ solely at the extreme candidates; the rate decreases
    in k because the boundary candidates rarely hold the maximal share.
    """
    if k < 3:
        raise DomainError("k must be >= 3")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    disagree = 0
    for chunk in _trial_chunks(trials, k):
        pos = np.sort(rng.random((chunk, k)), axis=1)
        circle = _circle_shares(pos)
        interval = shares_batch(pos, Uniform())
        require(np.all(np.abs(circle.sum(axis=1) - 1.0) < 1e-12),
                "circle shares do not sum to 1")
        require(np.all(np.abs(circle[:, 1:-1] - interval[:, 1:-1]) < 1e-12),
                "circle and interval shares differ away from the cut")
        disagree += int(
            np.count_nonzero(circle.argmax(axis=1) != interval.argmax(axis=1))
        )
    return disagree / trials


@dataclass(frozen=True)
class UniformityResult:
    rule: Rule
    k: int
    trials: int
    winner_positions: np.ndarray
    ks_vs_uniform: float | None  # only meaningful for uniform voters


def winner_uniformity_experiment(
    rule: Rule, k: int, trials: int, d: VoterDistribution, rng
) -> UniformityResult:
    """Winner positions over repeated random profiles, with KS vs Uniform(0,1).

    For uniform voters under IRV this also checks, per trial, that the winner
    lies in [1/6, 5/6] whenever any candidate does.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    uniform_voters = isinstance(d, Uniform)
    winners = np.empty(trials)
    out = 0
    for chunk in _trial_chunks(trials, max(k, 1)):
        pos = np.sort(d.sample(rng, (chunk, k)), axis=1)
        if rule is Rule.PLURALITY:
            w, _, _ = plurality_batch(pos, d)
        else:
            w, _ = irv_batch(pos, d)
            if uniform_voters:
                has_moderate = np.any((pos >= 1 / 6) & (pos <= 5 / 6), axis=1)
                require(np.all((w[has_moderate] >= 1 / 6) & (w[has_moderate] <= 5 / 6)),
                        "an IRV winner escaped [1/6, 5/6]")
        winners[out : out + chunk] = w
        out += chunk
    ks = ks_statistic(winners, lambda x: x) if uniform_voters else None
    return UniformityResult(rule, k, trials, winners, ks)
