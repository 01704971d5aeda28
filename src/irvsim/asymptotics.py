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

from .chunks import map_chunks
from .errors import DomainError, check_int, require
# Never called here: perfbench's tests and tests/test_benchmark_bindings.py assert that
# asymptotics has irv_batch, plurality_batch and shares_batch (the tracer rebinds by identity).
from .tabulate import irv_batch, plurality_batch, shares_batch  # noqa: F401

__all__ = [
    "gumbel_cdf",
    "spacings",
    "GumbelExperimentResult",
    "CircleCouplingResult",
    "winning_share_experiment",
    "max_gap_experiment",
    "circle_coupling_experiment",
    "ks_statistic",
]


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


# Rows per KS block: the CDF values and grid comparisons of one block stay in cache.
_KS_BLOCK = 1 << 14


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and an elementwise CDF.

    The CDF and the comparisons with the empirical steps i/n run over the
    sorted sample in blocks of _KS_BLOCK values, so the only n-length array
    is the sorted copy; arange(b, e) / n equals (arange(n + 1) / n)[b:e], so
    the result equals the one-shot computation bit for bit.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise DomainError("need at least one sample")
    below = above = -np.inf
    for b in range(0, n, _KS_BLOCK):
        e = min(b + _KS_BLOCK, n)
        f = np.asarray(cdf(s[b:e]), dtype=float)
        steps = np.arange(b, e + 1) / n
        below = max(below, np.max(f - steps[:-1]))
        above = max(above, np.max(steps[1:] - f))
    return float(max(below, above))


def spacings(n: int, trials: int, rng) -> np.ndarray:
    """(trials, n) spacings of [0, 1], drawn without a sort: exponentials X_i / sum(X)."""
    x = rng.standard_exponential((trials, n))
    x /= x.sum(axis=1, keepdims=True)
    return x


# Draws per spacing block: about 1 MB, so a chunk's spacings stay in cache.
_BLOCK_DRAWS = 1 << 17


def _spacing_blocks(n: int, trials: int, rng):
    """Yield (rows, block): the rows of spacings(n, trials, rng), a block at a time.

    Every block is a view of one buffer of about _BLOCK_DRAWS values (at least
    one row), so it is valid only until the next one. The buffer fills in C
    order, drawing what one (trials, n) call draws, and each row is divided
    by its own sum: the blocks equal spacings(n, trials, rng) bit for bit.
    """
    height = max(1, min(trials, _BLOCK_DRAWS // n))
    buf = np.empty((height, n))
    for start in range(0, trials, height):
        block = buf[:min(height, trials - start)]
        rng.standard_exponential(out=block)
        block /= block.sum(axis=1, keepdims=True)
        yield slice(start, start + len(block)), block


def _spacing_statistics(n: int, trials: int, seed: int, experiment_id: str, threads: int,
                        statistic) -> np.ndarray:
    """statistic(block) of each trial's n spacings, the blocks as _spacing_blocks yields them."""
    def chunk(rows, rng):
        out = np.empty(rows.stop - rows.start)
        for part, gaps in _spacing_blocks(n, len(out), rng):
            out[part] = statistic(gaps)
        return out

    return np.concatenate(map_chunks(chunk, seed, experiment_id, trials, threads,
                                     draws_per_trial=n))


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


def _gap_shares(gaps: np.ndarray, left, right) -> np.ndarray:
    """Uniform-voter plurality shares of the k = n - 1 candidates between n gaps.

    Candidate i takes half of each adjacent gap; the first candidate also takes
    half of `left` and the last half of `right`. On the interval these are each
    end candidate's own outer gap, whose other half no other candidate borders.
    """
    shares = gaps[:, :-1] + gaps[:, 1:]
    shares[:, 0] += left
    shares[:, -1] += right
    shares *= 0.5
    return shares


def winning_share_experiment(k: int, trials: int, seed: int,
                             threads: int = 1) -> GumbelExperimentResult:
    """Normalized winning plurality vote share 2nV - log n - log log n, n = k + 1.

    Per trial: k uniform candidates, uniform voters, V = max vote share. The
    statistic converges to the standard Gumbel law as k grows.
    """
    k = check_int("k", k, 3)  # so that log log n is defined
    n = k + 1
    center = math.log(n) + math.log(math.log(n))

    def statistic(gaps):
        v = _gap_shares(gaps, gaps[:, 0], gaps[:, -1]).max(axis=1)
        require(np.all(v >= 1.0 / k), "a winning share below 1/k")  # pigeonhole
        return 2.0 * n * v - center

    stats = _spacing_statistics(n, trials, seed, f"gumbel-share/k={k}", threads, statistic)
    return GumbelExperimentResult(k, trials, stats, ks_statistic(stats, gumbel_cdf))


def max_gap_experiment(n: int, trials: int, seed: int,
                       threads: int = 1) -> GumbelExperimentResult:
    """Classic maximal-spacing statistic n*max(gaps) - log n, Gumbel in the limit.

    Converges faster than the winning-share statistic and serves as its
    calibration oracle.
    """
    n = check_int("n", n, 2)
    logn = math.log(n)

    def statistic(gaps):
        require(np.all(np.abs(gaps.sum(axis=1) - 1.0) < 1e-12), "gaps do not sum to 1")
        return n * gaps.max(axis=1) - logn

    stats = _spacing_statistics(n, trials, seed, f"max-gap/n={n}", threads, statistic)
    return GumbelExperimentResult(n, trials, stats, ks_statistic(stats, gumbel_cdf))


@dataclass(frozen=True)
class CircleCouplingResult:
    k: int
    trials: int
    statistics: np.ndarray  # per-trial flag: the circle and interval winners differ

    def summary(self) -> dict:
        return {"k": self.k, "trials": self.trials,
                "disagreement_rate": np.count_nonzero(self.statistics) / self.trials}


def circle_coupling_experiment(k: int, trials: int, seed: int,
                               threads: int = 1) -> CircleCouplingResult:
    """Per trial, whether the circle and cut-interval winners differ.

    Cutting the circle at 0 reassigns only the wrap-around arc, so the two
    share vectors differ solely at the extreme candidates; the rate decreases
    in k because the boundary candidates rarely hold the maximal share.
    """
    k = check_int("k", k, 3)

    def differs(gaps):
        interval = _gap_shares(gaps, gaps[:, 0], gaps[:, -1])
        # On the circle the two outer gaps form one wrap arc g_0 + g_k, half
        # of which goes to each end candidate.
        circle = _gap_shares(gaps, gaps[:, -1], gaps[:, 0])
        require(np.all(np.abs(circle.sum(axis=1) - 1.0) < 1e-12),
                "circle shares do not sum to 1")
        return circle.argmax(axis=1) != interval.argmax(axis=1)

    flags = _spacing_statistics(k + 1, trials, seed, f"circle/k={k}", threads, differs)
    return CircleCouplingResult(k, trials, flags.astype(bool))  # the kernel fills floats
