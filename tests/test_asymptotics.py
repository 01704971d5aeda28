import math

import numpy as np
import pytest

from irvsim import asymptotics, tabulate
from irvsim.asymptotics import (
    _gap_shares,
    circle_coupling_experiment,
    gaps_from_uniform,
    gumbel_cdf,
    ks_statistic,
    max_gap_experiment,
    spacings,
    winner_uniformity_experiment,
    winning_share_experiment,
)
from irvsim.dist import Uniform
from irvsim.errors import CheckFailed, DomainError
from irvsim.tabulate import Rule, shares_batch


def test_gumbel_cdf_values():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1))
    assert gumbel_cdf(50.0) == pytest.approx(1.0)
    # median: exp(-exp(-x)) = 1/2  =>  x = -log(log 2)
    assert gumbel_cdf(-math.log(math.log(2))) == pytest.approx(0.5, abs=1e-15)


def test_ks_statistic_perfect_fit():
    s = np.linspace(0.0005, 0.9995, 1000)
    assert ks_statistic(s, lambda x: x) < 1e-3
    assert ks_statistic(np.zeros(10), lambda x: np.full_like(x, 0.5)) == 0.5


def test_stick_breaking_invariants():
    rng = np.random.default_rng(0)
    for n in (1, 2, 10, 1000):
        for sample in (gaps_from_uniform(n, rng), spacings(n, 1, rng)[0]):
            assert sample.size == n
            assert abs(sample.sum() - 1.0) < 1e-12
            assert np.all(sample >= 0)


def test_stick_breaking_constructions_agree_in_distribution():
    # max-gap samples from the two constructions should be KS-close
    rng = np.random.default_rng(1)
    n, trials = 1000, 100_000
    a = np.array([gaps_from_uniform(n, rng).max() for _ in range(200)])
    b = np.array([spacings(n, 1, rng)[0].max() for _ in range(200)])
    # crude two-sample KS on modest trial counts
    pooled = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), pooled, side="right") / a.size
    fb = np.searchsorted(np.sort(b), pooled, side="right") / b.size
    assert np.max(np.abs(fa - fb)) < 0.15


def test_winning_share_experiment_smoke():
    res = winning_share_experiment(3, 10_000, 2)
    assert res.trials == 10_000
    assert np.all(np.isfinite(res.statistics))
    assert 0.0 <= res.ks_statistic <= 1.0


def test_winning_share_parameter_validation():
    with pytest.raises(DomainError):
        winning_share_experiment(2, 10, 0)
    with pytest.raises(DomainError):
        winning_share_experiment(10, 0, 0)


def test_max_gap_two_breakpoints():
    res = max_gap_experiment(2, 1, 3)
    # with one breakpoint U the statistic is 2 max(U, 1-U) - log 2
    max_gap = (res.statistics[0] + math.log(2)) / 2
    assert 0.5 <= max_gap <= 1.0


def test_max_gap_gumbel_at_desk_scale():
    res = max_gap_experiment(1000, 4000, 4)
    assert res.ks_statistic <= 0.05


def test_circle_coupling_rate_decreases():
    r3 = circle_coupling_experiment(3, 10_000, 5)
    assert 0.0 <= r3 <= 1.0
    r10 = circle_coupling_experiment(10, 4000, 5)
    r1000 = circle_coupling_experiment(1000, 2000, 5)
    assert r1000 < r10


def test_winner_uniformity_plurality():
    res = winner_uniformity_experiment(Rule.PLURALITY, 1000, 2000, Uniform(), 6)
    assert res.ks_vs_uniform <= 0.06


def test_winner_uniformity_k1_exactly_uniform():
    res = winner_uniformity_experiment(Rule.PLURALITY, 1, 5000, Uniform(), 7)
    assert res.ks_vs_uniform <= 0.03  # winner = the single uniform draw


def test_irv_winners_stay_inside_zone():
    res = winner_uniformity_experiment(Rule.IRV, 100, 2000, Uniform(), 8)
    outside = np.sum((res.winner_positions < 1 / 6) | (res.winner_positions > 5 / 6))
    assert outside == 0


def test_uniformity_zone_check_fails_on_a_faulty_tabulator(monkeypatch):
    # Elect the leftmost candidate: with k = 100 it lies below 1/6 in nearly
    # every trial, so the per-trial zone check must raise.
    monkeypatch.setattr(tabulate, "irv_batch", lambda pos, d: (
        pos[:, 0], np.zeros(pos.shape[0], dtype=bool)
    ))
    with pytest.raises(CheckFailed):
        winner_uniformity_experiment(Rule.IRV, 100, 2000, Uniform(), 8)


@pytest.mark.parametrize("k", [*range(1, 13), 100_000])
def test_gap_shares_match_shares_of_cumsum_positions(k):
    gaps = np.random.default_rng(k).standard_exponential((5, k + 1))
    gaps /= gaps.sum(axis=1, keepdims=True)
    positions = np.cumsum(gaps[:, :-1], axis=1)
    assert np.max(np.abs(_gap_shares(gaps) - shares_batch(positions, Uniform()))) <= 1e-12


@pytest.mark.parametrize("run", [
    lambda threads: winning_share_experiment(100_000, 100, 9, threads).statistics,
    lambda threads: max_gap_experiment(100_000, 100, 9, threads).statistics,
    lambda threads: circle_coupling_experiment(100_000, 100, 9, threads),
    lambda threads: winner_uniformity_experiment(
        Rule.PLURALITY, 1000, 3000, Uniform(), 9, threads).winner_positions,
], ids=["share", "maxgap", "circle", "uniformity"])
def test_experiments_do_not_depend_on_threads(run, monkeypatch):
    single = run(1)
    np.testing.assert_array_equal(single, run(2))
    # Threads may finish chunks in any order: running them last to first
    # must give the same result, because each chunk draws from its own RNG.
    chunks = []
    map_chunks = asymptotics.map_chunks

    def last_to_first(fn, *args, **kwargs):
        chunks.extend(map_chunks(lambda *chunk: chunk, *args, **kwargs))  # (index, trials, rng)
        return [fn(*chunk) for chunk in reversed(chunks)][::-1]

    monkeypatch.setattr(asymptotics, "map_chunks", last_to_first)
    np.testing.assert_array_equal(single, run(1))
    assert len(chunks) > 1
