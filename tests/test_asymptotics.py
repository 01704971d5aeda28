import copy
import math
import tracemalloc

import numpy as np
import pytest

from irvsim import asymptotics, experiments, tabulate, zones
from irvsim.asymptotics import (
    _gap_shares,
    _spacing_blocks,
    circle_coupling_experiment,
    gumbel_cdf,
    ks_statistic,
    max_gap_experiment,
    spacings,
    winning_share_experiment,
)
from irvsim.dist import Uniform
from irvsim.errors import CheckFailed, DomainError
from irvsim.exactk3 import density_k3
from irvsim.experiments import RunSpec
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


def test_ks_statistic_refuses_nan_samples():
    with pytest.raises(DomainError, match="NaN"):
        ks_statistic([0.1, math.nan, 0.3], gumbel_cdf)


@pytest.mark.parametrize("n, nan_above", [(3, -1.0), (40_000, 0.9)])
def test_ks_statistic_refuses_a_nan_cdf(n, nan_above):
    # A NaN block must not be dropped from the fold; 40,000 samples span three blocks.
    s = np.random.default_rng(0).random(n)
    with pytest.raises(CheckFailed, match="outside"):
        ks_statistic(s, lambda x: np.where(x > nan_above, np.nan, x))


def _ks_one_shot(samples, cdf):
    """The unblocked KS computation, kept as the reference for the blocked one."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.asarray(cdf(s), dtype=float)
    grid = np.arange(n + 1) / n
    return float(max(np.max(f - grid[:-1]), np.max(grid[1:] - f)))


_B = asymptotics._KS_BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 5])
def test_blocked_ks_equals_one_shot(n):
    rng = np.random.default_rng(n)
    cases = [
        (rng.random(n), lambda x: x),
        (rng.gumbel(size=n), gumbel_cdf),
        (rng.random(n), density_k3(Rule.PLURALITY).antiderivative()),
        (rng.random(n), density_k3(Rule.IRV).antiderivative()),
    ]
    for samples, cdf in cases:
        assert ks_statistic(samples, cdf) == _ks_one_shot(samples, cdf)


def gaps_from_uniform(n, rng):
    """The n spacings of [0, 1] cut at n - 1 sorted uniform breakpoints: the
    sorted-uniform construction that `spacings` is checked against."""
    cuts = np.sort(rng.random(n - 1))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


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


@pytest.mark.parametrize("n", [2, 201, 1001, 2 ** 17 + 5])
@pytest.mark.parametrize("blocks", ["one-row", "ragged", "whole"])
def test_spacing_blocks_stream_the_one_shot_spacings(n, blocks):
    # One row; several blocks with a shorter last one; several full blocks.
    height = max(1, asymptotics._BLOCK_DRAWS // n)
    trials = {"one-row": 1, "ragged": 3 * height + 1, "whole": 3 * height}[blocks]
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    parts = [(rows, block.copy()) for rows, block in _spacing_blocks(n, trials, rng)]
    assert all(len(block) <= height for _, block in parts)
    assert [rows.start for rows, _ in parts] == list(range(0, trials, height))
    assert parts[-1][0].stop == trials
    np.testing.assert_array_equal(np.concatenate([block for _, block in parts]),
                                  spacings(n, trials, ref_rng))
    assert rng.random() == ref_rng.random()  # the blocks drew exactly the same values


def _chunk_rngs(monkeypatch):
    """Copies of the (rows, rng) that each chunk of the next experiment receives."""
    chunks = []
    map_chunks = asymptotics.map_chunks

    def keep(fn, *args, **kwargs):
        def chunk(rows, rng):
            chunks.append((rows, copy.deepcopy(rng)))
            return fn(rows, rng)
        return map_chunks(chunk, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "map_chunks", keep)
    return chunks


def _interval_shares(gaps):
    """The interval model's shares: each end candidate takes half of its own outer gap."""
    return _gap_shares(gaps, gaps[:, 0], gaps[:, -1])


@pytest.mark.parametrize("block_draws", [1 << 17, 3000, 1])
def test_kernels_match_one_shot_spacings(block_draws, monkeypatch):
    # n = 1001 gives chunks of 999 trials, which no block height here divides.
    monkeypatch.setattr(asymptotics, "_BLOCK_DRAWS", block_draws)
    n, trials = 1001, 2000
    chunks = _chunk_rngs(monkeypatch)
    share = winning_share_experiment(n - 1, trials, 3).statistics
    center = math.log(n) + math.log(math.log(n))
    ref = [2.0 * n * _interval_shares(spacings(n, rows.stop - rows.start, rng)).max(axis=1)
           - center for rows, rng in chunks]
    assert len(chunks) == 3
    np.testing.assert_array_equal(share, np.concatenate(ref))
    chunks.clear()
    top = max_gap_experiment(n, trials, 3).statistics
    ref = [n * spacings(n, rows.stop - rows.start, rng).max(axis=1) - math.log(n)
           for rows, rng in chunks]
    np.testing.assert_array_equal(top, np.concatenate(ref))


# Rates at seed 5 before the kernels streamed their spacings in blocks.
@pytest.mark.parametrize("k, trials, differ", [(10, 4000, 1041), (50, 2000, 281),
                                               (200, 1000, 91)])
@pytest.mark.parametrize("block_draws", [1 << 17, 1000])
def test_circle_coupling_rates_are_pinned(k, trials, differ, block_draws, monkeypatch):
    monkeypatch.setattr(asymptotics, "_BLOCK_DRAWS", block_draws)
    res = circle_coupling_experiment(k, trials, 5)
    assert np.count_nonzero(res.statistics) == differ
    assert res.summary()["disagreement_rate"] == differ / trials


@pytest.mark.parametrize("run, limit_mb", [
    (lambda: winning_share_experiment(100_000, 27, 1), 4.0),  # 14.4 MB with whole chunks
    (lambda: max_gap_experiment(1000, 2000, 1), 2.0),  # 7.7 MB with whole chunks
], ids=["share", "maxgap"])
def test_kernels_hold_one_block_at_a_time(run, limit_mb):
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


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
    r3 = circle_coupling_experiment(3, 10_000, 5).summary()["disagreement_rate"]
    assert 0.0 <= r3 <= 1.0
    r10 = circle_coupling_experiment(10, 4000, 5).summary()["disagreement_rate"]
    r1000 = circle_coupling_experiment(1000, 2000, 5).summary()["disagreement_rate"]
    assert r1000 < r10


def _uniform_elections(rule, k, trials, seed):
    """Winner positions and IRV zone violations from the drivers' election kernel."""
    d = Uniform()
    results, violations = experiments._elections(
        RunSpec(trials, seed), f"winner-uniformity/{rule.value}/k={k}", d, k, (rule,),
        zones.zone_closed_form(d))
    return results[rule][0], violations


def test_winner_uniformity_plurality():
    winners, _ = _uniform_elections(Rule.PLURALITY, 1000, 2000, 6)
    assert ks_statistic(winners, lambda x: x) <= 0.06


def test_winner_uniformity_k1_exactly_uniform():
    winners, _ = _uniform_elections(Rule.PLURALITY, 1, 5000, 7)
    assert ks_statistic(winners, lambda x: x) <= 0.03  # winner = the single uniform draw


def test_irv_winners_stay_inside_zone():
    winners, violations = _uniform_elections(Rule.IRV, 100, 2000, 8)
    assert not violations.any()
    assert not np.any((winners < 1 / 6) | (winners > 5 / 6))


def test_uniformity_zone_check_fails_on_a_faulty_tabulator(monkeypatch):
    # Elect the leftmost candidate: with k = 100 it lies below 1/6 in nearly
    # every trial, so the per-trial zone check must flag it.
    monkeypatch.setattr(tabulate, "irv_batch", lambda pos, d, mid_cdf=None: (
        pos[:, 0], np.zeros(pos.shape[0], dtype=bool)
    ))
    _, violations = _uniform_elections(Rule.IRV, 100, 2000, 8)
    assert violations.mean() > 0.9


@pytest.mark.parametrize("k", [*range(1, 13), 100_000])
def test_gap_shares_match_shares_of_cumsum_positions(k):
    gaps = np.random.default_rng(k).standard_exponential((5, k + 1))
    gaps /= gaps.sum(axis=1, keepdims=True)
    positions = np.cumsum(gaps[:, :-1], axis=1)
    interval = _interval_shares(gaps)
    assert np.max(np.abs(interval - shares_batch(positions, Uniform()))) <= 1e-12
    # The circle model swaps the outer gaps' halves, so only the end candidates' shares move.
    circle = _gap_shares(gaps, gaps[:, -1], gaps[:, 0])
    np.testing.assert_array_equal(circle[:, 1:-1], interval[:, 1:-1])


@pytest.mark.parametrize("run", [
    lambda threads: winning_share_experiment(100_000, 100, 9, threads).statistics,
    lambda threads: max_gap_experiment(100_000, 100, 9, threads).statistics,
    lambda threads: circle_coupling_experiment(100_000, 100, 9, threads).statistics,
], ids=["share", "maxgap", "circle"])
def test_experiments_do_not_depend_on_threads(run, monkeypatch):
    single = run(1)
    np.testing.assert_array_equal(single, run(2))
    # Threads may finish chunks in any order: running them last to first
    # must give the same result, because each chunk draws from its own RNG.
    chunks = []
    map_chunks = asymptotics.map_chunks

    def last_to_first(fn, *args, **kwargs):
        chunks.extend(map_chunks(lambda *chunk: chunk, *args, **kwargs))  # (rows, rng)
        return [fn(*chunk) for chunk in reversed(chunks)][::-1]

    monkeypatch.setattr(asymptotics, "map_chunks", last_to_first)
    np.testing.assert_array_equal(single, run(1))
    assert len(chunks) > 1
