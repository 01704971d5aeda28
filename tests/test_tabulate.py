import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irvsim.dist import SymmetricBeta, Tabulated, Uniform
from irvsim.errors import InvalidProfileError
from irvsim.tabulate import (
    Profile,
    Rule,
    ballot_masses,
    irv_batch,
    irv_discrete,
    irv_winner,
    midpoint_cdf,
    plurality_batch,
    plurality_winner,
    sample_ballots,
    sample_sorted_positions,
    shares_batch,
    vote_shares,
    winners,
)

U = Uniform()


def _cos2_table():
    """The benchmark's custom electorate: density 0.4 + cos^2(2 pi x)."""
    x = np.linspace(0.0, 1.0, 201)
    return Tabulated(x, 0.4 + np.cos(2.0 * math.pi * x) ** 2)


DISTS = {
    "uniform": U,
    "beta0.3": SymmetricBeta(0.3),
    "beta2": SymmetricBeta(2.0),
    "cos2-table": _cos2_table(),
}


def test_profile_validation():
    with pytest.raises(InvalidProfileError):
        Profile([])
    with pytest.raises(InvalidProfileError):
        Profile([0.2, 0.2])
    with pytest.raises(InvalidProfileError):
        Profile([-0.1, 0.5])
    with pytest.raises(InvalidProfileError):
        Profile([0.5, 1.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_positions(bad):
    with pytest.raises(InvalidProfileError, match=r"must lie in \[0, 1\]"):
        Profile([0.2, bad, 0.7])


@pytest.mark.parametrize("tabulator", [irv_batch, plurality_batch])
def test_batch_rejects_rows_without_candidates(tabulator):
    with pytest.raises(InvalidProfileError, match="need at least one candidate position"):
        tabulator(np.zeros((3, 0)), U)


def test_profile_repr_prints_plain_floats():
    assert repr(Profile([0.0, 0.1])) == "Profile([0.0, 0.1])"


def test_profile_numbers_candidates_left_to_right():
    p = Profile([0.9, 0.1, 0.5])
    assert [p.position(i) for i in range(3)] == [0.1, 0.5, 0.9]
    assert list(p.sorted_positions) == [0.1, 0.5, 0.9]
    assert not hasattr(p, "sort_order")


def test_vote_shares_uniform():
    p = Profile([0.2, 0.5, 0.9])
    s = vote_shares(p, U)
    # cut points at 0.35 and 0.7
    assert np.allclose(s, [0.35, 0.35, 0.3])
    assert s.sum() == pytest.approx(1.0)


def test_single_candidate():
    p = Profile([0.5])
    assert vote_shares(p, U)[0] == 1.0
    assert plurality_winner(p, U).winner_position == 0.5
    out = irv_winner(p, U)
    assert out.winner_position == 0.5
    assert out.elimination_order == ()


def test_plurality_winner_simple():
    out = plurality_winner(Profile([0.2, 0.5, 0.9]), U)
    assert out.winner_position in (0.2, 0.5)  # tie at 0.35 each
    # exact tie between candidates 0 and 1: leftmost eliminated -> 0.5 wins
    assert out.winner_position == 0.5
    assert out.tie_events


def test_irv_rounds_and_elimination():
    p = Profile([0.1, 0.45, 0.95])
    out = irv_winner(p, U)
    # shares: 0.275, 0.425, 0.3 -> eliminate 0.1; then 0.525 vs 0.475 -> 0.45 wins
    assert out.elimination_order == (0, 2)
    assert out.winner_position == 0.45
    assert len(out.rounds) == 2
    for r in out.rounds:
        assert sum(r.shares) == pytest.approx(1.0)


def test_irv_five_candidate_reversal():
    # Profile where IRV's winner is strictly more extreme than plurality's.
    p = Profile([0.01, 0.2, 0.5, 0.8, 1.0])
    assert plurality_winner(p, U).winner_position == 0.5
    assert irv_winner(p, U).winner_position in (0.2, 0.8)


def test_irv_beta_voters():
    d = SymmetricBeta(2.0)
    p = Profile([0.05, 0.5, 0.95])
    s = vote_shares(p, d)
    assert s[1] > s[0] and s[1] > s[2]
    assert irv_winner(p, d).winner_position == 0.5


def test_sample_ballots_voter_at_candidate():
    p = Profile([0.25, 0.75])
    rng = np.random.default_rng(1)
    ballots = sample_ballots(p, U, 1000, rng)
    assert sum(ballots.values()) == 1000
    # only two rankings exist with two candidates
    assert set(ballots) <= {(0, 1), (1, 0)}


def test_sample_ballots_equidistant_prefers_left():
    # The bisector 0.5 has no mass, so no voter is equidistant: the two
    # regions of a symmetric profile hold about half the voters each.
    p = Profile([0.4, 0.6])
    ballots = sample_ballots(p, U, 100000, np.random.default_rng(2))
    frac_left = ballots[(0, 1)] / 100000
    assert frac_left == pytest.approx(0.5, abs=0.01)


class _NoVoters(Uniform):
    def sample(self, rng, size=None):
        raise AssertionError("sample_ballots drew voter positions")


def test_sample_ballots_draws_region_counts_not_voters():
    ballots = sample_ballots(Profile([0.1, 0.3, 0.8]), _NoVoters(), 1000,
                             np.random.default_rng(0))
    assert sum(ballots.values()) == 1000


class _RecordsCdf(Uniform):
    def __init__(self):
        self.seen = []

    def cdf(self, x):
        self.seen.append(np.array(x, copy=True))
        return super().cdf(x)


def test_sample_ballots_edges_equal_np_unique_bisectors():
    # The region edges are 0, the distinct pairwise bisectors in order, and 1,
    # bit for bit as np.unique gives them, also where bisectors coincide.
    rng = np.random.default_rng(7)
    profiles = [np.sort(rng.random(k)) for k in (2, 3, 5, 8, 13) for _ in range(20)]
    # Positions on a grid of eighths share many bisectors.
    profiles += [np.sort(rng.choice(9, k, replace=False) / 8.0) for k in (3, 6, 9)
                 for _ in range(20)]
    # Symmetric profiles: (a + d)/2 = (b + c)/2 = 1/2.
    half = [np.sort(rng.random(k) / 2.0) for k in (2, 3, 4) for _ in range(10)]
    profiles += [np.concatenate((h, 1.0 - h[::-1])) for h in half]
    profiles += [np.array([0.1, 0.3, 0.7, 0.9]), np.array([0.0, 0.25, 0.5, 0.75, 1.0])]
    merged = 0
    for srt in profiles:
        d = _RecordsCdf()
        sample_ballots(Profile(srt), d, 100, np.random.default_rng(0))
        bisectors = (srt[:, None] + srt[None, :])[np.triu_indices(srt.size, 1)] / 2.0
        want = np.concatenate(([0.0], np.unique(bisectors), [1.0]))
        assert d.seen[0].tobytes() == want.tobytes(), srt
        merged += want.size < bisectors.size + 2
    assert merged > 40  # coinciding bisectors were exercised


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_sample_ballots_region_counts_follow_multinomial_law(k):
    n = 1_000_000
    rng = np.random.default_rng(100 + k)
    srt = np.sort(rng.random(k))
    ballots = sample_ballots(Profile(srt), U, n, rng)
    assert sum(ballots.values()) == n
    edges = np.unique(np.concatenate((
        [0.0, 1.0], [(a + b) / 2 for i, a in enumerate(srt) for b in srt[i + 1:]]
    )))
    for lo, hi in zip(edges[:-1], edges[1:]):
        mass = hi - lo  # uniform voters
        key = tuple(np.argsort(np.abs((lo + hi) / 2 - srt), kind="stable").tolist())
        sigma = math.sqrt(n * mass * (1 - mass))
        assert abs(ballots[key] - n * mass) <= 5 * sigma, (key, ballots[key], n * mass)


def test_sample_ballots_stream_is_pinned():
    # Counts recorded before ballot_masses shared sample_ballots' region code:
    # the same profile, distribution and seed give the same ballots, and the
    # generator is left in the same state (the grid profile's bisectors coincide).
    p = Profile([0.62, 0.1, 0.45, 0.93, 0.3])
    assert sample_ballots(p, SymmetricBeta(0.3), 10_000, np.random.default_rng(20261019)) == {
        (0, 1, 2, 3, 4): 3504, (1, 0, 2, 3, 4): 404, (1, 2, 0, 3, 4): 403,
        (1, 2, 3, 0, 4): 90, (2, 1, 3, 0, 4): 378, (2, 3, 1, 0, 4): 261,
        (2, 3, 1, 4, 0): 94, (3, 2, 1, 4, 0): 366, (3, 2, 4, 1, 0): 388,
        (3, 4, 2, 1, 0): 442, (4, 3, 2, 1, 0): 3670,
    }
    rng = np.random.default_rng(7)
    assert sample_ballots(Profile([0.5, 0.0, 0.75, 0.25, 1.0]), U, 1000, rng) == {
        (0, 1, 2, 3, 4): 130, (1, 0, 2, 3, 4): 117, (1, 2, 0, 3, 4): 110,
        (2, 1, 3, 0, 4): 134, (2, 3, 1, 4, 0): 131, (3, 2, 4, 1, 0): 126,
        (3, 4, 2, 1, 0): 131, (4, 3, 2, 1, 0): 121,
    }
    assert rng.random() == 0.9955002834343927


def test_ballot_masses_are_the_region_masses():
    assert ballot_masses(Profile([0.75, 0.125]), U) == {(0, 1): 0.4375, (1, 0): 0.5625}
    assert ballot_masses(Profile([0.3]), U) == {(0,): 1.0}


# Seeded random profiles, which have no exact ties with probability 1; the
# simple floats hypothesis favours make exact ties, which this does not cover.
@pytest.mark.parametrize("name", sorted(DISTS))
def test_irv_discrete_on_ballot_masses_matches_irv_winner(name):
    d = DISTS[name]
    rng = np.random.default_rng(20261019)
    for k in range(1, 13):
        for _ in range(25):
            p = Profile(d.sample(rng, k))
            assert irv_discrete(ballot_masses(p, d)) == irv_winner(p, d).winner_index, p


@pytest.mark.parametrize("name", sorted(DISTS))
def test_every_tabulator_numbers_candidates_left_to_right(name):
    # Any input order gives the same outcome, in left-to-right indices.
    d = DISTS[name]
    rng = np.random.default_rng(20261022)
    for k in range(1, 13):
        for _ in range(10):
            p = Profile(d.sample(rng, k))
            shuffled = Profile(rng.permutation(p.sorted_positions))
            for tabulator in (plurality_winner, irv_winner):
                out = tabulator(p, d)
                assert tabulator(shuffled, d) == out, p
                assert p.sorted_positions[out.winner_index] == out.winner_position
                assert out.rounds[0].active == tuple(range(k))
            active = tuple(range(k))  # out is irv_winner's: each round drops its loser
            for r, gone in zip(out.rounds, out.elimination_order):
                assert r.active == active
                active = tuple(i for i in active if i != gone)
            assert active == (out.winner_index,)
            assert irv_discrete(ballot_masses(shuffled, d)) == out.winner_index, p


def test_irv_discrete_identical_ballots():
    assert irv_discrete([(2, 0, 1)] * 5) == 2


def test_irv_discrete_matches_continuous():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(3, 6))
        p = Profile(rng.random(k))
        shares = vote_shares(p, U)
        if np.min(np.abs(np.diff(np.sort(shares)))) < 0.02:
            continue  # margin filter: skip knife-edge profiles
        ballots = sample_ballots(p, U, 100_000, rng)
        assert irv_discrete(ballots) == irv_winner(p, U).winner_index


def test_batch_agrees_with_scalar():
    rng = np.random.default_rng(4)
    pos = sample_sorted_positions(U, 5, 200, rng)
    wp, _ = plurality_batch(pos, U)
    wr, _ = irv_batch(pos, U)
    for i in range(200):
        prof = Profile(pos[i])
        assert wp[i] == plurality_winner(prof, U).winner_position
        assert wr[i] == irv_winner(prof, U).winner_position


def test_shares_batch_rows_sum_to_one():
    rng = np.random.default_rng(5)
    pos = sample_sorted_positions(SymmetricBeta(0.5), 7, 50, rng)
    s = shares_batch(pos, SymmetricBeta(0.5))
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s >= 0)


def test_batch_tie_flags():
    pos = np.array([[0.25, 0.75]])  # exact 0.5/0.5 split
    _, tie = plurality_batch(pos, U)
    assert tie[0]
    _, tie_r = irv_batch(pos, U)
    assert tie_r[0]


def _irv_batch_full_recompute(sorted_pos, d):
    """Reference: recompute every share each round, then drop the loser."""
    pos = np.array(sorted_pos, dtype=float)
    n, k = pos.shape
    tie = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    for m in range(k, 1, -1):
        shares = shares_batch(pos, d)
        j = np.argmin(shares, axis=1)  # first occurrence = leftmost tie policy
        low = shares[rows, j]
        tie |= (shares == low[:, None]).sum(axis=1) > 1
        keep = np.arange(m)[None, :] != j[:, None]
        pos = pos[keep].reshape(n, m - 1)
    return pos[:, 0], tie


def _grid_profiles(k, n, rng, denominator=None):
    """Sorted rows on a coarse dyadic grid, where exact share ties are common.

    The default grid has 16 steps up to k = 8 and the power of two at or above
    k^2 beyond, so that most rows still hold k distinct points."""
    if denominator is None:
        denominator = 16 if k <= 8 else 1 << (k * k - 1).bit_length()
    pos = np.sort(rng.integers(0, denominator + 1, (n, k)) / denominator, axis=1)
    return pos[np.all(np.diff(pos, axis=1) > 0, axis=1)]


@pytest.mark.parametrize("name", sorted(DISTS))
def test_irv_batch_matches_full_recompute_bitwise(name):
    d = DISTS[name]
    rng = np.random.default_rng(11)
    # k > 255 needs 16-bit counters for the weights and tie counts.
    for k in (1, 2, 3, 4, 5, 8, 13, 30, 60, 257, 300):
        n = 500 if k <= 30 else 100 if k <= 60 else 12
        for pos in (sample_sorted_positions(d, k, n, rng), _grid_profiles(k, n, rng)):
            w, tie = irv_batch(pos, d)
            w_ref, tie_ref = _irv_batch_full_recompute(pos, d)
            assert w.tobytes() == w_ref.tobytes()
            assert np.array_equal(tie, tie_ref)
            w_mid, tie_mid = irv_batch(pos, d, midpoint_cdf(pos, d))
            assert w_mid.tobytes() == w.tobytes()
            assert np.array_equal(tie_mid, tie)
    # The grid rows do produce ties, so the tie path is exercised.
    assert _irv_batch_full_recompute(_grid_profiles(4, 500, rng), U)[1].any()


def _plurality_batch_rowwise(sorted_pos, d):
    """Reference: row-wise shares; the rightmost maximum wins."""
    shares = shares_batch(sorted_pos, d)
    top = shares.max(axis=1)
    tie = (shares == top[:, None]).sum(axis=1) > 1
    j = shares.shape[1] - 1 - np.argmax(shares[:, ::-1], axis=1)
    return sorted_pos[np.arange(sorted_pos.shape[0]), j], tie


@pytest.mark.parametrize("name", sorted(DISTS))
def test_plurality_batch_matches_rowwise_bitwise(name):
    d = DISTS[name]
    rng = np.random.default_rng(14)
    for k in (1, 2, 3, 5, 30, 100):
        n = 500 if k <= 30 else 100
        for pos in (sample_sorted_positions(d, k, n, rng), _grid_profiles(k, n, rng)):
            w, tie = plurality_batch(pos, d)
            w_ref, tie_ref = _plurality_batch_rowwise(pos, d)
            assert w.tobytes() == w_ref.tobytes()
            assert np.array_equal(tie, tie_ref)
            w_mid, tie_mid = plurality_batch(pos, d, midpoint_cdf(pos, d))
            assert w_mid.tobytes() == w.tobytes()
            assert np.array_equal(tie_mid, tie)
    # The grid rows do produce ties, so the tie path is exercised.
    assert _plurality_batch_rowwise(_grid_profiles(3, 500, rng), U)[1].any()


def test_irv_batch_flags_a_256_way_tie():
    # Candidates at (2i + 1)/1024: the first 256 uniform shares are exactly 1/512.
    # A tie count of 256 and weights up to 257 take irv_batch's 16-bit counters.
    pos = (2.0 * np.arange(257) + 1.0)[None, :] / 1024
    assert np.count_nonzero(shares_batch(pos, U) == 1 / 512) == 256
    w, tie = irv_batch(pos, U)
    w_ref, tie_ref = _irv_batch_full_recompute(pos, U)
    assert tie[0] and tie_ref[0]
    assert w.tobytes() == w_ref.tobytes()


@pytest.mark.parametrize("name", ["uniform", "beta2"])
def test_irv_batch_traced_peak_stays_within_four_buffers(name):
    """One call at k = 30 on 4,096 rows, given its first cuts as the drivers pass
    them, allocates at most four (k + 1) x n float64 arrays at once."""
    d = DISTS[name]
    k, n = 30, 4096
    pos = sample_sorted_positions(d, k, n, np.random.default_rng(13))
    mid = midpoint_cdf(pos, d)
    tracemalloc.start()
    try:
        irv_batch(pos, d, mid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (k + 1) * n * 8


_profile_point = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(0, 32).map(lambda i: i / 32),  # grid points: exact ties
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(DISTS)),
    rows=st.integers(1, 12).flatmap(
        lambda k: st.lists(
            st.lists(_profile_point, min_size=k, max_size=k, unique=True),
            min_size=1,
            max_size=6,
        )
    ),
)
@example(name="uniform", rows=[[0.25, 0.75]])
@example(name="uniform", rows=[[0.25, 0.5, 0.75], [0.1, 0.45, 0.95]])
@example(name="beta2", rows=[[0.5]])
def test_irv_batch_matches_scalar_tabulator(name, rows):
    d = DISTS[name]
    pos = np.sort(np.array(rows, dtype=float), axis=1)
    w, tie = irv_batch(pos, d)
    for i, row in enumerate(pos):
        out = irv_winner(Profile(row), d)
        assert w[i] == out.winner_position
        assert tie[i] == bool(out.tie_events)


def test_winners_dispatch():
    rng = np.random.default_rng(12)
    pos = sample_sorted_positions(U, 6, 300, rng)
    wp, tie_p = plurality_batch(pos, U)
    assert all(np.array_equal(a, b) for a, b in zip(winners(Rule.PLURALITY, pos, U), (wp, tie_p)))
    assert all(np.array_equal(a, b) for a, b in zip(winners(Rule.IRV, pos, U), irv_batch(pos, U)))
