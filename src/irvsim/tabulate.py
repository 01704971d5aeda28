"""Continuous-electorate tabulation of plurality and IRV on [0, 1].

A continuum of voters distributed as F assigns each candidate the F-mass
between the midpoints to its neighbors. IRV repeatedly eliminates the
candidate with the smallest share and recomputes shares from the survivors.
A discrete ballot tabulator is included as an independent oracle, fed either
the exact voter mass of each ranking or sampled ballots.

All operations are pure functions of immutable inputs and are thread-safe.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dist import VoterDistribution
from .errors import DomainError, InvalidProfileError, check_int

__all__ = [
    "Rule",
    "Profile",
    "Round",
    "TabulationOutcome",
    "vote_shares",
    "plurality_winner",
    "irv_winner",
    "ballot_masses",
    "sample_ballots",
    "irv_discrete",
    "sample_sorted_positions",
    "midpoint_cdf",
    "shares_batch",
    "plurality_batch",
    "irv_batch",
    "winners",
]


class Rule(enum.Enum):
    PLURALITY = "plurality"
    IRV = "irv"


class Profile:
    """Strictly increasing candidate positions in [0, 1].

    Positions may be given in any order; they are sorted, and candidate i is
    the i-th from the left in every index the tabulators report.
    """

    def __init__(self, positions):
        pos = np.sort(np.asarray(list(positions), dtype=float))
        if pos.ndim != 1 or pos.size < 1:
            raise InvalidProfileError("need at least one candidate position")
        if not np.all((pos >= 0.0) & (pos <= 1.0)):  # NaN fails both tests
            raise InvalidProfileError("candidate positions must lie in [0, 1]")
        if np.any(np.diff(pos) == 0.0):
            raise InvalidProfileError("duplicate candidate positions")
        pos.setflags(write=False)
        self._sorted = pos

    @property
    def k(self) -> int:
        return self._sorted.size

    @property
    def sorted_positions(self):
        return self._sorted

    def position(self, index: int) -> float:
        """The position of candidate `index`, the index-th from the left."""
        i = check_int("candidate index", index, 0)
        if i >= self.k:
            raise DomainError(f"candidate index {i} is out of range for {self.k} candidates")
        return float(self._sorted[i])

    def __repr__(self):
        return f"Profile({self._sorted.tolist()})"


@dataclass(frozen=True)
class Round:
    active: tuple  # candidate indices, in increasing (left-right) order
    shares: tuple  # vote shares, same order; sum to 1


@dataclass(frozen=True)
class TabulationOutcome:
    rounds: tuple
    elimination_order: tuple  # candidate indices, in elimination order
    winner_index: int
    winner_position: float
    tie_events: tuple = field(default_factory=tuple)  # (round_index, tied indices)


def vote_shares(p: Profile, d: VoterDistribution) -> np.ndarray:
    """Vote shares for the sorted candidates of `p` under voter distribution `d`."""
    return shares_batch(p.sorted_positions[None, :], d)[0]


def plurality_winner(p: Profile, d: VoterDistribution):
    """Single-round winner: argmax of vote shares; among exact ties, the rightmost wins."""
    shares = vote_shares(p, d)
    tied = np.nonzero(shares == shares.max())[0].tolist()
    # Eliminating leftmost among ties leaves the rightmost tied candidate as winner.
    return TabulationOutcome(
        rounds=(Round(tuple(range(p.k)), tuple(shares)),),
        elimination_order=(),
        winner_index=tied[-1],
        winner_position=float(p.sorted_positions[tied[-1]]),
        tie_events=((0, tuple(tied)),) if len(tied) > 1 else (),
    )


def irv_winner(p: Profile, d: VoterDistribution):
    """Eliminate the smallest-share candidate until one remains; k-1 rounds.

    Among exact ties at the smallest share the leftmost is eliminated; each
    tie is recorded in `tie_events`.
    """
    active = list(range(p.k))
    rounds = []
    elim = []
    ties = []
    while len(active) > 1:
        shares = shares_batch(p.sorted_positions[None, active], d)[0]
        rounds.append(Round(tuple(active), tuple(shares)))
        tied = np.nonzero(shares == shares.min())[0]
        if tied.size > 1:
            ties.append((len(rounds) - 1, tuple(active[j] for j in tied)))
        elim.append(active.pop(int(tied[0])))
    if not rounds:  # k == 1
        rounds.append(Round((0,), (1.0,)))
    return TabulationOutcome(
        rounds=tuple(rounds),
        elimination_order=tuple(elim),
        winner_index=active[0],
        winner_position=float(p.sorted_positions[active[0]]),
        tie_events=tuple(ties),
    )


def _ranking_regions(p: Profile, d: VoterDistribution):
    """The constant-ranking regions of [0, 1]: each one's ranking and F-mass.

    A ranking is a tuple of candidate indices sorted by increasing distance
    from the voter. It is constant between consecutive pairwise bisectors, so
    the regions are the gaps between them and each region has its own ranking;
    a bisector (F-mass zero) holds no voter.
    """
    srt = p.sorted_positions
    k = srt.size
    if k == 1:
        return [(0,)], np.ones(1)
    # Bisectors of all candidate pairs partition [0, 1] into constant-ranking regions.
    # np.unique's bounds, without the numpy.ma import it costs in numpy 2.4.
    mids = np.sort((srt[:, None] + srt[None, :])[np.triu_indices(k, 1)] / 2.0)
    bounds = mids[np.concatenate(([True], mids[1:] != mids[:-1]))]
    edges = np.concatenate(([0.0], bounds, [1.0]))
    reps = 0.5 * (edges[:-1] + edges[1:])
    ranks = np.argsort(np.abs(reps[:, None] - srt[None, :]), axis=1, kind="stable")
    return [tuple(r) for r in ranks.tolist()], np.diff(d.cdf(edges))


def ballot_masses(p: Profile, d: VoterDistribution) -> Counter:
    """Each proximity ranking's exact voter mass under `d`, as a Counter.

    The continuum electorate as a weighted ballot multiset: the mass of a
    ranking is the F-mass of the region of voters who rank the candidates
    that way. irv_discrete tabulates it without sampling noise.
    """
    rankings, masses = _ranking_regions(p, d)
    return Counter(dict(zip(rankings, masses.tolist())))


def sample_ballots(p: Profile, d: VoterDistribution, n_voters: int, rng) -> Counter:
    """Sample `n_voters` i.i.d. voters from `d` as a multiset of proximity rankings.

    Returns a Counter keyed by ranking tuple, as ballot_masses does. Only the
    number of voters in each constant-ranking region matters; those counts
    follow the multinomial law with the regions' F-masses, and are drawn from
    it directly, so no voter position is drawn.
    """
    rankings, masses = _ranking_regions(p, d)
    counts = rng.multinomial(check_int("n_voters", n_voters, 1), masses)
    return Counter({rankings[r]: int(counts[r]) for r in np.nonzero(counts)[0]})


def irv_discrete(ballots) -> int:
    """Standard IRV on a ballot multiset; returns the winning candidate index.

    `ballots` is a Counter (or iterable of ranking tuples) whose values may be
    any nonnegative weights: voter counts from sample_ballots, or exact voter
    masses from ballot_masses. Candidates are numbered from the left, so
    leftmost elimination among tied candidates eliminates the smallest index.
    """
    if not isinstance(ballots, Counter):
        ballots = Counter(ballots)
    if not ballots:
        raise InvalidProfileError("empty ballot multiset")
    active = set()
    for ranking in ballots:
        active.update(ranking)
    while len(active) > 1:
        counts = {i: 0 for i in active}
        for ranking, n in ballots.items():
            for i in ranking:
                if i in active:
                    counts[i] += n
                    break
        # The smallest count loses; among ties, the leftmost.
        active.remove(min(active, key=lambda i: (counts[i], i)))
    return next(iter(active))


# ---------------------------------------------------------------------------
# Vectorized batch tabulation for Monte Carlo sweeps.
# Batch elimination eliminates the leftmost candidate among exact ties, as the
# scalar tabulators do; exact-equality ties are reported via the returned flag
# so callers can filter them out.
# ---------------------------------------------------------------------------


def sample_sorted_positions(d: VoterDistribution, k: int, trials: int, rng) -> np.ndarray:
    """(trials, k) array of sorted candidate draws from `d`."""
    return np.sort(d.sample(rng, (trials, k)), axis=1)


def midpoint_cdf(sorted_pos: np.ndarray, d: VoterDistribution) -> np.ndarray:
    """(trials, k - 1) F at adjacent sorted positions' midpoints: both rules' first-round cuts."""
    return d.cdf(0.5 * (sorted_pos[:, :-1] + sorted_pos[:, 1:]))


def shares_batch(sorted_pos: np.ndarray, d: VoterDistribution) -> np.ndarray:
    """Row-wise vote shares for a (trials, k) array of sorted positions."""
    if sorted_pos.shape[1] < 1:
        raise InvalidProfileError("need at least one candidate position")
    return np.diff(midpoint_cdf(sorted_pos, d), axis=1, prepend=0.0, append=1.0)


def plurality_batch(sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None):
    """Winner positions and tie flags for each row; see midpoint_cdf. The rightmost candidate
    at the exact maximum share wins (the leftmost-elimination policy). The shares are
    shares_batch's, laid out candidate-major as in irv_batch so reductions run over rows."""
    n, k = np.shape(sorted_pos)
    if k < 1:
        raise InvalidProfileError("need at least one candidate position")
    cuts = np.zeros((k + 1, n))
    cuts[1:k] = (midpoint_cdf(sorted_pos, d) if mid_cdf is None else mid_cdf).T
    cuts[k] = 1.0
    shares = cuts[1:] - cuts[:-1]
    top = shares == shares.max(axis=0)
    w = np.arange(k, dtype=np.min_scalar_type(k))[:, None]
    tie = np.add.reduce(top, axis=0, dtype=w.dtype) > 1
    return sorted_pos[np.arange(n), np.maximum.reduce(top * w, axis=0)], tie


def _select(out, a, b, keep):
    """out = a where keep else b, moving bits: b ^ ((a ^ b) * keep) on int64 views."""
    out, a, b = (x.view(np.int64) for x in (out, a, b))
    np.bitwise_xor(np.multiply(np.bitwise_xor(a, b, out=out), keep, out=out), b, out=out)


def irv_batch(sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None):
    """IRV winner positions and tie flags for each row of sorted positions.

    Neighbour-linked elimination: each row keeps the cuts 0, F(midpoint of
    each adjacent active pair), 1, and its shares are their differences.
    Dropping candidate j merges the two cuts around it, so only a row whose j
    was interior needs one new value, F(0.5 * (left + right)). That is
    2k - 3 CDF values per row instead of k(k - 1)/2.

    The loser is the leftmost candidate at the minimal share; a row's tie
    flag is set when any round's minimum is shared exactly. `mid_cdf` is
    midpoint_cdf(sorted_pos, d), the first round's cuts, computed when not given.

    Outputs are bit-identical to recomputing every share each round: each cut
    is the same F(0.5 * (left + right)) on the same operands, compaction is a
    bit select that moves floats unchanged, and with active row r weighted
    m - r the largest weight at the minimum is the first minimal row's. The
    counters' type min_scalar_type(k) holds every weight and tie count.
    """
    n, k = np.shape(sorted_pos)
    if k < 1:
        raise InvalidProfileError("need at least one candidate position")
    tie = np.zeros(n, dtype=bool)
    # Candidate-major layout: each round's reductions run over rows at once.
    # Three (k + 1, n) buffers rotate: positions, cuts and a free one.
    pos, cuts = np.empty((k + 1, n)), np.empty((k + 1, n))
    pos[:k] = np.asarray(sorted_pos, dtype=float).T
    if k == 1:
        return pos[0], tie
    cuts[0], cuts[k] = 0.0, 1.0
    cuts[1:k] = (midpoint_cdf(pos[:k].T, d) if mid_cdf is None else mid_cdf).T
    free, r, cols = np.empty((k + 1, n)), np.arange(k - 1)[:, None], np.arange(n)
    w = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    for m in range(k, 1, -1):
        shares = np.subtract(cuts[1 : m + 1], cuts[:m], out=free[:m])
        low = shares == shares.min(axis=0)
        tie |= np.add.reduce(low, axis=0, dtype=w.dtype) > 1
        j = m - np.maximum.reduce(low * w[k - m :], axis=0)  # leftmost minimum
        if m == 2:
            return pos[1 - j, cols], tie
        # Drop candidate j and the cut to its right (to its left if it is the
        # rightmost, keeping the final cut at 1). The shares' buffer takes the
        # positions and the old positions' buffer takes the cuts.
        _select(free[: m - 1], pos[: m - 1], pos[1:m], r[: m - 1] < j)
        _select(pos[: m - 1], cuts[: m - 1], cuts[1:m], r[: m - 1] <= j)
        pos, cuts, free = free, pos, cuts
        cuts[m - 1] = 1.0
        inner = np.nonzero((j > 0) & (j < m - 1))[0]
        if inner.size:
            ji = j[inner]
            cuts[ji, inner] = d.cdf(0.5 * (pos[ji - 1, inner] + pos[ji, inner]))


def winners(rule: Rule, sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None):
    """Winner positions and exact-tie flags for each row under `rule`; see midpoint_cdf."""
    return (plurality_batch if rule is Rule.PLURALITY else irv_batch)(sorted_pos, d, mid_cdf)
