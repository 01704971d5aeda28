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
    """Strictly sorted candidate positions in [0, 1].

    Positions may be given in any order; the sort permutation is kept so that
    winner indices refer to the caller's original labeling.
    """

    def __init__(self, positions):
        pos = np.asarray(list(positions), dtype=float)
        if pos.ndim != 1 or pos.size < 1:
            raise InvalidProfileError("need at least one candidate position")
        if np.any(pos < 0.0) or np.any(pos > 1.0):
            raise InvalidProfileError("candidate positions must lie in [0, 1]")
        order = np.argsort(pos, kind="stable")
        srt = pos[order]
        if np.any(np.diff(srt) == 0.0):
            raise InvalidProfileError("duplicate candidate positions")
        self._sorted = srt
        self._order = order  # order[j] = original index of j-th sorted candidate
        self._sorted.setflags(write=False)
        self._order.setflags(write=False)

    @property
    def k(self) -> int:
        return self._sorted.size

    @property
    def sorted_positions(self):
        return self._sorted

    @property
    def sort_order(self):
        return self._order

    def position(self, original_index: int) -> float:
        i = check_int("candidate index", original_index, 0)
        if i >= self.k:
            raise DomainError(f"candidate index {i} is out of range for {self.k} candidates")
        j = int(np.nonzero(self._order == i)[0][0])
        return float(self._sorted[j])

    def __repr__(self):
        return f"Profile({self._sorted.tolist()})"


@dataclass(frozen=True)
class Round:
    active: tuple  # original candidate indices, in left-right order
    shares: tuple  # vote shares, same order; sum to 1


@dataclass(frozen=True)
class TabulationOutcome:
    rounds: tuple
    elimination_order: tuple  # original indices, in elimination order
    winner_index: int  # original labeling
    winner_position: float
    tie_events: tuple = field(default_factory=tuple)  # (round_index, tied originals)


def _shares_sorted(srt: np.ndarray, d: VoterDistribution) -> np.ndarray:
    """Shares for already-sorted positions: F-mass between adjacent midpoints."""
    if srt.size == 1:
        return np.array([1.0])
    mids = 0.5 * (srt[:-1] + srt[1:])
    f = np.asarray(d.cdf(mids))
    cuts = np.concatenate(([0.0], f, [1.0]))
    return np.diff(cuts)


def vote_shares(p: Profile, d: VoterDistribution) -> np.ndarray:
    """Vote shares for the sorted candidates of `p` under voter distribution `d`."""
    return _shares_sorted(p.sorted_positions, d)


def plurality_winner(p: Profile, d: VoterDistribution):
    """Single-round winner: argmax of vote shares; among exact ties, the rightmost wins."""
    shares = vote_shares(p, d)
    originals = p.sort_order
    top = shares.max()
    tied = np.nonzero(shares == top)[0]
    tie_events = ()
    if tied.size > 1:
        tie_events = ((0, tuple(int(originals[j]) for j in tied)),)
    # Eliminating leftmost among ties leaves the rightmost tied candidate as winner.
    j = tied[-1]
    return TabulationOutcome(
        rounds=(Round(tuple(int(i) for i in originals), tuple(shares)),),
        elimination_order=(),
        winner_index=int(originals[j]),
        winner_position=float(p.sorted_positions[j]),
        tie_events=tie_events,
    )


def irv_winner(p: Profile, d: VoterDistribution):
    """Eliminate the smallest-share candidate until one remains; k-1 rounds.

    Among exact ties at the smallest share the leftmost is eliminated; each
    tie is recorded in `tie_events`.
    """
    srt = p.sorted_positions.copy()
    originals = list(int(i) for i in p.sort_order)
    rounds = []
    elim = []
    ties = []
    while srt.size > 1:
        shares = _shares_sorted(srt, d)
        rounds.append(Round(tuple(originals), tuple(shares)))
        low = shares.min()
        tied = np.nonzero(shares == low)[0]
        if tied.size > 1:
            ties.append((len(rounds) - 1, tuple(originals[j] for j in tied)))
        j = int(tied[0])
        elim.append(originals[j])
        srt = np.delete(srt, j)
        del originals[j]
    if not rounds:  # k == 1
        rounds.append(Round((originals[0],), (1.0,)))
    return TabulationOutcome(
        rounds=tuple(rounds),
        elimination_order=tuple(elim),
        winner_index=originals[0],
        winner_position=float(srt[0]),
        tie_events=tuple(ties),
    )


def _ranking_regions(p: Profile, d: VoterDistribution):
    """The constant-ranking regions of [0, 1]: each one's ranking and F-mass.

    A ranking is a tuple of original candidate indices sorted by increasing
    distance from the voter. It is constant between consecutive pairwise
    bisectors, so the regions are the gaps between them and each region has
    its own ranking; a bisector (F-mass zero) holds no voter.
    """
    srt = p.sorted_positions
    originals = p.sort_order
    k = srt.size
    if k == 1:
        return [(int(originals[0]),)], np.ones(1)
    # Bisectors of all candidate pairs partition [0, 1] into constant-ranking regions.
    # np.unique's bounds, without the numpy.ma import it costs in numpy 2.4.
    mids = np.sort((srt[:, None] + srt[None, :])[np.triu_indices(k, 1)] / 2.0)
    bounds = mids[np.concatenate(([True], mids[1:] != mids[:-1]))]
    edges = np.concatenate(([0.0], bounds, [1.0]))
    reps = 0.5 * (edges[:-1] + edges[1:])
    ranks = np.argsort(np.abs(reps[:, None] - srt[None, :]), axis=1, kind="stable")
    return [tuple(r) for r in originals[ranks].tolist()], np.diff(d.cdf(edges))


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


def irv_discrete(ballots, positions=None) -> int:
    """Standard IRV on a ballot multiset; returns the winning candidate index.

    `ballots` is a Counter (or iterable of ranking tuples) whose values may be
    any nonnegative weights: voter counts from sample_ballots, or exact voter
    masses from ballot_masses. Leftmost elimination orders tied candidates by
    `positions` (mapping index -> position) when given, falling back to index
    order.
    """
    if not isinstance(ballots, Counter):
        ballots = Counter(ballots)
    if not ballots:
        raise InvalidProfileError("empty ballot multiset")
    active = set()
    for ranking in ballots:
        active.update(ranking)
    place = {i: i for i in active} if positions is None else positions
    while len(active) > 1:
        counts = {i: 0 for i in active}
        for ranking, n in ballots.items():
            for i in ranking:
                if i in active:
                    counts[i] += n
                    break
        # The smallest count loses; among ties, the leftmost.
        active.remove(min(active, key=lambda i: (counts[i], place[i])))
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
    return np.asarray(d.cdf(0.5 * (sorted_pos[:, :-1] + sorted_pos[:, 1:])))


def shares_batch(sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None) -> np.ndarray:
    """Row-wise vote shares for a (trials, k) array of sorted positions and its midpoint_cdf."""
    n, k = sorted_pos.shape
    if k == 1:
        return np.ones((n, 1))
    cuts = np.empty((n, k + 1))
    cuts[:, 0] = 0.0
    cuts[:, 1:-1] = midpoint_cdf(sorted_pos, d) if mid_cdf is None else mid_cdf
    cuts[:, -1] = 1.0
    return np.diff(cuts, axis=1)


def plurality_batch(sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None):
    """Winner positions and tie flags for each row."""
    shares = shares_batch(sorted_pos, d, mid_cdf)
    top = shares.max(axis=1)
    tie = (shares == top[:, None]).sum(axis=1) > 1
    # Rightmost among exact ties, matching the leftmost-elimination policy.
    j = shares.shape[1] - 1 - np.argmax(shares[:, ::-1], axis=1)
    return sorted_pos[np.arange(sorted_pos.shape[0]), j], tie


def irv_batch(sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None):
    """IRV winner positions and tie flags for each row of sorted positions.

    Neighbour-linked elimination: each row keeps the cuts 0, F(midpoint of
    each adjacent active pair), 1, and its shares are their differences.
    Dropping candidate j merges the two cuts around it, so only a row whose j
    was interior needs one new value, F(0.5 * (left + right)). That is
    2k - 3 CDF values per row instead of k(k - 1)/2, and each cut is the
    same expression a full recompute evaluates, so winners and tie flags are
    identical to recomputing every share each round.

    The loser is the leftmost candidate at the minimal share; a row's tie
    flag is set when any round's minimum is shared exactly. `mid_cdf` is
    midpoint_cdf(sorted_pos, d), the first round's cuts, computed when not given.
    """
    pos = np.asarray(sorted_pos, dtype=float)
    n, k = pos.shape
    # Candidate-major layout: each round's reductions run over rows at once.
    pos = np.ascontiguousarray(pos.T)
    tie = np.zeros(n, dtype=bool)
    if k == 1:
        return pos[0], tie
    cols = np.arange(n)
    cuts = np.empty((k + 1, n))
    cuts[0] = 0.0
    cuts[-1] = 1.0
    cuts[1:-1] = (midpoint_cdf(pos.T, d) if mid_cdf is None else mid_cdf).T
    for m in range(k, 1, -1):
        shares = np.diff(cuts, axis=0)
        at_low = shares == shares.min(axis=0)
        del shares  # freed before the compaction below allocates its arrays
        tie |= np.count_nonzero(at_low, axis=0) > 1
        j = np.argmax(at_low, axis=0)  # first minimum: eliminate leftmost
        if m == 2:
            return pos[1 - j, cols], tie
        # Drop candidate j and the cut to its right (to its left if it is the
        # rightmost, keeping the final cut at 1).
        pos = np.where(np.arange(m - 1)[:, None] < j, pos[:-1], pos[1:])
        dropped = np.minimum(j + 1, m - 1)
        cuts = np.where(np.arange(m)[:, None] < dropped, cuts[:-1], cuts[1:])
        inner = np.nonzero((j > 0) & (j < m - 1))[0]
        if inner.size:
            ji = j[inner]
            cuts[ji, inner] = d.cdf(0.5 * (pos[ji - 1, inner] + pos[ji, inner]))


def winners(rule: Rule, sorted_pos: np.ndarray, d: VoterDistribution, mid_cdf=None):
    """Winner positions and exact-tie flags for each row under `rule`; see midpoint_cdf."""
    return (plurality_batch if rule is Rule.PLURALITY else irv_batch)(sorted_pos, d, mid_cdf)
