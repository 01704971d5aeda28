"""Exclusion zones for IRV and the no-exclusion constructions for plurality.

An interval [c, 1-c] is an exclusion zone when the presence of any candidate
inside it precludes candidates outside it from winning under IRV. The general
sufficient condition on the voter CDF is

    g(x) = F((x + 1 - c) / 2) - F((c + x) / 2) > 1/3   for all x in [c, 1/2],

i.e. the last moderate candidate, squeezed as hard as possible by extremists
at c and 1-c, still keeps more than a third of the vote. Closed-form bounds
exist when the density is monotone on the left half; hyper-polarized
distributions (F(1/4) > 1/3) flip the zone to the extreme pair [0,c]∪[1-c,1].

The extreme-pair claim is two-sided: with c = 2 F^{-1}(1/3), when both [0, c]
and [1-c, 1] hold a candidate, the IRV winner lies in one of them.

Proof. F is continuous, so F(c/2) = 1/3. Take a round with m >= 3 active
candidates of which exactly one, x, lies in [0, c]. It is the leftmost, and
its right neighbour y exceeds c, so its share is F((x + y)/2) >= F(c/2) = 1/3
>= 1/m >= the lowest share. If F increases strictly just right of c/2, the
first inequality is strict and x is not eliminated. If F is flat at 1/3 there
(a table with zero density), x still survives: for m >= 4 the lowest share is
at most 1/4, and for m = 3 eliminating x needs all three shares equal to 1/3.
Then F((x + y)/2) = 1/3 < F(1/4) gives y < 1/2, and the rightmost candidate
z has 1 - F((y + z)/2) = 1/3, so by symmetry (y + z)/2 > 3/4 and z > 1, which
is impossible. So [0, c] keeps a candidate into the final two, and by symmetry
so does [1-c, 1]: the final is between the two sides. With one side empty the
claim can fail: under Beta(0.3, 0.3) voters, [0.449, 0.822, 0.863, 0.877,
0.884, 0.956, 0.994, 1.0] elects 0.449.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import Regime, VoterDistribution
from .errors import (
    DomainError,
    NoZoneError,
    UnconstructibleError,
    UnsupportedRegimeError,
    check_int,
)
from .tabulate import Profile, vote_shares

__all__ = [
    "ZoneKind",
    "ExclusionZone",
    "ConditionCheck",
    "check_condition",
    "zone_closed_form",
    "min_zone_numeric",
    "force_plurality_winner",
    "tightness_profile",
    "small_k_counterexample",
]


class ZoneKind(enum.Enum):
    MODERATE_INTERVAL = "moderate-interval"  # [c, 1-c]
    EXTREME_PAIR = "extreme-pair"  # [0, c] ∪ [1-c, 1]


@dataclass(frozen=True)
class ExclusionZone:
    c: float
    regime: Regime

    def __post_init__(self):
        if not (0.0 <= self.c <= 0.5):
            raise DomainError("zone parameter c must lie in [0, 1/2]")

    @property
    def degenerate(self) -> bool:
        """Whether the zone claim says nothing: c = 0, or c within 1e-9 of 1/2.

        At c = 0 a moderate interval is all of [0, 1], and an extreme pair is
        only the points 0 and 1. Near c = 1/2 an extreme pair covers [0, 1].
        """
        return bool(self.c <= 0.0 or self.c >= 0.5 - 1e-9)

    @property
    def zone_kind(self) -> ZoneKind:
        """The extreme pair for a hyper-polarized regime, else the moderate interval."""
        if self.regime is Regime.HYPER_POLARIZED:
            return ZoneKind.EXTREME_PAIR
        return ZoneKind.MODERATE_INTERVAL

    def contains_winner(self, x):
        """Whether position x lies in the zone; elementwise for an array."""
        c = self.c
        if self.zone_kind is ZoneKind.MODERATE_INTERVAL:
            return (x >= c) & (x <= 1.0 - c)
        return (x <= c) | (x >= 1.0 - c)

    def violations(self, sorted_pos: np.ndarray, winners: np.ndarray) -> np.ndarray:
        """Rows of sorted (trials, k) positions where the claim binds and the winner is outside.

        A moderate interval binds when a candidate lies in it; an extreme pair
        binds only when both [0, c] and [1-c, 1] hold a candidate.
        """
        if self.zone_kind is ZoneKind.MODERATE_INTERVAL:
            binds = np.any(self.contains_winner(sorted_pos), axis=1)
        else:
            binds = (sorted_pos[:, 0] <= self.c) & (sorted_pos[:, -1] >= 1.0 - self.c)
        return binds & ~self.contains_winner(winners)

    def to_json(self) -> dict:
        return {"c": self.c, "kind": self.zone_kind.value, "regime": self.regime.value,
                "degenerate": self.degenerate}


class ConditionCheck(NamedTuple):
    satisfied: bool
    min_value: float
    witness: float | None  # minimizing x when the condition fails


# check_condition samples g at this many points of [c, 1/2] and requires
# g > 1/3 + _CONDITION_MARGIN at each.
_CONDITION_GRID_POINTS = 10_000
_CONDITION_MARGIN = 1e-9


def check_condition(d: VoterDistribution, c: float) -> ConditionCheck:
    """Verify the squeeze condition min g(x) > 1/3 on a grid over [c, 1/2]."""
    if not (0.0 < c < 0.5):
        raise DomainError("c must lie in (0, 1/2)")
    x = np.linspace(c, 0.5, _CONDITION_GRID_POINTS)
    g = d.cdf((x + 1.0 - c) / 2.0) - d.cdf((c + x) / 2.0)
    j = int(np.argmin(g))
    ok = bool(g[j] > 1.0 / 3.0 + _CONDITION_MARGIN)
    return ConditionCheck(ok, float(g[j]), None if ok else float(x[j]))


def zone_closed_form(d: VoterDistribution) -> ExclusionZone:
    """Largest zone (smallest c) permitted by the monotone-density bounds.

    Moderate (density non-decreasing on the left half): c = F^{-1}(1/6).
    Polarized (non-increasing, F(1/4) < 1/3): c = 2(F^{-1}(1/3) - 1/4).
    Hyper-polarized (F(1/4) > 1/3): extreme pair with c = 2 F^{-1}(1/3).
    """
    regime = d.classify_shape()
    if regime is Regime.HYPER_POLARIZED:
        c = 2.0 * d.quantile(1.0 / 3.0)
    elif regime is Regime.MODERATE:
        c = d.quantile(1.0 / 6.0)
    elif regime is Regime.POLARIZED:
        c = max(2.0 * (d.quantile(1.0 / 3.0) - 0.25), 0.0)
    else:
        raise UnsupportedRegimeError(
            "density is not monotone on [0, 1/2] and F(1/4) < 1/3; "
            "use min_zone_numeric instead"
        )
    return ExclusionZone(c, regime)


# min_zone_numeric checks c = _SEARCH_LO once, then bisects [_SEARCH_LO, 1/2]
# down to width _SEARCH_TOL.
_SEARCH_LO = 1e-6
_SEARCH_TOL = 1e-6


def min_zone_numeric(d: VoterDistribution) -> ExclusionZone:
    """Smallest verified zone: the largest c at which the squeeze condition holds.

    The condition is monotone in c. Take c1 < c2 with g_c2 > 1/3 on [c2, 1/2].
    For x in [c2, 1/2], F is nondecreasing, so each term of g moves the right
    way as c falls: g_c1(x) >= g_c2(x) > 1/3. For x in [c1, c2), the first
    term is at least F(1/2) = 1/2, F being symmetric, and the second at most
    F(c2), so g_c1(x) >= 1/2 - F(c2) = g_c2(c2) > 1/3. Also g_c(c) = 1/2 - F(c),
    so the condition fails wherever F(c) >= 1/6, at c = 1/2 among others.

    So one check at c = _SEARCH_LO decides whether a zone exists, and
    bisection between it and 1/2 finds the boundary to width _SEARCH_TOL.
    The returned c is one at which check_condition passed; it is an upper
    bound on the true minimal zone boundary.
    """
    lo, hi = _SEARCH_LO, 0.5
    if not check_condition(d, lo).satisfied:
        raise NoZoneError("no c in (0, 1/2) satisfies the vote-share condition")
    while hi - lo > _SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if check_condition(d, mid).satisfied:
            lo = mid
        else:
            hi = mid
    return ExclusionZone(lo, Regime.GENERAL_NUMERIC)


def small_k_counterexample() -> Profile:
    """Five-candidate profile where IRV elects a more extreme winner than plurality.

    With uniform voters the plurality winner is 0.5 (share 3/10) while IRV
    eliminates the extremes and then the center, leaving 0.2 or 0.8.
    """
    return Profile([0.01, 0.2, 0.5, 0.8, 1.0])


def tightness_profile(c: float, k: int) -> Profile:
    """Profile witnessing that no interval [c, 1-c] with c > 1/6 is a uniform zone.

    Candidates at c, 1/2, and 1-c, with any remaining k-3 packed into
    [1 - (1/2 - c)/8, 1]. Under uniform voters the packed extremists are
    eliminated first, then the middle candidate, so the winner falls outside
    (c, 1-c) despite the candidate at 1/2.
    """
    if not (1.0 / 6.0 < c < 0.5):
        raise DomainError("requires 1/6 < c < 1/2")
    k = check_int("k", k, 3)
    positions = [c, 0.5, 1.0 - c]
    if k > 3:
        positions.extend(np.linspace(1.0 - (0.5 - c) / 8.0, 1.0, k - 3))
    return Profile(positions)


def _merge_positions(positions, new_points) -> list:
    """Sorted union of the positions and those new points farther than 1e-12 from all of them."""
    old = np.sort(np.asarray(positions, dtype=float))
    new = np.asarray(new_points, dtype=float)
    i = np.searchsorted(old, new)
    # The nearest existing point on either side is the closest one.
    keep = ((np.abs(new - old[np.maximum(i - 1, 0)]) > 1e-12)
            & (np.abs(new - old[np.minimum(i, old.size - 1)]) > 1e-12))
    return np.sort(np.concatenate([old, new[keep]])).tolist()


_FLOOD_CAP = 1_000_000  # cap on added candidates, guards degenerate densities
_MAX_HALVINGS = 60  # bracket moves before the target is declared unforceable


def force_plurality_winner(
    targets: Profile, target_index: int, d: VoterDistribution
) -> Profile:
    """Add candidates around `targets` until the target x1 wins under plurality.

    With F the voter CDF, the brackets l < x1 < r are candidates at the
    target's neighbouring targets, or at 0 and 1 where it has none. The
    target's share is s = F((x1 + r)/2) - F((l + x1)/2); the left bracket's
    inner half-share is a = F((l + x1)/2) - F(l), and the right's mirrors it.
    While a bracket has a >= s it moves halfway toward x1. Each flank then
    gets a guard at F-distance min(s - a, s/2)/2 from its bracket and, beyond
    it, candidates at equal F-spacing below s/2 out to the end of [0, 1].

    Every other share is then below s, since a share is at most the F-mass
    between a candidate's neighbours (or the end of [0, 1]): a bracket gets
    less than a + (s - a), and any other candidate has both neighbours within
    two adjacent gaps of the construction, each below s/2; other targets only
    split them. A target at 0 or 1 is refused: under some voter distributions
    an endpoint candidate cannot win whatever is added.
    """
    x1 = targets.position(target_index)
    if x1 in (0.0, 1.0):
        raise UnconstructibleError("cannot force a win for a candidate at 0 or 1")
    positions = targets.sorted_positions
    left = max((p for p in positions if p < x1), default=0.0)
    right = min((p for p in positions if p > x1), default=1.0)
    for _ in range(_MAX_HALVINGS):
        f_l, m_l, m_r, f_r = d.cdf(np.array([left, (left + x1) / 2, (x1 + right) / 2, right]))
        s, a_l, a_r = m_r - m_l, m_l - f_l, f_r - m_r
        if a_l < s and a_r < s:
            break
        if a_l >= s:
            left = (left + x1) / 2
        if a_r >= s:
            right = (x1 + right) / 2
    else:
        raise UnconstructibleError("the target's neighbours outvote it at every bracket")

    # Each flank's F-mass beyond its guard, split into equal gaps below s/2.
    beyond = np.maximum([f_l - min(s - a_l, s / 2) / 2, 1.0 - f_r - min(s - a_r, s / 2) / 2], 0.0)
    counts = np.where(beyond > 0, np.floor(2.0 * beyond / s) + 1, 0)
    if counts.sum() > _FLOOD_CAP:
        raise UnconstructibleError("flood cap exceeded")
    # Each new point's F-mass between it and the end of its flank.
    to_end = [b * np.arange(n, 0, -1) / n for b, n in zip(beyond, counts.astype(int))]
    new = np.concatenate([[left, right], d.quantile(to_end[0]), d.quantile(1.0 - to_end[1])])
    result = Profile(_merge_positions(positions, np.unique(new)))
    shares = vote_shares(result, d)
    ti = int(np.searchsorted(result.sorted_positions, x1))
    if not np.all(np.delete(shares, ti) < shares[ti]):
        raise UnconstructibleError("construction failed to make the target win")
    return result
