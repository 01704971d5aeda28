"""Exclusion zones for IRV and the no-exclusion constructions for plurality.

An interval [c, 1-c] is an exclusion zone when the presence of any candidate
inside it precludes candidates outside it from winning under IRV. The general
sufficient condition on the voter CDF is

    g(x) = F((x + 1 - c) / 2) - F((c + x) / 2) > 1/3   for all x in [c, 1/2],

i.e. the last moderate candidate, squeezed as hard as possible by extremists
at c and 1-c, still keeps more than a third of the vote. Closed-form bounds
exist when the density is monotone on the left half; hyper-polarized
distributions (F(1/4) > 1/3) flip the zone to the extreme pair [0,c]∪[1-c,1].
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import Monotonicity, Uniform, VoterDistribution
from .errors import (
    DomainError,
    NoZoneError,
    UnconstructibleError,
    UnsupportedRegimeError,
)
from .tabulate import Profile, vote_shares

__all__ = [
    "ZoneKind",
    "Regime",
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


class Regime(enum.Enum):
    MODERATE = "moderate"
    POLARIZED = "polarized"
    HYPER_POLARIZED = "hyper-polarized"
    GENERAL_NUMERIC = "general-numeric"


@dataclass(frozen=True)
class ExclusionZone:
    c: float
    zone_kind: ZoneKind
    regime: Regime

    def __post_init__(self):
        if not (0.0 <= self.c <= 0.5):
            raise DomainError("zone parameter c must lie in [0, 1/2]")
        if self.c == 0.0:
            warnings.warn("degenerate zero-width exclusion zone (c = 0)", stacklevel=3)

    def contains_winner(self, x):
        """Whether position x lies in the zone; elementwise for an array."""
        c = self.c
        if self.zone_kind is ZoneKind.MODERATE_INTERVAL:
            return (x >= c) & (x <= 1.0 - c)
        return (x <= c) | (x >= 1.0 - c)

    def violations(self, sorted_pos: np.ndarray, winners: np.ndarray) -> np.ndarray:
        """Rows of (trials, k) positions where a candidate is in the zone and the winner is not.

        The zone claim is conditional: it binds only when a candidate occupies the zone.
        """
        return np.any(self.contains_winner(sorted_pos), axis=1) & ~self.contains_winner(winners)

    def to_json(self) -> dict:
        return {"c": self.c, "kind": self.zone_kind.value, "regime": self.regime.value}


class ConditionCheck(NamedTuple):
    satisfied: bool
    min_value: float
    witness: float | None  # minimizing x when the condition fails


def check_condition(
    d: VoterDistribution, c: float, grid_points: int = 10_000, margin: float = 1e-9
) -> ConditionCheck:
    """Verify the squeeze condition min g(x) > 1/3 on a grid over [c, 1/2]."""
    if not (0.0 < c < 0.5):
        raise DomainError("c must lie in (0, 1/2)")
    if grid_points < 2:
        raise DomainError("grid_points must be >= 2")
    x = np.linspace(c, 0.5, grid_points)
    g = np.asarray(d.cdf((x + 1.0 - c) / 2.0)) - np.asarray(d.cdf((c + x) / 2.0))
    j = int(np.argmin(g))
    ok = bool(g[j] > 1.0 / 3.0 + margin)
    return ConditionCheck(ok, float(g[j]), None if ok else float(x[j]))


def zone_closed_form(d: VoterDistribution) -> ExclusionZone:
    """Largest zone (smallest c) permitted by the monotone-density bounds.

    Moderate (density non-decreasing on the left half): c = F^{-1}(1/6).
    Polarized (non-increasing, F(1/4) < 1/3): c = 2(F^{-1}(1/3) - 1/4).
    Hyper-polarized (F(1/4) > 1/3): extreme pair with c = 2 F^{-1}(1/3).
    """
    shape = d.classify_shape()
    if shape.hyper_polarized:
        c = 2.0 * float(d.quantile(1.0 / 3.0))
        return ExclusionZone(c, ZoneKind.EXTREME_PAIR, Regime.HYPER_POLARIZED)
    if shape.label is Monotonicity.NON_DECREASING_LEFT:
        c = float(d.quantile(1.0 / 6.0))
        return ExclusionZone(c, ZoneKind.MODERATE_INTERVAL, Regime.MODERATE)
    if shape.label is Monotonicity.NON_INCREASING_LEFT:
        c = 2.0 * (float(d.quantile(1.0 / 3.0)) - 0.25)
        return ExclusionZone(max(c, 0.0), ZoneKind.MODERATE_INTERVAL, Regime.POLARIZED)
    raise UnsupportedRegimeError(
        "density is not monotone on [0, 1/2] and F(1/4) < 1/3; "
        "use min_zone_numeric instead"
    )


def min_zone_numeric(
    d: VoterDistribution, tol: float = 1e-6, grid_points: int = 10_000
) -> ExclusionZone:
    """Smallest verified zone: the largest c at which the squeeze condition holds.

    Scans c downward (no monotonicity in c is assumed) until the condition
    first holds, then bisects the bracket to width `tol`. The returned c is
    itself verified; it is an upper bound on the true minimal zone boundary.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    scan = np.linspace(0.5 - 1e-6, 1e-6, 400)
    lo = None
    hi = 0.5
    for c in scan:
        if check_condition(d, float(c), grid_points).satisfied:
            lo = float(c)
            break
        hi = float(c)
    if lo is None:
        raise NoZoneError("no c in (0, 1/2) satisfies the vote-share condition")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if check_condition(d, mid, grid_points).satisfied:
            lo = mid
        else:
            hi = mid
    return ExclusionZone(lo, ZoneKind.MODERATE_INTERVAL, Regime.GENERAL_NUMERIC)


def small_k_counterexample() -> Profile:
    """Five-candidate profile where IRV elects a more extreme winner than plurality.

    With uniform voters the plurality winner is 0.5 (share 3/10) while IRV
    eliminates the extremes and then the center, leaving 0.2 or 0.8.
    """
    return Profile([0.01, 0.2, 0.5, 0.8, 1.0])


def tightness_profile(c: float, k: int, eps: float | None = None) -> Profile:
    """Profile witnessing that no interval [c, 1-c] with c > 1/6 is a uniform zone.

    Candidates at c, 1/2, and 1-c, with any remaining k-3 packed into
    (1-eps, 1]. Under uniform voters the packed extremists are eliminated
    first, then the middle candidate, so the winner falls outside (c, 1-c)
    despite the candidate at 1/2.
    """
    if not c > 1.0 / 6.0:
        raise DomainError("requires c > 1/6")
    if c >= 0.5:
        raise DomainError("requires c < 1/2")
    if k < 3:
        raise DomainError("requires k >= 3")
    if eps is None:
        eps = (0.5 - c) / 4.0
    if not (0.0 < eps < (0.5 - c) / 2.0):
        raise DomainError("requires 0 < eps < (1/2 - c)/2")
    positions = [c, 0.5, 1.0 - c]
    if k > 3:
        positions.extend(np.linspace(1.0 - eps / 2.0, 1.0, k - 3))
    return Profile(positions)


def _merge_positions(positions, new_points) -> list:
    """Union of position lists, dropping near-collisions with existing points."""
    merged = sorted(positions)
    out = list(merged)
    for x in new_points:
        if all(abs(x - p) > 1e-12 for p in merged):
            out.append(float(x))
    return sorted(out)


_FLOOD_CAP = 1_000_000  # cap on added candidates, guards degenerate densities


def force_plurality_winner(
    targets: Profile, target_index: int, d: VoterDistribution
) -> Profile:
    """Add candidates around `targets` until the target wins under plurality.

    The target is bracketed at a small distance delta where the density is
    nearly constant, then each flank is flooded with candidates (equal-mass
    spaced) until every non-target share falls strictly below the target's.
    The target must not sit at 0 or 1: there are voter distributions where an
    endpoint candidate cannot win no matter what is added.
    """
    x1 = targets.position(target_index)
    if x1 in (0.0, 1.0):
        raise UnconstructibleError("cannot force a win for a candidate at 0 or 1")

    positions = [float(p) for p in targets.sorted_positions]

    if isinstance(d, Uniform):
        positions = _merge_positions(positions, [0.0, 1.0])
        i = positions.index(x1)
        xl, xr = positions[i - 1], positions[i + 1]
        vl, vr = (x1 - xl) / 2.0, (xr - x1) / 2.0
        s = 0.5 * min(vl, vr)
        if s * _FLOOD_CAP < 1.0:
            raise UnconstructibleError("flood cap exceeded")
        new = []
        if xl > 0:
            new.extend(np.arange(xl - s, 0.0, -s))
        if xr < 1:
            new.extend(np.arange(xr + s, 1.0, s))
        positions = _merge_positions(positions, new)
    else:
        # Shrink delta until the density varies by < f(x1)/4 on the bracket
        # and the bracket contains no other candidate.
        f1 = float(d.density(x1))
        if f1 <= 0:
            raise UnconstructibleError("target sits at a density zero")
        others = [p for p in positions if p != x1]
        delta = min(x1, 1.0 - x1) / 2.0
        if others:
            nearest = min(abs(p - x1) for p in others)
            delta = min(delta, nearest / 2.0)
        while True:
            t = np.linspace(x1 - delta, x1 + delta, 201)
            if np.max(np.abs(np.asarray(d.density(t)) - f1)) < f1 / 4.0:
                break
            delta /= 2.0
            if delta < 1e-12:
                raise UnconstructibleError("could not find a flat density bracket")
        left, right = x1 - delta, x1 + delta
        positions = [p for p in positions if not (left < p < right) or p == x1]
        positions = _merge_positions(positions, [left, right])

        # Target and bracket shares with the bracket in place.
        v_target = float(d.cdf((x1 + right) / 2.0)) - float(d.cdf((left + x1) / 2.0))
        v_left_inner = float(d.cdf((left + x1) / 2.0)) - float(d.cdf(left))
        v_right_inner = float(d.cdf(right)) - float(d.cdf((x1 + right) / 2.0))
        margin = v_target - max(v_left_inner, v_right_inner)  # > 0 by delta choice
        if margin <= 0:
            raise UnconstructibleError("density bracket failed to isolate the target")
        # Equal-mass candidate spacing on each flank: every gap outside the
        # bracket carries mass <= m, so every flank share stays below 3m/2.
        m = 0.4 * min(margin, v_target)
        mass_left = float(d.cdf(left))
        mass_right = 1.0 - float(d.cdf(right))
        n_left = int(np.ceil(mass_left / m))
        n_right = int(np.ceil(mass_right / m))
        if n_left + n_right > _FLOOD_CAP:
            raise UnconstructibleError("flood cap exceeded")
        new = []
        if n_left > 1:
            p = np.arange(1, n_left) * (mass_left / n_left)
            new.extend(np.asarray(d.quantile(p)))
        if n_right > 1:
            p = 1.0 - np.arange(1, n_right) * (mass_right / n_right)
            new.extend(np.asarray(d.quantile(p)))
        positions = _merge_positions(positions, new)

    result = Profile(positions)
    if not _verify_strict_winner(result, x1, d):
        raise UnconstructibleError("construction failed to make the target win")
    return result


def _verify_strict_winner(prof: Profile, x1: float, d: VoterDistribution) -> bool:
    shares = vote_shares(prof, d)
    ti = int(np.searchsorted(prof.sorted_positions, x1))
    return bool(np.all(np.delete(shares, ti) < shares[ti]))
