"""Exact winner-position densities for three-candidate uniform elections.

The winner position density is piecewise quadratic for k = 3; coefficients
are stored as exact rationals so normalization, continuity, and the variance
identities test exactly, and are exposed as floats for numerics. Also
included: the general-k IRV tail density k(2x)^(k-1) on [0, 1/6], and the
per-order-statistic win probabilities used as internal consistency oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import DomainError, check_int
from .tabulate import Rule

__all__ = [
    "PiecewisePolynomial",
    "plurality_density_k3",
    "irv_density_k3",
    "density_k3",
    "irv_tail_density",
    "order_statistic_win_prob",
]

F = Fraction


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial pieces between rational breakpoints, coefficients ascending."""

    breakpoints: tuple
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != len(self.breakpoints) - 1:
            raise DomainError("need one coefficient tuple per piece")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise DomainError("breakpoints must be strictly increasing")

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, x):
        """Evaluate at float scalar or array x within the support."""
        xa = np.asarray(x, dtype=float)
        lo, hi = self.support
        if xa.size and not (xa.min() >= lo and xa.max() <= hi):  # NaN fails too
            raise DomainError(f"argument outside support [{lo}, {hi}]")
        bp = np.array([float(b) for b in self.breakpoints])
        idx = np.clip(np.searchsorted(bp, xa, side="right") - 1, 0, len(self.coefficients) - 1)
        out = np.zeros_like(xa, dtype=float)
        for j, coeffs in enumerate(self.coefficients):
            sel = idx == j
            if np.any(sel):
                out[sel] = np.polyval([float(c) for c in reversed(coeffs)], xa[sel])
        return out if xa.ndim else float(out)

    @staticmethod
    def _at(coeffs, x):
        """Exact value at x of the polynomial with ascending `coeffs`."""
        return sum(c * x**p for p, c in enumerate(coeffs))

    def value_exact(self, x: Fraction) -> Fraction:
        """Exact value at a rational x in the support; the right-hand piece at a breakpoint."""
        bp = self.breakpoints
        if not bp[0] <= x <= bp[-1]:
            raise DomainError(f"argument outside support [{bp[0]}, {bp[-1]}]")
        return self._at(self.coefficients[min(bisect_right(bp, x), len(bp) - 1) - 1], x)

    def integral(self) -> Fraction:
        """Exact integral over the full support."""
        return self._at(self.antiderivative().coefficients[-1], self.breakpoints[-1])

    def moment_about(self, center: Fraction, n: int) -> Fraction:
        """Exact integral of (x - center)^n times this function."""
        shift = [comb(n, i) * (-center) ** (n - i) for i in range(n + 1)]  # (x - center)^n
        pieces = []
        for coeffs in self.coefficients:
            prod = [F(0)] * (len(coeffs) + n)
            for p, c in enumerate(coeffs):
                for i, s in enumerate(shift):
                    prod[p + i] += c * s
            pieces.append(tuple(prod))
        return PiecewisePolynomial(self.breakpoints, tuple(pieces)).integral()

    def variance_about_half(self) -> Fraction:
        return self.moment_about(F(1, 2), 2)

    def antiderivative(self) -> "PiecewisePolynomial":
        """Cumulative integral from the left endpoint (continuous, exact)."""
        pieces = []
        acc = F(0)
        for coeffs, a, b in zip(self.coefficients, self.breakpoints, self.breakpoints[1:]):
            anti = [F(0)] + [c / (p + 1) for p, c in enumerate(coeffs)]
            anti[0] = acc - self._at(anti, a)
            pieces.append(tuple(anti))
            acc = self._at(anti, b)
        return PiecewisePolynomial(self.breakpoints, tuple(pieces))

    def breakpoint_jumps(self):
        """Left/right value mismatch at each interior breakpoint (floats)."""
        return [float(self._at(left, b) - self._at(right, b))
                for left, right, b in zip(self.coefficients, self.coefficients[1:],
                                          self.breakpoints[1:-1])]


def plurality_density_k3() -> PiecewisePolynomial:
    """Winner-position density for plurality, k = 3, uniform voters and candidates."""
    return PiecewisePolynomial(
        breakpoints=(F(0), F(1, 3), F(1, 2), F(2, 3), F(1)),
        coefficients=(
            (F(0), F(4), F(1, 2)),  # 4x + x^2/2
            (F(-3, 2), F(13), F(-13)),  # -13x^2 + 13x - 3/2
            (F(-3, 2), F(13), F(-13)),  # symmetric about 1/2
            (F(9, 2), F(-5), F(1, 2)),  # mirror of the first piece
        ),
    )


def irv_density_k3() -> PiecewisePolynomial:
    """Winner-position density for IRV, k = 3, uniform voters and candidates."""
    return PiecewisePolynomial(
        breakpoints=(F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)),
        coefficients=(
            (F(0), F(0), F(12)),  # 12x^2
            (F(1), F(-12), F(48)),  # 48x^2 - 12x + 1
            (F(-5), F(36), F(-48)),  # -48x^2 + 36x - 5
            (F(-1), F(12), F(-12)),  # -12x^2 + 12x - 1
            (F(-1), F(12), F(-12)),  # symmetric about 1/2
            (F(-17), F(60), F(-48)),  # mirror pieces
            (F(37), F(-84), F(48)),
            (F(12), F(-24), F(12)),
        ),
    )


def density_k3(rule: Rule) -> PiecewisePolynomial:
    """Winner-position density for `rule`, k = 3, uniform voters and candidates."""
    return plurality_density_k3() if rule is Rule.PLURALITY else irv_density_k3()


def irv_tail_density(k: int, x: float) -> float:
    """Exact IRV winner density k(2x)^(k-1) on the tail [0, 1/6], mirrored on [5/6, 1].

    Valid for any k >= 3: a candidate can only win outside [1/6, 5/6] when it
    is the most moderate candidate, which pins down the tail in closed form.
    """
    k = check_int("k", k, 3)
    if 0.0 <= x <= 1.0 / 6.0:
        t = x
    elif 5.0 / 6.0 <= x <= 1.0:
        t = 1.0 - x
    else:
        raise DomainError("x must lie in [0, 1/6] or [5/6, 1]")
    return k * (2.0 * t) ** (k - 1)


# Per-order-statistic win probabilities Pr(w wins, w = X_(i)) for w in [0, 1/2].
# Multiplying the sum over i by 3 recovers the winner densities above.
_WIN_PROB = {
    (Rule.PLURALITY, 1): PiecewisePolynomial(
        (F(0), F(1, 3), F(1, 2)),
        ((F(0), F(4, 3), F(-4, 3)), (F(-1, 3), F(10, 3), F(-13, 3))),
    ),
    (Rule.PLURALITY, 2): PiecewisePolynomial(
        (F(0), F(1, 3), F(1, 2)),
        ((F(0), F(0), F(1, 2)), (F(-1, 6), F(1), F(-1))),
    ),
    (Rule.PLURALITY, 3): PiecewisePolynomial(
        (F(0), F(1, 2)), ((F(0), F(0), F(1)),)
    ),
    (Rule.IRV, 1): PiecewisePolynomial(
        (F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2)),
        (
            (F(0), F(0), F(1)),  # only the eliminate-rightmost route is live here
            (F(1, 3), F(-4), F(13)),
            (F(-7, 6), F(8), F(-11)),
            (F(-1, 2), F(4), F(-5)),
        ),
    ),
    (Rule.IRV, 2): PiecewisePolynomial(
        (F(0), F(1, 4), F(1, 3), F(1, 2)),
        ((F(0), F(0), F(2)), (F(-1, 2), F(4), F(-6)), (F(1, 6), F(0), F(0))),
    ),
    (Rule.IRV, 3): PiecewisePolynomial((F(0), F(1, 2)), ((F(0), F(0), F(1)),)),
}


def order_statistic_win_prob(rule: Rule, order_index: int, w):
    """Pr(candidate at w wins and is the order_index-th leftmost), w in [0, 1/2].

    `w` is a float or an array of floats; the result has its shape.
    """
    if check_int("order_index", order_index, 1) > 3:
        raise DomainError("order_index must be 1, 2, or 3")
    w = np.asarray(w, dtype=float)
    if not np.all((w >= 0.0) & (w <= 0.5)):
        raise DomainError("w must lie in [0, 1/2]")
    return _WIN_PROB[(rule, order_index)](w)
