"""Symmetric voter/candidate distributions on the unit interval.

All distributions expose a density, CDF, quantile and seeded sampling
(inverse transform, except that `SymmetricBeta` uses numpy's exact Beta
sampler), plus `classify_shape()`, the `Regime` that the exclusion zone
solvers dispatch on. Distributions are immutable after construction and
safe to share across threads; RNG state is always owned by the caller.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "VoterDistribution",
    "Uniform",
    "SymmetricBeta",
    "Tabulated",
    "Regime",
    "parse_dist_spec",
]

# Tolerance used when deciding monotonicity from tabulated grid slopes.
_SLOPE_TOL = 1e-9
# Symmetry validation tolerance for tabulated densities.
_SYMMETRY_TOL = 1e-8


class Regime(enum.Enum):
    """A distribution's zone case: hyper-polarized if F(1/4) > 1/3, else moderate
    (polarized) if the density is non-decreasing (non-increasing) on [0, 1/2],
    else general-numeric."""

    MODERATE = "moderate"
    POLARIZED = "polarized"
    HYPER_POLARIZED = "hyper-polarized"
    GENERAL_NUMERIC = "general-numeric"


def _on_unit_interval(method):
    """The one argument rule of every density, cdf and quantile: the argument must lie
    in [0, 1] (NaN fails) and reaches `method` as a float array; a scalar gets a float."""
    name = method.__code__.co_varnames[1]  # x, or p for a quantile

    @functools.wraps(method)
    def checked(self, arg):
        arr = np.asarray(arg, dtype=float)
        # min and max propagate NaN, so a NaN is rejected too.
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1]")
        out = method(self, arr)
        return out if arr.ndim else float(out)

    return checked


class VoterDistribution:
    """Base class for symmetric distributions on [0, 1]."""

    def density(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def sample(self, rng, size=None):
        """Draw from `rng` (inverse transform unless a subclass overrides it).

        Identical seeds give identical streams.
        """
        u = rng.random(size)
        return self.quantile(u)

    def classify_shape(self) -> Regime:
        """The zone regime of this distribution; see Regime."""
        raise NotImplementedError

    def spec(self) -> str:
        """CLI-style string naming this distribution by its parameters; experiment ids use it."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(VoterDistribution):
    @_on_unit_interval
    def density(self, x):
        return np.ones_like(x)

    @_on_unit_interval
    def cdf(self, x):
        return x

    @_on_unit_interval
    def quantile(self, p):
        return p

    def classify_shape(self) -> Regime:
        return Regime.MODERATE

    def spec(self) -> str:
        return "uniform"


# The symmetric Beta CDF is evaluated from a piece table, without special
# functions. On [0, 1/2], F(m) = w^alpha Q(m) with w = 4m(1 - m), and Q is
# smooth: 256 pieces of degree 8 fit it to within rounding. Above 1/2, F is
# mirrored as 1 - F(1 - x). The table covers only [lo, 1/2], below which
# w^alpha underflows. Measured against mpmath, F is within 2e-15 up to
# alpha = 1000 and within about 4e-15 at alpha = 1e4. Larger alphas are refused:
# the series that fits the table needs a number of terms growing like sqrt(alpha).
_BETA_MAX_ALPHA = 1e4
_BETA_DEGREE = 8
_BETA_PIECES = 256
# Values are evaluated this many at a time, so the Horner temporaries stay in cache.
_BETA_BLOCK = 1 << 14
# A cap on quantile iterations; Newton converges in far fewer.
_QUANTILE_ITERATIONS = 200


def _beta_series(a: float, m: np.ndarray) -> np.ndarray:
    """S(m) = sum_n (2a)_n / (a + 1)_n m^n for m in [0, 1/2]; every term is positive.

    I_m(a, a) = m^a (1 - m)^a S(m) / (a B(a, a)), the series that fits the table.
    Each term is at most the running total, so the rounding error of each
    addition is exact to carry (Fast2Sum); added once at the end, it keeps the
    many small tail terms from rounding the sum by several ulps.
    """
    term = np.ones_like(m)
    total = np.ones_like(m)
    carry = np.zeros_like(m)
    n = 0
    while np.any(term > 2.0**-60 * total):
        term *= (2.0 * a + n) / (a + 1.0 + n) * m
        new = total + term
        carry += (total - new) + term
        total = new
        n += 1
    return total + carry


@functools.lru_cache(maxsize=64)
def _beta_table(a: float) -> tuple[float, float, np.ndarray, float]:
    """(lo, pieces / (1/2 - lo), coefficients[degree + 1, pieces], Q(0)) for Q = F / w^a.

    Since F(1/2) = 1/2 and w(1/2) = 1, Q = S(m) / (2 S(1/2)): no Beta
    function, so no rounding of B(a, a) enters F. Each piece is interpolated
    at Chebyshev nodes in its local variable t in [-1, 1]; the Vandermonde
    solve gives monomial coefficients for Horner.
    """
    lo = max(0.0, 0.5 - math.sqrt(200.0 / a))  # w(lo)^a <= e^-800: F is 0 in float64 below
    t = np.cos(np.pi * (np.arange(_BETA_DEGREE + 1) + 0.5) / (_BETA_DEGREE + 1))
    width = (0.5 - lo) / _BETA_PIECES
    nodes = lo + width * (np.arange(_BETA_PIECES)[:, None] + (t + 1.0) / 2.0)
    q_zero = 0.5 / _beta_series(a, np.array([0.5]))[0]
    coef = np.linalg.solve(np.vander(t, increasing=True), (q_zero * _beta_series(a, nodes)).T)
    coef.setflags(write=False)
    return lo, _BETA_PIECES / (0.5 - lo), coef, q_zero


def _beta_cdf(a: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, a) for an array x in [0, 1], a block of values at a time."""
    lo, scale, coef, _ = _beta_table(a)
    flat = x.ravel()
    out = np.empty(flat.shape)
    for s in range(0, flat.size, _BETA_BLOCK):
        xb = flat[s:s + _BETA_BLOCK]
        m = np.minimum(xb, 1.0 - xb)  # exact: 1 - x is exact for x >= 1/2
        u = (m - lo) * scale
        i = np.clip(u, 0.0, _BETA_PIECES - 1).astype(np.intp)
        t = np.clip(2.0 * (u - i) - 1.0, -1.0, 1.0)
        # Horner in t, gathering one coefficient column at a time in place.
        acc = coef[_BETA_DEGREE].take(i)
        col = np.empty_like(acc)
        for j in range(_BETA_DEGREE - 1, -1, -1):
            acc *= t
            acc += coef[j].take(i, out=col)
        # w^a as exp(a (log 2m + log1p(1 - 2m))): 2m and 1 - 2m are exact for
        # m >= 1/4, where F is large; a power of a rounded 4m(1 - m) would err
        # there by about a ulps.
        with np.errstate(divide="ignore"):
            acc *= np.exp(a * (np.log(2.0 * m) + np.log1p(1.0 - 2.0 * m)))
        np.copyto(acc, 0.5, where=m == 0.5)  # F(1/2) = 1/2 exactly, so the mirror is exact
        out[s:s + _BETA_BLOCK] = np.where(xb > 0.5, 1.0 - acc, acc)
    return out.reshape(x.shape)


@dataclass(frozen=True)
class SymmetricBeta(VoterDistribution):
    """Beta(alpha, alpha) on [0, 1]; polarized for alpha < 1, moderate for alpha > 1."""

    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha <= _BETA_MAX_ALPHA):
            raise DomainError(f"alpha must be positive and finite and at most "
                              f"{_BETA_MAX_ALPHA:g}, got {self.alpha!r}")

    @_on_unit_interval
    def density(self, x):
        if self.alpha == 1.0:
            return np.ones_like(x)
        a = self.alpha
        log_beta = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp((a - 1.0) * (np.log(x) + np.log1p(-x)) - log_beta)

    @_on_unit_interval
    def cdf(self, x):
        if self.alpha == 1.0:
            return x
        return _beta_cdf(self.alpha, x)

    @_on_unit_interval
    def quantile(self, p):
        """Safeguarded Newton on log F: a step that leaves the bracket bisects it.

        It solves F(q) = min(p, 1 - p) on [0, 1/2] and mirrors. It starts
        from the small-q law F(q) ~ Q(0) (4q)^alpha, which is exact to
        rounding below 2^-60; such starts are kept as they are. A value settles
        once a step moves it by at most an ulp, so it does not depend on the
        rest of its batch; a scalar p is solved as a batch of one.
        """
        if self.alpha == 1.0:
            return p
        a = self.alpha
        r = np.minimum(p, 1.0 - p).ravel()  # exact: 1 - p is exact for p >= 1/2
        q = np.minimum((r / _beta_table(a)[3]) ** (1.0 / a) / 4.0, 0.5)
        settled = q < 2.0**-60
        lo, hi = np.zeros_like(r), np.full_like(r, 0.5)
        for _ in range(_QUANTILE_ITERATIONS):
            f = _beta_cdf(a, q)
            lo = np.where(f < r, q, lo)
            hi = np.where(f > r, q, hi)
            # Newton on log F, which is concave on [0, 1/2]: far from the root
            # it strides where F is a steep power, and near it is plain Newton.
            with np.errstate(all="ignore"):
                step = q - np.log1p((f - r) / r) * f / self.density(q)
            # A step that rounds back onto q has converged, even at a bracket end.
            near = np.abs(step - q) <= 2.0**-52 * q
            step = np.where(near | (step > lo) & (step < hi), step, 0.5 * (lo + hi))
            step = np.where(settled | (f == r), q, step)
            settled |= near | (np.abs(step - q) <= 2.0**-52 * step)
            q = step
            if np.all(settled):
                break
        return np.where(p.ravel() > 0.5, 1.0 - q, q).reshape(p.shape)

    def sample(self, rng, size=None):
        """numpy's exact Beta sampler: Johnk's method for alpha <= 1, two gammas above.

        It is far cheaper per value than inverting the CDF. Beta(1, 1) keeps
        the uniform stream, so it draws the same values as Uniform.
        """
        if self.alpha == 1.0:
            return rng.random(size)
        return rng.beta(self.alpha, self.alpha, size)

    def classify_shape(self) -> Regime:
        """Hyper-polarized exactly when alpha < 1/2, else polarized below alpha = 1.

        F(1/4) decreases strictly in alpha and is 1/3 at alpha = 1/2, so the
        regime follows from alpha, not from a rounded F(1/4).
        """
        if self.alpha < 0.5:
            return Regime.HYPER_POLARIZED
        return Regime.POLARIZED if self.alpha < 1.0 else Regime.MODERATE

    def spec(self) -> str:
        return f"beta:{self.alpha!r}"  # repr: {:g} would merge alphas equal to 6 digits


class Tabulated(VoterDistribution):
    """Piecewise-linear density on a user grid, renormalized to integrate to 1.

    The grid must be strictly increasing and span [0, 1]; the density must be
    symmetric about 1/2 (asymmetric input is rejected). Interior zeros are
    allowed but flagged with a warning, since they can make zone boundaries
    ill-conditioned; quantiles stay exact, because the CDF is inverted in
    closed form piece by piece.
    """

    def __init__(self, grid, densities):
        grid = np.asarray(grid, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if grid.ndim != 1 or grid.shape != densities.shape or grid.size < 2:
            raise DomainError("grid and densities must be 1-d arrays of equal length >= 2")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise DomainError("grid must span [0, 1]")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        if not np.all(np.isfinite(densities) & (densities >= 0)):
            raise DomainError("densities must be finite and nonnegative")

        total = np.trapezoid(densities, grid)
        if total <= 0:
            raise DomainError("density must have positive total mass")
        densities = densities / total

        # Symmetry: f(x) == f(1 - x) pointwise (checked on the grid against
        # the interpolant at the mirrored points).
        mirrored = np.interp(1.0 - grid, grid, densities)
        scale = max(float(densities.max()), 1.0)
        if np.max(np.abs(densities - mirrored)) > _SYMMETRY_TOL * scale:
            raise DomainError("tabulated density must be symmetric about 1/2")

        interior = densities[(grid > 0) & (grid < 1)]
        if interior.size and np.any(interior == 0.0):
            warnings.warn(
                "tabulated density has interior zeros; zone boundaries may be "
                "ill-conditioned",
                stacklevel=2,
            )

        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (densities[1:] + densities[:-1]) * np.diff(grid)))
        )
        # Rounding can carry the running sum past 1 before the last knot; clamp
        # rather than renormalize, so the table stays sorted for searchsorted.
        cum = np.minimum(cum, 1.0)
        cum[-1] = 1.0

        self._grid = grid
        self._dens = densities
        self._cum = cum
        for arr in (self._grid, self._dens, self._cum):
            arr.setflags(write=False)

    @_on_unit_interval
    def density(self, x):
        return np.interp(x, self._grid, self._dens)

    @_on_unit_interval
    def cdf(self, x):
        i = np.clip(np.searchsorted(self._grid, x, side="right") - 1, 0, self._grid.size - 2)
        fx = np.interp(x, self._grid, self._dens)
        return np.clip(self._cum[i] + 0.5 * (self._dens[i] + fx) * (x - self._grid[i]), 0.0, 1.0)

    @_on_unit_interval
    def quantile(self, p):
        """Exact inverse of the piecewise-quadratic CDF.

        On the piece [x_i, x_{i+1}] holding p, F(x_i + t) = cum_i + f_i t +
        s t²/2 with slope s, so t = 2r / (f_i + sqrt(f_i² + 2sr)) for
        r = p - cum_i: the root written without cancellation, finite at
        s = 0 and 0 where the density and the remaining mass both vanish.
        """
        x, f = self._grid, self._dens
        i = np.clip(np.searchsorted(self._cum, p, side="right") - 1, 0, x.size - 2)
        r = p - self._cum[i]
        s = (f[i + 1] - f[i]) / (x[i + 1] - x[i])
        # f_i² + 2sr is f(q)² >= 0 in exact arithmetic; rounding may dip below.
        den = f[i] + np.sqrt(np.maximum(f[i] ** 2 + 2.0 * s * r, 0.0))
        t = np.divide(2.0 * r, den, out=np.zeros_like(r), where=den > 0)
        return np.minimum(x[i] + t, x[i + 1])

    def classify_shape(self) -> Regime:
        """F(1/4) > 1/3 first, then the slopes of the table on [0, 1/2]."""
        if self.cdf(0.25) > 1.0 / 3.0:
            return Regime.HYPER_POLARIZED
        left = self._grid <= 0.5
        slopes = np.diff(self._dens[left]) / np.diff(self._grid[left])
        if np.all(slopes >= -_SLOPE_TOL):
            return Regime.MODERATE
        if np.all(slopes <= _SLOPE_TOL):
            return Regime.POLARIZED
        return Regime.GENERAL_NUMERIC

    def spec(self) -> str:
        # A digest of the table, so that its path does not matter.
        h = hashlib.sha256(self._grid.astype("<f8").tobytes() + self._dens.astype("<f8").tobytes())
        return f"table:sha256:{h.hexdigest()[:16]}"


def _read_table(path: str) -> np.ndarray:
    """The x and density rows of a CSV table. The first line with text names the
    columns in any order: the text after a leading `#` (np.savetxt writes
    "# x,density"), else the text before its first `#`. Each later line with
    text before its first `#` is a row."""
    header, rows = None, []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if header is None:
                before, _, after = line.partition("#")
                head = before if before.strip() else after.replace("#", "")
                header = [name.strip() for name in head.split(",")] if head.strip() else None
            elif text := line.split("#")[0].strip():
                rows.append((n, text))
    if not rows:
        raise DomainError("the table has no rows")
    for name in ("x", "density"):
        if name not in header:
            raise DomainError(f"the header {','.join(header)!r} names no {name} column")
    table = np.empty((2, len(rows)))
    for i, (n, text) in enumerate(rows):
        cells = text.split(",")
        if len(cells) != len(header):
            raise DomainError(f"line {n} has {len(cells)} fields, not {len(header)}: {text!r}")
        for j, name in enumerate(("x", "density")):
            cell = cells[header.index(name)].strip()
            try:
                table[j, i] = float(cell)
            except ValueError:
                raise DomainError(f"line {n}: {name} {cell!r} is not a number") from None
    return table


def parse_dist_spec(spec: str) -> VoterDistribution:
    """Parse a CLI distribution spec: uniform | beta:<alpha> | table:<path>."""
    if spec == "uniform":
        return Uniform()
    kind, _, arg = spec.partition(":")
    if kind not in ("beta", "table"):
        raise DomainError(f"unrecognized distribution spec: {spec!r}")
    try:
        if kind == "beta":
            return SymmetricBeta(float(arg))
        return Tabulated(*_read_table(arg))
    # Unreadable file, no rows, bad number, missing column.
    except (OSError, ValueError) as exc:
        raise DomainError(f"bad distribution spec {spec!r}: {exc}") from exc
