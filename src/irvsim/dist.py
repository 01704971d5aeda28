"""Symmetric voter/candidate distributions on the unit interval.

All distributions expose a density, CDF, quantile and seeded sampling
(inverse transform, except that `SymmetricBeta` uses numpy's exact Beta
sampler), plus the shape classification (monotonicity of the density on the
left half and the hyper-polarization test F(1/4) > 1/3) that the exclusion
zone solvers dispatch on. Distributions are immutable after construction and
safe to share across threads; RNG state is always owned by the caller.
"""

from __future__ import annotations

import enum
import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "VoterDistribution",
    "Uniform",
    "SymmetricBeta",
    "Tabulated",
    "Monotonicity",
    "ShapeClass",
    "parse_dist_spec",
]

# Tolerance used when deciding monotonicity from tabulated grid slopes.
_SLOPE_TOL = 1e-9
# Symmetry validation tolerance for tabulated densities.
_SYMMETRY_TOL = 1e-8


class Monotonicity(enum.Enum):
    NON_DECREASING_LEFT = "non-decreasing on [0, 1/2]"
    NON_INCREASING_LEFT = "non-increasing on [0, 1/2]"
    NEITHER = "neither"


@dataclass(frozen=True)
class ShapeClass:
    """Monotonicity label plus the hyper-polarization flag F(1/4) > 1/3."""

    label: Monotonicity
    hyper_polarized: bool


def _check_unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


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

    def classify_shape(self) -> ShapeClass:
        raise NotImplementedError

    def _is_hyper_polarized(self) -> bool:
        return float(self.cdf(0.25)) > 1.0 / 3.0

    def spec(self) -> str:
        """CLI-style string naming this distribution by its parameters; experiment ids use it."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(VoterDistribution):
    def density(self, x):
        x = _check_unit_interval(x, "x")
        return np.ones_like(x) if x.ndim else 1.0

    def cdf(self, x):
        x = _check_unit_interval(x, "x")
        return x if x.ndim else float(x)

    def quantile(self, p):
        p = _check_unit_interval(p, "p")
        return p if p.ndim else float(p)

    def classify_shape(self) -> ShapeClass:
        return ShapeClass(Monotonicity.NON_DECREASING_LEFT, hyper_polarized=False)

    def spec(self) -> str:
        return "uniform"


@dataclass(frozen=True)
class SymmetricBeta(VoterDistribution):
    """Beta(alpha, alpha) on [0, 1]; polarized for alpha < 1, moderate for alpha > 1."""

    # scipy.special is imported inside the methods: importing it takes about
    # 0.2 s, which every CLI process would otherwise pay without Beta voters.
    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha < np.inf):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha!r}")

    def density(self, x):
        x = _check_unit_interval(x, "x")
        if self.alpha == 1.0:
            return np.ones_like(x) if x.ndim else 1.0
        from scipy import special

        a = self.alpha
        with np.errstate(divide="ignore"):
            d = np.power(x, a - 1.0) * np.power(1.0 - x, a - 1.0) / special.beta(a, a)
        return d if x.ndim else float(d)

    def cdf(self, x):
        x = _check_unit_interval(x, "x")
        if self.alpha == 1.0:
            return x if x.ndim else float(x)
        from scipy import special

        c = special.betainc(self.alpha, self.alpha, x)
        return c if x.ndim else float(c)

    def quantile(self, p):
        p = _check_unit_interval(p, "p")
        if self.alpha == 1.0:
            return p if p.ndim else float(p)
        from scipy import special

        q = special.betaincinv(self.alpha, self.alpha, p)
        return q if p.ndim else float(q)

    def sample(self, rng, size=None):
        """numpy's exact Beta sampler: Johnk's method for alpha <= 1, two gammas above.

        It is far cheaper per value than inverting `betainc`. Beta(1, 1) keeps
        the uniform stream, so it draws the same values as Uniform.
        """
        if self.alpha == 1.0:
            return rng.random(size)
        return rng.beta(self.alpha, self.alpha, size)

    def classify_shape(self) -> ShapeClass:
        hyper = self._is_hyper_polarized()
        if self.alpha >= 1.0:
            return ShapeClass(Monotonicity.NON_DECREASING_LEFT, hyper_polarized=hyper)
        return ShapeClass(Monotonicity.NON_INCREASING_LEFT, hyper_polarized=hyper)

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

    def density(self, x):
        x = _check_unit_interval(x, "x")
        d = np.interp(x, self._grid, self._dens)
        return d if x.ndim else float(d)

    def cdf(self, x):
        x = _check_unit_interval(x, "x")
        xa = np.atleast_1d(x)
        i = np.clip(np.searchsorted(self._grid, xa, side="right") - 1, 0, self._grid.size - 2)
        x0 = self._grid[i]
        f0 = self._dens[i]
        fx = np.interp(xa, self._grid, self._dens)
        c = self._cum[i] + 0.5 * (f0 + fx) * (xa - x0)
        c = np.clip(c, 0.0, 1.0)
        return c if np.ndim(x) else float(c[0])

    def quantile(self, p):
        """Exact inverse of the piecewise-quadratic CDF.

        On the piece [x_i, x_{i+1}] holding p, F(x_i + t) = cum_i + f_i t +
        s t²/2 with slope s, so t = 2r / (f_i + sqrt(f_i² + 2sr)) for
        r = p - cum_i: the root written without cancellation, finite at
        s = 0 and 0 where the density and the remaining mass both vanish.
        """
        p = _check_unit_interval(p, "p")
        pa = np.atleast_1d(p)
        x, f = self._grid, self._dens
        i = np.clip(np.searchsorted(self._cum, pa, side="right") - 1, 0, x.size - 2)
        r = pa - self._cum[i]
        s = (f[i + 1] - f[i]) / (x[i + 1] - x[i])
        # f_i² + 2sr is f(q)² >= 0 in exact arithmetic; rounding may dip below.
        den = f[i] + np.sqrt(np.maximum(f[i] ** 2 + 2.0 * s * r, 0.0))
        t = np.divide(2.0 * r, den, out=np.zeros_like(r), where=den > 0)
        q = np.minimum(x[i] + t, x[i + 1])
        return q if np.ndim(p) else float(q[0])

    def classify_shape(self) -> ShapeClass:
        left = self._grid <= 0.5
        slopes = np.diff(self._dens[left]) / np.diff(self._grid[left])
        nondec = bool(np.all(slopes >= -_SLOPE_TOL)) if slopes.size else True
        noninc = bool(np.all(slopes <= _SLOPE_TOL)) if slopes.size else True
        hyper = self._is_hyper_polarized()
        if nondec:
            return ShapeClass(Monotonicity.NON_DECREASING_LEFT, hyper_polarized=hyper)
        if noninc:
            return ShapeClass(Monotonicity.NON_INCREASING_LEFT, hyper_polarized=hyper)
        return ShapeClass(Monotonicity.NEITHER, hyper_polarized=hyper)

    def spec(self) -> str:
        # A digest of the table, so that its path does not matter.
        h = hashlib.sha256(self._grid.astype("<f8").tobytes() + self._dens.astype("<f8").tobytes())
        return f"table:sha256:{h.hexdigest()[:16]}"


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
        with open(arg) as fh:
            lines = [line for line in fh if line.strip()]
        if len(lines) < 2:  # genfromtxt would warn, then fail with an IndexError
            raise DomainError("the table has no rows")
        data = np.genfromtxt(lines, delimiter=",", names=True)
        return Tabulated(data["x"], data["density"])
    # Unreadable file, no rows, bad number, missing column.
    except (OSError, ValueError) as exc:
        raise DomainError(f"bad distribution spec {spec!r}: {exc}") from exc
