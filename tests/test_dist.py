import warnings

import numpy as np
import pytest

from irvsim.dist import (
    Monotonicity,
    SymmetricBeta,
    Tabulated,
    Uniform,
    parse_dist_spec,
)
from irvsim.errors import DomainError


def test_uniform_basics():
    d = Uniform()
    assert d.cdf(0.3) == 0.3
    assert d.quantile(0.3) == 0.3
    assert d.density(0.7) == 1.0
    x = np.linspace(0, 1, 11)
    assert np.allclose(d.cdf(x), x)


def test_uniform_shape():
    s = Uniform().classify_shape()
    assert s.label is Monotonicity.NON_DECREASING_LEFT
    assert s.also_nonincreasing
    assert not s.hyper_polarized


def test_domain_errors():
    d = Uniform()
    with pytest.raises(DomainError):
        d.cdf(1.5)
    with pytest.raises(DomainError):
        d.quantile(-0.1)
    with pytest.raises(DomainError):
        SymmetricBeta(0.0)


def test_beta_alpha_one_matches_uniform_exactly():
    # Beta(1,1) is uniform; streams and values must agree bitwise so seeds
    # carry across the two spellings.
    b = SymmetricBeta(1.0)
    u = Uniform()
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    assert np.array_equal(b.sample(rng1, 100), u.sample(rng2, 100))
    assert b.cdf(0.37) == u.cdf(0.37)


def test_beta_half_quarter_mass():
    # Arcsine law: F(1/4) = 1/3 exactly.
    assert SymmetricBeta(0.5).cdf(0.25) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_beta_cdf_quantile_roundtrip():
    for alpha in (0.3, 0.5, 2.0, 5.0):
        d = SymmetricBeta(alpha)
        p = np.linspace(0.01, 0.99, 25)
        assert np.allclose(d.cdf(d.quantile(p)), p, atol=1e-10)
        # symmetry
        assert np.allclose(d.cdf(p) + d.cdf(1 - p), 1.0, atol=1e-12)


def test_beta_two_quantile_sixth():
    # F(x) = 3x^2 - 2x^3 for Beta(2,2); independent bisection gives the root.
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if 3 * mid**2 - 2 * mid**3 < 1 / 6:
            lo = mid
        else:
            hi = mid
    assert SymmetricBeta(2.0).quantile(1 / 6) == pytest.approx(lo, abs=1e-12)


def test_beta_shape_classification():
    assert SymmetricBeta(2.0).classify_shape().label is Monotonicity.NON_DECREASING_LEFT
    assert SymmetricBeta(0.8).classify_shape().label is Monotonicity.NON_INCREASING_LEFT
    assert not SymmetricBeta(0.8).classify_shape().hyper_polarized
    assert SymmetricBeta(0.3).classify_shape().hyper_polarized


def test_tabulated_matches_linear_density():
    # Tent density 2 - |4x - 2| has CDF 2x^2 on [0, 1/2].
    grid = np.linspace(0, 1, 201)
    d = Tabulated(grid, 2 - np.abs(4 * grid - 2))
    x = np.linspace(0.01, 0.49, 20)
    assert np.allclose(d.cdf(x), 2 * x**2, atol=1e-6)
    p = np.linspace(0.02, 0.98, 20)
    assert np.allclose(d.cdf(d.quantile(p)), p, atol=1e-9)
    assert d.classify_shape().label is Monotonicity.NON_DECREASING_LEFT


def _tables():
    grid = np.linspace(0, 1, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interior-zero table warns
        return {
            "tent": Tabulated(grid, 2 - np.abs(4 * grid - 2)),
            "cos2": Tabulated(grid, 0.4 + np.cos(2 * np.pi * grid) ** 2),
            "interior-zero": Tabulated(np.linspace(0, 1, 5), np.array([2.0, 0, 2, 0, 2])),
        }


@pytest.mark.parametrize("name", ["tent", "cos2", "interior-zero"])
def test_tabulated_quantile_inverts_cdf_exactly(name):
    d = _tables()[name]
    p = np.sort(np.concatenate((
        np.random.default_rng(0).random(100_000), d._cum, [0.0, 1.0]
    )))
    q = d.quantile(p)
    assert not np.isnan(q).any()
    assert np.all(np.diff(q) >= 0)
    assert np.max(np.abs(d.cdf(q) - p)) <= 2.3e-16


def test_tabulated_quantile_monotone_on_tables_with_zero_pieces():
    # Random symmetric tables, most with zero knots; p at every CDF knot, one
    # ulp either side of it, and at random.
    rng = np.random.default_rng(2)
    for _ in range(500):
        half = rng.random(int(rng.integers(2, 12)))
        half[rng.random(half.size) < 0.4] = 0.0
        if not half.any():
            continue
        dens = np.concatenate((half, half[-2::-1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = Tabulated(np.linspace(0, 1, dens.size), dens)
        knots = np.clip(d._cum, 0, 1)
        p = np.sort(np.clip(np.concatenate((
            knots, np.nextafter(knots, 2), np.nextafter(knots, -1), rng.random(100)
        )), 0, 1))
        q = d.quantile(p)
        assert np.all((q >= 0) & (q <= 1)), dens
        assert np.all(np.diff(q) >= 0), dens


def test_tabulated_cdf_table_is_sorted_on_tables_with_zero_knots():
    # The running mass can round past 1 before the last knot; forcing only the
    # last entry to 1 left quantile's searchsorted table unsorted.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        left = rng.random(int(rng.integers(2, 12)))
        left[rng.random(left.size) < 0.3] = 0.0
        left[0] = 0.0
        if not left.any():
            continue
        dens = np.concatenate((left, left[::-1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = Tabulated(np.linspace(0, 1, dens.size), dens)
        assert np.all(np.diff(d._cum) >= 0), dens
        assert d._cum[-1] == 1.0


def test_tabulated_quantile_closed_forms():
    p = np.random.default_rng(1).random(10_000)
    # Two-point uniform table: the root is 2p / (1 + 1), exact in binary.
    assert np.array_equal(Tabulated([0.0, 1.0], [1.0, 1.0]).quantile(p), p)
    # Tent: F(x) = 2x² on [0, 1/2].
    left = p[p <= 0.5]
    ref = np.sqrt(left / 2)
    assert np.all(np.abs(_tables()["tent"].quantile(left) - ref) <= 8 * np.spacing(ref))


def test_tabulated_rejects_asymmetric():
    grid = np.array([0.0, 0.5, 1.0])
    with pytest.raises(DomainError):
        Tabulated(grid, np.array([1.0, 1.0, 2.0]))


def test_tabulated_interior_zero_warns():
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.warns(UserWarning, match="interior zeros"):
        Tabulated(grid, np.array([2.0, 0.0, 2.0, 0.0, 2.0]))


def test_tabulated_renormalizes():
    grid = np.linspace(0, 1, 11)
    d = Tabulated(grid, np.full(11, 7.0))
    assert d.cdf(1.0) == 1.0
    assert d.density(0.5) == pytest.approx(1.0)


def test_parse_dist_spec(tmp_path):
    assert isinstance(parse_dist_spec("uniform"), Uniform)
    b = parse_dist_spec("beta:2.5")
    assert isinstance(b, SymmetricBeta) and b.alpha == 2.5
    csv = tmp_path / "d.csv"
    csv.write_text("x,density\n0,1\n0.5,1\n1,1\n")
    assert isinstance(parse_dist_spec(f"table:{csv}"), Tabulated)
    with pytest.raises(DomainError):
        parse_dist_spec("cauchy")


def test_sampling_matches_cdf():
    d = SymmetricBeta(2.0)
    rng = np.random.default_rng(0)
    s = np.sort(d.sample(rng, 20000))
    emp = np.arange(1, s.size + 1) / s.size
    assert np.max(np.abs(d.cdf(s) - emp)) < 0.02
