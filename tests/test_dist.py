import math
import warnings

import numpy as np
import pytest

from irvsim import dist
from irvsim.asymptotics import ks_statistic
from irvsim.dist import (
    Regime,
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
    assert s is Regime.MODERATE
    assert s is not Regime.HYPER_POLARIZED


def test_domain_errors():
    d = Uniform()
    with pytest.raises(DomainError):
        d.cdf(1.5)
    with pytest.raises(DomainError):
        d.quantile(-0.1)
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            SymmetricBeta(alpha)
    # NaN lies outside [0, 1] too; the Beta table would index with it.
    with pytest.raises(DomainError, match="x must lie in"):
        SymmetricBeta(2.0).cdf(np.array([0.5, np.nan]))


def test_beta_alpha_is_bounded_where_its_accuracy_is_measured():
    assert SymmetricBeta(1e4).alpha == 1e4
    with pytest.raises(DomainError, match="at most 10000, got 10000.000000000002"):
        SymmetricBeta(math.nextafter(1e4, math.inf))


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
    assert SymmetricBeta(2.0).classify_shape() is Regime.MODERATE
    assert SymmetricBeta(0.8).classify_shape() is Regime.POLARIZED
    assert SymmetricBeta(0.8).classify_shape() is not Regime.HYPER_POLARIZED
    assert SymmetricBeta(0.3).classify_shape() is Regime.HYPER_POLARIZED


def test_beta_half_is_the_hyper_polarization_boundary():
    # F_alpha(1/4) decreases strictly in alpha and equals 1/3 at alpha = 1/2,
    # so the class is decided from alpha, not from a rounded F(1/4).
    assert SymmetricBeta(0.5).classify_shape() is Regime.POLARIZED
    assert SymmetricBeta(np.nextafter(0.5, 0)).classify_shape() is Regime.HYPER_POLARIZED
    for alpha in (0.05, 0.3, 0.45, 0.49, 0.51, 0.6, 2.0):
        d = SymmetricBeta(alpha)
        assert (d.classify_shape() is Regime.HYPER_POLARIZED) == (d.cdf(0.25) > 1 / 3)


# Accuracy of the scipy-free Beta CDF. scipy (and mpmath at large alpha) is
# the oracle here only; the library does not import it.
BETA_ORACLE_ALPHAS = (0.05, 0.2, 0.3, 0.45, 0.5, 0.6, 0.8, 2.0, 5.0)


def _betainc_lower(alpha, x):
    """betainc on m = min(x, 1 - x), mirrored: the reference where betainc is accurate.

    betainc(1/2, 1/2, x) errs by up to 2.5e-11 just below x = 1 (against the
    arcsine law and mpmath), and 1 - x is exact for x >= 1/2.
    """
    from scipy.special import betainc

    m = np.minimum(x, 1.0 - x)
    f = betainc(alpha, alpha, m)
    return np.where(x > 0.5, 1.0 - f, f)


@pytest.mark.parametrize("alpha", BETA_ORACLE_ALPHAS)
def test_beta_cdf_matches_betainc(alpha):
    d = SymmetricBeta(alpha)
    grid = np.linspace(0.0, 1.0, 100_001)
    draws = d.sample(np.random.default_rng(7), 100_000)
    for x in (grid, draws):
        assert np.max(np.abs(d.cdf(x) - _betainc_lower(alpha, x))) <= 2e-15


def test_beta_half_cdf_matches_the_arcsine_law():
    m = np.linspace(0.0, 0.5, 50_001)
    ref = 2.0 / np.pi * np.arcsin(np.sqrt(m))
    assert np.max(np.abs(SymmetricBeta(0.5).cdf(m) - ref)) <= 2e-15


@pytest.mark.parametrize("alpha, tol", [(20.5, 2e-15), (1000.0, 4e-15)])
def test_beta_cdf_matches_mpmath_at_a_large_alpha(alpha, tol):
    # Within 5/sqrt(alpha) of 1/2, where mpmath converges; F is below 1e-40
    # beyond. At alpha = 1000 the table spans only [0.053, 1/2], and the
    # rounding of log 2m + log1p(1 - 2m) grows like sqrt(alpha) ulps.
    import mpmath

    d = SymmetricBeta(alpha)
    w = min(0.5, 5.0 / np.sqrt(alpha))
    x = np.concatenate((np.linspace(0.5 - w, 0.5 + w, 101),
                        d.sample(np.random.default_rng(8), 100)))
    ref = np.array([float(mpmath.betainc(alpha, alpha, 0, v, regularized=True)) for v in x])
    assert np.max(np.abs(d.cdf(x) - ref)) <= tol


@pytest.mark.parametrize("alpha", BETA_ORACLE_ALPHAS + (20.5,))
def test_beta_cdf_mirror_is_exact(alpha):
    # Dyadic x, so 1 - x is exact: F(1 - x) = 1 - F(x) holds bit for bit.
    x = np.arange(0, 2**19 + 1) / 2**20
    d = SymmetricBeta(alpha)
    assert np.array_equal(d.cdf(1.0 - x), 1.0 - d.cdf(x))
    assert d.cdf(0.0) == 0.0 and d.cdf(1.0) == 1.0


@pytest.mark.parametrize("alpha", BETA_ORACLE_ALPHAS + (20.5,))
def test_beta_quantile_inverts_cdf(alpha):
    d = SymmetricBeta(alpha)
    x = np.linspace(0.05, 0.95, 901)
    p = d.cdf(x)
    x = x[(p >= 1e-6) & (p <= 1 - 1e-6)]  # where float64 resolves F
    assert np.max(np.abs(d.quantile(d.cdf(x)) - x)) <= 1e-12
    assert d.quantile(0.0) == 0.0 and d.quantile(1.0) == 1.0


@pytest.mark.parametrize("alpha", (0.3, 2.0, 5.0, 30.0))
def test_beta_quantile_of_a_batch_matches_scalar_calls(alpha, monkeypatch):
    d = SymmetricBeta(alpha)
    p = np.random.default_rng(3).random(10_000)
    passes = []
    beta_cdf = dist._beta_cdf

    def counted(a, x):
        passes.append(x.size)
        return beta_cdf(a, x)

    monkeypatch.setattr(dist, "_beta_cdf", counted)
    q = d.quantile(p)
    # A value settles once its step moves it by an ulp, even at a bracket end,
    # so no value waits on, or is moved by, the rest of its batch.
    assert len(passes) <= 12
    assert q[:300].tolist() == [d.quantile(x) for x in p[:300].tolist()]
    assert np.array_equal(q[::-1], d.quantile(p[::-1]))


@pytest.mark.parametrize("alpha", BETA_ORACLE_ALPHAS + (20.5,))
def test_beta_density_matches_scipy(alpha):
    from scipy.special import beta

    x = np.linspace(0.001, 0.999, 999)
    ref = x ** (alpha - 1) * (1 - x) ** (alpha - 1) / beta(alpha, alpha)
    assert np.allclose(SymmetricBeta(alpha).density(x), ref, rtol=1e-13, atol=0)


def test_tabulated_matches_linear_density():
    # Tent density 2 - |4x - 2| has CDF 2x^2 on [0, 1/2].
    grid = np.linspace(0, 1, 201)
    d = Tabulated(grid, 2 - np.abs(4 * grid - 2))
    x = np.linspace(0.01, 0.49, 20)
    assert np.allclose(d.cdf(x), 2 * x**2, atol=1e-6)
    p = np.linspace(0.02, 0.98, 20)
    assert np.allclose(d.cdf(d.quantile(p)), p, atol=1e-9)
    assert d.classify_shape() is Regime.MODERATE


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


CONTRACT_DISTS = {
    "uniform": Uniform(),
    "beta0.3": SymmetricBeta(0.3),
    "beta2": SymmetricBeta(2.0),
    "tent": _tables()["tent"],
}


@pytest.mark.parametrize("method", ["density", "cdf", "quantile"])
@pytest.mark.parametrize("name", CONTRACT_DISTS)
def test_one_argument_rule_for_every_density_cdf_and_quantile(name, method):
    fn = getattr(CONTRACT_DISTS[name], method)
    for scalar in (0.2, np.float64(0.2), np.array(0.2)):
        assert type(fn(scalar)) is float
    for shape in ((1, 2), (0,), (2, 0)):
        assert fn(np.full(shape, 0.3)).shape == shape
    for bad in (np.nan, -0.1, 1.1, [0.2, np.nan]):
        with pytest.raises(DomainError, match=("p" if method == "quantile" else "x") + " must lie"):
            fn(bad)
    x = np.array([0.0, 0.05, 0.2, 0.25, 0.5, 0.7, 0.95, 1.0])
    assert [fn(v) for v in x.tolist()] == fn(x).tolist()


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


def test_spec_identifies_the_distribution():
    assert Uniform().spec() == "uniform"
    assert parse_dist_spec(SymmetricBeta(0.3).spec()) == SymmetricBeta(0.3)
    assert SymmetricBeta(0.3).spec() != SymmetricBeta(0.3000001).spec()
    grid = np.linspace(0, 1, 11)
    flat = Tabulated(grid, np.ones(11)).spec()
    assert flat == Tabulated(grid.copy(), np.full(11, 1.0)).spec()
    assert flat != Tabulated(grid, 1.0 + np.abs(grid - 0.5)).spec()


def test_parse_dist_spec(tmp_path):
    assert isinstance(parse_dist_spec("uniform"), Uniform)
    b = parse_dist_spec("beta:2.5")
    assert isinstance(b, SymmetricBeta) and b.alpha == 2.5
    csv = tmp_path / "d.csv"
    csv.write_text("x,density\n0,1\n0.5,1\n1,1\n")
    assert isinstance(parse_dist_spec(f"table:{csv}"), Tabulated)
    with pytest.raises(DomainError):
        parse_dist_spec("cauchy")
    with pytest.raises(DomainError, match="'beta:inf': alpha must be positive and finite"):
        parse_dist_spec("beta:inf")


def test_table_layouts_parse_to_the_same_table(tmp_path):
    layouts = {
        "plain.csv": "x,density\n0,1\n0.5,2\n1,1\n",
        "swapped.csv": "density,x\n1,0\n2,0.5\n1,1\n",
        "commented.csv": "\n# x,density\n0,1 # left end\n# a comment line\n\n0.5,2\n1,1\n",
        "extra-column.csv": " x , density ,note\n0,1,a\n0.5,2,b\n1,1,c\n",
        "header-comment.csv": "x,density # units: 1/length\n0,1\n0.5,2\n1,1\n",
    }
    specs = set()
    for name, text in layouts.items():
        (tmp_path / name).write_text(text)
        specs.add(parse_dist_spec(f"table:{tmp_path / name}").spec())
    assert len(specs) == 1


@pytest.mark.parametrize("rows, quoted", [
    (["0,oops", "1,1"], "line 2: density 'oops' is not a number"),
    (["np.float64(0.0),1", "1,1"], "line 2: x 'np.float64(0.0)' is not a number"),
    (["0,1", "0.5,1,2", "1,1"], "line 3 has 3 fields, not 2: '0.5,1,2'"),
], ids=["density-cell", "x-cell", "three-fields"])
def test_bad_table_error_quotes_the_text(rows, quoted, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["x,density", *rows]) + "\n")
    with pytest.raises(DomainError) as info:
        parse_dist_spec(f"table:{path}")
    assert quoted in str(info.value) and "\n" not in str(info.value)


def test_sampling_matches_cdf():
    d = SymmetricBeta(2.0)
    rng = np.random.default_rng(0)
    s = np.sort(d.sample(rng, 20000))
    emp = np.arange(1, s.size + 1) / s.size
    assert np.max(np.abs(d.cdf(s) - emp)) < 0.02


# The Beta sampler draws Beta(alpha, alpha) with numpy's rng.beta, not by
# inverting the CDF, so these check its law against the CDF it never uses.
BETA_SAMPLER_ALPHAS = (0.05, 0.3, 0.5, 2.0, 5.0)
# Beta(0.05, 0.05) puts 8% of its mass within 2^-53 of 1, where every draw
# (by any method) rounds to 1.0, an atom that no continuous CDF matches. So
# the KS supremum is taken over t < 1 - 2^-40, where doubles resolve F.
_KS_TOP = 1.0 - 2.0**-40


def _ks_below(x, cdf, top):
    """sup over t < top of |F_n(t) - F(t)|, with F_n the empirical CDF of all of x."""
    s = np.sort(x)
    s = s[s < top]
    f = cdf(s)
    i = np.arange(1, s.size + 1)
    return float(max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size)))


def test_ks_below_matches_ks_statistic_without_an_atom():
    x = np.random.default_rng(3).random(1000)
    assert _ks_below(x, Uniform().cdf, 2.0) == ks_statistic(x, Uniform().cdf)


@pytest.mark.parametrize("alpha", BETA_SAMPLER_ALPHAS)
def test_beta_sampler_law(alpha):
    d = SymmetricBeta(alpha)
    x = d.sample(np.random.default_rng(2026), 1_000_000)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert _ks_below(x, d.cdf, _KS_TOP) <= 0.005
    n = x.size
    assert abs(x.mean() - 0.5) <= 4 * x.std() / np.sqrt(n)
    dev2 = (x - 0.5) ** 2
    assert abs(dev2.mean() - 1 / (4 * (2 * alpha + 1))) <= 4 * dev2.std() / np.sqrt(n)


@pytest.mark.parametrize("alpha", BETA_SAMPLER_ALPHAS)
def test_beta_sampler_is_seeded(alpha):
    d = SymmetricBeta(alpha)
    a = d.sample(np.random.default_rng(5), 1000)
    b = d.sample(np.random.default_rng(5), 1000)
    assert a.tobytes() == b.tobytes()
    assert isinstance(d.sample(np.random.default_rng(5)), float)
