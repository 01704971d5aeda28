from fractions import Fraction

import numpy as np
import pytest

from irvsim.errors import DomainError
from irvsim.exactk3 import (
    PiecewisePolynomial,
    irv_density_k3,
    irv_tail_density,
    order_statistic_win_prob,
    plurality_density_k3,
)
from irvsim.tabulate import Rule

F = Fraction


def test_piecewise_construction_validation():
    with pytest.raises(DomainError):
        PiecewisePolynomial((F(0), F(1)), ())
    with pytest.raises(DomainError):
        PiecewisePolynomial((F(0), F(0)), ((F(1),),))


def test_piecewise_evaluation_and_integral():
    # f(x) = x on [0,1], 2-x on [1,2]
    pp = PiecewisePolynomial(
        (F(0), F(1), F(2)), (((F(0), F(1))), (F(2), F(-1)))
    )
    assert pp(0.5) == 0.5
    assert pp(1.5) == 0.5
    assert pp.integral() == 1
    assert np.allclose(pp(np.array([0.25, 1.75])), [0.25, 0.25])
    with pytest.raises(DomainError):
        pp(2.5)


def test_densities_integrate_to_one_exactly():
    assert plurality_density_k3().integral() == 1
    assert irv_density_k3().integral() == 1


def test_exact_variances():
    assert plurality_density_k3().variance_about_half() == F(23, 540)
    assert irv_density_k3().variance_about_half() == F(25, 864)
    # variance ratio, a closed-form comparison of the two rules
    assert F(23, 540) / F(25, 864) == F(184, 125)


def test_densities_continuous_at_breakpoints():
    for dens in (plurality_density_k3(), irv_density_k3()):
        assert max(abs(j) for j in dens.breakpoint_jumps()) == 0.0


def test_densities_symmetric():
    x = np.linspace(0.0, 1.0, 501)
    for dens in (plurality_density_k3(), irv_density_k3()):
        assert np.allclose(dens(x), dens(1.0 - x), atol=1e-12)


def test_irv_density_vanishes_outside_zone():
    dens = irv_density_k3()
    assert dens(0.0) == 0.0
    assert dens(1.0) == 0.0
    # mass outside [1/6, 5/6] is 2 * (1/3)^3 / 2 = 1/27
    cdf = dens.antiderivative()
    assert cdf.value_exact(F(1, 6)) == F(1, 2) * F(1, 27)


def test_plurality_density_values():
    dens = plurality_density_k3()
    assert dens(0.0) == 0.0
    assert dens.value_exact(F(1, 2)) == F(7, 4)
    assert irv_density_k3().value_exact(F(1, 2)) == F(2)


def test_value_exact_picks_its_piece_exactly():
    dens = irv_density_k3()
    # Just left of 1/6 lies on the 12x^2 piece, though its float rounds to 1/6.
    x = F(1, 6) - F(1, 10**20)
    assert float(x) == 1 / 6
    assert dens.value_exact(x) == 12 * x**2
    assert dens.value_exact(F(1, 6)) == F(1, 3) and dens.value_exact(F(1)) == 0
    for outside in (F(-1, 10**20), F(1) + F(1, 10**20)):
        with pytest.raises(DomainError):
            dens.value_exact(outside)


def test_irv_tail_density():
    assert irv_tail_density(3, 0.0) == 0.0
    assert irv_tail_density(3, 1 / 6) == pytest.approx(3 * (1 / 3) ** 2)
    # tail matches the full k=3 density on its domain
    x = np.linspace(0, 1 / 6, 50)
    assert np.allclose([irv_tail_density(3, t) for t in x], irv_density_k3()(x), atol=1e-12)
    # mirror symmetry
    assert irv_tail_density(7, 0.9) == pytest.approx(irv_tail_density(7, 0.1), rel=1e-12)
    with pytest.raises(DomainError):
        irv_tail_density(3, 0.4)
    with pytest.raises(DomainError):
        irv_tail_density(2, 0.1)


def test_irv_tail_mass():
    # integral of k(2x)^(k-1) over [0, 1/6] is (1/3)^k / 2
    for k in (3, 5, 10):
        grid = np.linspace(0, 1 / 6, 20001)
        mass = np.trapezoid([irv_tail_density(k, t) for t in grid], grid)
        assert mass == pytest.approx((1 / 3) ** k / 2, rel=1e-6)


def test_order_statistic_sums_match_density():
    w = np.linspace(0.0, 0.5, 200)
    for rule, dens in (
        (Rule.PLURALITY, plurality_density_k3()),
        (Rule.IRV, irv_density_k3()),
    ):
        total = sum(
            np.array([order_statistic_win_prob(rule, i, x) for x in w])
            for i in (1, 2, 3)
        )
        assert np.max(np.abs(3.0 * total - dens(w))) <= 1e-12


def test_order_statistic_win_prob_domain():
    with pytest.raises(DomainError):
        order_statistic_win_prob(Rule.IRV, 4, 0.2)
    with pytest.raises(DomainError):
        order_statistic_win_prob(Rule.IRV, 1, 0.7)
    for bad in (0.7, -0.1, np.nan):
        with pytest.raises(DomainError):
            order_statistic_win_prob(Rule.IRV, 1, np.array([0.1, bad, 0.2]))


def test_order_statistic_win_prob_on_an_array_equals_scalar_calls():
    w = np.linspace(0.0, 0.5, 200)
    for rule in Rule:
        for i in (1, 2, 3):
            got = order_statistic_win_prob(rule, i, w)
            assert got.shape == w.shape
            assert np.array_equal(got, [order_statistic_win_prob(rule, i, x) for x in w])
    assert isinstance(order_statistic_win_prob(Rule.IRV, 2, 0.3), float)


def test_rightmost_candidate_share_is_w_squared():
    # A candidate at w <= 1/2 that is rightmost of three wins iff both others
    # fall in [0, w) in a way that still hands it the election; the combined
    # probability is w^2 under both rules.
    for rule in (Rule.PLURALITY, Rule.IRV):
        assert order_statistic_win_prob(rule, 3, 0.3) == pytest.approx(0.09)


def test_antiderivative_is_cdf():
    for dens in (plurality_density_k3(), irv_density_k3()):
        cdf = dens.antiderivative()
        assert cdf(0.0) == 0.0
        assert cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        assert cdf(0.5) == pytest.approx(0.5, abs=1e-15)  # symmetry
        x = np.linspace(0, 1, 101)
        assert np.all(np.diff(cdf(x)) >= -1e-15)
