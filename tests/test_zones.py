import numpy as np
import pytest

from irvsim.dist import SymmetricBeta, Tabulated, Uniform
from irvsim.errors import DomainError, UnconstructibleError, UnsupportedRegimeError
from irvsim.tabulate import Profile, irv_winner, plurality_winner, vote_shares
from irvsim.zones import (
    Regime,
    ZoneKind,
    check_condition,
    force_plurality_winner,
    min_zone_numeric,
    small_k_counterexample,
    tightness_profile,
    zone_closed_form,
)

U = Uniform()


def test_uniform_zone_is_one_sixth():
    z = zone_closed_form(U)
    assert z.c == pytest.approx(1 / 6, abs=1e-12)
    assert z.zone_kind is ZoneKind.MODERATE_INTERVAL
    assert z.regime is Regime.MODERATE
    assert z.contains_winner(0.5)
    assert not z.contains_winner(0.1)


@pytest.mark.parametrize("d, kind", [
    (U, ZoneKind.MODERATE_INTERVAL),
    (SymmetricBeta(0.2), ZoneKind.EXTREME_PAIR),  # c about 0.19
], ids=["moderate", "extreme-pair"])
def test_zone_violations_match_scalar_check(d, kind):
    zone = zone_closed_form(d)
    assert zone.zone_kind is kind and 0.1 < zone.c < 0.2
    # Both kinds of zone are closed: their edges belong to them.
    assert zone.contains_winner(zone.c) and zone.contains_winner(1.0 - zone.c)
    rng = np.random.default_rng(4)
    pos = rng.random((3000, 4))
    pos[:300, 0] = zone.c  # candidates exactly on the zone's edges
    pos[200:500, 1] = 1.0 - zone.c
    pos = np.sort(pos, axis=1)
    winners = pos[np.arange(len(pos)), rng.integers(0, 4, len(pos))]
    expected = [
        any(zone.contains_winner(float(x)) for x in row) and not zone.contains_winner(float(w))
        for row, w in zip(pos, winners)
    ]
    got = zone.violations(pos, winners)
    assert got.dtype == bool and got.tolist() == expected
    assert 0 < got.sum() < len(got)


def test_condition_check_uniform():
    # g(x) = 1/2 - c for uniform voters, independent of x.
    ok = check_condition(U, 0.1)
    assert ok.satisfied and ok.min_value == pytest.approx(0.4, abs=1e-12)
    bad = check_condition(U, 0.2)
    assert not bad.satisfied
    assert bad.min_value == pytest.approx(0.3, abs=1e-12)
    assert bad.witness is not None


def test_condition_check_domain():
    with pytest.raises(DomainError):
        check_condition(U, 0.0)
    with pytest.raises(DomainError):
        check_condition(U, 0.6)


def test_numeric_matches_closed_form_uniform():
    z = min_zone_numeric(U, tol=1e-6)
    assert z.c == pytest.approx(1 / 6, abs=2e-6)


def test_numeric_matches_closed_form_beta2():
    # Non-decreasing density: the closed-form bound is tight, so the numeric
    # search lands on the same c.
    d = SymmetricBeta(2.0)
    z_closed = zone_closed_form(d)
    z_num = min_zone_numeric(d, tol=1e-6)
    assert z_num.c == pytest.approx(z_closed.c, abs=1e-5)


def test_polarized_zone():
    d = SymmetricBeta(0.8)
    z = zone_closed_form(d)
    assert z.regime is Regime.POLARIZED
    assert z.zone_kind is ZoneKind.MODERATE_INTERVAL
    assert 0.0 < z.c < 0.5
    # the bound is sufficient, so just inside it the condition holds
    assert check_condition(d, z.c + 1e-6).satisfied or check_condition(d, z.c - 1e-6).satisfied


def test_hyper_polarized_zone():
    d = SymmetricBeta(0.3)
    z = zone_closed_form(d)
    assert z.regime is Regime.HYPER_POLARIZED
    assert z.zone_kind is ZoneKind.EXTREME_PAIR
    assert z.contains_winner(0.01)
    assert not z.contains_winner(0.5)


def test_non_monotone_density_needs_numeric():
    grid = np.linspace(0, 1, 101)
    bump = 1.0 + 0.5 * np.cos(4 * np.pi * grid)  # two humps, symmetric
    d = Tabulated(grid, bump)
    with pytest.raises(UnsupportedRegimeError):
        zone_closed_form(d)
    z = min_zone_numeric(d, tol=1e-4)
    assert 0.0 < z.c < 0.5
    assert check_condition(d, z.c).satisfied


def test_small_k_counterexample_behaviour():
    p = small_k_counterexample()
    assert plurality_winner(p, U).winner_position == 0.5
    assert irv_winner(p, U).winner_position in (0.2, 0.8)


@pytest.mark.parametrize("c", [0.17, 0.2, 0.3])
@pytest.mark.parametrize("k", [3, 5, 8])
def test_tightness_profile_defeats_larger_zone(c, k):
    prof = tightness_profile(c, k)
    assert prof.k == k
    w = irv_winner(prof, U).winner_position
    assert not (c < w < 1 - c)


def test_tightness_profile_validation():
    with pytest.raises(DomainError):
        tightness_profile(0.1, 5)  # c <= 1/6 needs no witness
    with pytest.raises(DomainError):
        tightness_profile(0.2, 2)
    with pytest.raises(DomainError):
        tightness_profile(0.2, 5, eps=0.2)  # eps too large


def test_force_plurality_winner_uniform():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        targets = Profile(np.clip(rng.random(k), 0.01, 0.99))
        ti = int(rng.integers(k))
        prof = force_plurality_winner(targets, ti, U)
        x1 = targets.position(ti)
        assert plurality_winner(prof, U).winner_position == pytest.approx(x1, abs=1e-12)
        # all original candidates survive in the enlarged profile
        for j in range(k):
            assert np.min(np.abs(prof.sorted_positions - targets.position(j))) < 1e-12


def test_force_plurality_winner_beta():
    d = SymmetricBeta(2.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        targets = Profile(np.clip(rng.random(3), 0.05, 0.95))
        ti = int(rng.integers(3))
        prof = force_plurality_winner(targets, ti, d)
        x1 = targets.position(ti)
        shares = vote_shares(prof, d)
        wi = int(np.argmax(shares))
        assert prof.sorted_positions[wi] == pytest.approx(x1, abs=1e-12)


def test_force_plurality_winner_rejects_endpoints():
    with pytest.raises(UnconstructibleError):
        force_plurality_winner(Profile([0.0, 0.5]), 0, U)
    with pytest.raises(UnconstructibleError):
        force_plurality_winner(Profile([0.5, 1.0]), 1, U)


def test_degenerate_zone_warns():
    # Arcsine-law boundary: F(1/4) = 1/3, the moderate interval collapses.
    d = SymmetricBeta(0.5)
    z = zone_closed_form(d)
    # either regime classification is acceptable at the boundary, but the
    # bound must be degenerate: covering nothing or everything.
    assert z.c <= 1e-9 or z.c >= 0.5 - 1e-9
