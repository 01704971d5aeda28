import numpy as np
import pytest

from irvsim import exactk3, tabulate, zones
from irvsim.dist import SymmetricBeta, Tabulated, Uniform
from irvsim.errors import (
    DomainError,
    NoZoneError,
    UnconstructibleError,
    UnsupportedRegimeError,
)
from irvsim.tabulate import Profile, Rule, irv_winner, plurality_winner, vote_shares
from irvsim.zones import (
    ExclusionZone,
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

    def binds(row):
        # An extreme pair binds only when both of its sides hold a candidate.
        if kind is ZoneKind.MODERATE_INTERVAL:
            return any(zone.contains_winner(float(x)) for x in row)
        return any(x <= zone.c for x in row) and any(x >= 1.0 - zone.c for x in row)

    expected = [binds(row) and not zone.contains_winner(float(w)) for row, w in zip(pos, winners)]
    got = zone.violations(pos, winners)
    assert got.dtype == bool and got.tolist() == expected
    assert 0 < got.sum() < len(got)


def _irv_violations(zone, pos, d):
    pos = np.sort(pos, axis=1)
    winners, _ = tabulate.winners(Rule.IRV, pos, d)
    return int(zone.violations(pos, winners).sum())


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.3, 0.45])
def test_extreme_pair_claim_is_sound_when_both_sides_are_occupied(alpha):
    d = SymmetricBeta(alpha)
    zone = zone_closed_form(d)
    assert zone.zone_kind is ZoneKind.EXTREME_PAIR
    rng = np.random.default_rng(1)
    for k in range(3, 13):
        random_rows = tabulate.sample_sorted_positions(d, k, 3000, rng)
        # Adversarial rows: the sides held only by candidates exactly on the
        # zone's edges, the rest spread over [0, 1].
        pinned = rng.random((3000, k))
        pinned[:, 0], pinned[:, 1] = zone.c, 1.0 - zone.c
        assert _irv_violations(zone, random_rows, d) == 0, k
        assert _irv_violations(zone, pinned, d) == 0, k


def test_extreme_pair_claim_holds_where_the_cdf_is_flat_at_one_third():
    # F is exactly 1/3 on [0.12, 0.2] (zero density there), so both c = 0.24
    # and c = 0.4 satisfy F(c/2) = 1/3; at c = 0.24 a lone left candidate x
    # whose neighbour y lies in (c, 0.4 - x) gets exactly 1/3 of the vote.
    h, g = 1 / 0.33, 1 / 1.74
    grid = [0, 0.1, 0.12, 0.2, 0.22, 0.78, 0.8, 0.88, 0.9, 1]
    with pytest.warns(UserWarning, match="interior zeros"):
        d = Tabulated(grid, [h, h, 0, 0, g, g, 0, 0, h, h])
    assert d.cdf(0.12) == d.cdf(0.2) == 1 / 3 < d.cdf(0.25)
    assert zone_closed_form(d).c == pytest.approx(0.4)
    rng = np.random.default_rng(2)
    for c in (0.24, 0.4):
        zone = ExclusionZone(c, Regime.HYPER_POLARIZED)
        for k in range(3, 9):
            pos = rng.random((3000, k))
            pos[:, 0] = rng.uniform(0.0, 0.16, 3000)
            pos[:, 1] = rng.uniform(c, c + 0.16 - pos[:, 0])
            pos[:, 2] = rng.uniform(1.0 - c, 1.0, 3000)
            assert _irv_violations(zone, pos, d) == 0, (c, k)


def test_one_sided_extreme_pair_profile_is_not_flagged():
    # Only [1 - c, 1] is occupied, and IRV elects the candidate outside the pair.
    d = SymmetricBeta(0.3)
    zone = zone_closed_form(d)
    row = [0.449, 0.822, 0.863, 0.877, 0.884, 0.956, 0.994, 1.0]
    assert irv_winner(Profile(row), d).winner_position == 0.449
    winners, _ = tabulate.winners(Rule.IRV, np.array([row]), d)
    assert winners.tolist() == [0.449] and not zone.contains_winner(0.449)
    assert zone.contains_winner(1.0) and row[0] > zone.c
    assert not zone.violations(np.array([row]), winners).any()


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
    z = min_zone_numeric(U)
    assert z.c == pytest.approx(1 / 6, abs=2e-6)


def test_numeric_matches_closed_form_beta2():
    # Non-decreasing density: the closed-form bound is tight, so the numeric
    # search lands on the same c.
    d = SymmetricBeta(2.0)
    z_closed = zone_closed_form(d)
    z_num = min_zone_numeric(d)
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
    z = min_zone_numeric(d)
    assert 0.0 < z.c < 0.5
    assert check_condition(d, z.c).satisfied


def _two_humps():
    grid = np.linspace(0, 1, 101)
    return Tabulated(grid, 1.0 + 0.5 * np.cos(4 * np.pi * grid))


def _cos_squared():
    # The density table of the benchmark's custom-electorate workload.
    grid = np.arange(201) / 200
    return Tabulated(grid, 0.4 + np.cos(2 * np.pi * grid) ** 2)


# Each distribution with the c that the earlier scan-then-bisect search found.
SEARCH_CASES = [
    (U, 0.16666638812118187),
    (SymmetricBeta(2.0), 0.2591488120888158),
    (SymmetricBeta(0.8), 0.12062923772321428),
    (SymmetricBeta(5.0), 0.3469815689174107),
    (SymmetricBeta(0.6), 0.050826102149906),
    (_cos_squared(), 0.12249302060326597),
    (_two_humps(), 0.12694199148995536),
]
SEARCH_IDS = ["uniform", "beta2", "beta0.8", "beta5", "beta0.6", "cos-squared", "two-humps"]


@pytest.mark.parametrize("d", [d for d, _ in SEARCH_CASES], ids=SEARCH_IDS)
def test_squeeze_condition_is_monotone_in_c(d):
    # What min_zone_numeric's bisection rests on: once the condition holds
    # at some c, it holds at every smaller c.
    held = [check_condition(d, float(c)).satisfied for c in np.linspace(1e-6, 0.5 - 1e-6, 200)]
    assert held[0] and not held[-1]
    assert held == sorted(held, reverse=True)


@pytest.mark.parametrize("d, c", SEARCH_CASES, ids=SEARCH_IDS)
def test_min_zone_numeric_is_one_bisection(d, c, monkeypatch):
    calls = []

    def counted(d, c):
        calls.append(c)
        return check_condition(d, c)

    monkeypatch.setattr(zones, "check_condition", counted)
    z = min_zone_numeric(d)
    assert z.c == pytest.approx(c, abs=2e-6)
    assert z.regime is Regime.GENERAL_NUMERIC
    assert len(calls) <= 21 and z.c in calls
    assert check_condition(d, z.c).satisfied


def test_min_zone_numeric_without_a_zone_checks_once(monkeypatch):
    calls = []

    def counted(d, c):
        calls.append(c)
        return check_condition(d, c)

    monkeypatch.setattr(zones, "check_condition", counted)
    with pytest.raises(NoZoneError):
        min_zone_numeric(SymmetricBeta(0.3))
    assert len(calls) == 1


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


def test_merge_positions_matches_the_pairwise_loop():
    rng = np.random.default_rng(13)
    for _ in range(200):
        old = rng.random(int(rng.integers(1, 8)))
        # Random new points, and points on, just inside and just outside 1e-12 of old ones.
        near = old[rng.integers(0, old.size, 4)] + np.array([0.0, 5e-13, -5e-13, 2e-12])
        new = np.concatenate([rng.random(int(rng.integers(0, 50))), near])
        kept = [x for x in new.tolist() if all(abs(x - p) > 1e-12 for p in old.tolist())]
        assert zones._merge_positions(old, new) == sorted(old.tolist() + kept)


def test_force_plurality_winner_brackets_at_the_neighbours():
    # The target's neighbour 4e-6 away on the right leaves the whole left gap
    # as its bracket, so the flanks are spaced by the target's share of ~0.1.
    prof = force_plurality_winner(Profile([0.3, 0.5, 0.500004, 0.7]), 1, U)
    assert prof.k < 200
    shares = vote_shares(prof, U)
    ti = int(np.searchsorted(prof.sorted_positions, 0.5))
    assert np.all(np.delete(shares, ti) < shares[ti])


def test_forced_plurality_winner_is_extreme_and_irv_stays_moderate():
    # The paper's contrast in one profile: plurality elects the extreme 0.1,
    # while IRV elects a candidate in the uniform exclusion zone [1/6, 5/6].
    prof = force_plurality_winner(Profile([0.1, 0.5]), 0, U)
    assert prof.k <= 10
    assert plurality_winner(prof, U).winner_position == 0.1
    assert 1 / 6 <= irv_winner(prof, U).winner_position <= 5 / 6


def _forcing_draws(d, draws, seed):
    """Random target sets of 2..8 candidates in [0.02, 0.98] and each one's forcing outcome."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        k = int(rng.integers(2, 9))
        targets = Profile(rng.uniform(0.02, 0.98, k))
        ti = int(rng.integers(k))
        try:
            yield targets, ti, force_plurality_winner(targets, ti, d)
        except UnconstructibleError as e:
            yield targets, ti, e


@pytest.mark.parametrize("d", [SymmetricBeta(0.3), _cos_squared()], ids=["beta0.3", "cos-squared"])
def test_force_plurality_winner_sweep(d):
    for targets, ti, prof in _forcing_draws(d, 150, 14):
        assert isinstance(prof, Profile), (targets, ti, prof)
        shares = vote_shares(prof, d)
        wi = int(np.argmax(shares))
        assert prof.sorted_positions[wi] == targets.position(ti)
        assert np.all(np.delete(shares, wi) < shares[wi])


def test_force_plurality_winner_on_a_zero_density_gap():
    # Zero density on [0.4, 0.6]: a target inside the gap can get no votes.
    with pytest.warns(UserWarning, match="interior zeros"):
        d = Tabulated([0, 0.39, 0.4, 0.6, 0.61, 1], [1, 1, 0, 0, 1, 1])
    with pytest.raises(UnconstructibleError):
        force_plurality_winner(Profile([0.45, 0.5, 0.55]), 1, d)
    # Any other error, such as duplicate positions reaching Profile, propagates.
    outcomes = [prof for _, _, prof in _forcing_draws(d, 150, 15)]
    built = [p for p in outcomes if isinstance(p, Profile)]
    assert 0 < len(built) < len(outcomes)
    for prof in built:
        shares = vote_shares(prof, d)
        assert np.sum(shares == shares.max()) == 1


def test_integer_arguments_must_be_integers():
    with pytest.raises(DomainError):
        Profile([0.2, 0.5, 0.8]).position(5)
    with pytest.raises(DomainError):
        force_plurality_winner(Profile([0.2, 0.5, 0.8]), 3, U)
    with pytest.raises(DomainError):
        tightness_profile(0.2, 4.5)
    with pytest.raises(DomainError):
        exactk3.irv_tail_density(3.5, 0.1)
    with pytest.raises(DomainError):
        exactk3.order_statistic_win_prob(Rule.PLURALITY, 2.0, 0.3)


def test_force_plurality_winner_rejects_endpoints():
    with pytest.raises(UnconstructibleError):
        force_plurality_winner(Profile([0.0, 0.5]), 0, U)
    with pytest.raises(UnconstructibleError):
        force_plurality_winner(Profile([0.5, 1.0]), 1, U)


# Degenerate, and without a warning, only at c = 0 (alpha = 1/2, the arcsine
# law, where F(1/4) = 1/3 and the moderate interval collapses) and within 1e-9
# of 1/2 (alpha just below 1/2, where the extreme pair covers [0, 1]).
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, degenerate", [
    (0.3, False), (0.5, True), (0.49999, False), (0.4999999999, True),
    (1.0, False), (2.0, False), (5.0, False), (30.0, False),
])
def test_beta_zone_degenerate(alpha, degenerate):
    z = zone_closed_form(SymmetricBeta(alpha))
    assert z.degenerate is degenerate
    assert z.to_json()["degenerate"] is degenerate


@pytest.mark.parametrize("alpha", (0.05, 0.2, 0.3, 0.45, 0.6, 0.8, 2.0, 5.0, 20.5))
def test_closed_form_beta_zone_matches_an_mpmath_root(alpha):
    import mpmath

    d = SymmetricBeta(alpha)
    z = zone_closed_form(d)
    # The quantile each regime inverts; c is exact arithmetic on it.
    if z.regime is Regime.MODERATE:
        p, q = 1 / 6, z.c
    elif z.regime is Regime.POLARIZED:
        p, q = 1 / 3, z.c / 2 + 0.25
    else:
        p, q = 1 / 3, z.c / 2
    with mpmath.workdps(40):
        ref = float(mpmath.findroot(
            lambda t: mpmath.betainc(alpha, alpha, 0, t, regularized=True) - mpmath.mpf(p), q))
    # An ulp of F moves its root by cond = F / (q f(q)) ulps of q, about
    # 1/alpha for small alpha, so the bound is 4 ulp scaled by cond.
    cond = p / (ref * float(d.density(ref)))
    assert abs(q - ref) <= 4 * max(cond, 1.0) * np.spacing(ref)
