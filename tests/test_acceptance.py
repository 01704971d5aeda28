"""Acceptance gate: one test per release criterion, at full stated scale.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and then asserts. Seeds are fixed so the suite is reproducible;
statistical tolerances were calibrated once at these seeds and frozen.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from irvsim.asymptotics import (
    circle_coupling_experiment,
    ks_statistic,
    max_gap_experiment,
    winning_share_experiment,
)
from irvsim.dist import SymmetricBeta, Uniform
from irvsim.exactk3 import (
    irv_density_k3,
    order_statistic_win_prob,
    plurality_density_k3,
)
from irvsim.experiments import RunSpec, chunk_rng, run_beta_sweep
from irvsim.tabulate import (
    Profile,
    Rule,
    irv_batch,
    irv_discrete,
    irv_winner,
    plurality_batch,
    plurality_winner,
    sample_ballots,
    sample_sorted_positions,
    vote_shares,
)
from irvsim.zones import force_plurality_winner, small_k_counterexample, tightness_profile

MASTER_SEED = 20260823
U = Uniform()


def _report(criterion, ok, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_uniform_exclusion_zone():
    # 10^6 uniform profiles across k = 3..10: with a candidate in [1/6, 5/6]
    # the IRV winner stays inside; with none, the most moderate candidate wins.
    trials_per_k = 125_000
    zone_bad = moderate_bad = 0
    none_trials = 0
    for k in range(3, 11):
        rng = chunk_rng(MASTER_SEED, f"acceptance/1/k={k}", 0)
        pos = sample_sorted_positions(U, k, trials_per_k, rng)
        winners, _ = irv_batch(pos, U)
        inside = (pos >= 1 / 6) & (pos <= 5 / 6)
        occupied = np.any(inside, axis=1)
        w_in = (winners >= 1 / 6) & (winners <= 5 / 6)
        zone_bad += int(np.count_nonzero(occupied & ~w_in))
        rows = np.arange(trials_per_k)
        closest = pos[rows, np.argmin(np.abs(pos - 0.5), axis=1)]
        empty = ~occupied
        none_trials += int(empty.sum())
        moderate_bad += int(np.count_nonzero(empty & (winners != closest)))
    ok = zone_bad == 0 and moderate_bad == 0
    _report(
        1,
        ok,
        f"10^6 trials, k=3..10: {zone_bad} zone escapes, {moderate_bad} of "
        f"{none_trials} empty-zone trials not won by the most moderate candidate",
    )


def test_criterion_2_tightness():
    failures = []
    for c in (0.17, 0.2, 0.3):
        for k in (3, 5, 8):
            w = irv_winner(tightness_profile(c, k), U).winner_position
            if c < w < 1 - c:
                failures.append((c, k, w))
    _report(2, not failures, f"9/9 tightness constructions defeat (c, 1-c); failures={failures}")


def test_criterion_3_exact_k3_identities():
    pd, rd = plurality_density_k3(), irv_density_k3()
    checks = {
        "var_P": pd.variance_about_half() == Fraction(23, 540),
        "var_R": rd.variance_about_half() == Fraction(25, 864),
        "int_P": pd.integral() == 1,
        "int_R": rd.integral() == 1,
        "cont_P": max(abs(j) for j in pd.breakpoint_jumps()) <= 1e-12,
        "cont_R": max(abs(j) for j in rd.breakpoint_jumps()) <= 1e-12,
    }
    w = np.linspace(0.0, 0.5, 200)
    for rule, dens, tag in ((Rule.PLURALITY, pd, "P"), (Rule.IRV, rd, "R")):
        total = sum(
            np.array([order_statistic_win_prob(rule, i, x) for x in w])
            for i in (1, 2, 3)
        )
        checks[f"orderstat_{tag}"] = float(np.max(np.abs(3.0 * total - dens(w)))) <= 1e-12
    ok = all(checks.values())
    _report(3, ok, f"exact identities {checks}")


def test_criterion_4_monte_carlo_vs_exact_k3():
    trials = 1_000_000
    results = {}
    for rule, dens in ((Rule.PLURALITY, plurality_density_k3()), (Rule.IRV, irv_density_k3())):
        rng = chunk_rng(MASTER_SEED, f"acceptance/4/{rule.value}", 0)
        pos = sample_sorted_positions(U, 3, trials, rng)
        if rule is Rule.PLURALITY:
            winners, _ = plurality_batch(pos, U)
        else:
            winners, _ = irv_batch(pos, U)
        results[rule.value] = ks_statistic(winners, dens.antiderivative())
    ok = all(v <= 0.005 for v in results.values())
    _report(4, ok, f"10^6-trial KS vs exact CDF: {results} (tolerance 0.005)")


def test_criterion_5_plurality_winner_near_uniform():
    rng = chunk_rng(MASTER_SEED, "acceptance/5", 0)
    k, trials = 1000, 100_000
    winners = np.empty(trials)
    done = 0
    while done < trials:
        n = min(8000, trials - done)
        pos = np.sort(rng.random((n, k)), axis=1)
        w, _ = plurality_batch(pos, U)
        winners[done : done + n] = w
        done += n
    ks = ks_statistic(winners, lambda x: x)
    _report(5, ks <= 0.05, f"k=1000 plurality winner KS vs Uniform(0,1) = {ks:.4f} (tol 0.05)")


def test_criterion_6_gumbel_law():
    # Results do not depend on threads; two only shorten the run.
    share = winning_share_experiment(100_000, 10_000, MASTER_SEED, threads=2)
    gap = max_gap_experiment(100_000, 10_000, MASTER_SEED, threads=2)
    ok = share.ks_statistic <= 0.1 and gap.ks_statistic <= 0.05
    _report(
        6,
        ok,
        f"winning-share KS = {share.ks_statistic:.4f} (tol 0.1), "
        f"max-gap KS = {gap.ks_statistic:.4f} (tol 0.05), "
        f"share median = {np.median(share.statistics):.3f} "
        f"(Gumbel median {-math.log(math.log(2)):.3f})",
    )


def test_criterion_7_circle_coupling():
    rates = {}
    for k in (10, 100, 1000, 10_000):
        res = circle_coupling_experiment(k, 10_000, MASTER_SEED, threads=2)
        rates[k] = res.summary()["disagreement_rate"]
    vals = list(rates.values())
    ok = all(a > b for a, b in zip(vals, vals[1:])) and rates[10_000] <= 0.05
    _report(7, ok, f"circle-vs-interval disagreement rates {rates} (strictly decreasing, last <= 0.05)")


def test_criterion_8_beta_sweep_zones():
    res = run_beta_sweep((0.3, 0.5, 0.8, 1.0, 2.0, 5.0), 30, run=RunSpec(100_000, MASTER_SEED))
    irv_rows = {k: v for k, v in res["summaries"].items() if v["rule"] == "irv"}
    violations = {k: v["violations"] for k, v in irv_rows.items()}
    hyper = irv_rows["alpha=0.3/irv"]
    ok = all(v == 0 for v in violations.values()) and hyper["bound_kind"] == "extreme-pair"
    _report(
        8,
        ok,
        f"beta sweep k=30, 10^5 trials per alpha: IRV zone violations {violations}; "
        f"alpha=0.3 bound kind {hyper['bound_kind']}",
    )


def test_criterion_9_force_plurality_winner():
    counts, sizes, ratios = {}, {}, {}
    for d, label in ((U, "uniform"), (SymmetricBeta(2.0), "beta(2,2)")):
        rng = chunk_rng(MASTER_SEED, f"acceptance/9/{label}", 0)
        succeeded = 0
        n, n_s_max = [], []
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            # Targets stay clear of the endpoints: a winner with vote share s
            # needs >= 1/s candidates, and the attainable share vanishes as
            # the target approaches 0 or 1 under Beta(2,2).
            targets = Profile(rng.uniform(0.02, 0.98, k))
            ti = int(rng.integers(k))
            prof = force_plurality_winner(targets, ti, d)
            shares = vote_shares(prof, d)
            x1 = targets.position(ti)
            wi = int(np.argmax(shares))
            if prof.sorted_positions[wi] == x1 and np.all(
                np.delete(shares, wi) < shares[wi]
            ):
                succeeded += 1
            # The target's share is at most s_max, the F-mass out to the
            # midpoints with its neighbouring targets (or 0 and 1), and n
            # shares below it cannot sum to 1 unless n > 1/s_max.
            pos = targets.sorted_positions
            left = max((p for p in pos if p < x1), default=0.0)
            right = min((p for p in pos if p > x1), default=1.0)
            n.append(prof.k)
            n_s_max.append(prof.k * (d.cdf((x1 + right) / 2) - d.cdf((left + x1) / 2)))
        counts[label] = succeeded
        sizes[label] = (float(np.median(n)), max(n))
        ratios[label] = (min(n_s_max), float(np.median(n_s_max)))
    ok = (all(v == 1000 for v in counts.values())
          and all(lo > 1 and med <= 3 for lo, med in ratios.values()))
    _report(
        9,
        ok,
        f"strict plurality wins forced in {counts} of 1000 target sets each; "
        f"candidates (median, max) {sizes}; n*s_max (min, median) "
        + ", ".join(f"{k} ({lo:.3f}, {med:.3f})" for k, (lo, med) in ratios.items())
        + " (min > 1, median <= 3)",
    )


def test_criterion_10_small_k_dominance():
    trials = 1_000_000
    bad = {}
    for d, label in ((U, "uniform"), (SymmetricBeta(2.0), "beta(2,2)")):
        for k in (3, 4):
            rng = chunk_rng(MASTER_SEED, f"acceptance/10/{label}/k={k}", 0)
            pos = sample_sorted_positions(d, k, trials, rng)
            wp, tie_p = plurality_batch(pos, d)
            wr, tie_r = irv_batch(pos, d)
            clean = ~(tie_p | tie_r)
            more_extreme = (np.abs(wr - 0.5) > np.abs(wp - 0.5)) & clean
            bad[f"{label}/k={k}"] = int(more_extreme.sum())
    prof = small_k_counterexample()
    p_out = plurality_winner(prof, U)
    r_out = irv_winner(prof, U)
    p_share = max(p_out.rounds[0].shares)
    construction_ok = (
        p_out.winner_position == 0.5
        and p_share == pytest.approx(0.3, abs=1e-12)
        and r_out.winner_position in (0.2, 0.8)
    )
    ok = all(v == 0 for v in bad.values()) and construction_ok
    _report(
        10,
        ok,
        f"IRV-more-extreme counts {bad}; k=5 construction: plurality winner "
        f"{p_out.winner_position} (share {p_share}), IRV winner {r_out.winner_position}",
    )


def test_criterion_11_discrete_oracle_equivalence():
    rng = chunk_rng(MASTER_SEED, "acceptance/11", 0)
    n_voters = 1_000_000
    checked = agreed = 0
    while checked < 500:
        k = int(rng.integers(3, 7))
        prof = Profile(rng.random(k))
        cont = irv_winner(prof, U)
        # margin filter: require a clear gap in every elimination round so
        # that sampling noise (sigma ~ 5e-4 at 10^6 voters) cannot flip it
        margins = [
            np.min(np.abs(np.diff(np.sort(r.shares)))) for r in cont.rounds
        ]
        if min(margins) < 5e-3:
            continue
        ballots = sample_ballots(prof, U, n_voters, rng)
        disc = irv_discrete(ballots, positions={i: prof.position(i) for i in range(k)})
        checked += 1
        agreed += int(disc == cont.winner_index)
    rate = agreed / checked
    _report(11, rate >= 0.99, f"discrete oracle agreement {agreed}/{checked} = {rate:.3f} (>= 0.99)")
