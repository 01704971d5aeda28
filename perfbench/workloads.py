"""The benchmark's workloads: the irvsim CLI calls each one makes, and the checks
on their outputs.

Each workload is built from the seed alone. Building it writes its inputs
(output directories and, for custom-electorate, a density CSV) into a fresh
work directory and returns its steps. A step is one CLI call, the number of
elections its arguments request (one election is one (profile, rule)
tabulation), and a check that reads the call's stdout and output files and
returns the problems it finds. Tolerances come from tests/test_acceptance.py.

Trial counts are the paper's experiments scaled so that one pass of a
workload takes a few seconds on a 2-core machine, which lets a run repeat it
and report medians. The scale factor shrinks them further for the self-test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Step:
    argv: tuple  # irvsim CLI arguments
    elections: int
    check: Callable[[str], list]  # stdout -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path, float], list]  # (seed, work dir, scale) -> steps
    # Threads the workload's steps ask for; when > 1 the traced run repeats the
    # steps at --threads 1 for the parallel-efficiency baseline.
    threads: int = 1


def _scaled(n, scale):
    return max(1, round(n * scale))


def _line_count(path):
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def with_threads(argv, threads):
    """argv with the value after --threads replaced."""
    argv = list(argv)
    argv[argv.index("--threads") + 1] = str(threads)
    return tuple(argv)


def _k3_histogram_csv(seed, work, scale):
    trials = _scaled(250_000, scale)
    out = work / "out"
    out.mkdir(parents=True)

    def check(stdout):
        summary = json.loads(stdout)
        problems = []
        for rule in ("plurality", "irv"):
            ks = summary[f"{rule}_k3"]["ks_vs_exact"]
            if not ks <= 0.005:
                problems.append(f"{rule} ks_vs_exact {ks} > 0.005")
            lines = _line_count(out / f"winners_{rule}_k3.csv")
            if lines != trials + 1:
                problems.append(f"winners_{rule}_k3.csv has {lines} lines, want {trials + 1}")
        return problems

    argv = ("simulate", "--k", "3", "--trials", str(trials), "--rule", "both",
            "--out", str(out), "--threads", "1", "--seed", str(seed))
    return [Step(argv, 2 * trials, check)]


BETA_ALPHAS = ("0.3", "0.5", "1", "2", "5")


def _beta_sweep_k30(seed, work, scale):
    trials = _scaled(8192, scale)  # two 4096-trial chunks per (alpha, rule)

    def check(stdout):
        summary = json.loads(stdout)
        problems = [f"{key}: {entry['violations']} zone violations"
                    for key, entry in summary.items()
                    if entry["rule"] == "irv" and entry["violations"] != 0]
        kind = summary["alpha=0.3/irv"]["bound_kind"]
        if kind != "extreme-pair":
            problems.append(f"alpha=0.3 bound_kind {kind}, want extreme-pair")
        return problems

    argv = ("betasweep", "--alpha", *BETA_ALPHAS, "--k", "30", "--trials", str(trials),
            "--threads", "2", "--seed", str(seed))
    return [Step(argv, len(BETA_ALPHAS) * 2 * trials, check)]


def _gumbel_share_k1e5(seed, work, scale):
    # 1500 trials keep the share KS near 0.06, well inside the 0.1 tolerance.
    trials = _scaled(1500, scale)
    out = work / "out"
    out.mkdir(parents=True)

    def check(stdout):
        ks = json.loads(stdout)["ks"]
        return [] if ks <= 0.1 else [f"share KS {ks} > 0.1"]

    argv = ("gumbel", "--mode", "share", "--k", "100000", "--trials", str(trials),
            "--threads", "2", "--out", str(out), "--seed", str(seed))
    return [Step(argv, trials, check)]


def _write_density(path, points=201):
    """0.4 + cos^2(2 pi x): symmetric, and not monotone on [0, 1/2]."""
    rows = ["x,density"]
    for i in range(points):
        x = i / (points - 1)
        rows.append(f"{x!r},{0.4 + math.cos(2.0 * math.pi * x) ** 2!r}")
    path.write_text("\n".join(rows) + "\n")


def _custom_electorate(seed, work, scale):
    trials = _scaled(8192, scale)
    out = work / "out"
    out.mkdir(parents=True)
    table = work / "density.csv"
    _write_density(table)
    dist = f"table:{table}"

    def check_zone(stdout):
        regime = json.loads(stdout)["regime"]
        return [] if regime == "general-numeric" else [f"zone regime {regime}"]

    def check_simulate(stdout):
        lines = _line_count(out / "winners_irv_k10.csv")
        return [] if lines == trials + 1 else [f"winners_irv_k10.csv has {lines} lines"]

    def check_verify(stdout):
        report = json.loads(stdout)
        failed = [f"{c['name']}: {c['detail']}" for c in report["checks"] if not c["passed"]]
        if report["passed"] and not failed:
            return []
        return [f"verify failed checks {failed}"]

    def check_density(stdout):
        lines = _line_count(out / "exact_density_irv_k3.csv")
        return [] if lines == 1002 else [f"exact_density_irv_k3.csv has {lines} lines"]

    return [
        Step(("zone", "--dist", dist, "--numeric"), 0, check_zone),
        Step(("simulate", "--rule", "irv", "--dist", dist, "--k", "10",
              "--trials", str(trials), "--out", str(out), "--seed", str(seed)),
             trials, check_simulate),
        Step(("verify", "--seed", str(seed)), 0, check_verify),
        Step(("density", "--rule", "irv", "--out", str(out)), 0, check_density),
    ]


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("k3-histogram-csv", _k3_histogram_csv),
        Workload("beta-sweep-k30", _beta_sweep_k30, threads=2),
        Workload("gumbel-share-k1e5", _gumbel_share_k1e5),
        Workload("custom-electorate", _custom_electorate),
    )
}
