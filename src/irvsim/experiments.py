"""Seeded Monte Carlo experiment drivers and reproducible file outputs.

Each driver takes an ExperimentConfig, runs a deterministic chunked
simulation, writes CSV (floats at 17 significant digits, lossless round-trip)
with a sibling JSON manifest per file, and returns a summary. Trials run on
the chunk engine in `chunks`, so outputs are bitwise identical regardless of
worker count.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, exactk3, tabulate, zones
# perfbench/tracer.py wraps `experiments._map_chunks` and rebinds the wrapper
# wherever an irvsim module holds the same function object, so this binding
# also gets the asymptotics chunks traced.
from .chunks import chunk_rng, map_chunks as _map_chunks
from .dist import SymmetricBeta, Uniform, VoterDistribution, parse_dist_spec
from .errors import DomainError, UnsupportedRegimeError, require
from .tabulate import Rule

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "chunk_rng",
    "write_csv",
    "run_winner_histograms",
    "run_beta_sweep",
    "run_scatter",
    "run_verify",
]


@dataclass(frozen=True)
class ExperimentConfig:
    rules: tuple = (Rule.PLURALITY, Rule.IRV)
    dist_spec: str = "uniform"
    ks: tuple = (3,)
    alphas: tuple = ()
    trials: int = 1000
    master_seed: int = 0
    out_dir: Path | None = None
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if any(k < 1 for k in self.ks):
            raise DomainError("k must be >= 1")
        parse_dist_spec(self.dist_spec)  # validate eagerly

    def distribution(self) -> VoterDistribution:
        return parse_dist_spec(self.dist_spec)

    def echo(self) -> dict:
        return {
            "rules": [r.value for r in self.rules],
            "dist": self.dist_spec,
            "ks": list(self.ks),
            "alphas": list(self.alphas),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "threads": self.threads,
        }


@dataclass
class RunManifest:
    config: dict
    version: str = __version__
    duration_seconds: float = 0.0  # computation only, not serialization
    summaries: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "version": self.version,
            "duration_seconds": self.duration_seconds,
            "summaries": self.summaries,
            "notes": self.notes,
        }

    def write(self, data_path: Path) -> Path:
        """Atomically write this manifest next to `data_path`."""
        path = data_path.with_name(data_path.stem + ".manifest.json")
        _atomic_write(path, [json.dumps(self.to_json(), indent=2) + "\n"])
        return path

    @staticmethod
    def read(path: Path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        return RunManifest(
            config=data["config"],
            version=data["version"],
            duration_seconds=data["duration_seconds"],
            summaries=data["summaries"],
            notes=data["notes"],
        )


def _atomic_write(path: Path, pieces):
    """Write `pieces` to a temp file and rename it over `path`; on failure remove it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Rows per formatted block: amortizes the per-block cost, keeps .tolist() copies small.
_CSV_BLOCK_ROWS = 1 << 16


def write_csv(path: Path, header, columns, manifest: RunManifest) -> Path:
    """Write equal-length columns as one CSV, atomically, then its manifest.

    Float columns (dtype kind "f") get 17 significant digits, bool columns
    0/1 and every other column str(). Returns the CSV path.
    """
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    require(
        len(header) == len(columns) and len(set(lengths)) == 1,
        f"{path.name}: {len(header)} names for columns of lengths {lengths}",
    )
    columns = [c.astype(np.int8) if c.dtype.kind == "b" else c for c in columns]
    row = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in columns) + "\n"
    n = lengths[0]

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, n, _CSV_BLOCK_ROWS):
            cells = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            yield "".join(map(row.format, *cells))

    _atomic_write(path, blocks())
    manifest.write(path)
    return path


def _finish(cfg: ExperimentConfig, t0: float, summaries: dict, files: dict, notes=(),
            unread=()) -> dict:
    """Build the run's manifest; write each {name: (header, columns)} to out_dir with it.

    Drivers collect `files` only when cfg.out_dir is set, so that a run
    without output holds no columns. The manifest's config omits the
    `unread` fields, which the driver does not read.
    """
    config = {key: value for key, value in cfg.echo().items() if key not in unread}
    manifest = RunManifest(config, duration_seconds=time.monotonic() - t0,
                           summaries=summaries, notes=list(notes))
    for name, (header, columns) in files.items():
        write_csv(Path(cfg.out_dir) / name, header, columns, manifest)
    return {"summaries": summaries, "manifest": manifest}


def _elections(cfg: ExperimentConfig, experiment_id: str, d, k: int, rules, zone=None):
    """The election kernel: per chunk, sample sorted positions once and tabulate every rule.

    Returns ({rule: (winners, ties)}, violations). `violations` flags the
    trials where the IRV winner breaks `zone`; it is None without a zone or
    without IRV among `rules`.
    """
    check = zone is not None and Rule.IRV in rules

    def one(chunk_index, chunk_trials, rng):
        pos = tabulate.sample_sorted_positions(d, k, chunk_trials, rng)
        out = {rule: tabulate.winners(rule, pos, d) for rule in rules}
        return out, zone.violations(pos, out[Rule.IRV][0]) if check else None

    parts = _map_chunks(one, cfg.master_seed, experiment_id, cfg.trials, cfg.threads)
    results = {rule: tuple(np.concatenate([p[0][rule][i] for p in parts]) for i in (0, 1))
               for rule in rules}
    return results, np.concatenate([p[1] for p in parts]) if check else None


def run_winner_histograms(cfg: ExperimentConfig) -> dict:
    """Winner positions per (rule, k); for k = 3 also the exact density overlay."""
    t0 = time.monotonic()
    d = cfg.distribution()
    summaries = {}
    files = {}
    uniform = isinstance(d, Uniform)
    for rule in cfg.rules:
        for k in cfg.ks:
            exp_id = f"winners/{rule.value}/k={k}/{cfg.dist_spec}"
            winners, ties = _elections(cfg, exp_id, d, k, (rule,))[0][rule]
            entry = {
                "rule": rule.value,
                "k": k,
                "trials": cfg.trials,
                "ties": int(ties.sum()),
                "mean": float(winners.mean()),
                "var_about_half": float(np.mean((winners - 0.5) ** 2)),
            }
            if k == 3 and uniform:
                dens = exactk3.density_k3(rule)
                entry["ks_vs_exact"] = asymptotics.ks_statistic(winners, dens.antiderivative())
            summaries[f"{rule.value}_k{k}"] = entry
            if cfg.out_dir is None:
                continue
            files[f"winners_{rule.value}_k{k}.csv"] = (
                ["trial", "winner_position", "tie"], [np.arange(winners.size), winners, ties]
            )
            if k == 3 and uniform:
                grid = np.linspace(0.0, 1.0, 1001)
                files[f"exact_density_{rule.value}_k3.csv"] = (["x", "density"], [grid, dens(grid)])
    return _finish(cfg, t0, summaries, files)


def _zone_for_alpha(alpha: float):
    d = SymmetricBeta(alpha)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zone = zones.zone_closed_form(d)
    except UnsupportedRegimeError:
        return d, None
    return d, zone


def run_beta_sweep(cfg: ExperimentConfig) -> dict:
    """Both rules across Beta(alpha, alpha) voters, with closed-form zone flags.

    Per alpha, every rule tabulates the same candidate draws, so the rules
    are compared on paired profiles. The voters are Beta(alpha, alpha), so
    the manifest records no `dist`.
    """
    if not cfg.alphas:
        raise DomainError("alpha list must be nonempty")
    if len(cfg.ks) != 1:
        raise DomainError(f"betasweep takes exactly one k, got {list(cfg.ks)}")
    t0 = time.monotonic()
    k = cfg.ks[0]
    summaries = {}
    held = []  # (alpha, rule, winners, violations), kept only for the CSV
    for alpha in cfg.alphas:
        d, zone = _zone_for_alpha(alpha)
        exp_id = f"betasweep/alpha={alpha:g}/k={k}"
        results, irv_viol = _elections(cfg, exp_id, d, k, cfg.rules, zone)
        no_viol = np.zeros(cfg.trials, dtype=bool)
        for rule in cfg.rules:
            winners, _ = results[rule]
            viol = irv_viol if rule is Rule.IRV and irv_viol is not None else no_viol
            if cfg.out_dir is not None:
                held.append((alpha, rule.value, winners, viol))
            entry = {
                "alpha": alpha,
                "rule": rule.value,
                "k": k,
                "trials": cfg.trials,
                "bound_c": None if zone is None else zone.c,
                "bound_kind": None if zone is None else zone.zone_kind.value,
                # Degenerate when the bound carries no information: a zero-width
                # moderate interval, or an extreme pair covering everything.
                "degenerate_bound": bool(
                    zone is not None and (zone.c <= 0.0 or zone.c >= 0.5 - 1e-9)
                ),
                "violations": int(viol.sum()),
            }
            summaries[f"alpha={alpha:g}/{rule.value}"] = entry
    files = {}
    if held:
        alphas, rules, winners, violations = zip(*held)
        columns = [np.repeat(alphas, cfg.trials), np.repeat(rules, cfg.trials),
                   np.concatenate(winners), np.concatenate(violations)]
        files["beta_sweep.csv"] = (["alpha", "rule", "winner_position", "violation"], columns)
    notes = ["figure-reproduction default is k=30; a k=20 variant appears in some "
             "descriptions of the same sweep"]
    return _finish(cfg, t0, summaries, files, notes, unread=("dist",))


def run_scatter(cfg: ExperimentConfig) -> dict:
    """Per trial, tabulate the same candidate draw under both rules."""
    if set(cfg.rules) != set(Rule):
        raise DomainError("scatter compares both rules; rules must hold plurality and irv")
    t0 = time.monotonic()
    d = cfg.distribution()
    summaries = {}
    files = {}
    for k in cfg.ks:
        results, _ = _elections(cfg, f"scatter/k={k}/{cfg.dist_spec}", d, k, tuple(Rule))
        (wp, tie_p), (wr, tie_r) = results[Rule.PLURALITY], results[Rule.IRV]
        tie = tie_p | tie_r
        ext_p = np.abs(wp - 0.5)
        ext_r = np.abs(wr - 0.5)
        clean = ~tie
        more_moderate = (ext_r < ext_p) & clean
        more_extreme = (ext_r > ext_p) & clean
        summaries[f"k{k}"] = {
            "k": k,
            "trials": cfg.trials,
            "ties": int(tie.sum()),
            "irv_more_moderate": int(more_moderate.sum()),
            "irv_more_extreme": int(more_extreme.sum()),
            "same_winner": int(((wp == wr) & clean).sum()),
        }
        if cfg.out_dir is not None:
            files[f"scatter_k{k}.csv"] = (
                ["plurality_position", "irv_position", "irv_more_moderate", "tie"],
                [wp, wr, more_moderate, tie],
            )
    return _finish(cfg, t0, summaries, files)


# ---------------------------------------------------------------------------
# Verification suite: fast desk-scale checks of every exported claim.
# ---------------------------------------------------------------------------


def _check(name, claim, seed, fn):
    """Run one check; any exception it raises records it as failed."""
    try:
        detail, passed = fn(), True
    except Exception as exc:  # a crashing check is a failed check, not a crash
        detail, passed = f"{type(exc).__name__}: {exc}", False
    return {"name": name, "claim": claim, "seed": seed, "passed": passed, "detail": detail}


def _verify_exact_identities():
    results = {}
    w = np.linspace(0.0, 0.5, 200)
    for rule, var in ((Rule.PLURALITY, (23, 540)), (Rule.IRV, (25, 864))):
        label = rule.value
        dens = exactk3.density_k3(rule)
        require(dens.integral() == 1, f"{label} density does not integrate to 1")
        got = dens.variance_about_half()
        require((got.numerator, got.denominator) == var, f"{label} variance {got}")
        jumps = dens.breakpoint_jumps()
        require(max(abs(j) for j in jumps) <= 1e-12, f"{label} discontinuity {jumps}")
        total = sum(
            np.array([exactk3.order_statistic_win_prob(rule, i, x) for x in w])
            for i in (1, 2, 3)
        )
        err = float(np.max(np.abs(3.0 * total - dens(w))))
        require(err <= 1e-12, f"{label} order-statistic sum mismatch {err}")
        results[label] = {"variance": f"{var[0]}/{var[1]}"}
    return results


def _verify_zone_sweep(seed):
    d = Uniform()
    rng = chunk_rng(seed, "verify/zone-sweep", 0)
    pos = tabulate.sample_sorted_positions(d, 6, 20_000, rng)
    w, _ = tabulate.winners(Rule.IRV, pos, d)
    bad = int(np.count_nonzero(zones.zone_closed_form(d).violations(pos, w)))
    require(bad == 0, f"{bad} winners escaped [1/6, 5/6]")
    return {"trials": 20_000, "violations": bad}


# The oracle samples 200k ballots, so a share is off by about 0.001; a 0.02
# margin between the two lowest shares in every round keeps each elimination
# clear of that noise.
_ORACLE_PROFILES = 30
_ORACLE_MAX_DRAWS = 400
_ORACLE_MARGIN = 0.02


def _elimination_margin(outcome) -> float:
    """Smallest gap between the lowest and second-lowest share over all rounds."""
    lowest_two = (np.sort(r.shares)[:2] for r in outcome.rounds if len(r.shares) > 1)
    return min((float(b - a) for a, b in lowest_two), default=np.inf)


def _verify_oracle_equivalence(seed):
    d = Uniform()
    rng = chunk_rng(seed, "verify/oracle", 0)
    checked = agreed = draws = 0
    while checked < _ORACLE_PROFILES and draws < _ORACLE_MAX_DRAWS:
        draws += 1
        k = int(rng.integers(3, 7))
        prof = tabulate.Profile(np.sort(d.sample(rng, k)))
        cont = tabulate.irv_winner(prof, d)
        if _elimination_margin(cont) < _ORACLE_MARGIN:
            continue
        ballots = tabulate.sample_ballots(prof, d, 200_000, rng)
        disc = tabulate.irv_discrete(
            ballots, positions={i: prof.position(i) for i in range(k)}
        )
        checked += 1
        agreed += int(disc == cont.winner_index)
    require(
        checked == _ORACLE_PROFILES,
        f"only {checked} of {draws} profiles cleared the {_ORACLE_MARGIN} margin",
    )
    require(agreed == checked, f"{agreed}/{checked} agreement")
    return {"checked": checked, "agreed": agreed, "draws": draws}


def _verify_gumbel(seed):
    res = asymptotics.max_gap_experiment(1000, 2000, seed)
    require(res.ks_statistic <= 0.06, f"max-gap KS {res.ks_statistic}")
    res2 = asymptotics.winning_share_experiment(2000, 2000, seed)
    require(res2.ks_statistic <= 0.25, f"winning-share KS {res2.ks_statistic}")
    return {"maxgap_ks": res.ks_statistic, "share_ks": res2.ks_statistic}


def _verify_closed_form_zones():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zu = zones.zone_closed_form(Uniform())
        require(abs(zu.c - 1 / 6) <= 1e-12, f"uniform c {zu.c}")
        z2 = zones.zone_closed_form(SymmetricBeta(2.0))
        # The closed-form c is the supremum; the strict condition holds just
        # inside it and fails just outside.
        inside = zones.check_condition(SymmetricBeta(2.0), z2.c - 1e-6)
        outside = zones.check_condition(SymmetricBeta(2.0), z2.c + 1e-3)
        require(inside.satisfied, "Beta(2,2) condition fails just inside the bound")
        require(not outside.satisfied, "Beta(2,2) bound is not tight")
    return {"uniform_c": zu.c, "beta2_c": z2.c}


def _verify_small_k():
    prof = zones.small_k_counterexample()
    d = Uniform()
    p = tabulate.plurality_winner(prof, d)
    r = tabulate.irv_winner(prof, d)
    require(p.winner_position == 0.5, f"plurality winner {p.winner_position}")
    require(r.winner_position in (0.2, 0.8), f"irv winner {r.winner_position}")
    return {"plurality": p.winner_position, "irv": r.winner_position}


def run_verify(cfg: ExperimentConfig) -> dict:
    """Run the full desk-scale check suite; returns a machine-readable report."""
    t0 = time.monotonic()
    seed = cfg.master_seed
    checks = [
        _check(
            "exact-k3-identities",
            "k=3 winner densities integrate to 1, are continuous, have variances "
            "23/540 (plurality) and 25/864 (IRV), and match 3x the per-order-"
            "statistic win probabilities",
            None,
            _verify_exact_identities,
        ),
        _check(
            "uniform-zone-sweep",
            "uniform voters, k=6: whenever a candidate lies in [1/6, 5/6] the "
            "IRV winner lies in [1/6, 5/6]",
            seed,
            lambda: _verify_zone_sweep(seed),
        ),
        _check(
            "closed-form-zones",
            "closed-form zone boundaries satisfy the vote-share condition "
            "(uniform c=1/6; Beta(2,2))",
            None,
            _verify_closed_form_zones,
        ),
        _check(
            "discrete-oracle",
            "continuous IRV matches discrete IRV on 200k sampled ballots for "
            "all of 30 random profiles whose two lowest shares differ by >= "
            "0.02 in every round",
            seed,
            lambda: _verify_oracle_equivalence(seed),
        ),
        _check(
            "gumbel-limits",
            "max-gap and winning-share statistics are close to the Gumbel law "
            "at desk scale",
            seed,
            lambda: _verify_gumbel(seed),
        ),
        _check(
            "small-k-counterexample",
            "five-candidate profile where IRV elects a strictly more extreme "
            "winner than plurality",
            None,
            _verify_small_k,
        ),
    ]
    passed = all(c["passed"] for c in checks)
    report = {
        "passed": passed,
        "checks": checks,
        "master_seed": seed,
        "duration_seconds": time.monotonic() - t0,
    }
    if cfg.out_dir is not None:
        path = Path(cfg.out_dir) / "verify_report.json"
        _atomic_write(path, [json.dumps(report, indent=2) + "\n"])
        RunManifest({"seed": seed}, duration_seconds=report["duration_seconds"],
                    summaries={"passed": passed}).write(path)
    return report
