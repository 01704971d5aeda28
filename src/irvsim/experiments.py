"""Seeded Monte Carlo experiment drivers and reproducible file outputs.

Each driver takes keyword arguments for exactly what it reads, with the trial
count, seed, threads and output directory as one RunSpec. It runs a
deterministic chunked simulation, writes CSV (floats at 17 significant digits,
lossless round-trip) with a sibling JSON manifest per file, and returns a
summary. Trials run on the chunk engine in `chunks`, so outputs are bitwise
identical regardless of worker count.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import stat
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, exactk3, tabulate, zones
# perfbench/tracer.py wraps `experiments._map_chunks` and rebinds the wrapper
# wherever an irvsim module holds the same function object, so this binding
# also gets the asymptotics chunks traced.
from .chunks import chunk_rng, map_chunks as _map_chunks
from .dist import SymmetricBeta, Uniform, parse_dist_spec
from .errors import DomainError, check_int, check_seed, require
from .tabulate import Rule

__all__ = [
    "RunSpec",
    "RunManifest",
    "chunk_rng",
    "write_csv",
    "density_table",
    "run_winner_histograms",
    "run_beta_sweep",
    "run_scatter",
    "run_gumbel",
    "run_density",
    "run_verify",
]


@dataclass(frozen=True)
class RunSpec:
    """A driver run's trial count, master seed, worker threads and output directory."""

    trials: int
    seed: int
    threads: int = 1
    out_dir: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "trials", check_int("trials", self.trials, 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "threads", check_int("threads", self.threads, 1))

    def config(self, config: dict) -> dict:
        """A seeded driver's manifest `config`, then this run's trials, master seed and threads."""
        return {**config, "trials": self.trials, "master_seed": self.seed, "threads": self.threads}


@dataclass
class RunManifest:
    """A run's provenance; the fields are in the order of the JSON keys."""

    config: dict
    version: str = __version__
    # The numpy version: the random streams come from it.
    libraries: dict = field(default_factory=lambda: {"numpy": np.__version__})
    duration_seconds: float = 0.0  # computation only, not serialization
    summaries: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    def write(self, data_path: Path, outputs: _Outputs) -> None:
        """Stage this manifest beside `data_path` in `outputs`."""
        outputs.put(data_path.stem + ".manifest.json",
                    (json.dumps(self.to_json(), indent=2) + "\n").encode())

    @staticmethod
    def read(path: Path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        # "libraries" is absent from manifests written before versions were recorded.
        return RunManifest(**{"libraries": {}, **data})


# Rows per formatted block: few enough that the block's array temporaries stay in
# cache, which made 16,384 rows faster than 65,536.
_CSV_BLOCK_ROWS = 1 << 14

# A cell is a row of a NUL-padded uint8 matrix; NUL bytes are dropped on output.
# Digits come from 4-digit ASCII words held as uint32, indexed w + _WORD * variant:
# variant 0 is full, 1 blanks trailing zeros and 2 blanks leading zeros.
_WORD = 10_000


@functools.cache
def _digit_tables():
    """The words of 0..9999 in their three variants, and the 8-byte float heads
    "0." + zeros + first digit, indexed 10 * decade + digit. Both are filled
    from bytes, so they hold the same bytes in either byte order."""
    d = np.arange(_WORD)[:, None] // np.array([1000, 100, 10, 1]) % 10
    full = (d + ord("0")).astype(np.uint8)
    nonzero = d != 0
    trailing = np.flip(np.logical_or.accumulate(np.flip(nonzero, 1), axis=1), 1)
    leading = np.logical_or.accumulate(nonzero, axis=1)
    words = np.concatenate([full, full * trailing, full * leading]).view(np.uint32).ravel()
    heads = b"".join(f"0.{'0' * (3 - e)}{digit}".encode().ljust(8, b"\0")
                     for e in range(4) for digit in range(10))
    return words, np.frombuffer(heads, np.uint64)


def _put_rows(cells, rows, texts):
    """`cells` with `rows` replaced by the NUL-padded bytes of `texts`, widened to fit."""
    raw = [t.encode() for t in texts]
    width = max([cells.shape[1], *map(len, raw)])
    text = np.array(raw, dtype=f"S{width}").view(np.uint8).reshape(len(raw), width)
    require(np.count_nonzero(text) == sum(map(len, raw)), "a CSV cell holds a NUL byte")
    if width > cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
    cells[rows] = text
    return cells


# Veltkamp's constant splits a double into two halves whose products are exact.
_SPLIT = 2.0 ** 27 + 1
# 10**(20 - e) for the decade e of [1e-4, 1e-3) .. [0.1, 1): exact doubles, split.
_SCALE = np.array([1e20, 1e19, 1e18, 1e17])
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _float_cells(x):
    """format(v, ".17g") of each float, with array operations for v in [1e-4, 1).

    There the text is "0.", 3 - e zeros and the 17-digit integer
    round(v * 10**(20 - e)), trailing zeros dropped. The decade e counts the
    constants 1e-3, 1e-2, 1e-1 at or below v; each of these doubles lies just
    above its power of ten, so the comparisons are exact. Dekker's two-product gives the
    scaled v exactly as hi + lo; hi >= 1e16 > 2**53 is an even integer, so
    rounding lo half to even rounds the sum as CPython does. Every other
    value, and any 17-digit integer that reaches 10**17, is formatted alone.
    """
    x = x.astype(np.float64, copy=False)
    fast = (x >= 1e-4) & (x < 1.0)
    xs = np.where(fast, x, 0.5)
    e = sum(xs >= p for p in (1e-3, 1e-2, 1e-1))
    hi = xs * _SCALE[e]
    t = _SPLIT * xs
    x_hi = t - (t - xs)
    x_lo = xs - x_hi
    s_hi, s_lo = _SCALE_HI[e], _SCALE_LO[e]
    lo = ((x_hi * s_hi - hi) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= n < 10 ** 17
    words, heads = _digit_tables()
    cells = np.empty((x.size, 24), np.uint8)
    zero_after = np.ones(x.size, dtype=bool)
    for col in (5, 4, 3, 2):  # the 4 low words, last first
        q = n // _WORD
        w = n - q * _WORD
        cells.view(np.uint32)[:, col] = words[w + _WORD * zero_after]
        zero_after &= w == 0
        n = q
    cells.view(np.uint64)[:, 0] = heads[10 * e + n]
    slow = np.flatnonzero(~fast)
    return _put_rows(cells, slow, [format(v, ".17g") for v in x[slow].tolist()])


def _int_cells(v):
    """format(i) of each int, with array operations for 0 <= i < 2**63."""
    slow = (v < 0) | (v > 2 ** 63 - 1)
    u = np.where(slow, 0, v).astype(np.int64)
    width = 4 * -(-len(str(u.max())) // 4)
    words, _ = _digit_tables()
    cells = np.empty((v.size, width), np.uint8)
    for col in range(width // 4 - 1, -1, -1):  # last word first; q == 0 marks the leading word
        q = u // _WORD
        cells.view(np.uint32)[:, col] = words[u - q * _WORD + 2 * _WORD * (q == 0)]
        u = q
    cells[v == 0, -1] = ord("0")
    slow = np.flatnonzero(slow)
    return _put_rows(cells, slow, [format(i) for i in v[slow].tolist()])


def _cells(column):
    """One column's CSV text: floats to 17 significant digits, the rest by format()."""
    if column.dtype.kind == "f":
        return _float_cells(column)
    if column.dtype.kind in "iu":
        return _int_cells(column)
    return _put_rows(np.zeros((len(column), 1), np.uint8), slice(None),
                     [format(v) for v in column.tolist()])


def _block(column, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of a column as an array; a range is made one block at a time."""
    if isinstance(column, range):
        rows = column[start:stop]
        return np.arange(rows.start, rows.stop, rows.step)
    block = column[start:stop]
    return block.view(np.int8) if block.dtype.kind == "b" else block


def _csv_blocks(columns):
    """The CSV text of equal-length columns, one block of rows at a time."""
    n = len(columns[0])
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n)
        parts = []
        for c in columns:
            parts += [_cells(_block(c, start, stop)), np.full((stop - start, 1), ord(","), np.uint8)]
        parts[-1] = np.full((stop - start, 1), ord("\n"), np.uint8)
        # translate drops the NUL padding in one pass, faster than a boolean mask.
        yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


class _Outputs:
    """The package's one writer: a run's files are staged as <name>.tmp and
    published together.

    `append` streams a CSV's rows as they become final, so a driver holds one
    output's columns at a time, and `put` stages bytes. `commit(manifest)`
    stages each staged file's manifest, then renames every tmp file over its
    name, and refuses before the first rename if a directory holds one of the
    names. Leaving the `with` block without a commit, as a raising run does,
    removes the tmp files, so a failed run leaves none of its files. Made with an
    `out_dir`, it raises OSError, creating nothing, unless that or its nearest existing
    ancestor is a directory (only "not found" walks up), so a run fails before any work.
    The directory is created with the first file; with none, nothing is written.
    `elapsed()`, the time since it was made less the time writing rows, is a run's duration.
    """

    def __init__(self, out_dir):
        path = self.out_dir = None if out_dir is None else Path(out_dir)
        while path is not None:
            try:
                if not stat.S_ISDIR(os.stat(path).st_mode):
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out_dir))
                path = None
            except FileNotFoundError:
                if path.parent == path:
                    raise
                path = path.parent
        self.t0 = time.monotonic()
        self.seconds = 0.0
        self._open = {}  # name -> file object of <name>.tmp

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for name, fh in self._open.items():
            fh.close()
            self._tmp(name).unlink(missing_ok=True)
        self._open.clear()

    def _tmp(self, name: str) -> Path:
        return self.out_dir / (name + ".tmp")

    def put(self, name: str, data: bytes) -> None:
        """Write the bytes `data` to staged file `name`, staging it if it is new."""
        if self.out_dir is None:
            return
        if name not in self._open:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._open[name] = open(self._tmp(name), "wb")
        self._open[name].write(data)

    def append(self, name: str, header, columns) -> None:
        """Append equal-length columns, formatted as write_csv says, as rows of
        `name`, writing `header` first."""
        if self.out_dir is None:
            return
        t0 = time.monotonic()
        columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
        lengths = [len(c) for c in columns]
        require(
            len(header) == len(columns) and len(set(lengths)) == 1,
            f"{name}: {len(header)} names for columns of lengths {lengths}",
        )
        if name not in self._open:
            self.put(name, (",".join(header) + "\n").encode())
        self._open[name].writelines(_csv_blocks(columns))
        self.seconds += time.monotonic() - t0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0 - self.seconds

    def commit(self, manifest: RunManifest) -> None:
        """Stage `manifest` beside each staged file, then publish them all, the
        manifests last; IsADirectoryError, before any is published, if a
        directory holds one of their names."""
        for name in list(self._open):
            manifest.write(self.out_dir / name, self)
        for name, fh in self._open.items():
            fh.close()
            if (self.out_dir / name).is_dir():
                raise IsADirectoryError(f"{self.out_dir / name} is a directory")
        for name in self._open:
            os.replace(self._tmp(name), self.out_dir / name)
        self._open.clear()


def write_csv(path: Path, header, columns, manifest: RunManifest) -> Path:
    """Publish equal-length columns as one CSV with its manifest; returns the CSV path.

    Float columns (dtype kind "f") get 17 significant digits, bool columns 0/1 and every
    other column format(); a range column is formatted a block at a time, never built whole.
    """
    path = Path(path)
    with _Outputs(path.parent) as files:
        files.append(path.name, header, columns)
        files.commit(manifest)
    return path


def _finish(files: _Outputs, duration: float, config: dict, summaries: dict, notes=()) -> dict:
    """Build the run's manifest, the only place one is made, and commit `files` with it."""
    manifest = RunManifest(config, duration_seconds=duration, summaries=summaries,
                           notes=list(notes))
    files.commit(manifest)
    return {"summaries": summaries, "manifest": manifest}


def _require_distinct(name: str, values, key) -> None:
    """Raise DomainError when `values` is empty, which would run nothing, or when two
    share a summary key, so one would hide the other."""
    if len(values) == 0:
        raise DomainError(f"{name} list must be nonempty")
    seen = {}
    for value in values:
        label = key(value)
        if label in seen:
            raise DomainError(f"{name} {seen[label]!r} and {value!r} share the summary key "
                              f"{label!r}")
        seen[label] = value


def _check_ks(ks) -> None:
    for k in ks:
        check_int("k", k, 1)
    _require_distinct("k", ks, "k{}".format)


def _elections(run: RunSpec, experiment_id: str, d, k: int, rules, zone=None):
    """The election kernel: per chunk, sample sorted positions once and tabulate every rule.

    Returns ({rule: (winners, ties)}, violations). `violations` flags the
    trials where the IRV winner breaks `zone`; it is None without a zone or
    without IRV among `rules`. Each chunk fills its own rows of the arrays.
    """
    check = zone is not None and Rule.IRV in rules
    results = {rule: (np.empty(run.trials), np.empty(run.trials, dtype=bool)) for rule in rules}
    violations = np.empty(run.trials, dtype=bool) if check else None

    def one(rows, rng):
        pos = tabulate.sample_sorted_positions(d, k, rows.stop - rows.start, rng)
        # The rules share their first-round cuts; evaluate F there once.
        mid_cdf = tabulate.midpoint_cdf(pos, d) if len(rules) > 1 else None
        for rule, (winners, ties) in results.items():
            winners[rows], ties[rows] = tabulate.winners(rule, pos, d, mid_cdf)
        if check:
            violations[rows] = zone.violations(pos, results[Rule.IRV][0][rows])

    _map_chunks(one, run.seed, experiment_id, run.trials, run.threads)
    return results, violations


def density_table(rule: Rule, points: int = 1001):
    """The exact k = 3 winner density of `rule` at `points` evenly spaced x in
    [0, 1], as the file name, header and columns of its CSV."""
    grid = np.linspace(0.0, 1.0, points)
    return (f"exact_density_{rule.value}_k3.csv", ["x", "density"],
            [grid, exactk3.density_k3(rule)(grid)])


def run_winner_histograms(ks, *, rules, dist: str, run: RunSpec) -> dict:
    """Winner positions per (rule, k) for voters drawn from the `dist` spec, every rule
    on the same draws per k; for k = 3 and uniform voters, the exact density overlay too."""
    _check_ks(ks)
    _require_distinct("rule", rules, lambda rule: rule.value)
    d = parse_dist_spec(dist)
    # Summary keys in rule, then k, order, though the runs go k by k.
    summaries = dict.fromkeys(f"{rule.value}_k{k}" for rule in rules for k in ks)
    uniform = isinstance(d, Uniform)
    with _Outputs(run.out_dir) as files:
        for k in ks:
            # scatter's stream: for the same (k, dist, seed) both draw the same profiles.
            results, _ = _elections(run, f"scatter/k={k}/{d.spec()}", d, k, rules)
            for rule in rules:
                winners, ties = results.pop(rule)  # dropped once its outputs are written
                entry = summaries[f"{rule.value}_k{k}"] = {
                    "rule": rule.value,
                    "k": k,
                    "trials": run.trials,
                    "ties": int(ties.sum()),
                    "mean": float(winners.mean()),
                    "var_about_half": float(np.mean((winners - 0.5) ** 2)),
                }
                files.append(f"winners_{rule.value}_k{k}.csv", ["trial", "winner_position", "tie"],
                             [range(run.trials), winners, ties])
                if k == 3 and uniform:
                    exact = exactk3.density_k3(rule).antiderivative()
                    entry["ks_vs_exact"] = asymptotics.ks_statistic(winners, exact)
                    files.append(*density_table(rule))
        config = {"rules": [r.value for r in rules], "dist": dist, "ks": list(ks)}
        return _finish(files, files.elapsed(), run.config(config), summaries)


def run_beta_sweep(alphas, k: int, *, run: RunSpec) -> dict:
    """Both rules across Beta(alpha, alpha) voters, with closed-form zone flags.

    Per alpha, both rules tabulate the same candidate draws, so the rules
    are compared on paired profiles. A Beta(alpha, alpha) density is monotone
    on [0, 1/2], so every alpha has a closed-form zone.
    """
    _require_distinct("alpha", alphas, "alpha={:g}".format)
    _check_ks([k])
    voters = [SymmetricBeta(alpha) for alpha in alphas]  # a bad alpha fails before any run
    rules = tuple(Rule)
    summaries = {}
    no_viol = np.broadcast_to(False, run.trials)
    with _Outputs(run.out_dir) as files:
        for alpha, d in zip(alphas, voters):
            zone = zones.zone_closed_form(d)
            exp_id = f"betasweep/alpha={alpha:g}/k={k}"
            results, irv_viol = _elections(run, exp_id, d, k, rules, zone)
            for rule in rules:
                winners, _ = results[rule]
                viol = irv_viol if rule is Rule.IRV else no_viol
                # The alpha and rule columns are constant: read-only broadcasts, not copies.
                files.append("beta_sweep.csv", ["alpha", "rule", "winner_position", "violation"],
                             [np.broadcast_to(float(alpha), run.trials),
                              np.broadcast_to(np.array(rule.value), run.trials), winners, viol])
                entry = {
                    "alpha": alpha,
                    "rule": rule.value,
                    "k": k,
                    "trials": run.trials,
                    "bound_c": zone.c,
                    "bound_kind": zone.zone_kind.value,
                    "degenerate_bound": zone.degenerate,
                    "violations": int(viol.sum()),
                }
                summaries[f"alpha={alpha:g}/{rule.value}"] = entry
        notes = ["figure-reproduction default is k=30; a k=20 variant appears in some "
                 "descriptions of the same sweep"]
        config = {"rules": [r.value for r in rules], "ks": [k], "alphas": list(alphas)}
        return _finish(files, files.elapsed(), run.config(config), summaries, notes)


def run_scatter(ks, *, dist: str, run: RunSpec) -> dict:
    """Per trial, tabulate the same candidate draw under both rules."""
    _check_ks(ks)
    d = parse_dist_spec(dist)
    summaries = {}
    with _Outputs(run.out_dir) as files:
        for k in ks:
            results, _ = _elections(run, f"scatter/k={k}/{d.spec()}", d, k, tuple(Rule))
            (wp, tie_p), (wr, tie_r) = results[Rule.PLURALITY], results[Rule.IRV]
            tie = tie_p | tie_r
            ext_p = np.abs(wp - 0.5)
            ext_r = np.abs(wr - 0.5)
            clean = ~tie
            more_moderate = (ext_r < ext_p) & clean
            more_extreme = (ext_r > ext_p) & clean
            summaries[f"k{k}"] = {
                "k": k,
                "trials": run.trials,
                "ties": int(tie.sum()),
                "irv_more_moderate": int(more_moderate.sum()),
                "irv_more_extreme": int(more_extreme.sum()),
                "same_winner": int(((wp == wr) & clean).sum()),
            }
            files.append(f"scatter_k{k}.csv",
                         ["plurality_position", "irv_position", "irv_more_moderate", "tie"],
                         [wp, wr, more_moderate, tie])
        config = {"rules": [r.value for r in Rule], "dist": dist, "ks": list(ks)}
        return _finish(files, files.elapsed(), run.config(config), summaries)


def run_gumbel(mode: str, k: int, *, run: RunSpec) -> dict:
    """Stick-breaking experiment `mode` at k, each trial's statistic in gumbel_{mode}_k{k}.csv."""
    try:  # looked up at each call: the benchmark's tracer rebinds asymptotics' functions
        experiment, column = {"share": (asymptotics.winning_share_experiment, "statistic"),
                              "maxgap": (asymptotics.max_gap_experiment, "statistic"),
                              "circle": (asymptotics.circle_coupling_experiment, "differs")}[mode]
    except KeyError:
        raise DomainError(f"unknown gumbel mode {mode!r}") from None
    with _Outputs(run.out_dir) as files:
        res = experiment(k, run.trials, run.seed, run.threads)
        files.append(f"gumbel_{mode}_k{k}.csv", ["trial", column],
                     [range(run.trials), res.statistics])
        return _finish(files, files.elapsed(), run.config({"mode": mode, "k": k}), res.summary())


def run_density(rule: Rule, points: int = 1001, out_dir: Path | None = None) -> dict:
    """The exact k = 3 winner density of `rule` at `points` grid points, written as
    density_table names it; the result adds its columns ("table") and CSV path ("path")."""
    check_int("points", points, 2)
    with _Outputs(out_dir) as files:
        name, header, columns = density_table(rule, points)
        files.append(name, header, columns)
        res = _finish(files, files.elapsed(), {"rule": rule.value, "points": points}, {})
    return {**res, "table": {h: c.tolist() for h, c in zip(header, columns)},
            "path": None if out_dir is None else Path(out_dir) / name}


# ---------------------------------------------------------------------------
# Verification suite: fast desk-scale checks of every exported claim.
# ---------------------------------------------------------------------------


def _check(name, claim, seed, fn):
    """Run one check and time it; any exception it raises records it as failed."""
    t0 = time.monotonic()
    try:
        detail, passed = fn(), True
    except Exception as exc:  # a crashing check is a failed check, not a crash
        detail, passed = f"{type(exc).__name__}: {exc}", False
    return {"name": name, "claim": claim, "seed": seed, "passed": passed, "detail": detail,
            "seconds": time.monotonic() - t0}


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
        total = sum(exactk3.order_statistic_win_prob(rule, i, w) for i in (1, 2, 3))
        err = float(np.max(np.abs(3.0 * total - dens(w))))
        require(err <= 1e-12, f"{label} order-statistic sum mismatch {err}")
        results[label] = {"variance": f"{var[0]}/{var[1]}"}
    return results


def _verify_zone_sweep(seed, d, experiment_id: str, trials: int):
    """IRV at k = 6 on `trials` profiles from `d` never breaks its closed-form zone."""
    zone = zones.zone_closed_form(d)
    _, violations = _elections(RunSpec(trials, seed), experiment_id, d, 6, (Rule.IRV,), zone)
    bad = int(np.count_nonzero(violations))
    require(bad == 0, f"{bad} winners escaped the {zone.zone_kind.value} zone, c = {zone.c:.6g}")
    return {"trials": trials, "violations": bad}


_ORACLE_PROFILES = 30


def _verify_oracle_equivalence(seed):
    """Continuous IRV elects the discrete IRV winner of each ranking's exact mass."""
    d = Uniform()
    rng = chunk_rng(seed, "verify/oracle", 0)
    agreed = 0
    for _ in range(_ORACLE_PROFILES):
        prof = tabulate.Profile(np.sort(d.sample(rng, int(rng.integers(3, 7)))))
        disc = tabulate.irv_discrete(tabulate.ballot_masses(prof, d))
        agreed += int(disc == tabulate.irv_winner(prof, d).winner_index)
    require(agreed == _ORACLE_PROFILES, f"{agreed}/{_ORACLE_PROFILES} agreement")
    return {"checked": _ORACLE_PROFILES, "agreed": agreed}


def _verify_gumbel(seed):
    res = asymptotics.max_gap_experiment(1000, 2000, seed)
    require(res.ks_statistic <= 0.06, f"max-gap KS {res.ks_statistic}")
    res2 = asymptotics.winning_share_experiment(2000, 2000, seed)
    require(res2.ks_statistic <= 0.25, f"winning-share KS {res2.ks_statistic}")
    return {"maxgap_ks": res.ks_statistic, "share_ks": res2.ks_statistic}


def _verify_closed_form_zones():
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


def run_verify(seed: int, out_dir: Path | None = None) -> dict:
    """Run the full desk-scale check suite; returns a machine-readable report.

    Given `out_dir`, it writes the report there with a manifest that records `master_seed`.
    A negative seed, or an `out_dir` that cannot be a directory, raises before any check runs.
    """
    check_seed(seed)
    with _Outputs(out_dir) as files:
        checks = [_check(*check) for check in (
            ("exact-k3-identities",
             "k=3 winner densities integrate to 1, are continuous, have variances "
             "23/540 (plurality) and 25/864 (IRV), and match 3x the per-order-"
             "statistic win probabilities",
             None, _verify_exact_identities),
            ("uniform-zone-sweep",
             "uniform voters, k=6: whenever a candidate lies in [1/6, 5/6] the "
             "IRV winner lies in [1/6, 5/6]",
             seed, lambda: _verify_zone_sweep(seed, Uniform(), "verify/zone-sweep", 20_000)),
            ("hyper-polarized-zone-sweep",
             "Beta(0.3, 0.3) voters, k=6: whenever both [0, c] and [1-c, 1] hold a "
             "candidate (c = 2F^-1(1/3)) the IRV winner lies in one of them",
             seed, lambda: _verify_zone_sweep(seed, SymmetricBeta(0.3),
                                              "verify/hyper-polarized-zone-sweep", 5_000)),
            ("closed-form-zones",
             "closed-form zone boundaries satisfy the vote-share condition "
             "(uniform c=1/6; Beta(2,2))",
             None, _verify_closed_form_zones),
            ("discrete-oracle",
             "continuous IRV matches discrete IRV on the exact voter mass of "
             "each ranking for all of 30 random profiles",
             seed, lambda: _verify_oracle_equivalence(seed)),
            ("gumbel-limits",
             "max-gap and winning-share statistics are close to the Gumbel law "
             "at desk scale",
             seed, lambda: _verify_gumbel(seed)),
            ("small-k-counterexample",
             "five-candidate profile where IRV elects a strictly more extreme "
             "winner than plurality",
             None, _verify_small_k),
        )]
        passed = all(c["passed"] for c in checks)
        report = {
            "passed": passed,
            "checks": checks,
            "master_seed": seed,
            "duration_seconds": files.elapsed(),
        }
        files.put("verify_report.json", (json.dumps(report, indent=2) + "\n").encode())
        _finish(files, report["duration_seconds"], {"master_seed": seed}, {"passed": passed})
    return report
