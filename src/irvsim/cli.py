"""Command-line interface.

Subcommands: simulate, density, zone, gumbel, scatter, betasweep, verify.
Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from pathlib import Path

# When numpy loads, its bundled OpenBLAS starts a pool of worker threads that
# spin for about 0.14 s of CPU, and irvsim's only BLAS call is one 9 x 9 solve
# per Beta table. So a CLI process pins the pool to one thread before numpy
# loads; a value the user set wins, but an empty one counts as unset, as
# OpenBLAS reads it. The package __init__ loads no numpy, so this runs first;
# library code that imports irvsim keeps its own setting.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import experiments, zones  # noqa: E402
from .dist import parse_dist_spec  # noqa: E402
from .errors import IrvsimError  # noqa: E402
# write_csv is unused here; the benchmark's tracer needs this binding while it wraps write_csv.
from .experiments import RunSpec, write_csv  # noqa: E402, F401
from .tabulate import Rule  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(lo: int):
    """argparse type: an int >= lo."""

    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_COMMON = {
    "--seed": dict(type=_int_at_least(0), default=0, help="master seed"),
    "--threads": dict(type=_int_at_least(1), default=1, help="results do not depend on it"),
    "--out": dict(type=Path, default=None, help="output directory"),
}


def _subcommand(sub, name: str, handler, help: str, *flags):
    """Add subcommand `name`, run by `handler`, with the common `flags` it reads and no others."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="irvsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _subcommand(sub, "simulate", _cmd_simulate, "winner-position histograms per rule and k",
                    "--seed", "--threads", "--out")
    p.add_argument("--rule", choices=("plurality", "irv", "both"), default="both")
    p.add_argument("--k", type=int, nargs="+", default=[3])
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--dist", default="uniform")

    p = _subcommand(sub, "density", _cmd_density, "exact k=3 winner densities on a grid", "--out")
    p.add_argument("--rule", choices=("plurality", "irv"), default="irv")
    p.add_argument("--points", type=_int_at_least(2), default=1001)

    p = _subcommand(sub, "zone", _cmd_zone, "exclusion zone for a voter distribution")
    p.add_argument("--dist", default="uniform")
    p.add_argument(
        "--numeric", action="store_true", help="numeric search instead of closed form"
    )

    p = _subcommand(sub, "gumbel", _cmd_gumbel, "asymptotic-law experiments",
                    "--seed", "--threads", "--out")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--mode", choices=("share", "maxgap", "circle"), default="share")

    p = _subcommand(sub, "scatter", _cmd_scatter, "plurality vs IRV winners on shared draws",
                    "--seed", "--threads", "--out")
    p.add_argument("--k", type=int, nargs="+", default=[3])
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--dist", default="uniform")

    p = _subcommand(sub, "betasweep", _cmd_betasweep, "Beta(alpha, alpha) sweep with zone bounds",
                    "--seed", "--threads", "--out")
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--trials", type=int, default=100_000)

    _subcommand(sub, "verify", _cmd_verify, "run the full verification suite", "--seed", "--out")

    return parser


def _emit(payload, code: int = EXIT_OK) -> int:
    """Print a result, a path as text and the rest as JSON; returns the exit `code`."""
    print(payload if isinstance(payload, Path) else json.dumps(payload, indent=2, default=str))
    return code


def _cmd_simulate(args) -> int:
    run = RunSpec(args.trials, args.seed, args.threads, args.out)
    rules = tuple(Rule) if args.rule == "both" else (Rule(args.rule),)
    res = experiments.run_winner_histograms(args.k, rules=rules, dist=args.dist, run=run)
    return _emit(res["summaries"])


def _cmd_density(args) -> int:
    res = experiments.run_density(Rule(args.rule), args.points, args.out)
    return _emit(res["table"] if args.out is None else res["path"])


def _cmd_zone(args) -> int:
    d = parse_dist_spec(args.dist)
    zone = zones.min_zone_numeric(d) if args.numeric else zones.zone_closed_form(d)
    return _emit(zone.to_json())


def _cmd_gumbel(args) -> int:
    run = RunSpec(args.trials, args.seed, args.threads, args.out)
    return _emit(experiments.run_gumbel(args.mode, args.k, run=run)["summaries"])


def _cmd_scatter(args) -> int:
    run = RunSpec(args.trials, args.seed, args.threads, args.out)
    return _emit(experiments.run_scatter(args.k, dist=args.dist, run=run)["summaries"])


def _cmd_betasweep(args) -> int:
    run = RunSpec(args.trials, args.seed, args.threads, args.out)
    return _emit(experiments.run_beta_sweep(args.alpha, args.k, run=run)["summaries"])


def _cmd_verify(args) -> int:
    report = experiments.run_verify(args.seed, args.out)
    return _emit(report, EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL)


def _check_out(out: Path) -> None:
    """Raise OSError unless `out` or its nearest existing ancestor is a
    directory, so a run that could not write there fails before any work.
    Creates nothing."""
    path = out
    while True:
        try:
            if not stat.S_ISDIR(os.stat(path).st_mode):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
            return
        except FileNotFoundError:
            if path.parent == path:
                raise
            path = path.parent


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.handler(args)
    except (IrvsimError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"irvsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
