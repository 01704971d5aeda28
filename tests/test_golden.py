"""Golden outputs: SHA-256 of the CSVs from small fixed (command, seed) runs.

Each case runs the CLI in-process at --threads 1 and --threads 2 and hashes
every CSV it writes (file names and bytes). The hashes guard refactors and
speedups: a change that alters one must say it changes that random stream.
"""

import hashlib
import math

import pytest

from irvsim import cli

CASES = {
    "simulate-uniform": ["simulate", "--k", "3", "5", "--trials", "5000", "--seed", "7"],
    "simulate-table": ["simulate", "--dist", "table:density.csv", "--k", "4",
                       "--trials", "5000", "--seed", "8"],
    "scatter": ["scatter", "--k", "3", "6", "--trials", "5000", "--seed", "9"],
    "density-irv": ["density", "--rule", "irv", "--points", "101"],
    "density-plurality": ["density", "--rule", "plurality", "--points", "101"],
    "gumbel-share": ["gumbel", "--mode", "share", "--k", "200", "--trials", "300",
                     "--seed", "10"],
    "gumbel-maxgap": ["gumbel", "--mode", "maxgap", "--k", "200", "--trials", "300",
                      "--seed", "11"],
    # Several chunks, so the threads-1/2 comparison covers their interleaving.
    "gumbel-share-chunks": ["gumbel", "--mode", "share", "--k", "100000", "--trials", "100",
                            "--seed", "13"],
    "betasweep": ["betasweep", "--alpha", "0.5", "2", "--k", "8", "--trials", "5000",
                  "--seed", "12"],
    # Extreme-pair zones with c of about 0.19 and 0.33, so the zone check is not
    # trivial (at alpha = 0.5 c is about 0.5).
    "betasweep-polarized": ["betasweep", "--alpha", "0.2", "0.3", "--k", "8",
                            "--trials", "5000", "--seed", "14"],
}

GOLDEN = {
    "simulate-uniform": "aed6bf831bf54cc81586f6c240cff0b37a8fe12dfdbfd05921cd8677c758d0b2",
    # Tabulated.quantile inverts the CDF in closed form (a declared value change:
    # positions within 1 ulp of the old bisection).
    "simulate-table": "45ed0a0afb45d23b802720f49c2f9283a15a38a8e17b78e926020a9828746889",
    "scatter": "acb60e4be3d4d5d1d15af7e2a4e81445eb74b73155c392236c6502d4f639954c",
    "density-irv": "c9201d92257deb4d67c8d3f23a7bb1c554dc1883fc85f2e4c64e5bfa78f7c5e7",
    "density-plurality": "645864707eeb3f6ec2b11ff9dd8bea92f2a2860d8d29dad83ad809a787d38969",
    # Spacings drawn as normalized exponentials on the chunk engine (a declared
    # stream change).
    "gumbel-share": "b55a926e0ab80d017706897edf01cdc7dadcdaa6fd2a6317d306caab6d5536d7",
    "gumbel-maxgap": "d51f80a7e9d8b7f3577d4ea76a7787d89de99d3c50de2be7fa86ea19c44cc5d8",
    "gumbel-share-chunks": "bba07d9fdc6d28d36ae2944d44ad51d26ddcfe071695a9a1498305e78d3237c0",
    # Both rules tabulate one shared draw per alpha (a declared stream change).
    "betasweep": "b19368f3d3a7fad29b1d8300b6bab8cd010218f0c5ece1d38018540647827902",
    "betasweep-polarized": "89dbf5572b28fb61d66d252936c1f7c6681f1381f2a55c8bad56d5b071eb3edc",
}


def _write_density(path, points=201):
    """0.4 + cos^2(2 pi x): symmetric and not monotone on [0, 1/2]."""
    rows = ["x,density"]
    for i in range(points):
        x = i / (points - 1)
        rows.append(f"{x!r},{0.4 + math.cos(2.0 * math.pi * x) ** 2!r}")
    path.write_text("\n".join(rows) + "\n")


def csv_digest(case, threads, work):
    """Run one case in `work` and hash the CSVs it writes, in name order.

    `threads` is None for a command that takes no --threads.
    """
    out = work / "out"
    _write_density(work / "density.csv")
    argv = CASES[case] + ["--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    assert cli.main(argv) == 0
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case, threads", [
    pytest.param(case, threads, id=case if threads is None else f"{case}-{threads}")
    for case in sorted(CASES)
    for threads in ((None,) if CASES[case][0] == "density" else (1, 2))
])
def test_golden_csv(case, threads, tmp_path, monkeypatch, capsys):
    # The table spec is relative, so the RNG tag does not depend on tmp_path.
    monkeypatch.chdir(tmp_path)
    assert csv_digest(case, threads, tmp_path) == GOLDEN[case]
