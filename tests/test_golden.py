"""Golden outputs: SHA-256 of the CSVs from small fixed (command, seed) runs.

Each case runs the CLI in-process at --threads 1 and --threads 2 and hashes
every CSV it writes (file names and bytes). The hashes guard refactors and
speedups: a change that alters one must say it changes that random stream.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irvsim import asymptotics, cli, experiments

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
    "gumbel-circle": ["gumbel", "--mode", "circle", "--k", "200", "--trials", "300",
                      "--seed", "15"],
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
    # Every rule tabulates one draw per k, on scatter's stream (a declared
    # stream change; it was
    # aed6bf831bf54cc81586f6c240cff0b37a8fe12dfdbfd05921cd8677c758d0b2).
    "simulate-uniform": "a71c969a355d3d4fed7e632c22c02cace38e7e5532dc878ca56822c7c87aadfc",
    # Experiment ids name a table by the digest of its grid and density, not by
    # its path, and every rule tabulates one draw per k, on scatter's stream
    # (two declared stream changes; it was
    # 45ed0a0afb45d23b802720f49c2f9283a15a38a8e17b78e926020a9828746889, then
    # b9ce734c29eff5f9b981e5922324006c4c55290028437254456277c60084816c).
    "simulate-table": "d3ada9d062bf6e4f8e085c8cedf7558d21dfa1befd1920bb1bce627fcf53f8b6",
    "scatter": "acb60e4be3d4d5d1d15af7e2a4e81445eb74b73155c392236c6502d4f639954c",
    "density-irv": "c9201d92257deb4d67c8d3f23a7bb1c554dc1883fc85f2e4c64e5bfa78f7c5e7",
    "density-plurality": "645864707eeb3f6ec2b11ff9dd8bea92f2a2860d8d29dad83ad809a787d38969",
    # Spacings drawn as normalized exponentials on the chunk engine (a declared
    # stream change).
    "gumbel-share": "b55a926e0ab80d017706897edf01cdc7dadcdaa6fd2a6317d306caab6d5536d7",
    "gumbel-maxgap": "d51f80a7e9d8b7f3577d4ea76a7787d89de99d3c50de2be7fa86ea19c44cc5d8",
    # The per-trial flags; 25 of the 300 differ.
    "gumbel-circle": "54a5d738b12d63d9c35ba5bff73143af798f13050038306581db897c152ce59b",
    "gumbel-share-chunks": "bba07d9fdc6d28d36ae2944d44ad51d26ddcfe071695a9a1498305e78d3237c0",
    # Both rules tabulate one shared draw per alpha, and Beta(alpha, alpha)
    # candidates come from numpy's rng.beta instead of inverting betainc (two
    # declared stream changes).
    "betasweep": "1cf2cc395e08e7366b5aab7f42fa8f93206414cef85f75f160f3ab545101ee39",
    # The extreme-pair claim binds only when both [0, c] and [1 - c, 1] hold a
    # candidate (a declared value change: the violation column's 202 and 105
    # IRV flags at alpha = 0.2 and 0.3 fell to 0; positions are unchanged).
    "betasweep-polarized": "7bb9f1186e82b138e2c6538362a1ef9d1637b04590461e217e10d548237a301e",
}


# The hashes depend on numpy's Generator streams, which numpy does not promise
# to keep across releases; they were recorded under this one.
RECORDED_NUMPY = "2.4.6"


def assert_golden(case, digest):
    """Fail unless `digest` is the golden hash of `case`, naming the numpy
    release the hashes were recorded under next to the running one."""
    assert digest == GOLDEN[case], (
        f"{case}: CSV hash {digest} is not the golden {GOLDEN[case]}; the goldens were "
        f"recorded under numpy {RECORDED_NUMPY} and this run uses numpy {np.__version__}")


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
    monkeypatch.chdir(tmp_path)
    assert_golden(case, csv_digest(case, threads, tmp_path))


@pytest.mark.parametrize("case", ["simulate-uniform", "betasweep"])
@pytest.mark.parametrize("threads", [1, 2])
def test_golden_csv_across_block_seams(case, threads, tmp_path, monkeypatch, capsys):
    # Every golden CSV fits in one block; an odd block size puts seams inside them.
    monkeypatch.setattr(experiments, "_CSV_BLOCK_ROWS", 777)
    monkeypatch.chdir(tmp_path)
    assert_golden(case, csv_digest(case, threads, tmp_path))


@pytest.mark.parametrize("case", ["gumbel-share", "gumbel-maxgap", "gumbel-circle",
                                  "gumbel-share-chunks"])
@pytest.mark.parametrize("threads", [1, 2])
def test_golden_gumbel_across_spacing_blocks(case, threads, tmp_path, monkeypatch, capsys):
    # Blocks of 4 or 5 rows at k = 200 and of one row at k = 1e5 put seams inside every chunk.
    monkeypatch.setattr(asymptotics, "_BLOCK_DRAWS", 1000)
    monkeypatch.chdir(tmp_path)
    assert_golden(case, csv_digest(case, threads, tmp_path))


def test_golden_mismatch_names_both_numpy_versions():
    with pytest.raises(AssertionError) as failure:
        assert_golden("scatter", "0" * 64)
    message = str(failure.value)
    assert f"numpy {RECORDED_NUMPY}" in message and f"numpy {np.__version__}" in message


@pytest.mark.parametrize("command", ["simulate", "scatter"])
def test_table_streams_do_not_depend_on_its_path(command, tmp_path, monkeypatch, capsys):
    _write_density(tmp_path / "density.csv")
    monkeypatch.chdir(tmp_path)
    written = []
    for i, path in enumerate(["density.csv", "./density.csv", str(tmp_path / "density.csv")]):
        out = tmp_path / f"out{i}"
        argv = [command, "--dist", f"table:{path}", "--k", "4", "--trials", "500",
                "--seed", "8", "--out", str(out)]
        assert cli.main(argv) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert written[0] and written[0] == written[1] == written[2]


# Run in a fresh interpreter as `-c _ON_BASELINE golden_file basetemp target...`: it fails
# if numpy kept a target the environment disabled, then runs the golden file's cases.
_ON_BASELINE = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
golden, basetemp, *targets = sys.argv[1:]
kept = [t for t in targets if __cpu_features__[t]]
assert not kept, f"NPY_DISABLE_CPU_FEATURES left {kept} enabled"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--basetemp", basetemp,
                      "-k", "not baseline_simd", golden]))
"""


def test_goldens_hold_on_the_baseline_simd_target(tmp_path):
    # numpy picks a SIMD kernel per host; the hashes must not depend on which.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    if not targets:
        pytest.skip("no SIMD target above numpy's baseline is enabled on this host")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _ON_BASELINE, __file__, str(tmp_path / "base"), *targets]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
