import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irvsim
from irvsim import cli, experiments
from irvsim.errors import CheckFailed, DomainError
from irvsim.experiments import (
    ExperimentConfig,
    RunManifest,
    chunk_rng,
    run_beta_sweep,
    run_scatter,
    run_verify,
    run_winner_histograms,
    write_csv,
)
from irvsim.tabulate import Rule


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(trials=0)
    with pytest.raises(DomainError):
        ExperimentConfig(ks=(0,))
    with pytest.raises(DomainError):
        ExperimentConfig(dist_spec="nope")


def test_chunk_rng_deterministic_and_distinct():
    a = chunk_rng(1, "exp", 0).random(5)
    b = chunk_rng(1, "exp", 0).random(5)
    c = chunk_rng(1, "exp", 1).random(5)
    d = chunk_rng(1, "other", 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    value = 0.1234567890123456789
    manifest = RunManifest({"case": "round-trip"})
    assert write_csv(path, ["i", "x"], [np.arange(2), np.array([value, 0.5])], manifest) == path
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i,x"
    assert float(lines[1].split(",")[1]) == value  # 17 sig digits round-trip
    saved = RunManifest.read(tmp_path / "out.manifest.json")
    assert saved.config == {"case": "round-trip"}
    assert saved.version == irvsim.__version__  # also from a source checkout


def _reference_csv(header, rows):
    """The per-value row writer write_csv replaced, kept as its reference."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_write_csv_matches_reference_writer(tmp_path, monkeypatch):
    floats = np.array([0.1, 1 / 3, -0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 2.5])
    ints = np.array([0, -1, 7, 2**31, -(2**40), 2**62, 2**62 - 1, 12345678901, 3])
    bools = np.array([True, False, True, True, False, False, True, False, True])
    strings = np.array(["plurality", "irv", "irv", "a", "", "b", "c", "d", "e"])
    header = ["f", "i", "b", "s"]
    # The drivers passed bools as int(t): "{}" alone would print True.
    rows = [(f, i, int(b), s) for f, i, b, s in zip(floats, ints, bools, strings)]
    expected = _reference_csv(header, rows)
    # A block size that splits the rows checks the seams between blocks.
    for block in (2, 1 << 16):
        monkeypatch.setattr(experiments, "_CSV_BLOCK_ROWS", block)
        path = write_csv(tmp_path / "ref.csv", header, [floats, ints, bools, strings],
                         RunManifest({}))
        assert path.read_text() == expected


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(CheckFailed):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3), np.arange(2)],
                  RunManifest({}))
    with pytest.raises(CheckFailed):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3)], RunManifest({}))
    assert list(tmp_path.iterdir()) == []


class _Unformattable:
    def __format__(self, spec):
        raise RuntimeError("cannot format")


def test_write_csv_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_CSV_BLOCK_ROWS", 4)
    column = np.empty(10, dtype=object)
    column[:] = 1
    column[-1] = _Unformattable()  # fails in the third block, after two are written
    path = tmp_path / "out.csv"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError):
        write_csv(path, ["v"], [column], RunManifest({}))
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_winner_histograms_smoke(tmp_path):
    cfg = ExperimentConfig(trials=500, ks=(3,), out_dir=tmp_path, master_seed=9)
    res = run_winner_histograms(cfg)
    for rule in ("plurality", "irv"):
        data = tmp_path / f"winners_{rule}_k3.csv"
        assert data.exists()
        manifest_path = tmp_path / f"winners_{rule}_k3.manifest.json"
        m = RunManifest.read(manifest_path)
        assert m.config["trials"] == 500
        assert (tmp_path / f"exact_density_{rule}_k3.csv").exists()
    assert res["summaries"]["irv_k3"]["ks_vs_exact"] < 0.1


def test_winner_histograms_single_trial(tmp_path):
    cfg = ExperimentConfig(trials=1, ks=(3,), rules=(Rule.IRV,), out_dir=tmp_path)
    run_winner_histograms(cfg)
    lines = (tmp_path / "winners_irv_k3.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header + one row
    assert (tmp_path / "winners_irv_k3.manifest.json").exists()


def test_bitwise_reproducibility_across_threads(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    base = dict(trials=9000, ks=(4,), master_seed=123)
    run_winner_histograms(ExperimentConfig(out_dir=out1, threads=1, **base))
    run_winner_histograms(ExperimentConfig(out_dir=out2, threads=4, **base))
    for rule in ("plurality", "irv"):
        b1 = (out1 / f"winners_{rule}_k4.csv").read_bytes()
        b2 = (out2 / f"winners_{rule}_k4.csv").read_bytes()
        assert b1 == b2


def test_beta_sweep(tmp_path):
    cfg = ExperimentConfig(
        alphas=(0.5, 1.0, 2.0), ks=(30,), trials=2000, out_dir=tmp_path, master_seed=5
    )
    res = run_beta_sweep(cfg)
    s = res["summaries"]
    assert s["alpha=1/irv"]["bound_c"] == pytest.approx(1 / 6, abs=1e-12)
    assert s["alpha=0.5/irv"]["degenerate_bound"]
    total_viol = sum(v["violations"] for v in s.values())
    assert total_viol == 0
    assert (tmp_path / "beta_sweep.csv").exists()
    assert (tmp_path / "beta_sweep.manifest.json").exists()


def test_beta_sweep_requires_alphas():
    with pytest.raises(DomainError):
        run_beta_sweep(ExperimentConfig(alphas=()))


def test_beta_sweep_rejects_more_than_one_k():
    with pytest.raises(DomainError, match="one k"):
        run_beta_sweep(ExperimentConfig(alphas=(2.0,), ks=(5, 40), trials=10))


def test_beta_sweep_manifest_records_no_dist(tmp_path):
    # The voters are Beta(alpha, alpha); dist_spec is not read.
    run_beta_sweep(ExperimentConfig(alphas=(2.0,), ks=(5,), trials=10, out_dir=tmp_path))
    config = RunManifest.read(tmp_path / "beta_sweep.manifest.json").config
    assert "dist" not in config and config["alphas"] == [2.0]


def test_beta_sweep_counts_violations_of_a_faulty_tabulator(monkeypatch):
    monkeypatch.setattr(experiments.tabulate, "irv_batch", lambda pos, d: (
        pos[:, 0], np.zeros(pos.shape[0], dtype=bool)
    ))
    s = run_beta_sweep(ExperimentConfig(alphas=(2.0,), ks=(8,), trials=2000))["summaries"]
    assert s["alpha=2/irv"]["violations"] > 0
    assert s["alpha=2/plurality"]["violations"] == 0


def test_scatter_rejects_a_single_rule():
    with pytest.raises(DomainError, match="both rules"):
        run_scatter(ExperimentConfig(rules=(Rule.IRV,), trials=10))


def test_scatter_small_k_never_more_extreme(tmp_path):
    cfg = ExperimentConfig(ks=(3, 4), trials=20_000, out_dir=tmp_path, master_seed=6)
    res = run_scatter(cfg)
    assert res["summaries"]["k3"]["irv_more_extreme"] == 0
    assert res["summaries"]["k4"]["irv_more_extreme"] == 0
    assert (tmp_path / "scatter_k3.csv").exists()


def test_verify_suite_passes(tmp_path):
    report = run_verify(ExperimentConfig(master_seed=0, out_dir=tmp_path))
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    # every check carries a human-readable claim
    assert all(c["claim"] for c in report["checks"])
    saved = json.loads((tmp_path / "verify_report.json").read_text())
    assert saved["passed"]
    # The manifest records what verify reads, the seed, and the real duration.
    manifest = RunManifest.read(tmp_path / "verify_report.manifest.json")
    assert manifest.config == {"seed": 0}
    assert manifest.duration_seconds == saved["duration_seconds"] > 0


def test_verify_detects_injected_fault(monkeypatch):
    # Corrupt the tabulator: always elect the leftmost candidate. The zone
    # soundness sweep must notice.
    monkeypatch.setattr(experiments.tabulate, "irv_batch", lambda pos, d: (
        pos[:, 0], np.zeros(pos.shape[0], dtype=bool)
    ))
    report = run_verify(ExperimentConfig(master_seed=0))
    names = {c["name"]: c["passed"] for c in report["checks"]}
    assert not names["uniform-zone-sweep"]
    assert not report["passed"]


def test_check_records_any_exception_as_failure():
    def crash():
        raise ZeroDivisionError("boom")

    result = experiments._check("crash", "claim", None, crash)
    assert not result["passed"]
    assert result["detail"] == "ZeroDivisionError: boom"


# 1879842187 reached a 0.50011/0.49989 final round that the first-round
# margin filter let through.
@pytest.mark.parametrize("seed", [1879842187, *range(20)])
def test_oracle_check_sound_across_seeds(seed):
    detail = experiments._verify_oracle_equivalence(seed)
    assert detail["checked"] == detail["agreed"] == 30


def _run_python(flags, code):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_verify_fails_under_python_O():
    # Same fault as above, in a process where assert statements are stripped.
    code = (
        "import numpy as np\n"
        "from irvsim import cli, tabulate\n"
        "tabulate.irv_batch = lambda pos, d: (pos[:, 0], np.zeros(pos.shape[0], bool))\n"
        "raise SystemExit(cli.main(['verify', '--seed', '0']))\n"
    )
    proc = _run_python(["-O"], code)
    assert proc.returncode == 2, proc.stderr
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["uniform-zone-sweep"]["detail"].startswith("CheckFailed:")


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, irvsim.cli; print('scipy' in sys.modules)"
    proc = _run_python([], code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_zone(capsys):
    assert cli.main(["zone", "--dist", "uniform"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c"] == pytest.approx(1 / 6, abs=1e-12)


def test_cli_usage_error_exit_code():
    assert cli.main(["nonsense"]) == 1
    assert cli.main(["gumbel", "--k", "notanint"]) == 1


# Thread counts are rejected by the parser, so no case here starts a thread.
@pytest.mark.parametrize("argv, named", [
    (["zone", "--dist", "beta:abc"], "beta:abc"),
    (["zone", "--dist", "table:missing.csv"], "table:missing.csv"),
    (["zone", "--dist", "table:nocolumns.csv"], "table:nocolumns.csv"),
    (["zone", "--dist", "table:nan.csv"], "table:nan.csv"),
    (["simulate", "--dist", "table:missing.csv", "--trials", "10"], "table:missing.csv"),
    (["density", "--points", "-1"], "--points"),
    (["density", "--points", "0"], "--points"),
    (["density", "--points", "1"], "--points"),
    (["simulate", "--threads", "0"], "--threads"),
    (["betasweep", "--alpha", "1", "--threads", "-3"], "--threads"),
    (["verify", "--threads", "0"], "--threads"),
    # A subcommand accepts only the common flags it reads.
    (["zone", "--seed", "1"], "--seed"),
    (["zone", "--out", "D"], "--out"),
    (["density", "--threads", "2"], "--threads"),
    (["verify", "--threads", "2"], "--threads"),
    (["gumbel", "--mode", "circle", "--k", "50", "--trials", "10", "--out", "D"], "--out"),
    (["zone", "--dist", "table:empty.csv"], "no rows"),
])
def test_cli_bad_input_exits_1_with_message(argv, named, tmp_path, monkeypatch, capsys,
                                            recwarn):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nocolumns.csv").write_text("a,b\n0,1\n1,1\n")
    (tmp_path / "nan.csv").write_text("x,density\n0,nan\n1,1\n")
    (tmp_path / "empty.csv").write_text("")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("irvsim") and named in err.splitlines()[0], err
    assert "Traceback" not in err
    assert not (tmp_path / "D").exists()
    assert not [str(w.message) for w in recwarn]


def test_cli_simulate(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--k", "3", "--trials", "300", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "winners_irv_k3.csv").exists()


def test_cli_density(tmp_path):
    rc = cli.main(["density", "--rule", "irv", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "exact_density_irv_k3.csv").read_text().strip().split("\n")
    assert lines[0] == "x,density"
    assert len(lines) == 1002


def test_cli_every_csv_has_a_manifest(tmp_path, capsys):
    runs = [
        ["simulate", "--k", "3", "--trials", "200", "--seed", "3"],
        ["scatter", "--k", "3", "--trials", "200", "--seed", "3"],
        ["betasweep", "--alpha", "2", "--k", "5", "--trials", "200", "--seed", "3"],
        ["density", "--rule", "plurality", "--points", "11"],
        ["gumbel", "--mode", "share", "--k", "50", "--trials", "40", "--seed", "3"],
    ]
    for argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert "exact_density_irv_k3.csv" in csvs and "gumbel_share_k50.csv" in csvs
    for name in csvs:
        assert (tmp_path / name.replace(".csv", ".manifest.json")).exists(), name
    gumbel = RunManifest.read(tmp_path / "gumbel_share_k50.manifest.json")
    assert gumbel.config == {"mode": "share", "k": 50, "trials": 40, "seed": 3}
    assert gumbel.duration_seconds > 0
    simulate = RunManifest.read(tmp_path / "winners_irv_k3.manifest.json")
    assert "format" not in simulate.config and "tie_rule" not in simulate.config


def test_cli_gumbel_maxgap(tmp_path, capsys):
    rc = cli.main(
        ["gumbel", "--mode", "maxgap", "--k", "500", "--trials", "500",
         "--seed", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ks"] < 0.2


def test_cli_scatter(capsys):
    rc = cli.main(["scatter", "--k", "3", "--trials", "1000", "--seed", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k3"]["irv_more_extreme"] == 0


def test_cli_betasweep(capsys):
    rc = cli.main(["betasweep", "--alpha", "1", "--trials", "500", "--seed", "4"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha=1/irv"]["violations"] == 0


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert cli.main(["verify", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "verify_report.json").exists()
