import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irvsim import cli, experiments
from irvsim.errors import DomainError
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
        ExperimentConfig(fmt="xml")
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
    write_csv(path, ["i", "x"], [(0, value), (1, 0.5)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i,x"
    assert float(lines[1].split(",")[1]) == value  # 17 sig digits round-trip


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
