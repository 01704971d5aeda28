"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size, so output checks that need full-size
statistics (KS tolerances) may fail there; these tests check the harness:
the metrics it prints, how it counts failed operations, the tracer's span
tree, and that CSV digests do not depend on --threads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracer import LayerTotals, Span, load_spans  # noqa: E402
from workloads import WORKLOADS, with_threads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.01


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", str(TINY)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(tmp_path, workload, trace, kind):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    calls = len(WORKLOADS[workload].build(3, tmp_path, TINY))
    assert result["attempted"] >= calls and 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _spawn_cli(argv, work, name="call"):
    return bench.spawn(["-m", "irvsim.cli", *argv], work / name, 120)


def test_corrupted_output_csv_is_a_failed_op(tmp_path):
    runner = bench.Runner(WORKLOADS["custom-electorate"], 3, TINY)
    simulate = next(s for s in runner.workload.build(3, tmp_path, TINY) if s.argv[0] == "simulate")
    proc = _spawn_cli(simulate.argv, tmp_path)
    runner.check([simulate], [proc])
    assert (runner.attempted, runner.failed) == (1, 0), runner.problems

    csv = tmp_path / "out" / "winners_irv_k10.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    runner.check([simulate], [proc])
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "winners_irv_k10.csv" in runner.problems[-1]


@pytest.mark.parametrize("argv", [
    ("simulate", "--k", "3", "5", "--trials", "5000", "--rule", "both", "--seed", "7",
     "--threads", "1"),
    ("betasweep", "--alpha", "0.3", "2", "--k", "30", "--trials", "5000", "--seed", "7",
     "--threads", "1"),
])
def test_csv_digests_do_not_depend_on_threads(tmp_path, argv):
    digests = []
    for threads in (1, 2):
        work = tmp_path / f"threads{threads}"
        (work / "out").mkdir(parents=True)
        proc = _spawn_cli(with_threads(argv, threads) + ("--out", str(work / "out")), work)
        assert proc.exit_code == 0, (work / "call.err").read_text()
        digests.append(bench.csv_digests(work))
    assert digests[0] and digests[0] == digests[1]


def test_wrappers_cover_names_bound_by_from_import():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import tracer; tracer.install(tracer.Tracer());"
        "from irvsim import asymptotics, cli, zones;"
        "names = [asymptotics.shares_batch, asymptotics.irv_batch,"
        " asymptotics.plurality_batch, cli.write_csv, zones.vote_shares];"
        "print(all(hasattr(f, '__wrapped__') for f in names))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                          text=True, env=bench.child_env(), timeout=120)
    assert proc.stdout.strip() == "True", proc.stderr


def test_worker_thread_spans_nest_under_map_chunks(tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = ("betasweep", "--alpha", "2", "--k", "30", "--trials", "9000", "--threads", "2")
    proc = bench.spawn([str(bench.TRACER), str(spans_path), "--", *argv], tmp_path / "call", 120)
    assert proc.exit_code == 0, (tmp_path / "call.err").read_text()
    spans = load_spans(spans_path)
    by_id = {s.id: s for s in spans}
    irv = [s for s in spans if s.name == "tabulate.irv_batch"]
    assert len(irv) == 3  # 9000 trials: three chunks
    assert all(by_id[s.parent].name == "experiments.map_chunks" for s in irv)
    totals = LayerTotals()
    totals.add_call(spans)
    assert totals.metrics()["tabulate.irv_batch.cdf_values_per_row"][0] == 30 * 29 / 2


def test_self_time_counts_overlapping_children_once():
    def span(i, parent, name, start, end):
        s = Span(i, parent, name)
        s.start, s.end = start, end
        return s

    spans = [span(1, 0, "experiments.map_chunks", 0.0, 10.0),
             span(2, 1, "tabulate.irv_batch", 1.0, 4.0),  # two worker threads
             span(3, 1, "tabulate.irv_batch", 2.0, 6.0)]
    totals = LayerTotals()
    totals.add_call(spans)
    assert totals.self_s["experiments.map_chunks"] == pytest.approx(5.0)
    assert totals.self_s["tabulate.irv_batch"] == pytest.approx(7.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "beta-sweep-k30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
