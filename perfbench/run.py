"""irvsim benchmark: run one workload as real CLI processes and report metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's CLI calls run as `python -m irvsim.cli ...`
processes, exactly as users run them, repeatedly until S seconds have passed;
the end-to-end metrics are averages (peak RSS a median) over those passes. With --trace 1 each
pass runs the calls untraced and then traced (perfbench/tracer.py), and the
per-layer metrics are medians over passes. Every call's outputs are checked.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A report with CSV digests goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from tracer import LayerTotals, load_spans  # noqa: E402
from workloads import WORKLOADS, with_threads  # noqa: E402

TRACER = HERE / "tracer.py"
# A run must exit within 180 s; calls still running at this point are killed.
DEADLINE_S = 170.0
SETUP_SAMPLES = 5


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Proc:
    exit_code: int
    cpu_s: float
    maxrss_mb: float
    stdout_path: Path


def spawn(args, log_prefix, timeout_s):
    """Run the interpreter with `args`; rusage is this child's own (wait4)."""
    out, err = Path(f"{log_prefix}.out"), Path(f"{log_prefix}.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                os.kill(pid, signal.SIGKILL)

    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(),
                         file_actions=actions)
    timer = threading.Timer(max(timeout_s, 1.0), kill)
    timer.start()
    try:
        # Wait without reaping, so a late kill() cannot hit a recycled pid.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
    finally:
        timer.cancel()
    _, status, usage = os.wait4(pid, 0)
    return Proc(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out)


@dataclass
class Pass:
    """One run of a workload's steps."""

    wall_s: float
    procs: list
    elections: int
    spans: list = field(default_factory=list)  # one span list per traced call

    @property
    def cpu_s(self):
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mb(self):
        return max(p.maxrss_mb for p in self.procs)


class Runner:
    """Runs one workload's passes; counts attempted and failed CLI calls."""

    def __init__(self, workload, seed, scale):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.start = time.perf_counter()
        self.dir = RUNS / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None

    def timeout(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def fresh_dir(self, label):
        self.count += 1
        work = self.dir / f"{label}{self.count}"
        work.mkdir(parents=True)
        return work

    def setup_s(self):
        """Write the workload's inputs, then import irvsim.cli in a fresh interpreter."""
        work = self.fresh_dir("setup")
        t0 = time.perf_counter()
        self.workload.build(self.seed, work, self.scale)
        proc = spawn(["-c", "import irvsim.cli"], work / "import", self.timeout())
        elapsed = time.perf_counter() - t0
        if proc.exit_code != 0:
            raise RuntimeError(f"import irvsim.cli failed: {(work / 'import.err').read_text()}")
        shutil.rmtree(work)
        return elapsed

    def run_pass(self, traced=False, threads=None):
        work = self.fresh_dir("pass")
        steps = self.workload.build(self.seed, work, self.scale)
        argvs = [s.argv if threads is None else with_threads(s.argv, threads) for s in steps]
        procs = []
        t0 = time.perf_counter()
        for i, argv in enumerate(argvs):
            if traced:
                args = [str(TRACER), str(work / f"spans{i}.json"), "--", *argv]
            else:
                args = ["-m", "irvsim.cli", *argv]
            procs.append(spawn(args, work / f"call{i}", self.timeout()))
        result = Pass(time.perf_counter() - t0, procs, sum(s.elections for s in steps))
        self.check(steps, procs)
        if traced:
            result.spans = [load_spans(work / f"spans{i}.json")
                            for i, p in enumerate(procs) if p.exit_code == 0]
        if self.digests is None and threads is None:
            self.digests = csv_digests(work)
        shutil.rmtree(work)
        return result

    def check(self, steps, procs):
        for step, proc in zip(steps, procs):
            self.attempted += 1
            # A call that exits non-zero is a failure, but its output still
            # goes through the check, which names what went wrong.
            problems = [f"exit code {proc.exit_code}"] if proc.exit_code != 0 else []
            try:
                problems += step.check(proc.stdout_path.read_text())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            if problems:
                self.failed += 1
                self.problems.append(f"{step.argv[0]}: {'; '.join(problems)}")


def csv_digests(work):
    out = work / "out"
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def _measure(seconds, one_pass):
    """Repeat one_pass until `seconds` have passed (at least once)."""
    t0 = time.perf_counter()
    results = [one_pass()]
    while time.perf_counter() - t0 < seconds:
        results.append(one_pass())
    return results


def end_to_end(runner, seconds):
    setup = [runner.setup_s() for _ in range(SETUP_SAMPLES)]
    passes = _measure(seconds, runner.run_pass)
    # The host's speed flips between states that last seconds, so pass times
    # are bimodal; whole-run averages move less from run to run than medians.
    wall = sum(p.wall_s for p in passes)
    return {
        "wall_s": (wall / len(passes), "s"),
        "cpu_s": (statistics.fmean(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        "elections_per_s": (sum(p.elections for p in passes) / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }, [round(p.wall_s, 4) for p in passes]


def _totals(one_pass):
    totals = LayerTotals()
    for spans in one_pass.spans:
        totals.add_call(spans)
    return totals


def traced_pass(runner):
    """Per-layer metrics of one untraced + traced pass (plus a --threads 1 pass)."""
    plain = runner.run_pass()
    traced = runner.run_pass(traced=True)
    layer_pass, totals, efficiency = traced, _totals(traced), 0.0
    threads = runner.workload.threads
    if threads > 1:
        # The layer figures come from the single-thread run, whose self times add up.
        layer_pass = runner.run_pass(traced=True, threads=1)
        tn = totals.inclusive_s["experiments.map_chunks"]
        totals = _totals(layer_pass)
        t1 = totals.inclusive_s["experiments.map_chunks"]
        efficiency = t1 / (threads * tn) if tn else 0.0
    metrics = totals.metrics()
    metrics["experiments.map_chunks.parallel_efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["trace.wall_s"] = (layer_pass.wall_s, "s")
    return metrics


def per_layer(runner, seconds):
    samples = _measure(seconds, lambda: traced_pass(runner))
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}, [round(s["trace.wall_s"][0], 4) for s in samples]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply trial counts (the self-test uses tiny runs)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "irvsim" / "cli.py").is_file():
        print(f"perfbench: no irvsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(WORKLOADS[args.workload], args.seed, args.scale)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, passes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    for problem in runner.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "pass_wall_s": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "csv_sha256": runner.digests,
        "problems": runner.problems,
    }
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
