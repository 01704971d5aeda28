"""Outside-in tracing of one irvsim CLI call, and per-layer metrics from its spans.

The benchmark never edits the library. Instead, a traced call runs

    python3 perfbench/tracer.py SPANS.json -- <irvsim CLI arguments>

which installs wrappers around each module's public functions (rebinding
every name the library's modules hold, including ones bound with
``from ... import``), calls ``irvsim.cli.main(argv)`` in-process, and writes
the spans it kept in memory to SPANS.json once, at exit.

A span is (id, parent id, name, start, end, counts). Each thread keeps its
own span stack; the chunk function handed to ``experiments._map_chunks`` is
wrapped so that spans opened in worker threads nest under the
``experiments.map_chunks`` span that spawned them. A span's self time is its
duration minus the part of it that the union of its children's intervals
covers, so overlapping worker-thread children are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.counts = {}

    def to_json(self):
        return [self.id, self.parent, self.name, self.start, self.end, self.counts]

    @classmethod
    def from_json(cls, row):
        span = cls(row[0], row[1], row[2])
        span.start, span.end, span.counts = row[3], row[4], row[5]
        return span


class Tracer:
    """Keeps spans in memory; one span stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else 0, name)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, span, **counts):
        with self._lock:
            for key, value in counts.items():
                span.counts[key] = span.counts.get(key, 0) + value

    def run_under(self, parent, fn, *args):
        """Run fn in the current thread with `parent` as the enclosing span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args)
        finally:
            stack.pop()

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span; count(arguments, result) returns counts to attach."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                self.add(span, **count(sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def wrap_map_chunks(self, fn):
        """experiments._map_chunks: count chunks and parent worker-thread spans."""

        @functools.wraps(fn)
        def traced(chunk_fn, *args, **kwargs):
            span = self.open("experiments.map_chunks")

            def chunk(*chunk_args):
                self.add(span, chunks=1)
                return self.run_under(span, chunk_fn, *chunk_args)

            try:
                return fn(chunk, *args, **kwargs)
            finally:
                self.close(span)

        return traced


# ---------------------------------------------------------------------------
# What gets wrapped. Span names are the per-layer metric prefixes.
# ---------------------------------------------------------------------------


def _dist_values(args, _result):
    arg = args["p"] if "p" in args else args["x"]
    return {"values": int(getattr(arg, "size", 1))}


def _rows(args, _result):
    return {"rows": int(args["sorted_pos"].shape[0])}


def _array_bytes(args, result):
    return {"bytes": int(args["sorted_pos"].nbytes) + int(result.nbytes)}


def _draws_k(args, _result):
    return {"draws": int(args["k"]) * int(args["trials"])}


def _draws_gaps(args, _result):
    return {"draws": (int(args["n"]) - 1) * int(args["trials"])}


def _csv_size(args, result):
    path = os.fspath(result)
    with open(path, "rb") as fh:
        lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    return {"rows": lines - 1, "bytes": os.path.getsize(path)}


def _function_targets():
    from irvsim import asymptotics, exactk3, experiments, tabulate, zones

    return [
        (tabulate, "sample_sorted_positions", "tabulate.sample_sorted_positions", None),
        (tabulate, "shares_batch", "tabulate.shares_batch", _array_bytes),
        (tabulate, "irv_batch", "tabulate.irv_batch", _rows),
        (tabulate, "plurality_batch", "tabulate.plurality_batch", _rows),
        (tabulate, "vote_shares", "tabulate.scalar", None),
        (tabulate, "plurality_winner", "tabulate.scalar", None),
        (tabulate, "irv_winner", "tabulate.scalar", None),
        (tabulate, "sample_ballots", "tabulate.oracle", None),
        (tabulate, "irv_discrete", "tabulate.oracle", None),
        (zones, "min_zone_numeric", "zones.min_zone_numeric", None),
        (zones, "check_condition", "zones.check_condition", None),
        (zones, "zone_closed_form", "zones.zone_closed_form", None),
        (exactk3, "plurality_density_k3", "exactk3.plurality_density_k3", None),
        (exactk3, "irv_density_k3", "exactk3.irv_density_k3", None),
        (exactk3, "irv_tail_density", "exactk3.irv_tail_density", None),
        (exactk3, "order_statistic_win_prob", "exactk3.order_statistic_win_prob", None),
        (asymptotics, "winning_share_experiment", "asymptotics.winning_share_experiment", _draws_k),
        (asymptotics, "max_gap_experiment", "asymptotics.max_gap_experiment", _draws_gaps),
        (asymptotics, "circle_coupling_experiment", "asymptotics.circle_coupling_experiment", _draws_k),
        (asymptotics, "ks_statistic", "asymptotics.ks_statistic", None),
        (experiments, "write_csv", "experiments.write_csv", _csv_size),
        (experiments, "run_winner_histograms", "experiments.driver", None),
        (experiments, "run_beta_sweep", "experiments.driver", None),
        (experiments, "run_scatter", "experiments.driver", None),
        (experiments, "run_verify", "experiments.driver", None),
    ]


def _method_targets():
    from irvsim import dist, exactk3, experiments

    targets = []
    for cls in (dist.Uniform, dist.SymmetricBeta, dist.Tabulated):
        targets.append((cls, "cdf", "dist.cdf", _dist_values))
        targets.append((cls, "quantile", "dist.quantile", _dist_values))
    pp = exactk3.PiecewisePolynomial
    for attr in ("__call__", "value_exact", "integral", "moment_about",
                 "antiderivative", "breakpoint_jumps"):
        targets.append((pp, attr, f"exactk3.PiecewisePolynomial.{attr}", None))
    targets.append((experiments.RunManifest, "write", "experiments.manifest", None))
    return targets


def install(tracer):
    """Wrap the library's layer functions wherever irvsim's modules bind them."""
    import irvsim.cli  # noqa: F401  (imports every module the CLI reaches)
    from irvsim import experiments

    wrappers = {}
    for module, attr, name, count in _function_targets():
        fn = getattr(module, attr)
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn, count))
    fn = experiments._map_chunks
    wrappers[id(fn)] = (fn, tracer.wrap_map_chunks(fn))

    modules = [m for n, m in list(sys.modules.items())
               if n == "irvsim" or n.startswith("irvsim.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for cls, attr, name, count in _method_targets():
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], count))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one or more traced calls.
# ---------------------------------------------------------------------------

# ROADMAP stages as sums of span self times.
STAGES = {
    "stage.sample_s": (
        "dist.quantile",
        "tabulate.sample_sorted_positions",
        "asymptotics.winning_share_experiment",
        "asymptotics.max_gap_experiment",
        "asymptotics.circle_coupling_experiment",
    ),
    "stage.shares_s": ("dist.cdf", "tabulate.shares_batch"),
    "stage.elimination_s": (
        "tabulate.irv_batch",
        "tabulate.plurality_batch",
        "tabulate.scalar",
        "tabulate.oracle",
    ),
    "stage.reduction_s": ("experiments.driver", "asymptotics.ks_statistic"),
    "stage.serialization_s": ("experiments.write_csv", "experiments.manifest"),
}


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_times(spans):
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    self_s = {}
    for span in spans:
        inner = [(max(c.start, span.start), min(c.end, span.end))
                 for c in children[span.id]]
        self_s[span.id] = (span.end - span.start) - _covered(
            (a, b) for a, b in inner if b > a)
    return self_s, children


def _descendants(span, children):
    todo = list(children[span.id])
    while todo:
        span = todo.pop()
        yield span
        todo.extend(children[span.id])


class LayerTotals:
    """Self time, calls, counts and inclusive time per span name, summed over calls."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.irv_cdf_values = 0
        self.asymptotic_bytes = 0

    def add_call(self, spans):
        """Fold in the spans of one traced process."""
        self_s, children = _self_times(spans)
        for span in spans:
            self.self_s[span.name] += self_s[span.id]
            self.calls[span.name] += 1
            self.inclusive_s[span.name] += span.end - span.start
            for key, value in span.counts.items():
                self.counts[span.name][key] += value
            if span.name == "tabulate.irv_batch":
                self.irv_cdf_values += sum(
                    d.counts.get("values", 0) for d in _descendants(span, children)
                    if d.name == "dist.cdf")
            elif span.name.startswith("asymptotics.") and "draws" in span.counts:
                self.asymptotic_bytes += 8 * span.counts["draws"] + sum(
                    d.counts.get("bytes", 0) for d in _descendants(span, children)
                    if d.name == "tabulate.shares_batch")

    def metrics(self):
        """Flat {metric: (value, unit)} for every per-layer metric but the run-level ones."""
        s, calls, counts = self.self_s, self.calls, self.counts
        out = {}

        def per(total_s, n):
            return total_s * 1e9 / n if n else 0.0

        for layer in ("dist.quantile", "dist.cdf"):
            values = counts[layer]["values"]
            out[f"{layer}.self_s"] = (s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.values"] = (values, "count")
            out[f"{layer}.ns_per_value"] = (per(s[layer], values), "ns/value")

        rows = counts["tabulate.irv_batch"]["rows"]
        out.update({
            "tabulate.sample_sorted_positions.self_s": (s["tabulate.sample_sorted_positions"], "s"),
            "tabulate.shares_batch.self_s": (s["tabulate.shares_batch"], "s"),
            "tabulate.shares_batch.calls": (calls["tabulate.shares_batch"], "count"),
            "tabulate.irv_batch.self_s": (s["tabulate.irv_batch"], "s"),
            "tabulate.irv_batch.rows": (rows, "count"),
            "tabulate.irv_batch.cdf_values_per_row": (
                self.irv_cdf_values / rows if rows else 0.0, "values/row"),
            "tabulate.plurality_batch.self_s": (s["tabulate.plurality_batch"], "s"),
            "tabulate.scalar.self_s": (s["tabulate.scalar"], "s"),
            "tabulate.oracle.self_s": (s["tabulate.oracle"], "s"),
            "zones.min_zone_numeric.self_s": (s["zones.min_zone_numeric"], "s"),
            "zones.check_condition.calls": (calls["zones.check_condition"], "count"),
            "zones.check_condition.self_s": (s["zones.check_condition"], "s"),
            "zones.zone_closed_form.self_s": (s["zones.zone_closed_form"], "s"),
            "exactk3.self_s": (
                sum(v for k, v in s.items() if k.startswith("exactk3.")), "s"),
            "exactk3.order_statistic_win_prob.calls": (
                calls["exactk3.order_statistic_win_prob"], "count"),
            "asymptotics.winning_share_experiment.self_s": (
                s["asymptotics.winning_share_experiment"], "s"),
            "asymptotics.draws": (
                sum(c["draws"] for k, c in counts.items() if k.startswith("asymptotics.")),
                "count"),
            "asymptotics.computed_bytes": (self.asymptotic_bytes, "bytes"),
            "asymptotics.ks_statistic.self_s": (s["asymptotics.ks_statistic"], "s"),
        })

        csv_rows = counts["experiments.write_csv"]["rows"]
        out.update({
            "experiments.write_csv.self_s": (s["experiments.write_csv"], "s"),
            "experiments.write_csv.rows": (csv_rows, "count"),
            "experiments.write_csv.bytes": (counts["experiments.write_csv"]["bytes"], "bytes"),
            "experiments.write_csv.ns_per_row": (
                per(s["experiments.write_csv"], csv_rows), "ns/row"),
            "experiments.manifest.self_s": (s["experiments.manifest"], "s"),
            "experiments.map_chunks.self_s": (s["experiments.map_chunks"], "s"),
            "experiments.map_chunks.chunks": (
                counts["experiments.map_chunks"]["chunks"], "count"),
            "experiments.driver.self_s": (s["experiments.driver"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
        })
        for stage, names in STAGES.items():
            out[stage] = (sum(s[n] for n in names), "s")
        return out


def load_spans(path):
    with open(path) as fh:
        return [Span.from_json(row) for row in json.load(fh)]


def _main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <irvsim arguments>", file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import irvsim.cli

    root = tracer.open("cli.main")
    try:
        code = irvsim.cli.main(cli_argv)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump([span.to_json() for span in tracer.spans], fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
