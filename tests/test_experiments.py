import ast
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irvsim
from irvsim import asymptotics, cli, experiments, tabulate, zones
from irvsim.chunks import map_chunks
from irvsim.dist import Uniform
from irvsim.errors import CheckFailed, DomainError
from irvsim.experiments import (
    RunManifest,
    RunSpec,
    chunk_rng,
    run_beta_sweep,
    run_density,
    run_gumbel,
    run_scatter,
    run_verify,
    run_winner_histograms,
    write_csv,
)
from irvsim.tabulate import Rule


_RUN = RunSpec(10, 0)


def test_config_validation():
    with pytest.raises(DomainError, match="trials must be >= 1"):
        RunSpec(0, 1)
    with pytest.raises(DomainError, match="threads must be >= 1"):
        RunSpec(10, 1, threads=0)
    with pytest.raises(DomainError, match="trials must be an integer, got 10.5"):
        RunSpec(10.5, 0)
    with pytest.raises(DomainError, match="master seed must be an integer, got 1.5"):
        RunSpec(10, 1.5)
    with pytest.raises(DomainError, match="threads must be an integer, got 1.5"):
        RunSpec(10, 0, threads=1.5)
    assert RunSpec(np.int64(10), np.uint8(1)) == RunSpec(10, 1)
    assert type(RunSpec(np.int64(10), 1).trials) is int
    assert RunSpec(10, 1) == RunSpec(10, 1, threads=1, out_dir=None)
    with pytest.raises(DomainError, match="k must be >= 1"):
        run_winner_histograms([3, 0], rules=tuple(Rule), dist="uniform", run=_RUN)
    with pytest.raises(DomainError, match="k must be >= 1"):
        run_scatter([0], dist="uniform", run=_RUN)
    with pytest.raises(DomainError, match="k must be >= 1"):
        run_beta_sweep([2.0], 0, run=_RUN)
    with pytest.raises(DomainError, match="k must be an integer, got 3.5"):
        run_scatter([3.5], dist="uniform", run=_RUN)
    with pytest.raises(DomainError, match="nope"):
        run_winner_histograms([3], rules=tuple(Rule), dist="nope", run=_RUN)
    with pytest.raises(DomainError, match="unknown gumbel mode 'nope'"):
        run_gumbel("nope", 50, run=_RUN)
    with pytest.raises(DomainError, match="points must be >= 2"):
        run_density(Rule.IRV, 1)
    with pytest.raises(DomainError, match="beta:abc"):
        run_scatter([3], dist="beta:abc", run=_RUN)


def test_chunk_rng_deterministic_and_distinct():
    a = chunk_rng(1, "exp", 0).random(5)
    b = chunk_rng(1, "exp", 0).random(5)
    c = chunk_rng(1, "exp", 1).random(5)
    d = chunk_rng(1, "other", 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_chunk_rng_rejects_a_negative_master_seed():
    # Every stream is derived here, so every driver rejects a negative seed.
    with pytest.raises(DomainError, match="master seed must be >= 0"):
        chunk_rng(-1, "exp", 0)
    with pytest.raises(DomainError, match="master seed must be >= 0"):
        run_scatter([3], dist="uniform", run=RunSpec(10, -1))


@pytest.mark.parametrize("draws_per_trial", [None, 1, 1000, 10 ** 6 + 1])
@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_map_chunks_hands_each_chunk_its_rows(trials, draws_per_trial):
    # The streams depend on these sizes: 4096 trials, or 10**6 draws, per chunk.
    size = 4096 if draws_per_trial is None else max(1, 10 ** 6 // draws_per_trial)
    chunks = map_chunks(lambda rows, rng: (rows, rng.random(3)), 5, "tile", trials,
                        draws_per_trial=draws_per_trial)
    assert [rows for rows, _ in chunks] == [slice(start, min(start + size, trials))
                                            for start in range(0, trials, size)]
    for i, (_, draws) in enumerate(chunks):
        assert np.array_equal(draws, chunk_rng(5, "tile", i).random(3))


@pytest.mark.parametrize("trials", [0, -1, 1.5])
def test_map_chunks_rejects_a_bad_trial_count(trials):
    with pytest.raises(DomainError, match="trials must be"):
        map_chunks(lambda rows, rng: None, 5, "tile", trials)


@pytest.mark.parametrize("threads", [1.5, 0, -2])
def test_map_chunks_rejects_a_bad_thread_count(threads):
    with pytest.raises(DomainError, match="threads must be"):
        map_chunks(lambda rows, rng: None, 5, "tile", 10, threads)
    with pytest.raises(DomainError, match="threads must be"):
        asymptotics.max_gap_experiment(10, 1000, 0, threads=threads)


@pytest.mark.parametrize("draws_per_trial", [0, 1.5, -3])
def test_map_chunks_rejects_a_bad_draw_count(draws_per_trial):
    # 0 divided by zero, 1.5 made a float chunk size and -3 ran 1-trial chunks.
    with pytest.raises(DomainError, match="draws_per_trial must be"):
        map_chunks(lambda rows, rng: None, 5, "tile", 10, draws_per_trial=draws_per_trial)


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


# Each call writes a fresh name: on ext4 a rename over an existing file took about 49 ms,
# against 0.05 ms onto a new name, and every call renames a CSV and its manifest.
_CELL_FILES = itertools.count()


def _written_cells(directory, column):
    """The cells write_csv writes for one column, as bytes."""
    path = write_csv(directory / f"cells{next(_CELL_FILES)}.csv", ["v"], [column],
                     RunManifest({}, libraries={}))
    return path.read_bytes().split(b"\n")[1:-1]


@pytest.fixture(scope="module")
def cells_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cells")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1.0, exclude_max=True)), min_size=1,
                max_size=50))
def test_write_csv_float_cells_match_format(cells_dir, values):
    expected = [format(v, ".17g").encode() for v in values]
    assert _written_cells(cells_dir, np.array(values, dtype=np.float64)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**63 - 1), st.integers(-(2**63), -1)), min_size=1,
                max_size=50))
def test_write_csv_int_cells_match_str(cells_dir, values):
    expected = [str(v).encode() for v in values]
    assert _written_cells(cells_dir, np.array(values, dtype=np.int64)) == expected


def _round_half_floats():
    """Doubles in [1e-4, 1) whose 17-digit rounding is an exact tie: j / 2**(s + 1) for
    odd j, where s = 17..20 is the power of ten that scales their decade to 17 digits."""
    out = []
    for s in range(17, 21):
        lo, hi = 10 ** (16 - s), 10 ** (17 - s)
        for frac in (0.0, 0.3, 0.77, 1.0):
            j = int((lo + frac * (hi - lo)) * 2 ** (s + 1)) | 1
            x = j / 2 ** (s + 1)
            if lo <= x < hi:
                assert Fraction(x) * 10**s % 1 == Fraction(1, 2)
                out.append(x)
    return out


def test_write_csv_cells_on_adversarial_values(tmp_path):
    powers = [10.0**e for e in range(-5, 18)]
    floats = (
        powers
        + [np.nextafter(p, 0.0) for p in powers]
        + [np.nextafter(p, 2.0 * p) for p in powers]
        + [j / 2.0**m for m in range(1, 54) for j in (1, 3, 2**m - 1) if j < 2**m]
        + [1.0 - i * 2.0**-53 for i in range(1, 6)]  # just below 1: the carry to 10**17
        + _round_half_floats()
        + [-0.0, 0.0, 5e-324, np.nan, np.inf, -np.inf]
    )
    assert len(_round_half_floats()) >= 12
    column = np.array(floats, dtype=np.float64)
    assert _written_cells(tmp_path, column) == [format(v, ".17g").encode() for v in floats]
    ints = [0, 1, 9, 10, 9999, 10000, 99_999_999, 100_000_000, 2**63 - 1, -1, -(2**63)]
    assert _written_cells(tmp_path, np.array(ints)) == [str(i).encode() for i in ints]
    unsigned = [0, 10**19, 2**63, 2**64 - 1]
    assert (_written_cells(tmp_path, np.array(unsigned, dtype=np.uint64))
            == [str(i).encode() for i in unsigned])


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(CheckFailed):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3), np.arange(2)],
                  RunManifest({}))
    with pytest.raises(CheckFailed):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3)], RunManifest({}))
    assert list(tmp_path.iterdir()) == []


def test_write_csv_rejects_a_nul_byte_in_a_cell(tmp_path):
    # NUL pads the cells inside the writer, so a NUL of the data would vanish.
    with pytest.raises(CheckFailed, match="NUL"):
        write_csv(tmp_path / "nul.csv", ["s"], [np.array(["a", "b\0c"])], RunManifest({}))
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


def _listing(directory):
    return sorted(p.name for p in directory.iterdir())


def test_simulate_that_cannot_publish_leaves_nothing(tmp_path, capsys):
    # A directory holds the IRV CSV's name, so the commit refuses before its
    # first rename: the plurality files and every manifest stay unpublished.
    (tmp_path / "winners_irv_k3.csv").mkdir()
    before = _listing(tmp_path)
    assert cli.main(["simulate", "--k", "3", "--trials", "100", "--out", str(tmp_path)]) == 1
    assert "winners_irv_k3.csv" in capsys.readouterr().err
    assert _listing(tmp_path) == before


def test_verify_that_cannot_publish_its_manifest_leaves_no_report(tmp_path, capsys):
    (tmp_path / "verify_report.manifest.json").mkdir()
    before = _listing(tmp_path)
    assert cli.main(["verify", "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "verify_report.manifest.json" in capsys.readouterr().err
    assert _listing(tmp_path) == before


def test_write_csv_that_cannot_publish_its_manifest_leaves_no_csv(tmp_path):
    (tmp_path / "out.manifest.json").mkdir()
    before = _listing(tmp_path)
    with pytest.raises(IsADirectoryError, match="out.manifest.json"):
        write_csv(tmp_path / "out.csv", ["v"], [np.arange(3)], RunManifest({}))
    assert _listing(tmp_path) == before


def test_winner_histograms_smoke(tmp_path):
    res = run_winner_histograms([3], rules=tuple(Rule), dist="uniform",
                                run=RunSpec(500, 9, out_dir=tmp_path))
    for rule in ("plurality", "irv"):
        data = tmp_path / f"winners_{rule}_k3.csv"
        assert data.exists()
        manifest_path = tmp_path / f"winners_{rule}_k3.manifest.json"
        m = RunManifest.read(manifest_path)
        assert m.config["trials"] == 500 and "alphas" not in m.config
        assert (tmp_path / f"exact_density_{rule}_k3.csv").exists()
    assert res["summaries"]["irv_k3"]["ks_vs_exact"] < 0.1


def test_failed_run_writes_nothing(tmp_path, monkeypatch):
    winners = tabulate.winners
    streamed = []

    def fail_at_k4(rule, pos, *args):
        if pos.shape[1] == 4:  # the second k: the first one's files are written
            streamed.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise RuntimeError("tabulation failed")
        return winners(rule, pos, *args)

    monkeypatch.setattr(tabulate, "winners", fail_at_k4)
    with pytest.raises(RuntimeError, match="tabulation failed"):
        run_winner_histograms([3, 4], rules=tuple(Rule), dist="uniform",
                              run=RunSpec(5000, 1, out_dir=tmp_path))
    assert streamed == [f"{kind}_{rule}_k3.csv.tmp" for kind in ("exact_density", "winners")
                        for rule in ("irv", "plurality")]
    assert list(tmp_path.iterdir()) == []


def test_drivers_hold_one_k_at_a_time(tmp_path):
    # Holding all four outputs' columns until the end peaked at about 5.3 MB.
    # Each k's draw is tabulated under both rules at once, so both rules'
    # winners and ties at 40,000 trials (about 0.7 MB) live until that k's
    # outputs are written, next to the KS sort and about 2 MB of formatting
    # temporaries per CSV block; the next k's draw comes after they are dropped.
    run = RunSpec(40_000, 0, out_dir=tmp_path)
    # A small run first, so that cached tables are not counted.
    run_winner_histograms([3], rules=(Rule.IRV,), dist="uniform", run=RunSpec(10, 0))
    tracemalloc.start()
    try:
        run_winner_histograms([3, 4], rules=tuple(Rule), dist="uniform", run=run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_chunks_fill_their_own_rows_under_thread_contention():
    # 20 chunks on 8 threads, switching often: a chunk writing outside its own
    # rows, or a lost write, changes the arrays.
    d = Uniform()
    zone = zones.zone_closed_form(d)
    expected = experiments._elections(RunSpec(20 * 4096 + 17, 4), "stress", d, 5, tuple(Rule), zone)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = experiments._elections(RunSpec(20 * 4096 + 17, 4, threads=8), "stress", d, 5,
                                     tuple(Rule), zone)
    finally:
        sys.setswitchinterval(interval)
    for rule in Rule:
        for want, have in zip(expected[0][rule], got[0][rule]):
            assert np.array_equal(want, have)
    assert np.array_equal(expected[1], got[1])


def test_elections_do_not_depend_on_chunk_order(monkeypatch):
    # Threads may finish chunks in any order: running them last to first
    # must give the same arrays, because each chunk fills its own rows from its own RNG.
    d = Uniform()
    args = (RunSpec(3 * 4096 + 5, 9), "order", d, 5, tuple(Rule), zones.zone_closed_form(d))
    expected = experiments._elections(*args)
    map_chunks_ = experiments._map_chunks
    chunks = []

    def last_to_first(fn, *a, **kw):
        chunks.extend(map_chunks_(lambda *chunk: chunk, *a, **kw))  # (rows, rng)
        return [fn(*chunk) for chunk in reversed(chunks)][::-1]

    monkeypatch.setattr(experiments, "_map_chunks", last_to_first)
    got = experiments._elections(*args)
    assert len(chunks) == 4
    for rule in Rule:
        for want, have in zip(expected[0][rule], got[0][rule]):
            assert np.array_equal(want, have)
    assert np.array_equal(expected[1], got[1])


def test_manifest_records_library_versions(tmp_path):
    # numpy is the one runtime dependency; the random streams come from it.
    write_csv(tmp_path / "run.csv", ["v"], [np.arange(3)], RunManifest({"seed": 1}))
    path = tmp_path / "run.manifest.json"
    m = RunManifest.read(path)
    assert m.libraries == {"numpy": np.__version__}
    assert m.to_json() == json.loads(path.read_text())


def test_manifest_without_library_versions_still_reads(tmp_path):
    write_csv(tmp_path / "run.csv", ["v"], [np.arange(3)], RunManifest({"seed": 1}))
    path = tmp_path / "run.manifest.json"
    data = json.loads(path.read_text())
    del data["libraries"]
    path.write_text(json.dumps(data))
    m = RunManifest.read(path)
    assert m.libraries == {} and m.config == {"seed": 1}


def test_winner_histograms_single_trial(tmp_path):
    run_winner_histograms([3], rules=(Rule.IRV,), dist="uniform",
                          run=RunSpec(1, 0, out_dir=tmp_path))
    lines = (tmp_path / "winners_irv_k3.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header + one row
    assert (tmp_path / "winners_irv_k3.manifest.json").exists()


def test_bitwise_reproducibility_across_threads(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    for out, threads in ((out1, 1), (out2, 4)):
        run_winner_histograms([4], rules=tuple(Rule), dist="uniform",
                              run=RunSpec(9000, 123, threads, out))
    for rule in ("plurality", "irv"):
        b1 = (out1 / f"winners_{rule}_k4.csv").read_bytes()
        b2 = (out2 / f"winners_{rule}_k4.csv").read_bytes()
        assert b1 == b2


def test_beta_sweep(tmp_path):
    res = run_beta_sweep([0.5, 1.0, 2.0], 30, run=RunSpec(2000, 5, out_dir=tmp_path))
    s = res["summaries"]
    assert s["alpha=1/irv"]["bound_c"] == pytest.approx(1 / 6, abs=1e-12)
    assert s["alpha=0.5/irv"]["degenerate_bound"]
    total_viol = sum(v["violations"] for v in s.values())
    assert total_viol == 0
    assert (tmp_path / "beta_sweep.csv").exists()
    assert (tmp_path / "beta_sweep.manifest.json").exists()


def test_beta_sweep_requires_alphas():
    with pytest.raises(DomainError):
        run_beta_sweep([], 5, run=_RUN)


def test_beta_sweep_rejects_a_bad_alpha_before_running(monkeypatch):
    monkeypatch.setattr(experiments, "_elections", lambda *args: pytest.fail("a sweep ran"))
    with pytest.raises(DomainError, match="alpha must be positive and finite"):
        run_beta_sweep([2.0, float("inf")], 5, run=_RUN)


@pytest.mark.parametrize("driver, kwargs, message", [
    (run_scatter, dict(ks=[], dist="uniform"), "k list must be nonempty"),
    (run_winner_histograms, dict(ks=[3], rules=(), dist="uniform"),
     "rule list must be nonempty"),
    (run_winner_histograms, dict(ks=[3], rules=(Rule.IRV, Rule.IRV), dist="uniform"),
     "share the summary key 'irv'"),
])
def test_driver_rejects_empty_or_repeated_lists(driver, kwargs, message):
    with pytest.raises(DomainError, match=message):
        driver(**kwargs, run=_RUN)


def test_beta_sweep_manifest_records_no_dist(tmp_path):
    # The voters are Beta(alpha, alpha); the driver takes no dist.
    run_beta_sweep([2.0], 5, run=RunSpec(10, 0, out_dir=tmp_path))
    config = RunManifest.read(tmp_path / "beta_sweep.manifest.json").config
    assert "dist" not in config and config["alphas"] == [2.0]


# Each driver takes keyword arguments for exactly what it reads, so passing one
# that it would ignore is a TypeError at the call.
_READS = {
    run_beta_sweep: dict(alphas=[2.0], k=5, run=_RUN),
    run_winner_histograms: dict(ks=[3], rules=tuple(Rule), dist="uniform", run=_RUN),
    run_scatter: dict(ks=[3], dist="uniform", run=_RUN),
    run_gumbel: dict(mode="circle", k=50, run=_RUN),
    run_density: dict(rule=Rule.IRV, points=11),
    run_verify: dict(seed=0),
}


@pytest.mark.parametrize("driver, fields, named", [
    (run_beta_sweep, {"dist": "beta:0.3"}, "dist"),
    (run_winner_histograms, {"alphas": (7.0,)}, "alphas"),
    (run_scatter, {"alphas": (7.0,)}, "alphas"),
    (run_verify, {"trials": 5}, "trials"),
    (run_verify, {"threads": 2}, "threads"),
    (run_verify, {"dist": "beta:2", "ks": (4,)}, "dist, ks"),
    (run_beta_sweep, {"rules": (Rule.IRV,)}, "rules"),
    (run_gumbel, {"dist": "beta:2"}, "dist"),
    (run_density, {"seed": 1, "threads": 2}, "seed, threads"),
])
def test_driver_rejects_fields_it_does_not_read(driver, fields, named):
    for name in named.split(", "):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            driver(**_READS[driver], **{name: fields[name]})


def test_beta_sweep_counts_violations_of_a_faulty_tabulator(monkeypatch):
    monkeypatch.setattr(experiments.tabulate, "irv_batch", lambda pos, d, mid_cdf=None: (
        pos[:, 0], np.zeros(pos.shape[0], dtype=bool)
    ))
    s = run_beta_sweep([2.0], 8, run=RunSpec(2000, 0))["summaries"]
    assert s["alpha=2/irv"]["violations"] > 0
    assert s["alpha=2/plurality"]["violations"] == 0


def test_scatter_rejects_a_single_rule():
    # Scatter always compares both rules; it takes no `rules`.
    with pytest.raises(TypeError, match="unexpected keyword argument 'rules'"):
        run_scatter([3], rules=(Rule.IRV,), dist="uniform", run=_RUN)


def test_scatter_small_k_never_more_extreme(tmp_path):
    res = run_scatter([3, 4], dist="uniform", run=RunSpec(20_000, 6, out_dir=tmp_path))
    assert res["summaries"]["k3"]["irv_more_extreme"] == 0
    assert res["summaries"]["k4"]["irv_more_extreme"] == 0
    assert (tmp_path / "scatter_k3.csv").exists()


def test_verify_suite_passes(tmp_path):
    report = run_verify(0, tmp_path)
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    # every check carries a human-readable claim
    assert all(c["claim"] for c in report["checks"])
    saved = json.loads((tmp_path / "verify_report.json").read_text())
    assert saved["passed"]
    # The manifest records what verify reads, the seed, and the real duration.
    manifest = RunManifest.read(tmp_path / "verify_report.manifest.json")
    assert manifest.config == {"master_seed": 0}
    assert manifest.duration_seconds == saved["duration_seconds"] > 0
    # Each check is timed, within the suite's duration.
    assert 0 < sum(c["seconds"] for c in saved["checks"]) <= saved["duration_seconds"]


def test_verify_detects_injected_fault(monkeypatch):
    # Corrupt the tabulator: always elect the leftmost candidate, then the
    # second from the left. The zone soundness sweeps must notice. Whenever an
    # extreme pair binds its left side holds the leftmost candidate, so only
    # the second fault shows in the hyper-polarized sweep.
    for column, failing in ((0, {"uniform-zone-sweep"}),
                            (1, {"uniform-zone-sweep", "hyper-polarized-zone-sweep"})):
        monkeypatch.setattr(experiments.tabulate, "irv_batch",
                            lambda pos, d, mid_cdf=None, j=column: (
                                pos[:, j], np.zeros(pos.shape[0], dtype=bool)))
        report = run_verify(0)
        assert {c["name"] for c in report["checks"] if not c["passed"]} == failing
        assert not report["passed"]


def test_verify_rejects_a_negative_seed_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setattr(experiments, "_check", lambda *args: ran.append(args))
    with pytest.raises(DomainError, match="master seed must be >= 0"):
        run_verify(-1)
    with pytest.raises(DomainError, match="master seed must be an integer, got 1.5"):
        run_verify(1.5)
    assert ran == []


def test_check_records_any_exception_as_failure():
    def crash():
        raise ZeroDivisionError("boom")

    result = experiments._check("crash", "claim", None, crash)
    assert not result["passed"]
    assert result["detail"] == "ZeroDivisionError: boom"


# 1879842187 reached a 0.50011/0.49989 final round, which sampled ballots
# could not resolve; exact voter masses do.
@pytest.mark.parametrize("seed", [1879842187, *range(49)])
def test_oracle_check_sound_across_seeds(seed):
    assert experiments._verify_oracle_equivalence(seed) == {"checked": 30, "agreed": 30}


def _run_python(flags, code, **environ):
    """Run `code` in a fresh interpreter; `environ` sets variables, None unsets one."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for name, value in environ.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_verify_fails_under_python_O():
    # Same fault as above, in a process where assert statements are stripped.
    code = (
        "import numpy as np\n"
        "from irvsim import cli, tabulate\n"
        "tabulate.irv_batch = lambda pos, d, mid_cdf=None: (\n"
        "    pos[:, 0], np.zeros(pos.shape[0], bool))\n"
        "raise SystemExit(cli.main(['verify', '--seed', '0']))\n"
    )
    proc = _run_python(["-O"], code)
    assert proc.returncode == 2, proc.stderr
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["uniform-zone-sweep"]["detail"].startswith("CheckFailed:")


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so a check written as one would pass silently.
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "irvsim").glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_leaves_scipy_unloaded():
    # Importing the CLI, a Beta sweep (which needs F, its inverse and f) and
    # verify all leave every scipy module unloaded.
    code = (
        "import contextlib, io, sys\n"
        "from irvsim import cli\n"
        "from irvsim.dist import SymmetricBeta\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['betasweep', '--alpha', '0.3', '0.8', '2', '--k', '6',\n"
        "                     '--trials', '500']) == 0\n"
        "    assert cli.main(['verify', '--seed', '0']) == 0\n"
        "d = SymmetricBeta(0.3)\n"
        "d.density(d.quantile(d.cdf(0.2)))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = _run_python([], code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_leaves_numpy_ma_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "from irvsim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--seed', '0']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = _run_python([], code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Start-up: the package loads no numpy, and a CLI process pins OpenBLAS to one
# thread before numpy loads unless the user set OPENBLAS_NUM_THREADS.
_THREADS = (
    "import os\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "task = '/proc/self/task'\n"
    "print(len(os.listdir(task)) if os.path.isdir(task) else 'unknown')\n"
)


def test_package_import_loads_no_numpy():
    code = "import sys, irvsim\nprint('numpy' in sys.modules)\n" + _THREADS
    proc = _run_python([], code, OPENBLAS_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["False", "None"]


def test_math_modules_load_no_trial_engine():
    code = ("import sys, irvsim.zones, irvsim.exactk3\n"
            "print('irvsim.chunks' in sys.modules, 'concurrent.futures' in sys.modules)\n")
    proc = _run_python([], code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def _assert_cli_import_pins_openblas(**environ):
    proc = _run_python([], "import irvsim.cli\n" + _THREADS, **environ)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.splitlines()
    assert value == "1"
    if threads == "unknown":
        pytest.skip("no /proc/self/task to count the process's threads (not Linux)")
    assert threads == "1"


def test_cli_import_pins_openblas_to_one_thread():
    _assert_cli_import_pins_openblas(OPENBLAS_NUM_THREADS=None)


def test_cli_import_pins_an_empty_openblas_setting():
    # OpenBLAS reads an empty value as unset and starts its full pool.
    _assert_cli_import_pins_openblas(OPENBLAS_NUM_THREADS="")


def test_cli_import_keeps_a_user_openblas_setting():
    proc = _run_python([], "import irvsim.cli\n" + _THREADS, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "2"


def test_package_exports_resolve_lazily():
    code = (
        "import irvsim\n"
        "values = {name: getattr(irvsim, name) for name in irvsim.__all__}\n"
        "namespace = {}\n"
        "exec('from irvsim import *', namespace)\n"
        "assert all(namespace[name] is value for name, value in values.items())\n"
        "assert set(irvsim.__all__) <= set(dir(irvsim))\n"
        "assert irvsim.zones.zone_closed_form is irvsim.zone_closed_form\n"
        "try:\n"
        "    irvsim.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = _run_python([], code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "module 'irvsim' has no attribute 'no_such_name'"
    assert len(irvsim.__all__) == len(set(irvsim.__all__)) > 40


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_zone(capsys):
    assert cli.main(["zone", "--dist", "uniform"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c"] == pytest.approx(1 / 6, abs=1e-12)
    assert out["degenerate"] is False


def _write_cos2_table(directory):
    """cos2.csv in `directory`: 0.4 + cos^2(2 pi x), the goldens' table, with no interior zero."""
    rows = [f"{i / 200!r},{0.4 + math.cos(math.pi * i / 100) ** 2!r}" for i in range(201)]
    (directory / "cos2.csv").write_text("\n".join(["x,density", *rows]) + "\n")


# Small runs of every subcommand, with every warning raised as an error.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "3", "5", "--trials", "300"],
    ["simulate", "--dist", "table:cos2.csv", "--k", "4", "--trials", "300"],
    ["scatter", "--k", "3", "6", "--trials", "300"],
    ["density", "--points", "11"],
    ["gumbel", "--mode", "share", "--k", "200", "--trials", "50"],
    ["gumbel", "--mode", "circle", "--k", "200", "--trials", "50"],
    ["betasweep", "--alpha", "0.3", "0.5", "1", "2", "5", "--k", "8", "--trials", "300"],
    ["zone", "--dist", "beta:0.5"],
    ["verify"],
], ids=lambda argv: "-".join(argv[:3]))
def test_cli_runs_without_a_warning(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_cos2_table(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err
    if argv[0] == "zone":  # c = 0: the zone says nothing, and says so in its JSON
        assert json.loads(capsys.readouterr().out)["degenerate"] is True


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
    (["gumbel", "--mode", "circle", "--k", "50", "--trials", "10", "--out"], "--out"),
    (["zone", "--dist", "table:empty.csv"], "no rows"),
    (["simulate", "--trials", "0"], "trials must be >= 1"),
    (["scatter", "--k", "0"], "k must be >= 1"),
    (["betasweep", "--alpha", "1", "--k", "0"], "k must be >= 1"),
    # Two ks or alphas with one summary key would run twice and report once.
    (["simulate", "--k", "3", "3", "--trials", "10"], "share the summary key 'k3'"),
    (["scatter", "--k", "4", "3", "4", "--trials", "10"], "share the summary key 'k4'"),
    (["betasweep", "--alpha", "2", "2.0000001", "--k", "5", "--trials", "10"],
     "share the summary key 'alpha=2'"),
    # Every seeded subcommand rejects a negative seed before it runs anything.
    (["simulate", "--seed", "-1", "--trials", "10"], "--seed"),
    (["scatter", "--seed", "-1", "--trials", "10"], "--seed"),
    (["betasweep", "--alpha", "2", "--seed", "-1", "--trials", "10"], "--seed"),
    (["gumbel", "--seed", "-1", "--k", "50", "--trials", "10"], "--seed"),
    (["verify", "--seed", "-1"], "--seed"),
    # An infinite Beta alpha is not a distribution.
    (["simulate", "--dist", "beta:inf", "--trials", "10"], "alpha must be positive and finite"),
    (["betasweep", "--alpha", "inf", "--k", "5", "--trials", "10"],
     "alpha must be positive and finite"),
    (["zone", "--dist", "beta:inf"], "alpha must be positive and finite"),
    # An --out that cannot be a directory, and a rejected run that would have made one.
    (["simulate", "--out", "empty.csv", "--trials", "10"], "empty.csv"),
    (["simulate", "--out", "empty.csv/sub", "--trials", "10"], "empty.csv/sub"),
    (["verify", "--out", "empty.csv"], "empty.csv"),
    pytest.param(["simulate", "--out", "x" * 300, "--trials", "10"], "x" * 300,
                 id="out-name-too-long"),
    (["simulate", "--out", "D/sub", "--trials", "0"], "trials must be >= 1"),
    # Past the largest alpha whose CDF accuracy is measured, before any work.
    (["zone", "--dist", "beta:1e300"], "alpha must be positive and finite and at most 10000"),
    (["betasweep", "--alpha", "2", "1e5", "--k", "5", "--trials", "10"],
     "alpha must be positive and finite and at most 10000"),
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


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "empty.csv"],
    ["simulate", "--out", "empty.csv/sub", "--trials", "10"],
    ["simulate", "--out", "empty.csv", "--trials", "10"],
])
def test_cli_rejects_an_unusable_out_before_any_work(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.csv").write_text("")
    calls = []
    monkeypatch.setattr(experiments, "_check", lambda *a, **kw: calls.append("_check"))
    monkeypatch.setattr(experiments, "_elections",
                        lambda *a, **kw: calls.append("_elections"))
    assert cli.main(argv) == 1
    assert "Not a directory" in capsys.readouterr().err
    assert calls == []


_OUT_DIR_CALLERS = {
    "run_winner_histograms": lambda out: run_winner_histograms(
        [3, 30], rules=tuple(Rule), dist="uniform", run=RunSpec(10, 0, out_dir=out)),
    "run_scatter": lambda out: run_scatter([3], dist="uniform", run=RunSpec(10, 0, out_dir=out)),
    "run_beta_sweep": lambda out: run_beta_sweep([2.0], 5, run=RunSpec(10, 0, out_dir=out)),
    "run_gumbel": lambda out: run_gumbel("share", 100_000, run=RunSpec(10, 0, out_dir=out)),
    "run_density": lambda out: run_density(Rule.IRV, 11, out),
    "run_verify": lambda out: run_verify(0, out),
    "write_csv": lambda out: write_csv(out / "v.csv", ["v"], [range(3)], RunManifest({})),
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("caller", sorted(_OUT_DIR_CALLERS))
def test_library_rejects_an_unusable_out_dir_before_any_work(caller, under, tmp_path,
                                                              monkeypatch):
    (tmp_path / "empty.csv").write_text("")
    out = tmp_path / "empty.csv" / "sub" if under else tmp_path / "empty.csv"
    calls = []
    for module, name in [(experiments, "_elections"), (experiments, "_check"),
                         (experiments, "density_table"),
                         (asymptotics, "winning_share_experiment")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw: calls.append(name))
    with pytest.raises(NotADirectoryError, match=re.escape(str(out))):
        _OUT_DIR_CALLERS[caller](out)
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["empty.csv"]
    assert (tmp_path / "empty.csv").read_text() == ""


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
    assert RunManifest.read(tmp_path / "exact_density_irv_k3.manifest.json").duration_seconds > 0


def test_simulate_and_density_write_the_same_exact_table(tmp_path, capsys):
    for argv in (["simulate", "--rule", "irv", "--k", "3", "--trials", "10"],
                 ["density", "--rule", "irv"]):
        assert cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
    simulated, exact = (tmp_path / command / "exact_density_irv_k3.csv"
                        for command in ("simulate", "density"))
    assert simulated.read_bytes() == exact.read_bytes()


def _csv_columns(path):
    """A CSV's cells, as text, by column name."""
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


# 5,000 trials are two chunks, so two threads run them at once.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dist, k", [("uniform", 3), ("uniform", 6), ("table:cos2.csv", 4)])
def test_simulate_and_scatter_write_the_same_winners(dist, k, threads, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    _write_cos2_table(tmp_path)
    common = ["--dist", dist, "--k", str(k), "--trials", "5000", "--seed", "21",
              "--threads", str(threads)]
    for command in ("simulate", "scatter"):
        assert cli.main([command, *common, "--out", command]) == 0
    scatter = _csv_columns(tmp_path / "scatter" / f"scatter_k{k}.csv")
    for rule in ("plurality", "irv"):
        simulated = _csv_columns(tmp_path / "simulate" / f"winners_{rule}_k{k}.csv")
        assert simulated["winner_position"] == scatter[f"{rule}_position"], rule


@pytest.mark.parametrize("rule", ["plurality", "irv"])
@pytest.mark.parametrize("dist", ["uniform", "table:cos2.csv"])
def test_simulate_one_rule_writes_the_bytes_of_both(rule, dist, tmp_path, monkeypatch, capsys):
    # One rule alone draws the profiles of both rules, which are scatter's.
    monkeypatch.chdir(tmp_path)
    _write_cos2_table(tmp_path)
    common = ["--dist", dist, "--k", "3", "5", "--trials", "5000", "--seed", "22"]
    for rules in (rule, "both"):
        assert cli.main(["simulate", *common, "--rule", rules, "--out", rules]) == 0
    assert cli.main(["scatter", *common, "--out", "scatter"]) == 0
    alone = sorted(p.name for p in (tmp_path / rule).glob("*.csv"))
    overlay = [f"exact_density_{rule}_k3.csv"] if dist == "uniform" else []
    assert alone == sorted([*overlay, f"winners_{rule}_k3.csv", f"winners_{rule}_k5.csv"])
    for name in alone:
        assert (tmp_path / rule / name).read_bytes() == (tmp_path / "both" / name).read_bytes()
    for k in (3, 5):
        simulated = _csv_columns(tmp_path / rule / f"winners_{rule}_k{k}.csv")
        scatter = _csv_columns(tmp_path / "scatter" / f"scatter_k{k}.csv")
        assert simulated["winner_position"] == scatter[f"{rule}_position"]


def test_cli_every_csv_has_a_manifest(tmp_path, capsys):
    runs = [
        ["simulate", "--k", "3", "--trials", "200", "--seed", "3"],
        ["scatter", "--k", "3", "--trials", "200", "--seed", "3"],
        ["betasweep", "--alpha", "2", "--k", "5", "--trials", "200", "--seed", "3"],
        ["density", "--rule", "plurality", "--points", "11"],
        ["gumbel", "--mode", "share", "--k", "50", "--trials", "40", "--seed", "3"],
        ["gumbel", "--mode", "circle", "--k", "50", "--trials", "40", "--seed", "3"],
    ]
    for argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert {"exact_density_irv_k3.csv", "gumbel_share_k50.csv", "gumbel_circle_k50.csv"} <= {*csvs}
    for name in csvs:
        assert (tmp_path / name.replace(".csv", ".manifest.json")).exists(), name
    gumbel = RunManifest.read(tmp_path / "gumbel_share_k50.manifest.json")
    assert gumbel.config == {"mode": "share", "k": 50, "trials": 40, "master_seed": 3,
                             "threads": 1}
    assert gumbel.duration_seconds > 0
    simulate = RunManifest.read(tmp_path / "winners_irv_k3.manifest.json")
    assert "format" not in simulate.config and "tie_rule" not in simulate.config


# The stdout keys each command printed before it ran through an experiments
# driver; the benchmark reads gumbel's "ks".
_GUMBEL_KEYS = {"k", "trials", "ks", "median", "mean"}


@pytest.mark.parametrize("argv, keys", [
    (["gumbel", "--mode", "share", "--k", "50", "--trials", "40"], _GUMBEL_KEYS),
    (["gumbel", "--mode", "maxgap", "--k", "50", "--trials", "40"], _GUMBEL_KEYS),
    (["gumbel", "--mode", "circle", "--k", "50", "--trials", "40"],
     {"k", "trials", "disagreement_rate"}),
    (["density", "--rule", "irv", "--points", "11"], {"x", "density"}),
], ids=["gumbel-share", "gumbel-maxgap", "gumbel-circle", "density"])
@pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
def test_cli_stdout_is_unchanged(argv, keys, out, tmp_path, capsys):
    assert cli.main(argv + (["--out", str(tmp_path)] if out else [])) == 0
    stdout = capsys.readouterr().out
    if out and argv[0] == "density":  # it prints the path of the CSV it wrote
        assert stdout == f"{tmp_path / 'exact_density_irv_k3.csv'}\n"
    else:
        assert set(json.loads(stdout)) == keys


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


# The manifest `config` each subcommand writes, pinned to the keys and values
# that earlier manifests hold; a driver records only the arguments it reads.
_MANIFEST_CONFIGS = {
    "simulate": (
        ["simulate", "--k", "3", "4", "--trials", "20", "--seed", "3", "--rule", "irv",
         "--dist", "beta:2", "--threads", "2"],
        "winners_irv_k4.manifest.json",
        {"rules": ["irv"], "dist": "beta:2", "ks": [3, 4], "trials": 20, "master_seed": 3,
         "threads": 2},
    ),
    "scatter": (
        ["scatter", "--k", "3", "--trials", "20", "--seed", "3"],
        "scatter_k3.manifest.json",
        {"rules": ["plurality", "irv"], "dist": "uniform", "ks": [3], "trials": 20,
         "master_seed": 3, "threads": 1},
    ),
    "betasweep": (
        ["betasweep", "--alpha", "2", "0.5", "--k", "5", "--trials", "20", "--seed", "3"],
        "beta_sweep.manifest.json",
        {"rules": ["plurality", "irv"], "ks": [5], "alphas": [2.0, 0.5], "trials": 20,
         "master_seed": 3, "threads": 1},
    ),
    "density": (
        ["density", "--rule", "plurality", "--points", "11"],
        "exact_density_plurality_k3.manifest.json",
        {"rule": "plurality", "points": 11},
    ),
    "gumbel": (
        ["gumbel", "--mode", "share", "--k", "50", "--trials", "40", "--seed", "3"],
        "gumbel_share_k50.manifest.json",
        {"mode": "share", "k": 50, "trials": 40, "master_seed": 3, "threads": 1},
    ),
    "verify": (["verify", "--seed", "3"], "verify_report.manifest.json", {"master_seed": 3}),
}


@pytest.mark.parametrize("command", sorted(_MANIFEST_CONFIGS))
def test_cli_manifest_config_is_pinned(command, tmp_path, capsys):
    argv, name, config = _MANIFEST_CONFIGS[command]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / name).exists()
    for path in tmp_path.glob("*.manifest.json"):
        assert RunManifest.read(path).config == config, path.name
