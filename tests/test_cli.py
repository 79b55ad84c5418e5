"""End-to-end tests of the command-line front end via main(argv)."""

import argparse
import csv
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2pbackup import __version__, cli, trace
from p2pbackup.sim import SimConfig

import import_cost
from conftest import make_matrix, tool_output


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_manifest(out_dir):
    with open(out_dir / "run-manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- trace-synth ---------------------------------------------------------

def test_trace_synth_writes_trace_and_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["trace-synth", "--peers", "6", "--slots", "24",
                   "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    matrix = trace.read_matrix_file(out / "trace.txt")
    assert (matrix.num_peers, matrix.num_slots) == (6, 24)
    manifest = read_manifest(out)
    assert manifest["subcommand"] == "trace-synth"
    assert manifest["seed"] == 3
    assert manifest["peers"] == 6
    assert "version" in manifest
    assert "(6 peers x 24 slots)" in capsys.readouterr().out


def test_trace_synth_same_seed_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, ["9", "9", "10"]):
        cli.main(["trace-synth", "--peers", "8", "--slots", "48",
                  "--seed", seed, "--out-dir", str(d)])
    a, b, c = [(d / "trace.txt").read_bytes() for d in dirs]
    assert a == b
    assert a != c


def test_trace_synth_custom_name(tmp_path):
    out = tmp_path / "o"
    cli.main(["trace-synth", "--peers", "2", "--slots", "4",
              "--name", "week.txt", "--out-dir", str(out)])
    assert (out / "week.txt").exists()


# -- trace-stats ---------------------------------------------------------

def test_trace_stats_from_matrix_file(tmp_path, capsys):
    matrix = make_matrix(["1100", "1111"])
    src = tmp_path / "m.txt"
    trace.write_matrix_file(matrix, src)
    out = tmp_path / "o"
    rc = cli.main(["trace-stats", "--matrix", str(src), "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "trace-stats.csv")
    assert [float(r["availability"]) for r in rows] == [0.5, 1.0]
    manifest = read_manifest(out)
    assert manifest["system_availability"] == 0.75
    assert "system availability 0.7500" in capsys.readouterr().out


def test_trace_stats_min_uptime_filters_rows(tmp_path, capsys):
    matrix = make_matrix(["1100", "1111"])
    src = tmp_path / "m.txt"
    trace.write_matrix_file(matrix, src)
    out = tmp_path / "o"
    rc = cli.main(["trace-stats", "--matrix", str(src),
                   "--min-uptime", "0.9", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "trace-stats.csv")
    assert len(rows) == 1 and float(rows[0]["availability"]) == 1.0
    assert "1 kept by uptime filter" in capsys.readouterr().out


def test_trace_stats_min_uptime_names_the_kept_rows_by_their_index(tmp_path):
    # the 40 x 168 seed-7 trace of the golden tests; peer 6 is below 0.3
    assert cli.main(["trace-synth", "--peers", "40", "--slots", "168", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    src = str(tmp_path / "trace.txt")
    assert cli.main(["trace-stats", "--matrix", src, "--out-dir", str(tmp_path / "all")]) == 0
    assert cli.main(["trace-stats", "--matrix", src, "--min-uptime", "0.3", "--out-dir", str(tmp_path / "kept")]) == 0
    every = read_csv(tmp_path / "all" / "trace-stats.csv")
    kept = read_csv(tmp_path / "kept" / "trace-stats.csv")
    assert kept == [row for row in every if float(row["availability"]) >= 0.3]
    assert "6" not in [row["peer_id"] for row in kept]


def test_trace_stats_from_event_file(tmp_path):
    src = tmp_path / "events.csv"
    src.write_text("p1,0,login\np1,3600,logoff\np2,0,login\np2,7200,logoff\n")
    out = tmp_path / "o"
    rc = cli.main(["trace-stats", "--events", str(src),
                   "--slot-seconds", "3600", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "trace-stats.csv")
    assert [r["peer_id"] for r in rows] == ["p1", "p2"]
    assert [float(r["availability"]) for r in rows] == [0.5, 1.0]


@pytest.mark.parametrize("stamp", ["nan", "inf"])
def test_trace_stats_rejects_a_non_finite_timestamp(tmp_path, capsys, stamp):
    src = tmp_path / "events.csv"
    src.write_text(f"p1,0,login\np1,{stamp},logoff\n")
    rc = cli.main(["trace-stats", "--events", str(src), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: line 2: non-finite timestamp {stamp}")


def test_trace_stats_prints_parse_warnings(tmp_path, capsys):
    src = tmp_path / "events.csv"
    src.write_text("p1,1800,logoff\np2,0,login\n")
    rc = cli.main(["trace-stats", "--events", str(src), "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and "login at epoch" in err[0]


def test_trace_stats_requires_a_source(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["trace-stats", "--out-dir", str(tmp_path / "o")])


def test_trace_stats_missing_file_is_an_error(tmp_path, capsys):
    rc = cli.main(["trace-stats", "--matrix", str(tmp_path / "absent.txt"),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("slot_seconds", ["nan", "inf", "0"])
def test_trace_synth_rejects_a_bad_slot_length(tmp_path, capsys, slot_seconds):
    out = tmp_path / "o"
    rc = cli.main(["trace-synth", "--peers", "3", "--slots", "4", "--slot-seconds", slot_seconds,
                   "--out-dir", str(out)])
    assert rc == 1
    assert "slot_seconds must be positive and finite" in capsys.readouterr().err
    assert not (out / "trace.txt").exists()


def test_simulate_rejects_an_infinite_slot_length(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("peers=2 slots=2 slot_seconds=1e999\n11\n01\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--matrix", str(matrix), "--out-dir", str(out)]) == 1
    assert "line 1: slot_seconds must be a positive finite number, got 1e999" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_trace_synth_rejects_a_horizon_too_large_for_a_float(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["trace-synth", "--peers", "3", "--slots", "6", "--slot-seconds", "1e308", "--out-dir", str(out)])
    assert rc == 1
    assert "slot_seconds = 1e+308 over 6 slots makes a horizon too large for a float" in capsys.readouterr().err
    assert not (out / "trace.txt").exists()


def test_simulate_rejects_a_horizon_too_large_for_a_float(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("peers=2 slots=2 slot_seconds=1e308\n11\n01\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--matrix", str(matrix), "--out-dir", str(out)]) == 1
    assert "line 1: slot_seconds = 1e308 over 2 slots makes a horizon too large for a float" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_a_failed_call_leaves_no_directory_it_created(tmp_path, capsys):
    # a flag the subcommand rejects after main made --out-dir, and a run that fails on its input
    with pytest.raises(SystemExit, match="--x must list whole numbers"):
        cli.main(["sched-compare", "--x", "1.5", "--out-dir", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()
    assert cli.main(["trace-stats", "--matrix", str(tmp_path / "absent.txt"),
                     "--out-dir", str(tmp_path / "a" / "b" / "c")]) == 1
    assert not (tmp_path / "a").exists()
    # a directory that was there before the call stays, with what it held
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("mine\n", encoding="utf-8")
    assert cli.main(["trace-stats", "--matrix", str(tmp_path / "absent.txt"),
                     "--out-dir", str(kept / "sub")]) == 1
    assert sorted(p.name for p in kept.iterdir()) == ["note.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]


# -- plan ----------------------------------------------------------------

def test_plan_redundancy_query(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["plan", "--k", "64", "--a", "0.36", "--target", "0.99",
                   "--out-dir", str(out)])
    assert rc == 0
    assert "-> n=222" in capsys.readouterr().out
    rows = read_csv(out / "plan.csv")
    assert len(rows) == 1
    assert rows[0]["mode"] == "n"
    assert rows[0]["n"] == "222"


def test_plan_loss_query(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["plan", "--loss", "--n", "2", "--k", "1",
                   "--t-days", "90", "--lifetime", "90", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "plan.csv")
    p = float(rows[0]["probability"])
    assert p == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-12)
    assert "p=0.399576" in capsys.readouterr().out


def test_plan_loss_zero_window(tmp_path):
    out = tmp_path / "o"
    cli.main(["plan", "--loss", "--n", "4", "--k", "2",
              "--t-days", "0", "--out-dir", str(out)])
    rows = read_csv(out / "plan.csv")
    assert float(rows[0]["probability"]) == 0.0


def test_plan_batch_mixes_modes(tmp_path, capsys):
    batch = tmp_path / "batch.csv"
    with open(batch, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "mode", "k", "a", "target", "n", "t_days", "mean_lifetime_days"])
        writer.writeheader()
        writer.writerow({"mode": "n", "k": "4", "a": "0.5", "target": "0.9"})
        writer.writerow({"mode": "loss", "n": "2", "k": "1",
                         "t_days": "90", "mean_lifetime_days": "90"})
    out = tmp_path / "o"
    rc = cli.main(["plan", "--batch", str(batch), "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "plan.csv")
    assert [r["mode"] for r in rows] == ["n", "loss"]
    assert int(rows[0]["n"]) >= 4
    assert read_manifest(out)["queries"] == 2
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


FULL_HEADER = "mode,k,a,target,n,t_days,mean_lifetime_days"


@pytest.mark.parametrize("lines, message", [
    ([FULL_HEADER, "n,4,0.5,0.9,,,", "n,4"], "line 3: missing a"),
    (["mode,k,a", "n,4,0.5"], "line 2: missing target"),
    ([FULL_HEADER, "n,4,0.5,0.9,,,", "n,eight,0.5,0.9,,,"], "line 3: k must be an integer, got 'eight'"),
    ([FULL_HEADER, "loss,1,,,2,ninety,90"], "line 2: t_days must be a number, got 'ninety'"),
    ([FULL_HEADER, "n,4,0.5,0.9,,,", "fixed,4,0.5,0.9,,,"], "line 3: mode must be n or loss, got 'fixed'"),
    ([FULL_HEADER, "n,4,1.5,0.9,,,"], "line 2: a must be in (0, 1]"),
    ([FULL_HEADER, "n,4,0.5,0.9,,,", "loss,2,,,4,nan,90"], "line 3: t_elapsed must be non-negative"),
    ([FULL_HEADER, "loss,2,,,4,1,nan"], "line 2: mean_lifetime must be positive"),
    ([FULL_HEADER, "n,4,0.5,0.9,,,", "loss,2,,,4,inf,inf"],
     "line 3: t_elapsed and mean_lifetime cannot both be infinite"),
])
def test_plan_batch_names_the_line_and_field_of_a_bad_row(tmp_path, capsys, lines, message):
    batch = tmp_path / "batch.csv"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["plan", "--batch", str(batch), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {batch}: {message}\n"


# per column of a plan batch, values a query accepts
PLAN_GOOD = {"mode": ["n", "loss", ""], "k": ["1", "4", "64"], "a": ["0.36", "0.5", "1"],
             "target": ["0.5", "0.99"], "n": ["4", "222"], "t_days": ["0", "1", "90", "inf"],
             "mean_lifetime_days": ["90", "inf", "1e-300"], "extra": ["x"]}
PLAN_EDGE = ["0", "-1", "1.5", "nan", "inf", "-inf", "1e308", "5e-324", str(2**63), "9" * 400, "1e3", "abc", " 4 "]
# a query's own fields and its result: none of them may read empty (a nan cell) in plan.csv
PLAN_RESULT = {"n": ("k", "a", "target", "n"), "loss": ("n", "k", "t_days", "mean_lifetime_days", "probability")}


@st.composite
def plan_batches(draw):
    """A plan batch: the full header, or six of its columns and an unknown
    one in any order, then up to four rows of values each column accepts.
    One row in four has one cell turned into a bound, a non-finite or huge
    number, or text with quotes, commas, newlines or a NUL, and may lose
    its last cell or gain one."""
    columns = list(PLAN_GOOD)
    header = draw(st.one_of(st.just(columns[:-1]), st.permutations(columns).map(lambda c: c[:-2])))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        cells = [draw(st.sampled_from(PLAN_GOOD[column])) for column in header]
        if draw(st.integers(0, 3)) == 0:
            bad = st.one_of(st.sampled_from(PLAN_EDGE), st.text('0123456789.e-",\r\n\x00', max_size=6))
            cells[draw(st.integers(0, len(cells) - 1))] = draw(bad)
            cells = cells[:draw(st.integers(len(cells) - 1, len(cells)))] + draw(st.sampled_from([[], ["1"]]))
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def test_plan_batch_writes_every_query_or_names_its_line(tmp_path):
    """Any batch text either writes one plan.csv row per record, with no
    empty (nan) cell among its query's fields and result, or raises a
    ValueError naming the line; no other exception escapes.  The sweep must
    see both."""
    seen = set()
    path, out = tmp_path / "batch.csv", tmp_path / "o"
    out.mkdir()

    @settings(max_examples=200, deadline=None)
    @given(plan_batches())
    @example("mode,k,a,target\nn,4,0.5," + "9" * 140_000)  # a field over csv's size limit
    @example("mode,k,n,t_days,mean_lifetime_days\nloss,2," + "9" * 400 + ",1,90")  # n too large for a float
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        (out / "plan.csv").unlink(missing_ok=True)
        try:
            cli.cmd_plan(argparse.Namespace(batch=path), out)
        except ValueError as exc:
            line = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
            assert line and 1 <= int(line[1]) <= len(text.splitlines()), str(exc)
            seen.add("line error")
            return
        records = [r for r in csv.reader(text.splitlines(keepends=True)) if r][1:]
        rows = read_csv(out / "plan.csv")
        assert len(rows) == len(records)
        for row in rows:
            assert all(row[name] not in ("", "nan") for name in PLAN_RESULT[row["mode"]]), row
        seen.add("wrote")

    check()
    assert seen == {"wrote", "line error"}


@pytest.mark.parametrize("flag", ["--t-days", "--lifetime"])
def test_plan_loss_rejects_nan(tmp_path, capsys, flag):
    values = {"--t-days": "1", "--lifetime": "90", flag: "nan"}
    out = tmp_path / "o"
    rc = cli.main(["plan", "--loss", "--n", "4", "--k", "2", *(a for pair in values.items() for a in pair),
                   "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "plan.csv").exists()


def test_plan_loss_rejects_an_infinite_window_over_an_infinite_lifetime(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["plan", "--loss", "--n", "4", "--k", "2", "--t-days", "inf", "--lifetime", "inf",
                   "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: t_elapsed and mean_lifetime cannot both be infinite\n"
    assert not (out / "plan.csv").exists()


def test_plan_requires_complete_query(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["plan", "--k", "64", "--out-dir", str(tmp_path / "o")])
    with pytest.raises(SystemExit):
        cli.main(["plan", "--loss", "--n", "2", "--out-dir", str(tmp_path / "o")])


# -- sched-compare -------------------------------------------------------

def test_sched_compare_grid(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["sched-compare", "--synth-peers", "10", "--synth-slots", "60",
                   "--avail-low", "0.5", "--avail-high", "0.9",
                   "--x", "2,20", "--ratios", "1.5,2.0", "--trials", "5",
                   "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "sched-compare.csv")
    assert len(rows) == 4
    small = [r for r in rows if r["x"] == "2"]
    big = [r for r in rows if r["x"] == "20"]
    for r in big:
        assert "skipped" in r["note"]
        assert r["trials_used"] == "0"
    used = [r for r in small if int(r["trials_used"]) > 0]
    assert used
    for r in used:
        # optimal can never beat the no-contention bound, random never beats optimal
        assert float(r["mean_optimal_norm"]) >= 1.0 - 1e-12
        assert float(r["mean_random_norm"]) >= float(r["mean_optimal_norm"]) - 1e-12
        assert float(r["mean_random"]) >= float(r["mean_optimal"]) - 1e-12


def test_sched_compare_notes_a_grid_point_without_feasible_trials(tmp_path):
    matrix_path, out = tmp_path / "m.txt", tmp_path / "o"
    trace.write_matrix_file(make_matrix(["0" * 10] * 4), matrix_path)  # nobody is ever online
    rc = cli.main(["sched-compare", "--matrix", str(matrix_path), "--x", "1", "--ratios", "2",
                   "--trials", "3", "--out-dir", str(out)])
    assert rc == 0
    [row] = read_csv(out / "sched-compare.csv")
    assert (row["trials_used"], row["note"], row["mean_optimal"]) == ("0", "no feasible trials", "")


def test_sched_compare_runs_on_a_matrix_without_slots(tmp_path):
    matrix_path, out = tmp_path / "m.txt", tmp_path / "o"
    trace.write_matrix_file(trace.AvailabilityMatrix(bits=np.zeros((3, 0), dtype=np.uint8)), matrix_path)
    rc = cli.main(["sched-compare", "--matrix", str(matrix_path), "--x", "1", "--ratios", "2",
                   "--trials", "3", "--out-dir", str(out)])
    assert rc == 0
    [row] = read_csv(out / "sched-compare.csv")
    assert (row["trials_used"], row["note"], row["mean_optimal"]) == ("0", "no feasible trials", "")


def test_sched_compare_rejects_ratio_at_most_one(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["sched-compare", "--synth-peers", "6", "--synth-slots", "20",
                  "--x", "2", "--ratios", "1.0", "--trials", "2",
                  "--out-dir", str(tmp_path / "o")])


@pytest.mark.parametrize("flag, value", [
    ("--ratios", "inf"), ("--ratios", "nan"), ("--ratios", "1.5,-inf"), ("--ratios", "1e308"),
    ("--trials", "0"), ("--trials", "-3"), ("--x", "0"), ("--x", "4,-2"),
])
def test_sched_compare_rejects_a_bad_grid_before_it_runs(tmp_path, flag, value):
    grid = {"--x": "2", "--ratios": "1.5", "--trials": "2", flag: value}
    with pytest.raises(SystemExit, match=f"sched-compare: {flag} must") as excinfo:
        cli.main(["sched-compare", "--synth-peers", "6", "--synth-slots", "20",
                  *(item for pair in grid.items() for item in pair), "--out-dir", str(tmp_path / "o")])
    assert excinfo.value.code != 0
    assert not (tmp_path / "o" / "sched-compare.csv").exists()


@pytest.mark.parametrize("flag, value, entry", [
    ("--x", "1.5", "1.5"), ("--x", "2, two ,3", "two"), ("--ratios", "1.5,abc", "abc"), ("--ratios", "1.5,,2x", "2x"),
])
def test_sched_compare_names_the_list_entry_it_cannot_read(tmp_path, flag, value, entry):
    grid = {"--x": "2", "--ratios": "1.5", "--trials": "2", flag: value}
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sched-compare", "--synth-peers", "6", "--synth-slots", "20",
                  *(item for pair in grid.items() for item in pair), "--out-dir", str(tmp_path / "o")])
    # a message for its code, so the process exits with status 1
    assert re.fullmatch(f"sched-compare: {flag} must list (whole )?numbers, got '{entry}'", str(excinfo.value.code))
    assert not (tmp_path / "o" / "sched-compare.csv").exists()


# -- simulate ------------------------------------------------------------

SIM_MATRIX_ROWS = ["1" * 16] * 6


def write_sim_inputs(tmp_path, flat_cdf_file, **config_overrides):
    matrix_path = tmp_path / "m.txt"
    trace.write_matrix_file(make_matrix(SIM_MATRIX_ROWS), matrix_path)
    entries = {
        "object_size": 2048,
        "fragment_size": 1024,
        "storage_quota": 65536,
        "mean_lifetime_days": 1e9,
        "redundancy_policy": "fixed",
        "fixed_target": 0.5,
        "bandwidth_source": "file",
        "bandwidth_file": str(flat_cdf_file),
    }
    entries.update(config_overrides)
    config_path = tmp_path / "sim.cfg"
    config_path.write_text(
        "".join(f"{key} = {value}\n" for key, value in entries.items()))
    return matrix_path, config_path


def test_simulate_single_run_outputs(tmp_path, flat_cdf_file, capsys):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--matrix", str(matrix_path),
                   "--config", str(config_path), "--seed", "5",
                   "--out-dir", str(out)])
    assert rc == 0
    for name in ["peers.csv", "crashes.csv", "server.csv", "summary.csv"]:
        assert (out / "run-0" / name).exists()
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = next(csv.DictReader(fh))
    assert summary["runs"] == "1"
    assert float(summary["num_peers"]) == 6.0
    manifest = read_manifest(out)
    assert manifest["seed"] == 5
    assert manifest["config"]["object_size"] == 2048
    assert manifest["config"]["fragment_size"] == 1024
    assert manifest["source"] == {"matrix": str(matrix_path)}
    assert "1 run(s) complete" in capsys.readouterr().out


@pytest.mark.parametrize("overrides, warning", [
    pytest.param({"object_size": 2048}, None, id="2048-True"),
    # k = 2 fits on the 5 other peers; k = 8 cannot
    pytest.param({"object_size": 8192}, ("fixed n = ", "needs more holders than the 5 other peers"),
                 id="8192-False"),
    # no peer can hold a fragment of 1024 bytes
    pytest.param({"storage_quota": 512}, ("storage_quota = 512", "is below one fragment of 1024 bytes"),
                 id="quota-512-False"),
])
def test_simulate_flags_unreachable_holder_target(tmp_path, flat_cdf_file, capsys, overrides, warning):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file, **overrides)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--matrix", str(matrix_path),
                   "--config", str(config_path), "--out-dir", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    if warning is None:
        assert err == ""
    else:
        assert err.startswith("warning: " + warning[0])
        assert err.rstrip().endswith(warning[1])
        assert len(err.splitlines()) == 1
    manifest = read_manifest(out)
    assert manifest["max_holders"] == 5
    assert manifest["target_reachable"] is (warning is None)
    assert (out / "run-0" / "summary.csv").exists()


def test_simulate_rejects_a_non_finite_integer_config_value(tmp_path, flat_cdf_file, capsys):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file, storage_quota="inf")
    rc = cli.main(["simulate", "--matrix", str(matrix_path),
                   "--config", str(config_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: storage_quota must be finite, got inf")


@pytest.mark.parametrize("source", ["file", "flag"])
def test_simulate_names_the_key_of_a_number_that_does_not_parse(tmp_path, flat_cdf_file, capsys, source):
    overrides = {"storage_quota": "abc"} if source == "file" else {}
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file, **overrides)
    flags = ["--storage-quota", "abc"] if source == "flag" else []
    rc = cli.main(["simulate", "--matrix", str(matrix_path), "--config", str(config_path), *flags,
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: storage_quota must be an integer, got 'abc'"]


@pytest.mark.parametrize("source, key, value, message", [
    ("flag", "backup_parallelism", "1e20", "backup_parallelism must fit in int64, got 100000000000000000000"),
    ("flag", "parallel_downloads", "1e20", "parallel_downloads must fit in int64, got 100000000000000000000"),
    ("flag", "bandwidth_median_kbs", "1e308",
     "bandwidth_median_kbs = 1e+308 and bandwidth_sigma = 1.852 draw an uplink too large for a float"),
    ("flag", "seed", "-1", "seed must be non-negative, got -1"),
    ("file", "seed", "-1", "seed must be non-negative, got -1"),
], ids=["backup-parallelism", "parallel-downloads", "bandwidth", "seed-flag", "seed-file"])
def test_simulate_names_the_setting_it_cannot_run(tmp_path, flat_cdf_file, capsys, source, key, value, message):
    """A value the run cannot use is an error naming its setting, not a
    traceback, a NaN further on, or numpy's own message."""
    overrides = {"bandwidth_source": "lognormal", "mean_lifetime_days": 0.5}
    if source == "file":
        overrides[key] = value
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file, **overrides)
    flags = ["--" + key.replace("_", "-"), value] if source == "flag" else []
    rc = cli.main(["simulate", "--matrix", str(matrix_path), "--config", str(config_path), *flags,
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, flag, value", [
    (["simulate", "--matrix", "{m}", "--config", "{c}"], "--parallel-downloads", "-1e20"),
    (["plan", "--k", "4", "--a", "0.5"], "--target", "-1e-3"),
    (["plan", "--loss", "--n", "10", "--k", "5"], "--t-days", "-1e3"),
    (["plan", "--k", "4", "--a", "0.5"], "--target", "-inf"),
], ids=["simulate", "plan-target", "plan-t-days", "plan-inf"])
def test_a_negative_number_with_an_exponent_is_a_flag_value(tmp_path, flat_cdf_file, capsys, argv, flag, value):
    """A flag's value spelled -1e20 or -inf reaches the check that the
    --flag=-1e20 spelling reaches, as -1 does; argparse does not read it as
    an option."""
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    argv = [arg.format(m=matrix_path, c=config_path) for arg in argv]
    errors = []
    for flags in ([flag, value], [f"{flag}={value}"]):
        assert cli.main([*argv, *flags, "--out-dir", str(tmp_path / "o")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("error: "), errors


@pytest.mark.parametrize("seed, message", [("-1", "seed must be non-negative, got -1"),
                                           ("abc", "seed must be an integer, got 'abc'")], ids=["negative", "junk"])
@pytest.mark.parametrize("argv", [["trace-synth", "--peers", "3", "--slots", "4"],
                                  ["sched-compare", "--synth-peers", "5", "--synth-slots", "10"]],
                         ids=["trace-synth", "sched-compare"])
def test_seeded_subcommands_name_a_bad_seed(tmp_path, capsys, argv, seed, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", seed, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: argument --seed: {message}")


def test_simulate_flags_parse_as_config_values(tmp_path, flat_cdf_file):
    """A flag takes what its config key takes, such as 1e10 for an integer."""
    configs = []
    for source in ("file", "flag"):
        run_dir = tmp_path / source
        run_dir.mkdir()
        overrides = {"storage_quota": "1e10", "loss_cap": "1e-3"} if source == "file" else {}
        matrix_path, config_path = write_sim_inputs(run_dir, flat_cdf_file, **overrides)
        flags = ["--storage-quota", "1e10", "--loss-cap", "1e-3"] if source == "flag" else []
        rc = cli.main(["simulate", "--matrix", str(matrix_path), "--config", str(config_path), *flags,
                       "--out-dir", str(run_dir / "o")])
        assert rc == 0
        configs.append(read_manifest(run_dir / "o")["config"])
    assert configs[0] == configs[1]
    assert (configs[1]["storage_quota"], configs[1]["loss_cap"]) == (10**10, 1e-3)


def test_simulate_seed_flag_parses_as_its_config_key(tmp_path, flat_cdf_file, capsys):
    """--seed takes what seed = takes in a config file, such as 1e3, and
    names the key of a value that does not parse.  The trace is drawn from
    the seed, so the runs differ from one at seed 0."""
    runs = {}
    for source, overrides, flags in [("file", {"seed": "1e3"}, []), ("flag", {}, ["--seed", "1e3"]),
                                     ("zero", {}, [])]:
        run_dir = tmp_path / source
        run_dir.mkdir()
        _, config_path = write_sim_inputs(run_dir, flat_cdf_file, **overrides)
        rc = cli.main(["simulate", "--synth-peers", "12", "--synth-slots", "48", "--config", str(config_path),
                       *flags, "--out-dir", str(run_dir / "o")])
        assert rc == 0
        assert read_manifest(run_dir / "o")["seed"] == (0 if source == "zero" else 1000)
        runs[source] = [(run_dir / "o" / "run-0" / name).read_bytes()
                        for name in ("peers.csv", "crashes.csv", "server.csv", "summary.csv")]
    assert runs["file"] == runs["flag"] != runs["zero"]
    capsys.readouterr()
    rc = cli.main(["simulate", "--synth-peers", "12", "--synth-slots", "48", "--config", str(config_path),
                   "--seed", "abc", "--out-dir", str(tmp_path / "bad")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be an integer, got 'abc'"]


def test_simulate_same_seed_byte_identical(tmp_path, flat_cdf_file):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        cli.main(["simulate", "--matrix", str(matrix_path),
                  "--config", str(config_path), "--seed", "5",
                  "--out-dir", str(out)])
    for name in ["run-0/peers.csv", "run-0/crashes.csv", "summary.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_multi_run_averages(tmp_path, flat_cdf_file):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    for policy in ("fixed", "adaptive"):
        out = tmp_path / policy
        rc = cli.main(["simulate", "--matrix", str(matrix_path),
                       "--config", str(config_path), "--runs", "2", "--policy", policy,
                       "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        (summary,) = read_csv(out / "summary.csv")
        # the average, made in memory, agrees with one made from the per-run files
        runs = [read_csv(out / f"run-{i}" / "summary.csv")[0] for i in range(2)]
        assert summary.pop("runs") == "2" and summary.keys() == runs[0].keys()
        for key, value in summary.items():
            cells = [run[key] for run in runs]
            if key in ("policy", "response"):
                assert value == cells[0], key
            else:
                numbers = [float(c) for c in cells if c != ""]  # an empty cell is NaN
                assert float(value) == np.mean(numbers) if numbers else value == "", key


def test_simulate_flags_override_config_file(tmp_path, flat_cdf_file):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--matrix", str(matrix_path),
                   "--config", str(config_path), "--policy", "adaptive",
                   "--parallel-downloads", "2", "--out-dir", str(out)])
    assert rc == 0
    config = read_manifest(out)["config"]
    assert config["redundancy_policy"] == "adaptive"
    assert config["parallel_downloads"] == 2


def test_simulate_seed_falls_back_to_config_file(tmp_path, flat_cdf_file):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file, seed=41)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--matrix", str(matrix_path),
                   "--config", str(config_path), "--out-dir", str(out)])
    assert rc == 0
    assert read_manifest(out)["seed"] == 41


def test_simulate_without_seed_reproduces_synthesized_trace(tmp_path, flat_cdf_file):
    _, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli.main(["simulate", "--synth-peers", "12", "--synth-slots", "48",
                       "--config", str(config_path), "--out-dir", str(out)])
        assert rc == 0
        assert read_manifest(out)["seed"] == 0
    for name in ["run-0/peers.csv", "run-0/crashes.csv", "run-0/server.csv", "summary.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_rejects_zero_runs(tmp_path, flat_cdf_file):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--matrix", str(matrix_path),
                  "--config", str(config_path), "--runs", "0",
                  "--out-dir", str(tmp_path / "o")])


def test_simulate_rejects_a_negative_storage_quota(tmp_path, flat_cdf_file, capsys):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    rc = cli.main(["simulate", "--matrix", str(matrix_path), "--config", str(config_path),
                   "--storage-quota", "-5", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: storage_quota must be non-negative"]


def test_simulate_rejects_a_matrix_without_slots(tmp_path, flat_cdf_file, capsys):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    trace.write_matrix_file(make_matrix([""] * 3), matrix_path)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--matrix", str(matrix_path), "--config", str(config_path), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: need at least 2 peers and 1 slot, got 3 x 0"]
    assert not (out / "summary.csv").exists()


def test_simulate_bad_config_path_is_an_error(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_audit_flag_and_key(tmp_path, capsys):
    # allocation detail is observed by the tests, not recorded by the simulator
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--audit", "--out-dir", str(tmp_path / "o")])
    assert excinfo.value.code == 2
    config = tmp_path / "audit.cfg"
    config.write_text("audit = true\n")
    rc = cli.main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown config key 'audit'" in capsys.readouterr().err


def test_simulate_takes_the_slot_length_from_the_trace(tmp_path, flat_cdf_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--slot-seconds", "1800", "--out-dir", str(tmp_path / "o")])
    assert excinfo.value.code == 2
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file, slot_seconds=1800)
    rc = cli.main(["simulate", "--matrix", str(matrix_path),
                   "--config", str(config_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown config key 'slot_seconds'" in capsys.readouterr().err


def simulate_flags():
    """Option string -> dest of every simulate flag."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag: action.dest for action in commands.choices["simulate"]._actions
            for flag in action.option_strings}


def test_simulate_has_one_flag_per_config_field():
    flags = simulate_flags()
    common = {"-h", "--help", "--out-dir", "--config", "--runs",
              "--matrix", "--synth-peers", "--synth-slots", "--avail-low", "--avail-high"}
    expect = {"--" + f.name.replace("_", "-"): f.name for f in fields(SimConfig)}
    expect["--policy"] = expect.pop("--redundancy-policy")
    assert {flag: dest for flag, dest in flags.items() if flag not in common} == expect


# -- parser-level behaviour ----------------------------------------------

def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["plan", "--k", "4", "--a", "0.5", "--target", "0.9",
                  "--bogus-flag"])
    assert excinfo.value.code == 2


# -- run manifest --------------------------------------------------------

# per subcommand: flags of a run that succeeds, the manifest keys of its own,
# and flags of a run that exits 1; {m}, {c} and {d} name the simulate inputs'
# matrix and config files and the test's directory
MANIFEST_CASES = {
    "trace-synth": (["--peers", "3", "--slots", "4"],
                    {"peers", "slots", "avail_low", "avail_high", "diurnal", "weekend", "slot_seconds", "output"},
                    ["--peers", "3", "--slots", "4", "--slot-seconds", "0"]),
    "trace-stats": (["--matrix", "{m}"], {"source", "min_uptime", "peers", "slots", "system_availability"},
                    ["--matrix", "{d}/absent.txt"]),
    "sched-compare": (["--matrix", "{m}", "--x", "2", "--ratios", "1.5", "--trials", "2"],
                      {"source", "x", "ratios", "trials"}, ["--matrix", "{d}/absent.txt"]),
    "plan": (["--k", "2", "--a", "0.5", "--target", "0.9"], {"batch", "queries"},
             ["--loss", "--n", "4", "--k", "2", "--t-days", "inf", "--lifetime", "inf"]),
    "simulate": (["--matrix", "{m}", "--config", "{c}"],
                 {"runs", "source", "config", "max_holders", "target_reachable"}, ["--config", "{d}/absent.cfg"]),
}


@pytest.mark.parametrize("command", MANIFEST_CASES)
def test_main_writes_the_manifest_of_a_command_that_succeeds(tmp_path, flat_cdf_file, command):
    matrix_path, config_path = write_sim_inputs(tmp_path, flat_cdf_file)
    succeeds, own_keys, fails = MANIFEST_CASES[command]

    def run(flags, out):
        flags = [flag.format(m=matrix_path, c=config_path, d=tmp_path) for flag in flags]
        return cli.main([command, *flags, "--seed", "4", "--out-dir", str(out)])

    assert run(succeeds, tmp_path / "ok") == 0
    manifest = read_manifest(tmp_path / "ok")
    assert set(manifest) == {"subcommand", "seed", "version"} | own_keys
    assert (manifest["subcommand"], manifest["seed"], manifest["version"]) == (command, 4, __version__)
    assert run(fails, tmp_path / "failed") == 1
    assert not (tmp_path / "failed" / "run-manifest.json").exists()


# -- cold start ----------------------------------------------------------


def test_import_cost_tool_loads_scipy_only_for_a_tail(monkeypatch, capsys):
    """tests/import_cost.py, the cold start of each subcommand, runs every
    case once and finds scipy loaded only by the cases that evaluate a
    binomial tail."""
    monkeypatch.setattr(import_cost, "REPEATS", 1)
    assert import_cost.main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [re.fullmatch(r"(.+?) +\d+\.\d{3} s  scipy loaded: (\w+)", line) for line in lines[1:]]
    assert all(rows), lines
    assert {row[1]: row[2] for row in rows} == {
        "import p2pbackup": "no", "import p2pbackup.cli": "no", "cli.main trace-synth": "no",
        "cli.main trace-stats": "no", "cli.main sched-compare": "no", "cli.main plan": "yes",
        "cli.main simulate": "yes"}
    assert len(rows) == 7


# -- line coverage ---------------------------------------------------------


def test_line_coverage_tool_counts_every_module():
    """tests/line_coverage.py, the lines of src/p2pbackup that no test ran,
    traces two fast tests, collected from test_redundancy.py and
    test_report.py only, and prints one unrun-of-executable count per
    module of the package and their total."""
    lines = tool_output("line_coverage.py", "-q", "-p", "no:cacheprovider", "--ignore-glob=*/test_[!r]*.py",
                        "-k", "test_no_holders or test_fixed_n_full_availability_needs_no_redundancy")
    assert "2 passed" in "\n".join(lines)
    counts = [m for m in (re.fullmatch(r"  (\w+\.py): (\d+) of (\d+)(: [\d, -]+)?", line) for line in lines) if m]
    assert [m[1] for m in counts] == sorted(path.name for path in Path(cli.__file__).parent.glob("*.py"))
    unrun, total = sum(int(m[2]) for m in counts), sum(int(m[3]) for m in counts)
    assert 0 < unrun < total
    assert lines[-1] == f"  all: {total - unrun} of {total} lines run"
