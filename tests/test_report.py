import csv
import math

import numpy as np
import pytest

from p2pbackup import report as rep
from p2pbackup import sim as psim
from p2pbackup import trace
from p2pbackup.sim import CrashRecord, PeerRecord, SimConfig, SimReport
from conftest import make_matrix


def peer_row(peer=0, ttb=math.nan, min_ttb=3600.0, ttr=math.nan, min_ttr=900.0,
             ettr=math.nan, redundancy=math.nan):
    return PeerRecord(peer=peer, uplink=1e5, availability=0.5, ttb=ttb,
                      min_ttb=min_ttb, ttr=ttr, min_ttr=min_ttr, ettr=ettr,
                      redundancy=redundancy)


def report_of(peers, crashes=(), num_slots=4, outbound=None, inbound=None, buffered=None,
              response="immediate"):
    zeros = np.zeros(num_slots)
    return SimReport(
        config=SimConfig(object_size=4096, fragment_size=1024, response=response),
        num_peers=len(peers),
        num_slots=num_slots,
        slot_seconds=3600.0,
        measured_availability=0.5,
        fixed_n=None,
        peers=list(peers),
        crashes=list(crashes),
        server_outbound=zeros if outbound is None else np.asarray(outbound, dtype=float),
        server_inbound=zeros if inbound is None else np.asarray(inbound, dtype=float),
        server_buffered=zeros if buffered is None else np.asarray(buffered, dtype=float),
        avg_redundancy=math.nan,
    )


def written(report, out_dir, name):
    """The path of one file of the CSV contract, written by write_report_csvs."""
    return next(path for path in rep.write_report_csvs(report, out_dir) if path.name == name)


# ------------------------------------------------------------------ percentile

def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert rep.percentile(values, 50) == 5
    assert rep.percentile(values, 90) == 9
    assert rep.percentile(values, 91) == 10
    assert rep.percentile(values, 100) == 10
    assert rep.percentile(values, 1) == 1


def test_percentile_unsorted_input():
    assert rep.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rep.percentile([], 50)
    with pytest.raises(ValueError):
        rep.percentile([1], 0)
    with pytest.raises(ValueError):
        rep.percentile([1], 101)


# -------------------------------------------------------------- loss breakdown

def test_loss_breakdown_no_crashes():
    breakdown = rep.loss_breakdown(report_of([peer_row()]))
    assert breakdown.crashed_count == 0
    assert breakdown.lost_count == 0
    assert breakdown.lost_fraction == 0.0
    assert breakdown.unfinished_backup_fraction == 0.0
    assert breakdown.unavoidable_fraction == 0.0


def test_loss_breakdown_counts_episodes_and_peers():
    crashes = [
        CrashRecord(peer=0, crash_slot=1, response_slot=1, outcome="restored", unfinished=False, unavoidable=False),
        CrashRecord(peer=0, crash_slot=9, response_slot=9, outcome="lost", unfinished=True, unavoidable=False),
        CrashRecord(peer=1, crash_slot=2, response_slot=None, outcome="lost", unfinished=True, unavoidable=True),
        CrashRecord(peer=2, crash_slot=3, response_slot=3, outcome="restored", unfinished=False, unavoidable=False),
    ]
    breakdown = rep.loss_breakdown(report_of([peer_row(i) for i in range(4)], crashes))
    assert breakdown.crashed_count == 4  # episodes
    assert breakdown.lost_count == 2
    assert breakdown.lost_fraction == pytest.approx(0.5)
    assert breakdown.unfinished_backup_fraction == pytest.approx(1.0)  # of lost
    assert breakdown.unavoidable_fraction == pytest.approx(0.5)  # of lost
    assert breakdown.crashed_peers == 3  # distinct peers
    assert breakdown.lost_peers == 2


def test_loss_breakdown_subset_chain():
    crashes = [
        CrashRecord(peer=i, crash_slot=i, response_slot=None, outcome=o, unfinished=u, unavoidable=v)
        for i, (o, u, v) in enumerate([
            ("restored", False, False),
            ("lost", False, False),
            ("lost", True, False),
            ("lost", True, True),
            ("pending", True, True),
        ])
    ]
    breakdown = rep.loss_breakdown(report_of([peer_row(i) for i in range(5)], crashes))
    assert breakdown.lost_count <= breakdown.crashed_count
    assert breakdown.unavoidable_fraction <= breakdown.unfinished_backup_fraction <= 1.0
    assert 0.0 <= breakdown.lost_fraction <= 1.0


def test_loss_breakdown_rejects_inconsistent_fractions():
    with pytest.raises(ValueError):
        rep.LossBreakdown(
            crashed_count=1, lost_count=1, lost_fraction=1.0,
            unfinished_backup_fraction=0.2, unavoidable_fraction=0.4,
            crashed_peers=1, lost_peers=1,
        )


@pytest.mark.parametrize("name, value", [
    ("lost_fraction", 1.5), ("unfinished_backup_fraction", -0.1), ("unavoidable_fraction", 2.0),
])
def test_loss_breakdown_rejects_a_fraction_outside_the_unit_interval(name, value):
    fractions = {"lost_fraction": 0.0, "unfinished_backup_fraction": 0.0, "unavoidable_fraction": 0.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} out of \\[0, 1\\]: {value}$"):
        rep.LossBreakdown(crashed_count=1, lost_count=1, crashed_peers=1, lost_peers=1, **fractions)


# ----------------------------------------------------------- normalized ratios

def test_normalized_ratios_from_known_rows():
    peers = [
        peer_row(0, ttb=7200.0, min_ttb=3600.0),
        peer_row(1, ttb=3600.0, min_ttb=3600.0, ttr=1800.0, min_ttr=900.0, ettr=3600.0),
        peer_row(2),  # nothing completed: contributes nowhere
    ]
    ratios = rep.normalized_ratios(report_of(peers))
    assert ratios.ttb == (2.0, 1.0)
    assert ratios.ttr == (2.0,)
    assert ratios.ettr == (2.0,)  # ettr / ttr


def test_normalized_ratios_empty_report():
    ratios = rep.normalized_ratios(report_of([peer_row()]))
    assert ratios.ttb == ()
    assert ratios.ttr == ()
    assert ratios.ettr == ()


def test_normalized_ratios_skip_infinite_bounds():
    peers = [peer_row(0, ttb=7200.0, min_ttb=math.inf)]
    assert rep.normalized_ratios(report_of(peers)).ttb == ()


# ------------------------------------------------------------------- file I/O

@pytest.fixture(scope="module")
def small_run(flat_cdf_file):
    config = SimConfig(
        object_size=360_000_000,
        fragment_size=90_000_000,
        storage_quota=3_600_000_000,
        mean_lifetime_days=4.0,
        redundancy_policy="fixed",
        bandwidth_source="file",
        bandwidth_file=flat_cdf_file,
        seed=12,
    )
    matrix = trace.synth_trace(24, 24 * 14, availability=(0.5, 0.9), seed=7)
    return psim.run(config, matrix)


def read_rows(path):
    """The rows of a written CSV below its header, as lists of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def number(text):
    return math.nan if text == "" else float(text)  # math.nan itself, so that records compare equal


def test_server_traffic_immediate_run_is_flagged_empty(small_run):
    row = rep.summary_row(small_run)
    assert row["server_outbound_bytes"] == row["server_peak_buffered_bytes"] == 0.0


def test_server_traffic_accounts_fragments():
    report = report_of(
        [peer_row(i) for i in range(2)],
        outbound=[0.0, 2048.0, 1024.0, 0.0], buffered=[0.0, 1024.0, 1536.0, 0.0], inbound=[0, 1024, 0, 0],
        response="delayed_assisted",
    )
    row = rep.summary_row(report)  # the outbound total, and the buffered peak, not its total
    assert (row["server_outbound_bytes"], row["server_peak_buffered_bytes"]) == (3072.0, 1536.0)
    assert all(type(row[key]) is float for key in ("server_outbound_bytes", "server_peak_buffered_bytes"))


def test_peers_csv_round_trip(tmp_path, small_run):
    path = written(small_run, tmp_path, "peers.csv")
    assert path.read_bytes().split(b"\r\n", 1)[0] == b"peer_id,uplink,availability,ttb,min_ttb,ttr,min_ttr," \
        b"ettr,redundancy_at_completion"
    back = [PeerRecord(int(peer), *map(number, cells)) for peer, *cells in read_rows(path)]
    assert back == small_run.peers


def test_crashes_csv_round_trip(tmp_path, small_run):
    path = written(small_run, tmp_path, "crashes.csv")
    assert path.read_bytes().split(b"\r\n", 1)[0] == b"peer_id,crash_slot,response_slot,outcome,unfinished," \
        b"unavoidable"
    back = [CrashRecord(int(peer), int(crash), int(response) if response else None, outcome,
                        unfinished == "1", unavoidable == "1")
            for peer, crash, response, outcome, unfinished, unavoidable in read_rows(path)]
    assert back == small_run.crashes
    assert back  # the run crashes, so the rows are checked


def test_crashes_csv_round_trip_keeps_cell_types(tmp_path):
    """A missing response slot writes an empty cell, and a flag 1 or 0."""
    crashes = [
        CrashRecord(peer=3, crash_slot=5, response_slot=None, outcome="pending", unfinished=True, unavoidable=False),
        CrashRecord(peer=1, crash_slot=2, response_slot=4, outcome="lost", unfinished=True, unavoidable=True),
        CrashRecord(peer=2, crash_slot=1, response_slot=1, outcome="restored", unfinished=False, unavoidable=False),
    ]
    path = written(report_of([peer_row(0)], crashes), tmp_path, "crashes.csv")
    assert path.read_bytes().split(b"\r\n")[1:] == [b"3,5,,pending,1,0", b"1,2,4,lost,1,1", b"2,1,1,restored,0,0",
                                                     b""]


def test_server_csv_round_trip(tmp_path):
    report = report_of(
        [peer_row(0)],
        outbound=[0.0, 2048.0, 0.0, 1024.0],
        buffered=[0.0, 1024.0, 1024.0, 0.0],
        response="delayed_assisted",
    )
    path = written(report, tmp_path, "server.csv")
    assert path.read_bytes() == (b"slot,outbound_bytes,buffered_bytes\r\n0,0.0,0.0\r\n1,2048.0,1024.0\r\n"
                                 b"2,0.0,1024.0\r\n3,1024.0,0.0\r\n")


def test_server_csv_header_only_without_assistance(tmp_path, small_run):
    # immediate-response runs flag the series empty: header, no rows
    path = written(small_run, tmp_path, "server.csv")
    assert path.read_bytes() == b"slot,outbound_bytes,buffered_bytes\r\n"


def test_write_report_csvs_names(tmp_path, small_run):
    paths = rep.write_report_csvs(small_run, tmp_path / "run")
    names = ["peers.csv", "crashes.csv", "server.csv", "summary.csv"]
    assert paths == [tmp_path / "run" / name for name in names]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(names)


def test_summary_round_trip(tmp_path, small_run):
    row = rep.summary_row(small_run)
    assert row["policy"] == "fixed"
    assert row["num_peers"] == 24
    assert row["crashed_episodes"] == len(small_run.crashes)
    path = tmp_path / "summary.csv"
    rep.write_csv(path, row.keys(), [row.values()])
    with open(path, newline="", encoding="utf-8") as fh:
        (back,) = csv.DictReader(fh)
    assert list(back) == list(row)
    for key, value in row.items():
        if isinstance(value, str):
            assert back[key] == value
        elif math.isnan(value):
            assert back[key] == ""
        else:
            assert float(back[key]) == value


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rep.write_csv(path, ["a", "b", "c", "d", "e", "f", "g"],
                  [[None, True, False, math.nan, math.inf, 7, 0.1], ["x", 1, 0, -math.inf, 2.5, "", 1e-300]])
    assert path.read_bytes() == b"a,b,c,d,e,f,g\r\n,1,0,,inf,7,0.1\r\nx,1,0,-inf,2.5,,1e-300\r\n"


def test_nan_and_inf_cells_survive_round_trip(tmp_path):
    peers = [peer_row(0, ttb=3600.0, min_ttb=math.inf), peer_row(1)]
    path = written(report_of(peers), tmp_path, "peers.csv")
    back = [PeerRecord(int(peer), *map(number, cells)) for peer, *cells in read_rows(path)]
    assert back == peers
    assert math.isinf(back[0].min_ttb)
    assert math.isnan(back[1].ttb)
