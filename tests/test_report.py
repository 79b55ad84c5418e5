import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ------------------------------------------------------------------------ cdf

def test_cdf_single_value():
    series = rep.cdf([5])
    assert series.values == (5.0,)
    assert series.fractions == (1.0,)


def test_cdf_collapses_ties():
    series = rep.cdf([1, 2, 2, 4])
    assert series.values == (1.0, 2.0, 4.0)
    assert series.fractions == (0.25, 0.75, 1.0)


def test_cdf_invariant_under_permutation():
    assert rep.cdf([4, 2, 1, 2]) == rep.cdf([1, 2, 2, 4])


def test_cdf_rejects_empty():
    with pytest.raises(ValueError):
        rep.cdf([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=100)
def test_cdf_is_a_distribution(values):
    series = rep.cdf(values)
    assert series.values == tuple(sorted(set(float(v) for v in values)))
    assert all(b > a for a, b in zip(series.fractions, series.fractions[1:]))
    assert series.fractions[-1] == pytest.approx(1.0)


def test_cdf_series_validation():
    with pytest.raises(ValueError):
        rep.CdfSeries(values=(2.0, 1.0), fractions=(0.5, 1.0))  # unsorted values
    with pytest.raises(ValueError):
        rep.CdfSeries(values=(1.0, 2.0), fractions=(0.8, 0.5))  # non-monotone
    with pytest.raises(ValueError):
        rep.CdfSeries(values=(1.0,), fractions=(0.9,))  # must end at 1


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


# -------------------------------------------------------------- server traffic

def test_server_traffic_immediate_run_is_flagged_empty():
    traffic = rep.server_traffic(report_of([peer_row()]))
    assert not traffic.assisted
    assert traffic.outbound_total == 0.0
    assert traffic.peak_outbound == 0.0
    assert len(traffic.outbound) == 0


def test_server_traffic_accounts_fragments():
    out = [0.0, 2048.0, 1024.0, 0.0]
    buf = [0.0, 1024.0, 2048.0, 0.0]
    report = report_of(
        [peer_row(i) for i in range(2)],
        outbound=out, buffered=buf, inbound=[0, 1024, 0, 0],
        response="delayed_assisted",
    )
    traffic = rep.server_traffic(report)
    assert traffic.assisted
    assert traffic.outbound_total == 3072.0
    assert traffic.peak_outbound == 2048.0
    assert traffic.peak_buffered == 2048.0
    total_objects = 2 * 4096.0
    assert traffic.outbound_total_fraction == pytest.approx(3072.0 / total_objects)
    assert traffic.peak_outbound_fraction == pytest.approx(2048.0 / total_objects)
    assert traffic.peak_buffered_fraction == pytest.approx(2048.0 / total_objects)


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


def test_peers_csv_round_trip(tmp_path, small_run):
    path = tmp_path / "peers.csv"
    rep.write_peers_csv(small_run, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(rep.PEERS_FIELDS)
    back = rep.read_peers_csv(path)
    assert back == small_run.peers


def test_crashes_csv_round_trip(tmp_path, small_run):
    path = tmp_path / "crashes.csv"
    rep.write_crashes_csv(small_run, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(rep.CRASHES_FIELDS)
    back = rep.read_crashes_csv(path)
    assert back == small_run.crashes
    assert any(c.outcome != "restored" for c in back) or all(
        c.outcome == "restored" for c in small_run.crashes
    )


def test_crashes_csv_round_trip_keeps_cell_types(tmp_path):
    crashes = [
        CrashRecord(peer=3, crash_slot=5, response_slot=None, outcome="pending", unfinished=True, unavoidable=False),
        CrashRecord(peer=1, crash_slot=2, response_slot=4, outcome="lost", unfinished=False, unavoidable=True),
    ]
    path = tmp_path / "crashes.csv"
    rep.write_crashes_csv(report_of([peer_row(0)], crashes), path)
    back = rep.read_crashes_csv(path)
    assert back == crashes
    assert back[0].response_slot is None and type(back[1].response_slot) is int
    assert all(type(c.unfinished) is bool and type(c.unavoidable) is bool for c in back)
    path.write_text(",".join(rep.CRASHES_FIELDS) + "\n3,5,,pending,2,0\n")
    with pytest.raises(ValueError, match="must be 0 or 1, got '2'"):
        rep.read_crashes_csv(path)


def test_server_csv_round_trip(tmp_path):
    report = report_of(
        [peer_row(0)],
        outbound=[0.0, 2048.0, 0.0, 1024.0],
        buffered=[0.0, 1024.0, 1024.0, 0.0],
        response="delayed_assisted",
    )
    path = tmp_path / "server.csv"
    rep.write_server_csv(report, path)
    outbound, buffered = rep.read_server_csv(path)
    assert np.array_equal(outbound, report.server_outbound)
    assert np.array_equal(buffered, report.server_buffered)


def test_server_csv_header_only_without_assistance(tmp_path, small_run):
    # immediate-response runs flag the series empty: header, no rows
    path = tmp_path / "server.csv"
    rep.write_server_csv(small_run, path)
    assert path.read_text().strip() == ",".join(rep.SERVER_FIELDS)
    outbound, buffered = rep.read_server_csv(path)
    assert outbound.size == 0 and buffered.size == 0


def test_server_csv_rejects_gapped_slots(tmp_path):
    path = tmp_path / "server.csv"
    path.write_text("slot,outbound_bytes,buffered_bytes\n0,0,0\n2,0,0\n")
    with pytest.raises(ValueError):
        rep.read_server_csv(path)


def test_round_trip_preserves_aggregates(tmp_path, small_run):
    paths = rep.write_report_csvs(small_run, tmp_path)
    assert sorted(p.name for p in paths) == ["crashes.csv", "peers.csv", "server.csv", "summary.csv"]
    peers = rep.read_peers_csv(tmp_path / "peers.csv")
    crashes = rep.read_crashes_csv(tmp_path / "crashes.csv")
    rebuilt = report_of(peers, crashes, num_slots=small_run.num_slots)
    assert rep.loss_breakdown(rebuilt) == rep.loss_breakdown(small_run)
    assert rep.normalized_ratios(rebuilt) == rep.normalized_ratios(small_run)


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
    rep.write_summary_csv(small_run, path)
    back = rep.read_summary_csv(path)
    for key, value in row.items():
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(back[key])
        else:
            assert back[key] == value


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rep.write_csv(path, ["a", "b", "c", "d", "e", "f", "g"],
                  [[None, True, False, math.nan, math.inf, 7, 0.1], ["x", 1, 0, -math.inf, 2.5, "", 1e-300]])
    assert path.read_bytes() == b"a,b,c,d,e,f,g\r\n,1,0,,inf,7,0.1\r\nx,1,0,-inf,2.5,,1e-300\r\n"


def test_nan_and_inf_cells_survive_round_trip(tmp_path):
    peers = [peer_row(0, ttb=3600.0, min_ttb=math.inf), peer_row(1)]
    report = report_of(peers)
    path = tmp_path / "peers.csv"
    rep.write_peers_csv(report, path)
    back = rep.read_peers_csv(path)
    assert math.isinf(back[0].min_ttb)
    assert math.isnan(back[1].ttb)
    assert math.isnan(back[1].redundancy)
