import argparse
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from p2pbackup import cli, sim, trace
from conftest import event_tuples, make_matrix, synth_event_log, tool_output
from oracles import LoopFormatError, loop_parse_events, loop_slotize


# ---------------------------------------------------------------- parse_events

def bitwise(tuples):
    """(peer_id, timestamp, kind) tuples with each timestamp as its hex(),
    which tells -0.0 from 0.0."""
    return [(p, float(t).hex(), k) for p, t, k in tuples]


def test_parse_minimal_session():
    events, warnings = trace.parse_events(["p1,0,login", "p1,7200,logoff"])
    assert warnings == []
    assert bitwise(event_tuples(events)) == bitwise([("p1", 0.0, "login"), ("p1", 7200.0, "logoff")])


def test_parse_skips_blanks_and_comments():
    events, _ = trace.parse_events(["# header", "", "  ", "p1,0,login"])
    assert bitwise(event_tuples(events)) == bitwise([("p1", 0.0, "login")])


def test_parse_sorts_by_time_then_peer():
    events, _ = trace.parse_events(["b,5,login", "a,5,login", "c,1,login"])
    assert bitwise(event_tuples(events)) == bitwise([("c", 1.0, "login"), ("a", 5.0, "login"), ("b", 5.0, "login")])


def test_parse_drops_repeated_login_first_wins():
    events, warnings = trace.parse_events(["p1,0,login", "p1,100,login", "p1,7200,logoff"])
    assert bitwise(event_tuples(events)) == bitwise([("p1", 0.0, "login"), ("p1", 7200.0, "logoff")])
    assert warnings == []


def test_parse_leading_logoff_synthesizes_epoch_login():
    events, warnings = trace.parse_events(["p1,50,logoff"])
    assert bitwise(event_tuples(events)) == bitwise([("p1", 0.0, "login"), ("p1", 50.0, "logoff")])
    assert len(warnings) == 1 and "login at epoch" in warnings[0]


@pytest.mark.parametrize(
    "line",
    ["p1,0", "p1,0,login,extra", "p1,zero,login", "p1,-5,login", "p1,0,reboot", "p1,nan,login", "p1,inf,login"],
)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(trace.TraceFormatError, match="line 1"):
        trace.parse_events([line])


@pytest.mark.parametrize("lines, lineno", [(["p1,0,login", ",5,login"], 2), ([" ,9,logoff"], 1)])
def test_parse_rejects_an_empty_peer_id(lines, lineno):
    with pytest.raises(trace.TraceFormatError, match=f"^line {lineno}: empty peer id$"):
        trace.parse_events(lines)


def check_event_log_contract(events):
    """Sorted, distinct peer ids, each with an event; columns of one length
    and of the documented dtypes; codes in range; kinds 0 or 1."""
    assert type(events.peer_ids) is tuple and list(events.peer_ids) == sorted(set(events.peer_ids))
    assert (events.peer.dtype, events.timestamp.dtype, events.kind.dtype) == (np.intp, np.float64, np.int8)
    assert len(events.peer) == len(events.timestamp) == len(events.kind)
    assert np.array_equal(np.unique(events.peer), np.arange(len(events.peer_ids)))
    assert set(events.kind.tolist()) <= {0, 1}


@pytest.mark.parametrize("lines, peer_ids, count", [
    pytest.param(["zeta,5,login", "alpha,1,logoff", "mid,3,login", "zeta,9,logoff"], ("alpha", "mid", "zeta"), 5,
                 id="three-peers"),
    pytest.param(["# only a comment", ""], (), 0, id="no-records"),
])
def test_event_log_is_sorted_ids_and_typed_columns(lines, peer_ids, count):
    events, _ = trace.parse_events(lines)
    check_event_log_contract(events)
    assert events.peer_ids == peer_ids and len(events.timestamp) == count
    with pytest.raises(dataclasses.FrozenInstanceError):
        events.kind = np.ones(count, np.int8)
    # an EventLog is no sequence, and == is identity, not a silent elementwise or length test
    with pytest.raises(TypeError):
        len(events)
    assert events != trace.parse_events(lines)[0]


# Random logs for the loop oracles: a few peers, so that ids, timestamps and
# kinds collide; timestamp texts float() reads in unusual ways; whitespace
# around fields; comments and blanks; and malformed lines of every kind.
PEERS = st.sampled_from(["a", "b", "c", "peer10", "peer9", "B", "a b"])
PADDING = st.sampled_from(["", "", " ", "\t"])
TIMESTAMPS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-0", "-0.0", "0.0", "1_0", "1e1", "+5", "5.", ".5", "007"]),
    st.floats(0, 1e5).map(repr),
)
RECORDS = st.builds(
    lambda p, t, k, w: f"{w[0]}{p}{w[1]},{w[2]}{t}{w[3]},{w[4]}{k}{w[5]}",
    PEERS, TIMESTAMPS, st.sampled_from([trace.LOGIN, trace.LOGOFF]), st.lists(PADDING, min_size=6, max_size=6),
)
SKIPPED = st.sampled_from(["", "   ", "# peer_id,timestamp_seconds,kind", "  #a,1,login", "#"])
MALFORMED = st.sampled_from([
    "a,1", "a,1,login,x", "a", "a,1,login,",  # field count
    ",5,login", " ,9,logoff",  # empty peer id
    "a,1,reboot", "a,1,LOGIN", "a,1,",  # kind
    "a,zero,login", "a,,logoff", "a,1..2,login", "a,0x10,login",  # timestamp text
    "a,nan,login", "a,inf,logoff", "a,-inf,login", "a,1e999,login",  # non-finite
    "a,-5,login", "a,-0.5,logoff", "a,-1e-300,login",  # negative
])


@st.composite
def event_logs(draw):
    lines = draw(st.lists(st.one_of(RECORDS, RECORDS, SKIPPED), max_size=30))
    for bad in draw(st.lists(MALFORMED, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@settings(max_examples=150)
@given(lines=event_logs())
def test_parse_matches_the_loop_oracle(lines):
    check_parse_against_the_loop_oracle(lines)


# the random logs hold at most 32 lines, so only small batches split them
@pytest.mark.parametrize("batch", [1, 2, 7])
@settings(max_examples=60)
@given(lines=event_logs())
def test_parse_matches_the_loop_oracle_across_batches(batch, lines):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_BATCH", batch)
        check_parse_against_the_loop_oracle(lines)


@pytest.mark.parametrize("batch", [1, 3, 4, 4096])
def test_parse_names_the_first_bad_line_of_a_later_batch(monkeypatch, batch):
    monkeypatch.setattr(trace, "_BATCH", batch)
    good = [f"p{i % 3},{i},{('login', 'logoff')[i // 3 % 2]}" for i in range(batch)]
    lines = good + ["# comment", "p0,1e999,login", "", "p1,x,logoff"]
    with pytest.raises(trace.TraceFormatError, match=rf"^line {batch + 2}: non-finite timestamp 1e999$"):
        trace.parse_events(lines)


def check_parse_against_the_loop_oracle(lines):
    try:
        expected, expected_warnings = loop_parse_events(lines)
    except LoopFormatError as err:
        with pytest.raises(trace.TraceFormatError) as got:
            trace.parse_events(iter(lines))
        assert str(got.value) == str(err)
        return
    events, warnings = trace.parse_events(iter(lines))
    assert warnings == expected_warnings
    check_event_log_contract(events)
    assert bitwise(event_tuples(events)) == bitwise(expected)


# --------------------------------------------------------------------- slotize

def session(peer, start, end):
    return [f"{peer},{start},login", f"{peer},{end},logoff"]


def test_slotize_full_coverage():
    events, _ = trace.parse_events(session("p1", 0, 7200))
    m = trace.slotize(events, slot_seconds=3600)
    assert m.bits.tolist() == [[1, 1]]
    assert m.peer_ids == ("p1",)


def test_slotize_half_slot_counts_as_online():
    events, _ = trace.parse_events(session("p1", 0, 1800))
    assert trace.slotize(events, slot_seconds=3600).bits.tolist() == [[1]]


def test_slotize_just_under_half_counts_as_offline():
    events, _ = trace.parse_events(session("p1", 0, 1799))
    assert trace.slotize(events, slot_seconds=3600).bits.tolist() == [[0]]


def test_slotize_open_session_runs_to_horizon():
    events, _ = trace.parse_events(["p1,0,login"])
    m = trace.slotize(events, slot_seconds=3600, num_slots=3)
    assert m.bits.tolist() == [[1, 1, 1]]


def test_slotize_explicit_horizon_pads_offline():
    events, _ = trace.parse_events(session("p1", 0, 7200))
    m = trace.slotize(events, slot_seconds=3600, num_slots=4)
    assert m.bits.tolist() == [[1, 1, 0, 0]]


def test_slotize_rows_follow_sorted_peer_ids():
    lines = session("zeta", 0, 3600) + session("alpha", 3600, 7200)
    events, _ = trace.parse_events(lines)
    m = trace.slotize(events, slot_seconds=3600)
    assert m.peer_ids == ("alpha", "zeta")
    assert m.bits.tolist() == [[0, 1], [1, 0]]


def test_slotize_fragmented_uptime_accumulates_within_slot():
    # Two 1000 s bursts inside one slot: 2000 s total >= 1800 s.
    lines = session("p1", 0, 1000) + session("p1", 2000, 3000)
    events, _ = trace.parse_events(lines)
    assert trace.slotize(events, slot_seconds=3600).bits.tolist() == [[1]]


@pytest.mark.parametrize("slot_seconds", [3600.0, 1800.0, 7.3, 0.1])
@settings(max_examples=30)
@given(data=st.data())
def test_slotize_matches_the_loop_oracle(slot_seconds, data):
    check_slotize_against_the_loop_oracle(slot_seconds, data)


# the random event lists are short, so only small batches split them
@pytest.mark.parametrize("batch", [1, 2, 7])
@settings(max_examples=30)
@given(slot_seconds=st.sampled_from([3600.0, 7.3]), data=st.data())
def test_slotize_matches_the_loop_oracle_across_batches(batch, slot_seconds, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_BATCH", batch)
        check_slotize_against_the_loop_oracle(slot_seconds, data)


def check_slotize_against_the_loop_oracle(slot_seconds, data):
    # session ends on and near slot boundaries, within about 40 slots
    stamp = st.one_of(st.integers(0, 40).map(lambda k: k * slot_seconds), st.floats(0, 40 * slot_seconds))
    record = st.builds(lambda p, t, k: f"{p},{t!r},{k}", PEERS, stamp, st.sampled_from([trace.LOGIN, trace.LOGOFF]))
    events, _ = trace.parse_events(data.draw(st.lists(record, min_size=1, max_size=30)))
    for num_slots in (None, data.draw(st.integers(1, 45))):
        bits, peer_ids = loop_slotize(event_tuples(events), slot_seconds, num_slots)
        m = trace.slotize(events, slot_seconds, num_slots)
        assert m.peer_ids == peer_ids
        assert m.bits.tolist() == bits.tolist()
        # so does any interleaving that keeps each peer's events in order
        by_peer = np.argsort(events.peer, kind="stable")
        grouped = trace.EventLog(events.peer_ids, events.peer[by_peer], events.timestamp[by_peer],
                                 events.kind[by_peer])
        assert trace.slotize(grouped, slot_seconds, num_slots) == m


def event_log(tuples):
    """An EventLog of (peer_id, timestamp, kind) tuples in the order given;
    a kind other than login or logoff gets code 2."""
    peer_ids = tuple(sorted({p for p, _, _ in tuples}))
    peers, stamps, kinds = zip(*tuples)
    return trace.EventLog(peer_ids, np.array([peer_ids.index(p) for p in peers], np.intp), np.array(stamps, float),
                          np.array([{trace.LOGIN: 0, trace.LOGOFF: 1}.get(k, 2) for k in kinds], np.int8))


@pytest.mark.parametrize("events", [
    [("p1", 0, "login"), ("p1", 100, "login"), ("p1", 200, "logoff")],  # the first session never closes
    [("p1", 0, "login"), ("p1", 200, "logoff"), ("p1", 5000, "logoff")],  # a second logoff
    [("p1", 5000, "login"), ("p1", 100, "logoff")],  # the logoff comes earlier
    [("p1", 100, "logoff"), ("p1", 200, "login")],  # a leading logoff
    [("p1", -7200, "login"), ("p1", 1800, "logoff")],  # a negative time
    [("p1", 0, "login"), ("p1", 1800, "reboot")],  # neither kind
    [("p1", 0, "login"), ("p1", math.nan, "logoff")],  # a nan time, named before it reaches the horizon
    [("p1", 0, "login"), ("p1", math.inf, "logoff")],  # an infinite time: no horizon covers it
])
def test_slotize_rejects_events_that_do_not_alternate(events):
    events = event_log([("a", 0.0, "login")] + events)
    for num_slots in (3, None):
        with pytest.raises(ValueError, match="^peer 'p1': events must alternate"):
            trace.slotize(events, slot_seconds=3600, num_slots=num_slots)


@pytest.mark.parametrize("peer, timestamp, kind, message", [
    pytest.param([0, 1], [0.0, 0.0, 7200.0], [0, 0, 1], "events must have one peer code, timestamp and kind per event",
                 id="short-peer"),
    pytest.param([0, 1, 0], [0.0, 0.0, 7200.0], [0, 0], "events must have one peer code", id="short-kind"),
    pytest.param([0, 2], [0.0, 0.0], [0, 0], "peer codes must index the 2 peer ids", id="code-past-the-end"),
    # without the check, -1 would fill the last row, b's
    pytest.param([0, -1], [0.0, 0.0], [0, 0], "peer codes must index the 2 peer ids", id="negative-code"),
])
def test_slotize_rejects_columns_that_do_not_fit_together(peer, timestamp, kind, message):
    events = trace.EventLog(("a", "b"), np.array(peer, np.intp), np.array(timestamp), np.array(kind, np.int8))
    for num_slots in (None, 3):
        with pytest.raises(ValueError, match=f"^{message}"):
            trace.slotize(events, slot_seconds=3600, num_slots=num_slots)


def test_ingest_memory_is_bounded_by_a_batch():
    # a 100-peer x 672-slot log of about 35k events, like the benchmark's
    lines, bits = synth_event_log(100, 672, seed=5)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        events, _ = trace.parse_events(lines)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m = trace.slotize(events, 3600.0, num_slots=672)
        matrix, slotize_peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        if started:
            tracemalloc.stop()
    assert len(events.timestamp) > 30_000 and np.array_equal(m.bits, bits)
    # Batched parsing peaked at about 152 bytes per line while it returned
    # one tuple per event, and at about 51 with columns.
    assert parse_peak <= 64 * len(lines)
    # Besides its float coverage matrix, whole-log slotize held about 140
    # bytes per event at its peak, and batched slotize about 40.
    assert slotize_peak - matrix <= m.bits.size * 8 + 64 * len(events.timestamp)


def test_ingest_replay_tool_agrees_with_the_loop_oracles():
    """tests/ingest_replay.py, the timing and tracing of parse_events and
    slotize on a generated log, runs at a toy size and finds its events,
    warnings and matrix identical to the loop oracles'."""
    lines = tool_output("ingest_replay.py", "12", "96")
    assert "events and warnings identical to loop_parse_events: yes" in lines
    assert "matrix identical to loop_slotize and the generated bits: yes" in lines


def test_slotize_rejects_bad_arguments():
    events, _ = trace.parse_events(session("p1", 0, 3600))
    with pytest.raises(ValueError):
        trace.slotize(events, slot_seconds=0)
    with pytest.raises(ValueError, match="^cannot infer num_slots from an empty event log$"):
        trace.slotize(trace.parse_events([])[0])


@pytest.mark.parametrize("slot_seconds", [math.inf, math.nan, -3600.0])
def test_slot_length_must_be_positive_and_finite(slot_seconds):
    events, _ = trace.parse_events(session("p1", 0, 3600))
    with pytest.raises(ValueError, match="slot_seconds must be positive and finite"):
        trace.slotize(events, slot_seconds=slot_seconds)
    with pytest.raises(ValueError, match="slot_seconds must be positive and finite"):
        trace.AvailabilityMatrix(bits=np.ones((1, 2), dtype=np.uint8), slot_seconds=slot_seconds)
    with pytest.raises(ValueError, match="slot_seconds must be positive and finite"):
        trace.synth_trace(2, 4, slot_seconds=slot_seconds, seed=0)


@pytest.mark.parametrize("bits", [
    [[1, 1], [2, 2], [0, 0]],  # sched's flow network read the 2s as offline, its checks as online
    [[1, -1]],  # a cast to uint8 wraps -1 to 255
    [[0.5, 1.0]],  # and truncates 0.5 to 0
    np.array([[0, 2]], dtype=np.uint8),
])
def test_matrix_cells_must_be_0_or_1(bits):
    with pytest.raises(ValueError, match="bits must hold only 0 and 1"):
        trace.AvailabilityMatrix(bits=bits)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: trace.AvailabilityMatrix(bits=np.ones(3)), "bits must be 2-D", id="matrix-1d"),
    pytest.param(lambda: make_matrix(["11", "01"], peer_ids=("a",)), "peer_ids length", id="matrix-peer-ids"),
    pytest.param(lambda: trace.slotize(trace.parse_events(session("p1", 0, 3600))[0], num_slots=0),
                 "num_slots must be positive", id="slotize-no-slots"),
    pytest.param(lambda: trace.synth_trace(0, 10), "num_peers and num_slots must be positive", id="synth-no-peers"),
    pytest.param(lambda: trace.synth_trace(3, -1), "num_peers and num_slots must be positive", id="synth-no-slots"),
    pytest.param(lambda: trace.synth_trace(3, 10, diurnal_amplitude=1.5), "diurnal_amplitude must be in",
                 id="synth-diurnal"),
    pytest.param(lambda: trace.synth_trace(3, 10, weekend_factor=-0.1), "weekend_factor must be in",
                 id="synth-weekend"),
    pytest.param(lambda: trace.synth_trace(3, 10, availability=(0.2, math.nan)),
                 "availability range must satisfy", id="synth-range-nan"),
    pytest.param(lambda: trace.availability_stats(trace.AvailabilityMatrix(bits=np.zeros((0, 4)))),
                 "matrix must have at least one peer", id="stats-no-peers"),
    pytest.param(lambda: trace.availability_stats(trace.AvailabilityMatrix(bits=np.zeros((2, 0)))),
                 "matrix must have at least one peer", id="stats-no-slots"),
])
def test_trace_rejects_bad_arguments_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_matrix_is_not_equal_to_other_types():
    m = make_matrix(["10"])
    assert m.__eq__(m.bits) is NotImplemented
    assert m != "10" and m != [[1, 0]]


def test_matrix_takes_bool_and_int_cells():
    assert trace.AvailabilityMatrix(bits=np.array([[True, False]])).bits.tolist() == [[1, 0]]
    assert trace.AvailabilityMatrix(bits=[[0, 1]]).bits.dtype == np.uint8


def test_matrix_leaves_callers_array_writable():
    bits = np.zeros((2, 3), np.uint8)
    m = trace.AvailabilityMatrix(bits=bits)
    bits[0, 0] = 1
    assert m.bits.tolist() == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="read-only"):
        m.bits[0, 0] = 1


def test_matrix_does_not_alias_a_view():
    base = np.zeros((2, 5), np.uint8)
    m = trace.AvailabilityMatrix(bits=base[:, :3])
    base[1, 1] = 7
    assert m.bits.tolist() == [[0, 0, 0], [0, 0, 0]]


# ----------------------------------------------------------- filter_min_uptime

def test_filter_keeps_exact_threshold():
    rows = ["1" * 4 + "0" * 20, "1" * 3 + "0" * 21]  # 4/24 on the boundary, 3/24 below
    filtered, kept = trace.filter_min_uptime(make_matrix(rows))
    assert kept == [0]
    assert filtered.num_peers == 1
    assert filtered.bits.tolist() == [[int(c) for c in rows[0]]]


def test_filter_reports_peer_ids_when_present():
    m = make_matrix(["1111", "0000"], peer_ids=("keep", "drop"))
    filtered, kept = trace.filter_min_uptime(m, min_fraction=0.5)
    assert kept == ["keep"]
    assert filtered.peer_ids == ("keep",)


def test_filter_rejects_bad_fraction():
    with pytest.raises(ValueError):
        trace.filter_min_uptime(make_matrix(["10"]), min_fraction=1.5)


@given(
    bits=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8), elements=st.integers(0, 1)),
    fraction=st.floats(0, 1),
)
def test_filter_never_keeps_a_row_below_threshold(bits, fraction):
    m = trace.AvailabilityMatrix(bits=bits)
    filtered, kept = trace.filter_min_uptime(m, min_fraction=fraction)
    assert filtered.num_peers == len(kept)
    for row in filtered.bits:
        assert row.mean() >= fraction
    # kept rows preserve relative order
    assert list(kept) == sorted(kept)


# ------------------------------------------------------------------ statistics

def test_availability_stats_weighs_all_slots():
    stats = trace.availability_stats(make_matrix(["1000", "1111"]))
    assert stats.per_peer.tolist() == [0.25, 1.0]
    assert stats.system == pytest.approx(0.625)


# ------------------------------------------------------------------ synthesis

def test_synth_always_on_peers():
    m = trace.synth_trace(3, 48, availability=(1.0, 1.0), seed=7)
    assert m.bits.all()
    assert m.bits.shape == (3, 48)


def test_synth_same_seed_reproduces_bits():
    a = trace.synth_trace(20, 100, seed=42)
    b = trace.synth_trace(20, 100, seed=42)
    assert a == b
    assert trace.synth_trace(20, 100, seed=43) != a


def test_synth_matches_target_availability():
    m = trace.synth_trace(50, 2000, availability=(0.35, 0.35), seed=0)
    per_peer = m.bits.mean(axis=1)
    assert np.all(np.abs(per_peer - 0.35) < 0.05)
    assert abs(m.bits.mean() - 0.35) < 0.01


def test_synth_diurnal_peak_afternoon():
    m = trace.synth_trace(200, 24 * 28, availability=(0.5, 0.5), diurnal_amplitude=1.0, seed=1)
    by_hour = m.bits.reshape(200, 28, 24).mean(axis=(0, 1))
    assert by_hour[14] - by_hour[2] > 0.5
    assert by_hour.argmax() == 14


def test_synth_weekend_factor_lowers_weekend_uptime():
    m = trace.synth_trace(200, 24 * 28, availability=(0.6, 0.6), weekend_factor=0.5, seed=1)
    by_day = m.bits.reshape(200, 28, 24).mean(axis=(0, 2)).reshape(4, 7)
    weekday = by_day[:, :5].mean()
    weekend = by_day[:, 5:].mean()
    assert weekend < weekday - 0.1


def test_synth_day_follows_the_slot_length():
    # 48 half-hour slots a day: days 5 and 6 are slots 240-335, not 120-167
    m = trace.synth_trace(4, 336, availability=(0.9, 0.9), weekend_factor=0.0, slot_seconds=1800, seed=3)
    assert not m.bits[:, 240:].any()
    assert m.bits[:, :240].mean() > 0.8
    assert m.bits[:, 120:168].mean() > 0.8


def test_synth_pair_means_range_even_when_peers_is_two():
    # A length-2 availability is read as a (low, high) range, list or tuple.
    m = trace.synth_trace(2, 50, availability=[1.0, 1.0], seed=0)
    assert m.bits.all()


def test_synth_rejects_bad_availability_shape():
    with pytest.raises(ValueError, match=r"^availability must be a \(low, high\) pair$"):
        trace.synth_trace(4, 10, availability=[0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        trace.synth_trace(3, 10, availability=(0.9, 0.2))  # low > high


# ------------------------------------------------------------------- file I/O

def test_matrix_file_round_trip(tmp_path):
    m = make_matrix(["111", "000"], slot_seconds=1800.0)
    path = tmp_path / "m.txt"
    trace.write_matrix_file(m, path)
    back = trace.read_matrix_file(path)
    assert back == m
    assert back.slot_seconds == 1800.0


def test_matrix_file_drops_peer_ids(tmp_path):
    # The cache format stores only the header and the bit rows.
    m = make_matrix(["1010", "0110"], peer_ids=("a", "b"))
    path = tmp_path / "m.txt"
    trace.write_matrix_file(m, path)
    back = trace.read_matrix_file(path)
    assert back.peer_ids is None
    assert np.array_equal(back.bits, m.bits)


def test_read_matrix_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n10\n")
    with pytest.raises(trace.TraceFormatError):
        trace.read_matrix_file(path)


@pytest.mark.parametrize("text", ["1e999", "0", "1..2"])
def test_read_matrix_rejects_a_bad_slot_length_on_line_1(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(f"peers=1 slots=2 slot_seconds={text}\n10\n")
    with pytest.raises(trace.TraceFormatError, match=f"line 1: slot_seconds must be .* got {text}"):
        trace.read_matrix_file(path)


def test_read_matrix_rejects_wrong_row_length(tmp_path):
    m = make_matrix(["1010"])
    path = tmp_path / "m.txt"
    trace.write_matrix_file(m, path)
    body = path.read_text().splitlines()
    body[-1] = "10"
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(trace.TraceFormatError):
        trace.read_matrix_file(path)


@pytest.mark.parametrize("tail, lineno", [("garbage\n", 4), ("\n101\n", 5), ("  \n\t\n0", 6)])
def test_read_matrix_rejects_text_after_the_rows(tmp_path, tail, lineno):
    path = tmp_path / "m.txt"
    trace.write_matrix_file(make_matrix(["101", "010"]), path)
    path.write_text(path.read_text() + tail)
    with pytest.raises(trace.TraceFormatError, match=f"^line {lineno}: expected no more rows after the 2 declared$"):
        trace.read_matrix_file(path)


def test_read_matrix_allows_blank_lines_after_the_rows(tmp_path):
    path = tmp_path / "m.txt"
    m = make_matrix(["101", "010"])
    trace.write_matrix_file(m, path)
    path.write_text(path.read_text() + "\n  \n")
    assert trace.read_matrix_file(path) == trace.AvailabilityMatrix(bits=m.bits)


def test_slotized_matrix_survives_serialization(tmp_path):
    lines = session("p1", 0, 5400) + session("p2", 1800, 9000)
    events, _ = trace.parse_events(lines)
    m = trace.slotize(events, slot_seconds=3600)
    path = tmp_path / "m.txt"
    trace.write_matrix_file(m, path)
    back = trace.read_matrix_file(path)
    assert np.array_equal(back.bits, m.bits)
    assert back.slot_seconds == m.slot_seconds


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=30)
@given(bits=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=16), elements=st.integers(0, 1)))
def test_matrix_file_round_trip_any_bits(tmp_path, bits):
    m = trace.AvailabilityMatrix(bits=bits)
    path = tmp_path / "m.txt"
    trace.write_matrix_file(m, path)
    assert trace.read_matrix_file(path) == m


def test_read_matrix_header_alone_allocates_nothing(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("peers=1000000000000 slots=1000000000000 slot_seconds=3600\n")
    with pytest.raises(trace.TraceFormatError, match="^line 2: expected 1000000000000 characters .* end of the file$"):
        trace.read_matrix_file(path)


def test_read_matrix_names_the_first_missing_row(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("peers=3 slots=0 slot_seconds=3600\n\n")
    with pytest.raises(trace.TraceFormatError, match="^line 3: expected 0 characters of 0/1, got the end of the file$"):
        trace.read_matrix_file(path)


def test_read_matrix_counts_are_ascii_digits(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("peers=\u0661 slots=2 slot_seconds=3600\n10\n", encoding="utf-8")  # an Arabic-Indic 1
    with pytest.raises(trace.TraceFormatError, match="^line 1: bad matrix header"):
        trace.read_matrix_file(path)


def test_matrix_file_keeps_every_digit_of_the_slot_length(tmp_path):
    path = tmp_path / "m.txt"
    trace.write_matrix_file(make_matrix(["10"], slot_seconds=1234567.0), path)
    assert path.read_text().startswith("peers=1 slots=2 slot_seconds=1234567.0\n")
    assert trace.read_matrix_file(path).slot_seconds == 1234567.0


# slot_seconds spellings: the writer's own, others that parse, and bad ones
_WRITER_SECONDS = ["3600", "1800.5", "1e-07", "1234567.0"]
_OTHER_SECONDS = ["3600.0", "1e3", "+7", "1234567", "0", "-5", "nan", "inf", "1e999", "1..2", "", "x"]


@st.composite
def matrix_texts(draw):
    """(text, exact): a matrix file of up to 3 x 4 cells, one row perhaps
    mutated, dropped or doubled, its header's numbers spelled in several
    ways, and a tail of blank or stray lines; exact is True when the text
    is in the writer's own form, should it parse."""
    peers, slots = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.text("01", min_size=slots, max_size=slots), min_size=peers, max_size=peers))
    change = draw(st.sampled_from(["none", "none", "row", "drop", "double"]))
    if rows and change == "row":
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.text("01 2\t\r", max_size=5))
    elif rows and change == "drop":
        rows.pop()
    elif rows and change == "double":
        rows.append(rows[-1])
    counts = [draw(st.sampled_from([str(n)] * 4 + [f"0{n}", str(n + 1), "1000000000000", "-1", ""]))
              for n in (peers, slots)]
    seconds = draw(st.sampled_from(_WRITER_SECONDS + _OTHER_SECONDS))
    header = draw(st.sampled_from([f"peers={counts[0]} slots={counts[1]} slot_seconds={seconds}"] * 8
                                  + ["", f"peers={peers}  slots={slots} slot_seconds=3600", f"slots={slots}"]))
    tail = draw(st.lists(st.sampled_from(["", "  ", "\t", "garbage", "101"]), max_size=2))
    final = draw(st.sampled_from(["\n", "\n", ""]))
    text = "\n".join([header, *rows, *tail]) + final
    # a doubled row of 0 slots reads as a blank line after the rows, so the text parses but is not the writer's
    exact = (header == f"peers={peers} slots={slots} slot_seconds={seconds}" and seconds in _WRITER_SECONDS
             and len(rows) == peers and not tail and final and "\r" not in text)
    return text, exact


def test_read_matrix_parses_or_names_the_line(tmp_path):
    """Any matrix file either parses to a matrix that the writer writes back
    byte for byte when the text was in the writer's form, and otherwise as
    its declared rows under a header of the same numbers, with only blank
    lines after the rows; or it raises TraceFormatError whose message
    starts with a line of the file, or the line after its last when rows
    are missing.  Lines are counted as the reader reads them, with
    universal newlines.  No other exception escapes, and the sweep must see
    an exact round trip, another parse and a line error."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(matrix_texts())
    def check(case):
        text, exact = case
        path, back = tmp_path / "in.txt", tmp_path / "back.txt"
        path.write_bytes(text.encode("utf-8"))
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if lines[-1] == "":
            lines.pop()
        try:
            m = trace.read_matrix_file(path)
        except trace.TraceFormatError as exc:
            line = re.match(r"line (\d+): ", str(exc))
            assert line and 1 <= int(line[1]) <= len(lines) + 1, str(exc)
            seen.add("line error")
            return
        trace.write_matrix_file(m, back)
        written = back.read_bytes().decode("utf-8")
        assert trace.read_matrix_file(back) == m
        assert written.split("\n")[1:-1] == lines[1:1 + m.num_peers]
        assert not "".join(lines[1 + m.num_peers:]).strip()
        if exact:
            assert written == text
        seen.add("exact" if exact else "parsed")

    check()
    assert seen == {"exact", "parsed", "line error"}


def plan_batch(path):
    """The reader behind plan --batch."""
    cli.cmd_plan(argparse.Namespace(batch=path), path.parent)


# Each reader, a file whose line 2 holds a byte that is not UTF-8, and the
# reader's own error with its usual prefix ("{path}: " for the sim and plan
# readers).
NOT_UTF8 = [
    (trace.read_matrix_file, b"peers=1 slots=2 slot_seconds=3600\n1\xff\n", trace.TraceFormatError, ""),
    (trace.read_event_file, b"p1,0,login\n\xffp1,1,login\n", trace.TraceFormatError, ""),  # at a line start
    (sim.load_config, b"seed=1\nk\xff=2\n", ValueError, "{path}: "),
    (sim.read_bandwidth_cdf, b"0,1\n1\xff,2\n", ValueError, "{path}: "),
    (plan_batch, b"mode,k,a,target\nn,4,0.5,\xff\n", ValueError, "{path}: "),
]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader,data,error,prefix", NOT_UTF8, ids=[case[0].__name__ for case in NOT_UTF8])
def test_readers_name_the_line_that_is_not_utf8(tmp_path, reader, data, error, prefix, newline):
    """A byte that is not UTF-8 raises the reader's error naming its line,
    counted with universal newlines, not a UnicodeDecodeError with a byte
    offset."""
    path = tmp_path / "input"
    path.write_bytes(data.replace(b"\n", newline))
    with pytest.raises(error, match=f"^{re.escape(prefix.format(path=path))}line 2: not UTF-8 text$"):
        reader(path)


def test_matrix_bits_are_immutable():
    m = make_matrix(["10"])
    with pytest.raises(ValueError):
        m.bits[0, 0] = 0
