import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from p2pbackup import sched
from p2pbackup.sched import BACKUP, RESTORE, Schedule, TransferProblem
from conftest import make_matrix
from oracles import brute_max_fragments, loop_random_schedule, matching_max_fragments, matching_min_completion


# The worked instance: owner row 0 online t1-t3 and t6-t8; p1 online t1,t2;
# p2 online t1,t7; p3 online t3 only.  Three fragments need three distinct
# peers, and the only slot p3 overlaps the owner is t3.

OPTIMAL_ENTRIES = ((1, 2), (2, 1), (3, 3))  # the quoted 3-slot schedule
SLOW_ENTRIES = ((1, 1), (2, 7), (3, 3))  # the quoted randomized 7-slot schedule


# ---------------------------------------------------------- problem validation

def test_problem_rejects_bad_direction(fig_matrix):
    with pytest.raises(ValueError):
        TransferProblem(matrix=fig_matrix, owner=0, direction="sideways", x=1)


def test_problem_rejects_nonpositive_x(fig_matrix):
    with pytest.raises(ValueError):
        TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=0)


def test_problem_rejects_owner_out_of_range(fig_matrix):
    with pytest.raises(ValueError):
        TransferProblem(matrix=fig_matrix, owner=4, direction=BACKUP, x=1)


def test_restore_requires_storage_set(fig_matrix):
    with pytest.raises(ValueError):
        TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=1)
    with pytest.raises(ValueError):
        TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=1, storage_set={0, 1})


def test_backup_rejects_storage_set(fig_matrix):
    with pytest.raises(ValueError):
        TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=1, storage_set={1})


def test_candidates_backup_is_everyone_else(fig_problem):
    assert fig_problem.candidates == (1, 2, 3)


def test_candidates_restore_is_storage_set(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=2, storage_set={3, 1})
    assert p.candidates == (1, 3)


# ----------------------------------------------------------- validate_schedule

def test_validate_accepts_quoted_optimal(fig_problem):
    assert sched.validate_schedule(fig_problem, Schedule(OPTIMAL_ENTRIES)) == []


def test_validate_accepts_quoted_randomized(fig_problem):
    assert sched.validate_schedule(fig_problem, Schedule(SLOW_ENTRIES)) == []


def test_validate_flags_repeated_peer(fig_problem):
    violations = sched.validate_schedule(fig_problem, Schedule([(1, 1), (1, 2)]))
    assert any("per-peer cap" in v for v in violations)


def test_validate_flags_owner_offline(fig_problem):
    violations = sched.validate_schedule(fig_problem, Schedule([(1, 4)]))
    assert any("owner offline in slot 4" in v for v in violations)


def test_validate_flags_peer_offline(fig_problem):
    violations = sched.validate_schedule(fig_problem, Schedule([(3, 1)]))
    assert any("peer 3 offline" in v for v in violations)


def test_validate_flags_owner_rate(fig_problem):
    violations = sched.validate_schedule(fig_problem, Schedule([(1, 1), (2, 1)]))
    assert any("owner rate" in v for v in violations)


def test_validate_flags_non_storage_peer(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=1, storage_set={1})
    violations = sched.validate_schedule(p, Schedule([(2, 1)]))
    assert any("not in the storage set" in v for v in violations)


def test_validate_raises_on_out_of_range_entries(fig_problem):
    with pytest.raises(ValueError):
        sched.validate_schedule(fig_problem, Schedule([(9, 1)]))
    with pytest.raises(ValueError):
        sched.validate_schedule(fig_problem, Schedule([(1, 9)]))


# ------------------------------------------------------------- completion_time

def test_completion_time_quoted_schedules():
    assert sched.completion_time(Schedule(OPTIMAL_ENTRIES)) == 3
    assert sched.completion_time(Schedule(SLOW_ENTRIES)) == 7
    assert sched.completion_time(Schedule([(5, 9)])) == 9
    assert sched.completion_time(Schedule()) == 0


# ----------------------------------------------------------- the flow network

def test_network_layout_first_three_slots(fig_problem):
    graph = sched.build_flow_network(fig_problem, T=3)
    # nodes: source 0, slots 1-3, candidates p1-p3 at 4-6, sink 7
    assert graph.shape == (8, 8) and graph.dtype == np.int32
    coo = graph.tocoo()
    arcs = {(int(u), int(v)) for u, v in zip(coo.row, coo.col)}
    assert len(arcs) == coo.nnz
    assert {v for u, v in arcs if u == 0} == {1, 2, 3}
    assert all(4 <= v <= 6 for u, v in arcs if 1 <= u <= 3)
    slot_peer = {(u, fig_problem.candidates[v - 4]) for u, v in arcs if 1 <= u <= 3}
    assert slot_peer == {(1, 1), (1, 2), (2, 1), (3, 3)}
    assert sorted(u for u, v in arcs if v == 7) == [4, 5, 6]
    assert coo.nnz == 3 + 4 + 3
    assert set(coo.data.tolist()) == {1}


def test_network_capacities_by_arc_class(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=2,
                        owner_rate=3, peer_rate=2, per_peer_cap=4, storage_set={1, 3})
    graph = sched.build_flow_network(p, T=3).toarray()
    # nodes: source 0, slots 1-3, p1 at 4, p3 at 5, sink 6
    assert graph[0, 1:4].tolist() == [3, 3, 3]
    assert graph[1:4, 4:6].tolist() == [[2, 0], [2, 0], [0, 2]]
    assert graph[4:6, 6].tolist() == [4, 4]
    assert np.count_nonzero(graph) == 3 + 3 + 2


def test_network_rejects_bad_horizon(fig_problem):
    with pytest.raises(ValueError):
        sched.build_flow_network(fig_problem, T=0)
    with pytest.raises(ValueError):
        sched.build_flow_network(fig_problem, T=9)


def test_max_flow_on_worked_instance(fig_problem):
    value, _ = sched.max_flow(sched.build_flow_network(fig_problem, T=3))
    assert value == 3


def test_max_flow_no_source_arcs():
    m = make_matrix(["0000", "1111"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=1)
    graph = sched.build_flow_network(p, T=4)
    assert graph[0].nnz == 0
    value, flow = sched.max_flow(graph)
    assert value == 0
    assert flow.count_nonzero() == 0


def test_max_flow_single_augmenting_path():
    m = make_matrix(["1", "1"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=1)
    value, _ = sched.max_flow(sched.build_flow_network(p, T=1))
    assert value == 1


def test_max_flow_complete_bipartite_matches_exhaustive():
    m = make_matrix(["111", "111", "111", "111"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=3)
    value, _ = sched.max_flow(sched.build_flow_network(p, T=3))
    assert value == 3
    assert value == matching_max_fragments(m.bits, 0, p.candidates, 3)


def test_flow_conservation_and_integrality(fig_problem):
    graph = sched.build_flow_network(fig_problem, T=8)
    value, flow = sched.max_flow(graph)
    capacity = graph.toarray()
    f = flow.toarray()
    assert np.issubdtype(f.dtype, np.integer)
    assert np.array_equal(f, -f.T)  # reverse entries mirror the arc flows
    arc = capacity > 0
    assert np.all(f[~arc & ~arc.T] == 0)  # no flow off the arcs
    forward = np.where(arc, f, 0)
    assert np.all((0 <= forward) & (forward <= capacity))
    inflow, outflow = forward.sum(axis=0), forward.sum(axis=1)
    sink = graph.shape[0] - 1
    assert np.array_equal(inflow[1:sink], outflow[1:sink])
    assert outflow[0] == value == inflow[sink]


# --------------------------------------------------------------- max_fragments

def test_fragment_counts_grow_to_three(fig_problem):
    for T, expected in [(1, 1), (2, 2), (3, 3), (8, 3)]:
        value, schedule = sched.max_fragments(fig_problem, T)
        assert value == expected
        assert len(schedule) == expected
        assert sched.validate_schedule(fig_problem, schedule) == []


def test_fragments_zero_when_no_peer_online():
    m = make_matrix(["1111", "0000", "0000"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=1)
    for T in range(1, 5):
        assert sched.max_fragments(p, T)[0] == 0


def test_fragments_respect_per_peer_cap(fig_matrix):
    # With cap 2, p2 can serve both t1 and t7: one extra fragment fits.
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=4, per_peer_cap=2)
    value, schedule = sched.max_fragments(p, 8)
    assert value == 4
    assert sched.validate_schedule(p, schedule) == []


def test_fragments_respect_owner_rate():
    m = make_matrix(["11", "11", "11", "11"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=3, owner_rate=2)
    assert sched.max_fragments(p, 1)[0] == 2
    assert sched.max_fragments(p, 2)[0] == 3  # x does not cap F, peers do


# ---------------------------------------------------------- optimal_completion

def test_optimal_completion_worked_instance(fig_problem):
    out = sched.optimal_completion(fig_problem)
    assert out.feasible
    assert out.completion == 3
    assert out.fragments >= 3
    assert len(out.schedule) >= 3
    assert sched.completion_time(out.schedule) == 3
    assert sched.validate_schedule(fig_problem, out.schedule) == []


def test_optimal_completion_trivial_single_slot():
    m = make_matrix(["1", "1"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=1)
    out = sched.optimal_completion(p)
    assert out.feasible and out.completion == 1


def test_optimal_completion_infeasible_reports_ceiling(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=4)
    out = sched.optimal_completion(p)
    assert not out.feasible
    assert out.schedule is None
    assert out.completion == 0
    assert out.fragments == 3


def test_optimal_completion_restore_uses_storage_set(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=2, storage_set={1, 2})
    out = sched.optimal_completion(p)
    assert out.feasible
    # p1 at t1 or t2, p2 at t1 or t7; both only fit by t2 at the earliest
    assert out.completion == 2


# -------------------------------------------------------------- random policy

def test_random_schedule_reproduces_quoted_outcome(fig_problem):
    out = sched.random_schedule(fig_problem, seed=1)
    assert out.feasible
    assert out.schedule.entries == SLOW_ENTRIES
    assert out.completion == 7


def test_random_schedule_can_match_optimal(fig_problem):
    out = sched.random_schedule(fig_problem, seed=0)
    assert out.schedule.entries == OPTIMAL_ENTRIES
    assert out.completion == 3


def test_random_schedule_deterministic_under_seed(fig_problem):
    a = sched.random_schedule(fig_problem, seed=123)
    b = sched.random_schedule(fig_problem, seed=123)
    assert a == b


def test_random_schedule_accepts_generator(fig_problem):
    rng = np.random.default_rng(1)
    out = sched.random_schedule(fig_problem, seed=rng)
    assert out.schedule.entries == SLOW_ENTRIES


def test_random_schedule_no_choice_is_greedy():
    m = make_matrix(["111", "100", "010", "001"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=3)
    for seed in range(5):
        out = sched.random_schedule(p, seed=seed)
        assert out.schedule.entries == ((1, 1), (2, 2), (3, 3))


def test_random_schedule_stops_exactly_at_x(fig_problem):
    for seed in range(10):
        out = sched.random_schedule(fig_problem, seed=seed)
        assert out.feasible
        assert len(out.schedule) == fig_problem.x
        assert sched.validate_schedule(fig_problem, out.schedule) == []
        assert out.completion >= 3  # never beats the optimum


def test_random_schedule_infeasible_counts_placed(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=4)
    out = sched.random_schedule(p, seed=0)
    assert not out.feasible
    assert out.schedule is None
    assert out.fragments == 3


# -------------------------------------------------------------- ideal baseline

def test_ideal_baseline_counts_online_slots():
    assert sched.ideal_baseline([1, 0, 1, 1, 0], 3, 1) == 4
    assert sched.ideal_baseline([1] * 10, 10, 2) == 5
    assert sched.ideal_baseline([1, 0] * 4, 4, 1) == 7


def test_ideal_baseline_start_slot_offsets_elapsed_count():
    assert sched.ideal_baseline([1, 0, 1, 1, 0], 2, 1, start_slot=3) == 2


def test_ideal_baseline_edge_cases():
    assert sched.ideal_baseline([1, 1], 0, 1) == 0
    assert sched.ideal_baseline([1, 0, 0], 2, 1) is None
    with pytest.raises(ValueError):
        sched.ideal_baseline([1], 1, 0)
    with pytest.raises(ValueError):
        sched.ideal_baseline([1], 1, 1, start_slot=2)


def test_optimal_never_beats_ideal(fig_problem):
    out = sched.optimal_completion(fig_problem)
    ideal = sched.ideal_baseline(fig_problem.matrix.bits[0], fig_problem.x, fig_problem.owner_rate)
    assert out.completion >= ideal


# ----------------------------------------------------- exhaustive cross-checks

small_instances = st.tuples(
    hnp.arrays(np.uint8, st.tuples(st.integers(2, 5), st.integers(1, 6)), elements=st.integers(0, 1)),
    st.integers(1, 4),
)


@settings(max_examples=200, deadline=None)
@given(small_instances)
def test_flow_value_matches_matching_oracle(instance):
    bits, x = instance
    m = sched.AvailabilityMatrix(bits=bits)
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=x)
    for T in range(1, m.num_slots + 1):
        value, schedule = sched.max_fragments(p, T)
        assert value == matching_max_fragments(bits.tolist(), 0, p.candidates, T)
        assert sched.validate_schedule(p, schedule) == []


@st.composite
def rated_problems(draw):
    """Backups and restores over small_instances with rates and cap in {1, 2}."""
    bits, x = draw(small_instances)
    m = sched.AvailabilityMatrix(bits=bits)
    restore = draw(st.booleans())
    return TransferProblem(
        matrix=m, owner=0, direction=RESTORE if restore else BACKUP, x=x,
        owner_rate=draw(st.integers(1, 2)), peer_rate=draw(st.integers(1, 2)),
        per_peer_cap=draw(st.integers(1, 2)),
        storage_set=draw(st.sets(st.integers(1, m.num_peers - 1), min_size=1)) if restore else None,
    )


@settings(max_examples=200, deadline=None)
@given(rated_problems())
def test_flow_value_matches_brute_force_with_rates_and_caps(p):
    bits = p.matrix.bits.tolist()
    for T in range(1, p.matrix.num_slots + 1):
        value, schedule = sched.max_fragments(p, T)
        assert value == brute_max_fragments(
            bits, 0, p.candidates, T, p.owner_rate, p.peer_rate, p.per_peer_cap)
        assert len(schedule) == value
        assert sched.completion_time(schedule) <= T
        assert sched.validate_schedule(p, schedule) == []
        # validate_schedule has no clause for the per-slot peer rate
        assert all(schedule.entries.count(e) <= p.peer_rate for e in schedule.entries)


@settings(max_examples=200, deadline=None)
@given(rated_problems(), st.integers(0, 2**31 - 1))
def test_random_schedule_matches_loop_reference(p, seed):
    out = sched.random_schedule(p, seed=seed)
    entries = loop_random_schedule(
        p.matrix.bits.tolist(), 0, p.candidates, p.x, p.owner_rate, p.peer_rate, p.per_peer_cap,
        np.random.default_rng(seed),
    )
    if out.feasible:
        assert out.schedule.entries == tuple(entries)
    else:
        assert out.fragments == len(entries) < p.x


@settings(max_examples=200, deadline=None)
@given(small_instances)
def test_doubling_search_matches_linear_scan(instance):
    bits, x = instance
    m = sched.AvailabilityMatrix(bits=bits)
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=x)
    out = sched.optimal_completion(p)
    expected = matching_min_completion(bits.tolist(), 0, p.candidates, x, m.num_slots)
    if expected is None:
        assert not out.feasible
    else:
        assert out.feasible and out.completion == expected


@settings(max_examples=100, deadline=None)
@given(small_instances, st.integers(0, 2**31 - 1))
def test_random_schedule_always_valid(instance, seed):
    bits, x = instance
    m = sched.AvailabilityMatrix(bits=bits)
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=x)
    out = sched.random_schedule(p, seed=seed)
    if out.feasible:
        assert len(out.schedule) == x
        assert sched.validate_schedule(p, out.schedule) == []
        opt = sched.optimal_completion(p)
        assert out.completion >= opt.completion
    else:
        assert out.fragments < x


def test_fragment_count_monotone_in_horizon(fig_problem):
    values = [sched.max_fragments(fig_problem, T)[0] for T in range(1, 9)]
    assert values == sorted(values)


# ------------------------------------------------------------------- file I/O

def test_problem_file_round_trip(tmp_path, fig_problem):
    path = tmp_path / "problem.txt"
    sched.write_problem_file(fig_problem, path, tmp_path / "matrix.txt")
    back = sched.read_problem_file(path)
    assert back.matrix == fig_problem.matrix
    assert (back.owner, back.direction, back.x) == (0, BACKUP, 3)
    assert (back.owner_rate, back.peer_rate, back.per_peer_cap) == (1, 1, 1)


def test_problem_file_round_trip_restore(tmp_path, fig_matrix):
    p = TransferProblem(
        matrix=fig_matrix, owner=0, direction=RESTORE, x=2,
        owner_rate=3, peer_rate=2, per_peer_cap=2, storage_set={1, 3},
    )
    path = tmp_path / "problem.txt"
    sched.write_problem_file(p, path, tmp_path / "matrix.txt")
    back = sched.read_problem_file(path)
    assert back.storage_set == frozenset({1, 3})
    assert (back.owner_rate, back.peer_rate, back.per_peer_cap) == (3, 2, 2)


def test_problem_file_missing_keys(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("owner=0 x=3\n")
    with pytest.raises(sched.ProblemFormatError, match="missing keys"):
        sched.read_problem_file(path)


def test_schedule_csv_round_trip(tmp_path):
    path = tmp_path / "schedule.csv"
    sched.write_schedule_csv(Schedule(SLOW_ENTRIES), path)
    assert sched.read_schedule_csv(path).entries == SLOW_ENTRIES


def test_schedule_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(sched.ProblemFormatError):
        sched.read_schedule_csv(path)
