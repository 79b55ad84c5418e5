import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import maximum_flow

from p2pbackup import sched, trace
from p2pbackup.sched import BACKUP, RESTORE, TransferProblem
from conftest import BIT_GENERATORS, cut_problems, generator_state, make_matrix, tool_output
from oracles import (
    brute_max_fragments, coo_flow_network, flow_max_fragments, loop_random_schedule, matching_max_fragments,
    matching_min_completion, slice_witness,
)


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


@pytest.mark.parametrize("field, value", [
    ("x", 2.5), ("owner_rate", 1.5), ("per_peer_cap", 1.5), ("owner", 0.5),
    ("x", math.nan), ("owner_rate", math.inf), ("per_peer_cap", -math.inf), ("x", "3"), ("owner", None),
])
def test_problem_rejects_non_integral_counts(fig_matrix, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        TransferProblem(**{"matrix": fig_matrix, "owner": 0, "direction": BACKUP, "x": 1, field: value})


@pytest.mark.parametrize("fields, message", [
    ({"owner": 7}, "owner index out of range"),
    ({"direction": "sideways"}, "direction must be 'backup' or 'restore'"),
    ({"x": 0}, "x must be at least 1"),
    ({"owner_rate": 0}, "owner_rate must be at least 1"),
    ({"per_peer_cap": 0}, "per_peer_cap must be at least 1"),
    ({"storage_set": None}, "direction 'restore' needs a non-empty storage_set"),
    ({"storage_set": {0, 1}}, "storage_set cannot hold the owner"),
    ({"storage_set": {1, 9}}, "storage_set index out of range"),
    ({"direction": BACKUP}, "storage_set only applies to restore problems"),
], ids=["owner-out-of-range", "direction", "x-zero", "owner-rate-zero", "cap-zero", "restore-without-storage",
        "storage-holds-owner", "storage-out-of-range", "storage-on-a-backup"])
def test_problem_names_the_field_it_rejects(fig_matrix, fields, message):
    """Each message leads with its field, changed from a valid restore."""
    kwargs = {"matrix": fig_matrix, "owner": 0, "direction": RESTORE, "x": 2, "storage_set": {1, 3}, **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransferProblem(**kwargs)


def test_problem_stores_integral_counts_as_int(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=np.int64(0), direction=BACKUP, x=3.0, owner_rate=np.float64(1),
                        per_peer_cap=True)
    assert [type(v) for v in (p.owner, p.x, p.owner_rate, p.per_peer_cap)] == [int] * 4
    assert sched.optimal_completion(p).completion == 3


@pytest.mark.parametrize("ids, bad", [
    ({1.5, 2.7}, "1.5"), ({1, 2.5}, "2.5"), ({math.nan}, "nan"), ({1, math.inf}, "inf"), ({-math.inf}, "-inf"),
    ({"1"}, "'1'"), ({None}, "None"),
])
def test_problem_rejects_non_integral_storage_ids(fig_matrix, ids, bad):
    with pytest.raises(ValueError, match=re.escape(f"storage_set must hold integers, got {bad}")):
        TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=1, storage_set=ids)


def test_problem_stores_integral_storage_ids_as_int(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=2,
                        storage_set={1.0, np.int64(2), np.float64(3)})
    assert p.storage_set == frozenset({1, 2, 3}) and {type(i) for i in p.storage_set} == {int}
    assert p.candidates == (1, 2, 3)


def test_candidates_backup_is_everyone_else(fig_problem):
    assert fig_problem.candidates == (1, 2, 3)


def test_candidates_restore_is_storage_set(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=2, storage_set={3, 1})
    assert p.candidates == (1, 3)


# ----------------------------------------------------------- validate_schedule

def test_validate_accepts_quoted_optimal(fig_problem):
    assert sched.validate_schedule(fig_problem, OPTIMAL_ENTRIES) == []


def test_validate_accepts_quoted_randomized(fig_problem):
    assert sched.validate_schedule(fig_problem, SLOW_ENTRIES) == []


def test_validate_flags_repeated_peer(fig_problem):
    violations = sched.validate_schedule(fig_problem, [(1, 1), (1, 2)])
    assert any("per-peer cap" in v for v in violations)


def test_validate_flags_owner_offline(fig_problem):
    violations = sched.validate_schedule(fig_problem, [(1, 4)])
    assert any("owner offline in slot 4" in v for v in violations)


def test_validate_flags_peer_offline(fig_problem):
    violations = sched.validate_schedule(fig_problem, [(3, 1)])
    assert any("peer 3 offline" in v for v in violations)


def test_validate_flags_owner_rate(fig_problem):
    violations = sched.validate_schedule(fig_problem, [(1, 1), (2, 1)])
    assert any("owner rate" in v for v in violations)


def test_validate_flags_peer_rate(fig_matrix):
    """Owner rate and cap 2 allow two fragments in slot 1, to two peers but
    not both to one."""
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=2, owner_rate=2, per_peer_cap=2)
    violations = sched.validate_schedule(p, [(1, 1), (1, 1)])
    assert violations == ["entry (1, 1): 2 transfers exceed one per peer per slot"]
    assert sched.validate_schedule(p, [(1, 1), (2, 1)]) == []


def test_validate_flags_a_transfer_to_the_owner(fig_problem):
    violations = sched.validate_schedule(fig_problem, [(0, 1)])
    assert "entry (0, 1): transfer targets the owner" in violations


def test_validate_flags_non_storage_peer(fig_matrix):
    p = TransferProblem(matrix=fig_matrix, owner=0, direction=RESTORE, x=1, storage_set={1})
    violations = sched.validate_schedule(p, [(2, 1)])
    assert any("not in the storage set" in v for v in violations)


def test_validate_raises_on_out_of_range_entries(fig_problem):
    with pytest.raises(ValueError):
        sched.validate_schedule(fig_problem, [(9, 1)])
    with pytest.raises(ValueError):
        sched.validate_schedule(fig_problem, [(1, 9)])


# ------------------------------------------------------------- completion_time

def test_completion_time_quoted_schedules():
    assert sched.completion_time(OPTIMAL_ENTRIES) == 3
    assert sched.completion_time(SLOW_ENTRIES) == 7
    assert sched.completion_time([(5, 9)]) == 9
    assert sched.completion_time(()) == 0


# ----------------------------------------------------------- the flow network

def test_network_layout_first_three_slots(fig_problem):
    graph = coo_flow_network(fig_problem, T=3)
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
                        owner_rate=3, per_peer_cap=4, storage_set={1, 3})
    graph = coo_flow_network(p, T=3).toarray()
    # nodes: source 0, slots 1-3, p1 at 4, p3 at 5, sink 6
    assert graph[0, 1:4].tolist() == [3, 3, 3]
    assert graph[1:4, 4:6].tolist() == [[1, 0], [1, 0], [0, 1]]
    assert graph[4:6, 6].tolist() == [4, 4]
    assert np.count_nonzero(graph) == 3 + 3 + 2


def test_network_rejects_bad_horizon(fig_problem):
    with pytest.raises(ValueError):
        sched.max_fragments(fig_problem, T=0)
    with pytest.raises(ValueError):
        sched.max_fragments(fig_problem, T=9)


def assert_witness(p, T, value, schedule, flow_entries):
    """schedule is a maximum flow of value fragments within slots 1..T:
    valid, with distinct (peer, slot) pairs, and as many pairs as
    flow_entries, scipy's witness.  Where first fit leaves no slot short,
    its flow is scipy's, and the witness must be that flow."""
    assert len(schedule) == value == len(flow_entries)
    assert sched.validate_schedule(p, schedule) == []
    assert all(slot <= T for _, slot in schedule)
    assert len(set(schedule)) == len(schedule)  # one per peer per slot, apart from validate_schedule
    if not sched._first_fit(p, T)[-1]:
        assert list(schedule) == flow_entries


def assert_max_fragments(p, T):
    """max_fragments(p, T) has scipy's max flow value and a witness that
    assert_witness accepts."""
    value, schedule = sched.max_fragments(p, T)
    flow_value, flow_entries = flow_max_fragments(p, T)
    assert value == flow_value, T
    assert_witness(p, T, value, schedule, flow_entries)


def test_max_flow_on_worked_instance(fig_problem):
    assert sched.max_fragments(fig_problem, T=3)[0] == 3
    assert_max_fragments(fig_problem, 3)


def test_max_flow_no_source_arcs():
    m = make_matrix(["0000", "1111"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=1)
    assert coo_flow_network(p, T=4)[0].nnz == 0
    value, schedule = sched.max_fragments(p, T=4)
    assert value == 0
    assert not schedule
    assert flow_max_fragments(p, 4) == (0, [])


def test_max_flow_single_augmenting_path():
    m = make_matrix(["1", "1"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=1)
    value, schedule = sched.max_fragments(p, T=1)
    assert (value, schedule) == (1, ((1, 1),))
    assert (value, list(schedule)) == flow_max_fragments(p, 1)


def test_max_flow_complete_bipartite_matches_exhaustive():
    m = make_matrix(["111", "111", "111", "111"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=3)
    value, schedule = sched.max_fragments(p, T=3)
    assert value == 3
    assert value == matching_max_fragments(m.bits, 0, p.candidates, 3)
    assert value == brute_max_fragments(m.bits.tolist(), 0, p.candidates, 3, 1, 1)
    assert (value, list(schedule)) == flow_max_fragments(p, 3)  # first fit fills every slot


def test_flow_conservation_and_integrality(fig_problem):
    graph = coo_flow_network(fig_problem, T=8)
    result = maximum_flow(graph, 0, graph.shape[0] - 1)
    value, flow = result.flow_value, result.flow
    assert value == sched.max_fragments(fig_problem, T=8)[0]
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
    assert out.schedule == SLOW_ENTRIES
    assert out.completion == 7


def test_random_schedule_can_match_optimal(fig_problem):
    out = sched.random_schedule(fig_problem, seed=0)
    assert out.schedule == OPTIMAL_ENTRIES
    assert out.completion == 3


def test_random_schedule_deterministic_under_seed(fig_problem):
    a = sched.random_schedule(fig_problem, seed=123)
    b = sched.random_schedule(fig_problem, seed=123)
    assert a == b


def test_random_schedule_accepts_generator(fig_problem):
    rng = np.random.default_rng(1)
    out = sched.random_schedule(fig_problem, seed=rng)
    assert out.schedule == SLOW_ENTRIES


def test_random_schedule_no_choice_is_greedy():
    m = make_matrix(["111", "100", "010", "001"])
    p = TransferProblem(matrix=m, owner=0, direction=BACKUP, x=3)
    for seed in range(5):
        out = sched.random_schedule(p, seed=seed)
        assert out.schedule == ((1, 1), (2, 2), (3, 3))


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


@pytest.mark.parametrize("block", [1, 7, 500])
def test_word_draws_reduce_as_rng_integers(block):
    """Bounded picks from blocks of words are the values rng.integers(n)
    gives, and leave the generator in the state those calls leave, with
    blocks that run out, and one with words left over.  2**31 + 1 rejects
    about half its words; both generators start with PCG64's half-word
    pending, after an odd number of 32-bit draws."""
    bounds = [1, 2, 3, 199, 2**31 + 1, 2**32 - 1]
    ns = [bounds[i % len(bounds)] for i in range(120)]
    rng, ref = np.random.default_rng(29), np.random.default_rng(29)
    for g in (rng, ref):
        g.integers(0, 1 << 32, size=3, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"]
    draws = sched._WordDraws(rng, block)
    picks = [draws.below(n) for n in ns]
    draws.finish()
    assert picks == [int(ref.integers(n)) for n in ns]
    assert generator_state(rng) == generator_state(ref)


# -------------------------------------------------------------- ideal baseline

def test_ideal_baseline_counts_online_slots():
    assert sched.ideal_baseline([1, 0, 1, 1, 0], 3, 1) == 4
    assert sched.ideal_baseline([1] * 10, 10, 2) == 5
    assert sched.ideal_baseline([1, 0] * 4, 4, 1) == 7


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=12), st.integers(0, 14), st.integers(1, 3))
def test_ideal_baseline_matches_slot_loop(row, amount, rate):
    needed, count, expect = math.ceil(amount / rate), 0, None if amount else 0
    for col in range(len(row)):
        count += row[col]
        if row[col] and count == needed:
            expect = col + 1
            break
    assert sched.ideal_baseline(np.array(row, dtype=np.uint8), amount, rate) == expect


def test_ideal_baseline_edge_cases():
    assert sched.ideal_baseline([1, 1], 0, 1) == 0
    assert sched.ideal_baseline([1, 0, 0], 2, 1) is None
    with pytest.raises(ValueError):
        sched.ideal_baseline([1], 1, 0)


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
def rated_problems(draw, top=2):
    """Backups and restores over small_instances with owner rate and cap in 1..top."""
    bits, x = draw(small_instances)
    m = sched.AvailabilityMatrix(bits=bits)
    restore = draw(st.booleans())
    return TransferProblem(
        matrix=m, owner=0, direction=RESTORE if restore else BACKUP, x=x,
        owner_rate=draw(st.integers(1, top)), per_peer_cap=draw(st.integers(1, top)),
        storage_set=draw(st.sets(st.integers(1, m.num_peers - 1), min_size=1)) if restore else None,
    )


@settings(max_examples=200, deadline=None)
@given(rated_problems())
def test_flow_value_matches_brute_force_with_rates_and_caps(p):
    bits = p.matrix.bits.tolist()
    for T in range(1, p.matrix.num_slots + 1):
        value, schedule = sched.max_fragments(p, T)
        assert value == brute_max_fragments(
            bits, 0, p.candidates, T, p.owner_rate, p.per_peer_cap)
        assert len(schedule) == value
        assert sched.completion_time(schedule) <= T
        assert sched.validate_schedule(p, schedule) == []
        # one fragment per peer per slot, checked independently of validate_schedule
        assert len(set(schedule)) == len(schedule)


@settings(max_examples=200, deadline=None)
@given(rated_problems())
def test_network_and_witness_match_coo_and_slice_oracles(p):
    """The network first fit and the augmenting paths walk is
    coo_flow_network, arc for arc: the owner-online slots are its source
    arcs, and each one's mask, cut to the candidates, is its slot->peer
    arcs.  The value is scipy's max flow on that network, and the witness a
    maximum flow that assert_witness accepts against slice_witness's."""
    candidates = sum(1 << c for c in p.candidates)
    for T in range(1, p.matrix.num_slots + 1):
        graph = coo_flow_network(p, T)
        slots, masks, *_ = sched._first_fit(p, T)
        arcs = [graph.indices[graph.indptr[u]:graph.indptr[u + 1]].tolist() for u in range(T + 1)]
        assert arcs[0] == slots
        online = dict(zip(slots, masks))
        for s in range(1, T + 1):
            heads = sum(1 << p.candidates[v - T - 1] for v in arcs[s])
            assert online.get(s, 0) & candidates == heads, s
        result = maximum_flow(graph, 0, graph.shape[0] - 1)
        value, schedule = sched.max_fragments(p, T)
        assert value == result.flow_value
        assert_witness(p, T, value, schedule, slice_witness(p, T, result.flow))


def test_first_fit_certifies_the_max_flow_or_steps_aside():
    """At every T, max_fragments gives the value of scipy's max flow alone
    and a witness that assert_witness accepts, and first fit either fills
    every slot with scipy's flow or leaves a slot short for the augmenting
    paths; O(x) is the first T at which the value reaches x, with a witness
    of that many fragments completing at O(x).  The sweep must see both
    branches."""
    branches = set()

    @settings(max_examples=200, deadline=None)
    @given(rated_problems(top=3))
    def check(p):
        flows = [flow_max_fragments(p, T) for T in range(1, p.matrix.num_slots + 1)]
        for T, (value, entries) in enumerate(flows, start=1):
            got = sched.max_fragments(p, T)
            assert got[0] == value
            assert_witness(p, T, *got, entries)
            *_, first, _, short = sched._first_fit(p, T)
            branches.add(short)
            assert short or (len(first), sorted(first)) == (value, entries)
        out = sched.optimal_completion(p)
        reached = [T for T, (value, _) in enumerate(flows, start=1) if value >= p.x]
        if reached:
            value, entries = flows[reached[0] - 1]
            assert (out.feasible, out.completion, out.fragments) == (True, reached[0], value)
            assert_witness(p, reached[0], value, out.schedule, entries)
            assert sched.completion_time(out.schedule) == out.completion
        else:
            assert (out.feasible, out.fragments) == (False, flows[-1][0])

    check()
    assert branches == {True, False}


def test_first_fit_short_of_the_max_flow_falls_back():
    """Slot 1 sees peers 1 and 2, slot 2 only peer 1: first fit sends slot 1
    to peer 1 and leaves slot 2 empty, while the max flow moves 2, which one
    augmenting path finds by moving slot 1 to peer 2."""
    p = TransferProblem(matrix=make_matrix(["11", "11", "10"]), owner=0, direction=BACKUP, x=2)
    assert sched._first_fit(p, 2)[2:] == ([(1, 1)], [1, 0, 1], True)
    assert sched._first_fit(p, 1)[2:] == ([(1, 1)], [1, 0, 1], False)
    value, schedule = sched.max_fragments(p, 2)
    assert (value, schedule) == (2, ((1, 2), (2, 1)))
    out = sched.optimal_completion(p)
    assert (out.completion, out.fragments, out.schedule) == (2, 2, ((1, 2), (2, 1)))


def test_a_long_augmenting_path_crosses_every_slot():
    """Owner rate and cap 1, 400 slots and 401 remote peers: slot s sees
    peers s and s + 1 for s < 400, and slot 400 sees only peer 1.  First fit
    sends slot s to peer s and leaves slot 400 short, and the one augmenting
    path steps back through every slot to reach peer 400, so the search must
    not recurse once per step."""
    bits = np.zeros((402, 400), dtype=np.uint8)
    bits[0] = 1
    for s in range(1, 400):
        bits[s, s - 1] = bits[s + 1, s - 1] = 1
    bits[1, 399] = 1
    p = TransferProblem(matrix=sched.AvailabilityMatrix(bits=bits), owner=0, direction=BACKUP, x=400)
    assert sched._first_fit(p, 400)[-1]
    value, schedule = sched.max_fragments(p, 400)
    assert value == 400 == flow_max_fragments(p, 400)[0]
    assert sched.validate_schedule(p, schedule) == []
    assert set(schedule) == {(1, 400)} | {(s + 1, s) for s in range(1, 400)}
    assert sched.optimal_completion(p) == sched.ScheduleOutcome(True, schedule, 400, 400)


def test_zero_slot_problem_is_infeasible_for_both_schedulers():
    """A matrix with no slots carries no fragment: both schedulers report
    an infeasible outcome with 0 fragments rather than raising."""
    p = TransferProblem(matrix=sched.AvailabilityMatrix(bits=np.zeros((3, 0), dtype=np.uint8)),
                        owner=0, direction=BACKUP, x=1)
    infeasible = sched.ScheduleOutcome(False, None, 0, 0)
    assert sched.optimal_completion(p) == infeasible
    assert sched.random_schedule(p, seed=0) == infeasible


@pytest.mark.parametrize("rows", [
    ["11111", "01111", "01010", "10101", "00010", "11111", "11010"],
    ["11111", "11111", "11100", "01111", "01101", "11110"],
], ids=["slot-sends-again", "peer-stops-undoing"])
def test_later_phases_keep_the_arcs_a_push_undoes(rows):
    """Owner rate and cap 3, where an augmenting path needs a slot -> peer
    arc whose flow an earlier path undid, or must not undo it twice: at
    every T, max_fragments gives the value of scipy's max flow and a witness
    that assert_witness accepts."""
    p = TransferProblem(matrix=make_matrix(rows), owner=0, direction=BACKUP, x=1, owner_rate=3, per_peer_cap=3)
    assert sched._first_fit(p, p.matrix.num_slots)[-1]
    for T in range(1, p.matrix.num_slots + 1):
        assert_max_fragments(p, T)


def test_later_phases_match_scipy_on_sched_mixed_shapes():
    """On problems shaped like the sched-mixed benchmark's, at the
    owner-capacity bound and at twice it, max_fragments gives the value of
    scipy's max flow alone and a witness that assert_witness accepts,
    including where first fit leaves a slot short and the augmenting paths
    run over many peers and slots."""
    matrix = trace.synth_trace(200, 336, availability=(0.2, 0.9), diurnal_amplitude=0.3,
                               weekend_factor=0.8, seed=29)
    problems = cut_problems(matrix, np.random.default_rng(29), 96, (40, 60, 80), (1.1, 1.5, 2.0), 4, (2, 2))
    short = 0
    for p in problems:
        lower = sched.ideal_baseline(p.matrix.bits[0], p.x, p.owner_rate) or p.matrix.num_slots
        for T in (lower, min(2 * lower, p.matrix.num_slots)):
            assert_max_fragments(p, T)
            short += sched._first_fit(p, T)[-1]
    assert short >= 20


@settings(max_examples=200, deadline=None)
@given(rated_problems(), st.integers(0, 2**31 - 1), st.sampled_from(sorted(BIT_GENERATORS)))
def test_random_schedule_matches_loop_reference(p, seed, kind):
    """Same outcome as the per-pick loop, and the generator passed in ends
    in the state the loop's per-pick rng.integers calls leave."""
    rng, loop_rng = BIT_GENERATORS[kind](seed), BIT_GENERATORS[kind](seed)
    out = sched.random_schedule(p, rng)
    entries = loop_random_schedule(
        p.matrix.bits.tolist(), 0, p.candidates, p.x, p.owner_rate, p.per_peer_cap, loop_rng,
    )
    if out.feasible:
        assert out.schedule == tuple(entries)
    else:
        assert out.fragments == len(entries) < p.x
    assert generator_state(rng) == generator_state(loop_rng)


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


# sha256 of (feasible, completion, fragments, entries) of both schedulers over
# the 48 problems below, recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
SCHEDULES_SHA256 = "26b0115fe09e6c6bfe57a7626b998d37ba142ca17ced80ff9d5d9e4c31d302a7"


def test_schedules_are_pinned():
    """Witness schedules and random draws, entry for entry, on problems
    shaped like the sched-mixed benchmark's: backups, and restores with
    owner_rate 2 and per_peer_cap 2, from one 200 x 336 trace."""
    matrix = trace.synth_trace(200, 336, availability=(0.2, 0.9), diurnal_amplitude=0.3,
                               weekend_factor=0.8, seed=18)
    problems = cut_problems(matrix, np.random.default_rng(18), 48, (40, 60, 80), (1.1, 1.5, 2.0), 4, (2, 2))
    digest = hashlib.sha256()
    for i, p in enumerate(problems):
        for out in (sched.optimal_completion(p), sched.random_schedule(p, seed=[18, i])):
            entries = out.schedule if out.feasible else None
            digest.update(repr((out.feasible, out.completion, out.fragments, entries)).encode())
    assert digest.hexdigest() == SCHEDULES_SHA256


@pytest.mark.parametrize("restore_rates", [(2, 2), (2, 3)], ids=["cap-2", "cap-3"])
def test_random_schedule_matches_loop_reference_over_long_horizons(restore_rates):
    """40 problems from a 60 x 168 trace, x up to 48 and restores at
    owner_rate 2 over about x / 2 holders, so the per-peer cap and the one
    pick per peer per slot bind over many slots.  Each problem runs on each bit
    generator kind, and the generator passed in must end in the state the
    per-pick loop leaves, feasible or not."""
    matrix = trace.synth_trace(60, 168, availability=(0.2, 0.9), seed=41)
    problems = cut_problems(matrix, np.random.default_rng(41), 40, (16, 32, 48), (1.0, 1.2), 2, restore_rates)
    for kind, make in BIT_GENERATORS.items():
        bound, feasible = 0, set()
        for i, p in enumerate(problems):
            rng, loop_rng = make([41, i]), make([41, i])
            out = sched.random_schedule(p, rng)
            entries = loop_random_schedule(p.matrix.bits.tolist(), 0, p.candidates, p.x, p.owner_rate,
                                           p.per_peer_cap, loop_rng)
            if out.feasible:
                assert out.schedule == tuple(entries)
            else:
                assert out.fragments == len(entries) < p.x
            assert generator_state(rng) == generator_state(loop_rng), kind
            bound += len(entries) > len(p.candidates)
            feasible.add(out.feasible)
        assert bound  # some schedules use a holder more than once
        assert feasible == {True, False}


def test_fragment_count_monotone_in_horizon(fig_problem):
    values = [sched.max_fragments(fig_problem, T)[0] for T in range(1, 9)]
    assert values == sorted(values)


def test_sched_replay_tool_agrees_with_scipy_on_one_group():
    """tests/sched_replay.py, the check of O(x) on sched-mixed-shaped
    problems against scipy's max flow alone, of each witness for validity
    and of random_schedule against the per-pick loop, runs, finds no
    difference, and counts the augmenting paths of the short probes."""
    lines = tool_output("sched_replay.py", "1")
    assert "outcomes agree with scipy's max flow alone, witnesses valid: yes" in lines
    assert any(line.startswith("augmenting paths per short probe: mean ") for line in lines)
    assert "random_schedule identical to the per-pick loop: yes" in lines
