"""Block actions, views, and the schedule-driven models.

The enumeration oracle here predates the generator it checks: ordered set
partitions are rebuilt from permutations plus composition cut points and
deduplicated, and the counts are cross-checked against the binomial
recurrence.  Nothing in this file reuses the generator's recursion.
"""

from itertools import permutations
from math import comb

import pytest

from epikit.kernel import FrameMorphism, is_morphism
from epikit.logic import Atom, Know, eval_formula
from epikit.schedules import (
    block_action,
    enum_block_actions,
    enum_schedules,
    final_states,
    fubini,
    indist_1,
    input_model,
    parse_schedule,
    protocol_action_model,
    protocol_model,
    schedule,
    schedule_context,
    schedule_count,
    schedule_from_json,
    schedule_to_json,
    seen_ids,
    view1,
)

P, Q, R = 0, 1, 2


def brute_force_block_actions(n):
    """Oracle enumerator: every permutation of 0..n split at every subset
    of cut points, classes sorted, duplicates removed."""
    ids = list(range(n + 1))
    found = set()
    for perm in permutations(ids):
        for cuts in range(1 << max(0, n)):
            classes = []
            current = [perm[0]]
            for pos in range(1, n + 1):
                if cuts >> (pos - 1) & 1:
                    classes.append(tuple(sorted(current)))
                    current = []
                current.append(perm[pos])
            classes.append(tuple(sorted(current)))
            found.add(tuple(classes))
    return found


def fubini_recurrence(m):
    table = [1]
    for size in range(1, m + 1):
        table.append(sum(comb(size, k) * table[size - k] for k in range(1, size + 1)))
    return table[m]


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize("n,count", [(0, 1), (1, 3), (2, 13), (3, 75)])
def test_block_action_counts(n, count):
    oracle = brute_force_block_actions(n)
    assert len(oracle) == count
    assert fubini_recurrence(n + 1) == count
    assert fubini(n + 1) == count
    generated = enum_block_actions(n)
    assert len(generated) == count
    assert {a.classes for a in generated} == oracle


@pytest.mark.parametrize("n,rounds", [(0, 1), (0, 5), (1, 3), (2, 2), (3, 2)])
def test_schedule_count_stops_at_its_limit(n, rounds):
    count = fubini_recurrence(n + 1) ** rounds
    assert count == len(enum_schedules(n, rounds))
    assert schedule_count(n, rounds, count) == count
    assert schedule_count(n, rounds, 10 ** 30) == count
    assert schedule_count(n, rounds, count - 1) is None


def test_schedule_count_of_huge_sizes_is_immediate():
    # neither fubini(3001) nor 3 ** 10**9 is ever built
    assert schedule_count(3000, 1, 10 ** 6) is None
    assert schedule_count(1, 10 ** 9, 10 ** 6) is None
    assert schedule_count(0, 10 ** 9, 1) == 1


def test_single_process_enumeration():
    assert [a.classes for a in enum_block_actions(0)] == [((0,),)]


def test_two_process_enumeration():
    assert [a.text() for a in enum_block_actions(1)] == ["0,1", "0|1", "1|0"]


def test_canonical_order_is_length_then_lex():
    acts = enum_block_actions(2)
    keys = [(len(a.classes), a.classes) for a in acts]
    assert keys == sorted(keys)
    assert acts[0].text() == "0,1,2"


def test_schedule_enumeration_is_cartesian_power():
    scheds = enum_schedules(1, 2)
    assert len(scheds) == 9
    acts = enum_block_actions(1)
    assert scheds[0].rounds == (acts[0], acts[0])
    assert scheds[1].rounds == (acts[0], acts[1])  # first round varies slowest


def test_schedule_count_two_rounds_three_processes():
    assert len(enum_schedules(2, 2)) == 169


# ---------------------------------------------------------------------------
# block action and schedule structure

def test_block_action_validation():
    with pytest.raises(ValueError):
        block_action([0, 1], [1, 2])  # overlap
    with pytest.raises(ValueError):
        block_action([0], [2])  # gap in the id set
    with pytest.raises(ValueError):
        block_action([0], [], [1])  # empty class


def test_schedule_text_roundtrip():
    sched = parse_schedule("0|1,2 ; 0,1,2")
    assert sched.rounds[0] == block_action([0], [1, 2])
    assert sched.rounds[1] == block_action([0, 1, 2])
    assert sched.text() == "0|1,2;0,1,2"
    assert parse_schedule(sched.text()) == sched


def test_schedule_json_roundtrip():
    sched = parse_schedule("0|1,2;0,1,2")
    assert schedule_from_json(schedule_to_json(sched)) == sched


# ---------------------------------------------------------------------------
# views

def test_view_solo_leader():
    act = block_action([P], [Q, R])
    assert view1(P, act) == {P}
    assert view1(Q, act) == {P, Q, R}
    assert view1(R, act) == {P, Q, R}


def test_view_single_class():
    act = block_action([P, Q, R])
    for i in (P, Q, R):
        assert view1(i, act) == {P, Q, R}


def test_view_always_contains_owner():
    for act in enum_block_actions(3):
        for i in range(4):
            assert i in view1(i, act)


def test_views_grow_along_classes():
    for act in enum_block_actions(2):
        reps = [cls[0] for cls in act.classes]
        views = [view1(i, act) for i in reps]
        for earlier, later in zip(views, views[1:]):
            assert earlier < later


def test_indist_one_round_leader_follower_pair():
    a = block_action([P], [Q, R])
    b = block_action([P], [Q], [R])
    assert indist_1(P, a, b)
    assert indist_1(R, a, b)
    assert not indist_1(Q, a, b)


def test_indist_reflexive():
    for act in enum_block_actions(2):
        for i in range(3):
            assert indist_1(i, act, act)


def test_indist_reversed_sequential():
    a = block_action([P], [Q], [R])
    b = block_action([R], [Q], [P])
    assert not indist_1(P, a, b)  # views {p} vs {p,q,r}


# ---------------------------------------------------------------------------
# full information views

def test_one_round_view_determines_view_set():
    acts = enum_block_actions(2)
    for i in range(3):
        for a in acts:
            for b in acts:
                same_state = (
                    final_states(schedule(a))[i] == final_states(schedule(b))[i]
                )
                assert same_state == (view1(i, a) == view1(i, b))


def test_two_round_distinction_travels_through_q():
    u = parse_schedule("0|1,2;0,1,2")
    v = parse_schedule("0|1,2;0,2|1")
    assert final_states(u)[Q] == final_states(v)[Q]
    assert final_states(u)[P] != final_states(v)[P]
    assert final_states(u)[R] != final_states(v)[R]


def test_view_equals_itself_across_rounds():
    s = parse_schedule("0|2|1;0|2|1")
    for i in range(3):
        assert final_states(s)[i] == final_states(s)[i]


def test_seen_ids_transitive():
    # r never appears in q's first round view, but q picks r's data up
    # from p in round 2 once p has seen r
    s = parse_schedule("1|0,2;1,0|2")
    assert R not in view1(Q, s.rounds[0])
    assert R in seen_ids(final_states(s)[Q])


# ---------------------------------------------------------------------------
# protocol action model

def test_one_round_action_model_shape():
    model = protocol_action_model(2, 1)
    assert model.point_count == 13
    assert [model.frame.num_classes(a) for a in range(3)] == [4, 4, 4]


def test_one_round_classes_are_views():
    model = protocol_action_model(2, 1)
    acts = enum_block_actions(2)
    for i in range(3):
        by_class = {}
        for k, act in enumerate(acts):
            by_class.setdefault(model.frame.partitions[i][k], set()).add(
                view1(i, act)
            )
        assert all(len(views) == 1 for views in by_class.values())
        assert len(by_class) == 4


def test_one_round_relation_matches_indist():
    model = protocol_action_model(2, 1)
    acts = enum_block_actions(2)
    for i in range(3):
        for a in range(13):
            for b in range(13):
                assert model.frame.related(i, a, b) == indist_1(i, acts[a], acts[b])


def test_two_round_action_model_shape():
    model = protocol_action_model(2, 2)
    assert model.point_count == 169
    assert [model.frame.num_classes(a) for a in range(3)] == [33, 33, 33]


def test_identity_preconditions():
    model = protocol_action_model(2, 1)
    for k in range(13):
        assert model.preconditions[k] == frozenset((k,))


def test_action_model_reads_the_context_frame_and_last_round_views():
    ctx = schedule_context(2, 2)
    model = protocol_action_model(2, 2)
    assert model.frame is ctx.frame
    assert model.sees == tuple(
        tuple(tuple(sorted(view1(a, s.rounds[-1]))) for a in range(3))
        for s in ctx.schedules
    )


def test_constant_abstraction_collapses_everything():
    constant = lambda rnd, state, snap: ("-", "-")
    model = protocol_action_model(2, 2, constant)
    assert [model.frame.num_classes(a) for a in range(3)] == [1, 1, 1]


def test_coarsening_never_splits_classes():
    # identity on points is a morphism from the full-information frame to
    # any abstracted frame
    view_only = lambda rnd, state, snap: (
        frozenset(j for j, _ in snap),
        frozenset(j for j, _ in snap),
    )
    constant = lambda rnd, state, snap: (0, 0)
    full = protocol_action_model(2, 2)
    for abstraction in (view_only, constant):
        coarse = protocol_action_model(2, 2, abstraction)
        ident = FrameMorphism(tuple(range(169)))
        assert is_morphism(ident, full.frame, coarse.frame)


# ---------------------------------------------------------------------------
# input and protocol models

def test_input_model_everyone_blind():
    model = input_model(2, 1)
    assert model.frame.state_count == 13
    assert all(model.frame.num_classes(a) == 1 for a in range(3))


def test_input_model_atoms():
    model = input_model(2, 1)
    assert model.ap[:2] == ("sched_0,1,2", "sched_0|1,2")
    assert model.ap[-3:] == ("id_0", "id_1", "id_2")
    for k in range(13):
        assert model.satisfies_atom(k, model.ap[k])
        assert model.satisfies_atom(k, "id_0")
        assert not model.satisfies_atom(k, model.ap[(k + 1) % 13])


def test_input_model_no_schedule_knowledge():
    model = input_model(2, 1)
    for k in range(13):
        assert not eval_formula(model, k, Know(P, Atom(model.ap[k])))


def test_singleton_input_model_knows_schedule():
    model = input_model(0, 1)
    assert model.frame.state_count == 1
    assert eval_formula(model, 0, Know(0, Atom("sched_0")))


def test_protocol_model_states_follow_schedules():
    model = protocol_model(2, 1)
    assert model.frame.state_count == 13
    # valuation survives the update: state k still carries its sched atom
    for k in range(13):
        assert model.satisfies_atom(k, model.ap[k])
