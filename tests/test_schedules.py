"""Block actions, views, and the schedule-driven models.

The enumeration oracle here predates the generator it checks: ordered set
partitions are rebuilt from permutations plus composition cut points and
deduplicated, and the counts are cross-checked against the binomial
recurrence.  Nothing in this file reuses the generator's recursion.
"""

import random
from itertools import combinations, permutations
from math import comb

import pytest

from epikit.kernel import FrameMorphism, is_morphism
from epikit.logic import Atom, Know, eval_formula, product_update
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
from epikit.simengine import run
from epikit.tasks import never_reads_others, reads_only

P, Q, R = 0, 1, 2


def finals_of(sched):
    """One schedule's final states from the view algebra: its row of the
    full-information context of its size, found by its text."""
    ctx = schedule_context(sched.process_count - 1, sched.round_count)
    return ctx.finals[ctx.texts.index(sched.text())]


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
                    finals_of(schedule(a))[i] == finals_of(schedule(b))[i]
                )
                assert same_state == (view1(i, a) == view1(i, b))


def test_two_round_distinction_travels_through_q():
    u = parse_schedule("0|1,2;0,1,2")
    v = parse_schedule("0|1,2;0,2|1")
    assert finals_of(u)[Q] == finals_of(v)[Q]
    assert finals_of(u)[P] != finals_of(v)[P]
    assert finals_of(u)[R] != finals_of(v)[R]


def test_view_equals_itself_across_rounds():
    s = parse_schedule("0|2|1;0|2|1")
    for i in range(3):
        assert finals_of(s)[i] == finals_of(s)[i]


def test_seen_ids_transitive():
    # r never appears in q's first round view, but q picks r's data up
    # from p in round 2 once p has seen r
    s = parse_schedule("1|0,2;1,0|2")
    assert R not in view1(Q, s.rounds[0])
    assert R in seen_ids(finals_of(s)[Q])


def recursive_seen_ids(state):
    if isinstance(state, int):
        return {state}
    own, snap = state
    out = {own}
    for j, sub in snap:
        out |= {j} | recursive_seen_ids(sub)
    return out


def test_seen_ids_matches_a_recursive_walk():
    for finals in schedule_context(2, 2).finals:
        for state in finals:
            assert seen_ids(state) == recursive_seen_ids(state)


def test_seen_ids_of_a_state_deeper_than_the_recursion_limit():
    s = parse_schedule(";".join(["0|1"] * 1500))
    assert seen_ids(run(s).finals[0]) == {0}
    assert seen_ids(run(s).finals[1]) == {0, 1}


def walked_seen_ids(state):
    """One walk of the state per call, with no memo kept between calls:
    ``seen_ids`` as it was before it kept one."""
    if isinstance(state, int):
        return frozenset((state,))
    out = set()
    walked = {id(state)}
    stack = [state]
    while stack:
        own, snap = stack.pop()
        out.add(own)
        for j, sub in snap:
            out.add(j)
            if isinstance(sub, int):
                out.add(sub)
            elif id(sub) not in walked:
                walked.add(id(sub))
                stack.append(sub)
    return frozenset(out)


@pytest.mark.parametrize("n, rounds", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_seen_ids_with_one_memo_match_a_walk_per_view_class(n, rounds):
    ctx = schedule_context(n, rounds)
    memo = {}
    for a, classes in enumerate(ctx.frame.classes_by_agent):
        for members in classes:
            state = ctx.finals[members[0]][a]
            assert seen_ids(state, memo) == walked_seen_ids(state)


@pytest.mark.parametrize("n, rounds", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_seen_ids_with_one_memo_agree_with_the_simulator_references(n, rounds):
    ctx = schedule_context(n, rounds)
    groups = [frozenset(g) for size in (1, 2) for g in combinations(range(n + 1), size)]
    memo = {}
    for sched, finals in zip(ctx.schedules, ctx.finals):
        seen = [seen_ids(state, memo) for state in finals]
        for a in range(n + 1):
            assert (seen[a] == {a}) == never_reads_others(a, sched)
        for group in groups:
            assert all(seen[i] <= group for i in group) == reads_only(group, sched)


# ---------------------------------------------------------------------------
# final states in one walk of the schedule tree

def seeded_abstraction(seed):
    """A deterministic abstraction drawn from the seed: its answer depends
    on the seed and the arguments only, not on the order of the calls.
    The write is tagged apart from the new state, so it never equals it.
    ``calls`` counts the calls."""

    def abstraction(rnd, state, snap):
        abstraction.calls += 1
        rng = random.Random(repr((seed, rnd, state, snap)))
        parts = [snap, tuple(j for j, _ in snap), state, rng.randrange(2)]
        return ("w", rng.choice(parts)), ("s", rng.choice(parts))

    abstraction.calls = 0
    return abstraction


def distinct_steps(n, rounds):
    """(prefix, process, view) triples over (n, rounds): every proper
    prefix, n + 1 processes, 2**n views holding the process."""
    return sum(fubini(n + 1) ** r for r in range(rounds)) * (n + 1) * 2**n


CONTEXT_SIZES = [(n, r) for n in range(3) for r in (1, 2, 3)] + [(3, 1), (3, 2)]


@pytest.mark.parametrize("n, rounds", CONTEXT_SIZES)
def test_context_finals_match_lone_runs_under_seeded_abstractions(n, rounds):
    abstraction = seeded_abstraction(100 * n + rounds)
    ctx = schedule_context(n, rounds, abstraction)
    finals = ctx.finals
    # one call per distinct (prefix, process, view) step, although every
    # schedule extends each prefix it starts with
    assert abstraction.calls == distinct_steps(n, rounds)
    assert ctx.texts == tuple(s.text() for s in ctx.schedules)
    assert finals == final_states(n, rounds, abstraction)
    one_object: dict = {}
    for sched, states in zip(ctx.schedules, finals):
        assert states == run(sched, abstraction).finals
        for state in states:
            assert one_object.setdefault(state, state) is state


@pytest.mark.parametrize("n, rounds", [(1, 3), (2, 2)])
def test_full_information_context_finals_match_lone_runs(n, rounds):
    ctx = schedule_context(n, rounds)
    assert ctx.finals == final_states(n, rounds)
    one_object: dict = {}
    for sched, states in zip(ctx.schedules, ctx.finals):
        assert states == run(sched).finals
        for state in states:
            assert one_object.setdefault(state, state) is state


def test_contexts_that_differ_in_abstraction_share_no_work():
    first, second = seeded_abstraction(1), seeded_abstraction(2)
    one = schedule_context(2, 2, first)
    other = schedule_context(2, 2, second)
    assert one.finals != other.finals
    assert first.calls == second.calls == distinct_steps(2, 2)
    assert one.finals == final_states(2, 2, first)
    assert other.finals == final_states(2, 2, second)


def test_final_states_reject_a_negative_n_and_no_rounds():
    with pytest.raises(ValueError):
        final_states(-1, 1)
    with pytest.raises(ValueError):
        final_states(1, 0)


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


# (3, 3) is left out: its 421,875 records take about 7 s and 410 MB
@pytest.mark.parametrize(
    "n,rounds", [(n, r) for n in range(4) for r in (1, 2, 3) if (n, r) != (3, 3)]
)
def test_action_model_reads_the_context_frame_and_last_round_views(n, rounds):
    ctx = schedule_context(n, rounds)
    model = protocol_action_model(n, rounds)
    assert model.frame is ctx.frame
    assert model.sees == tuple(
        tuple(tuple(sorted(view1(a, s.rounds[-1]))) for a in range(n + 1))
        for s in ctx.schedules
    )


@pytest.mark.parametrize("n", range(4))
def test_block_actions_are_built_once_per_n(n):
    assert enum_block_actions(n) is enum_block_actions(n)


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


PROTOCOL_ABSTRACTIONS = {
    "full information": lambda: None,
    "collapsing": lambda: lambda rnd, state, snap: (0, 0),
    "seeded 1": lambda: seeded_abstraction(1),
    "seeded 2": lambda: seeded_abstraction(2),
}


# (3, 3) is left out, as above: its reference builds 421,875 schedule
# records, point-set preconditions and product pairs
@pytest.mark.parametrize("kind", sorted(PROTOCOL_ABSTRACTIONS))
@pytest.mark.parametrize(
    "n, rounds", [(n, r) for n in range(4) for r in (1, 2, 3) if (n, r) != (3, 3)]
)
def test_protocol_model_is_the_papers_product_update(n, rounds, kind):
    # the paper's construction: the input model updated by the schedule
    # action model, whose point k is enabled at input state k alone
    abstraction = PROTOCOL_ABSTRACTIONS[kind]()
    reference, pairing = product_update(
        input_model(n, rounds), protocol_action_model(n, rounds, abstraction)
    )
    assert pairing == {(k, k): k for k in range(reference.frame.state_count)}
    model = protocol_model(n, rounds, abstraction)
    assert model == reference
    ctx = schedule_context(n, rounds, abstraction)
    assert model.frame is ctx.frame
    # the atoms, by name, from the schedule records
    ids = {f"id_{i}" for i in range(n + 1)}
    assert len(model.ap) == len(ctx.schedules) + n + 1
    assert [{model.ap[i] for i in atoms} for atoms in model.valuation] == [
        {f"sched_{s.text()}"} | ids for s in ctx.schedules
    ]
