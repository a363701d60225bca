"""Block actions, views, and the schedule-driven models.

The enumeration oracle here predates the generator it checks: ordered set
partitions are rebuilt from permutations plus composition cut points and
deduplicated, and the counts are cross-checked against the binomial
recurrence.  Nothing in this file reuses the generator's recursion; its
table of shared partitions is checked against a plain recursion.
"""

import random
from itertools import combinations, permutations
from math import comb

import pytest

from epikit import schedules
from epikit.kernel import FrameMorphism, is_morphism, new_frame
from epikit.logic import Atom, Know, KripkeModel, eval_formula, product_update
from epikit.schedules import (
    BlockAction,
    _ordered_partitions,
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
    schedule_to_json,
    view1,
)
from epikit.simengine import run

from test_simengine import coarsen, protocol_finals, view_finals

P, Q, R = 0, 1, 2


def finals_of(sched):
    """One schedule's final states from the view algebra: its row of the
    full-information walk of its size, found by its text."""
    n, rounds = sched.process_count - 1, sched.round_count
    return view_finals(n, rounds)[schedule_context(n, rounds).texts.index(sched.text())]


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


def plain_ordered_partitions(ids):
    """Every first class, then every ordered partition of the ids it
    leaves, worked out again for each first class."""
    if not ids:
        return [()]
    return [
        (first,) + tail
        for k in range(1, len(ids) + 1)
        for first in combinations(ids, k)
        for tail in plain_ordered_partitions(tuple(x for x in ids if x not in first))
    ]


@pytest.mark.parametrize(
    "ids", [tuple(range(count)) for count in range(7)] + [(1, 3, 4, 7)]
)
def test_shared_partitions_match_the_plain_recursion_in_order(ids):
    assert list(_ordered_partitions(ids)) == plain_ordered_partitions(ids)


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
    for text in ("0|1,1", "0,0"):  # a repeat would count one process too many
        with pytest.raises(ValueError, match="repeats an id"):
            parse_schedule(text)


@pytest.mark.parametrize(
    "classes,message",
    [
        (((0,), ()), "concurrency classes must be non-empty"),
        (((1, 0),), "classes must be sorted id tuples"),
        (((0,), (1, 1)), r"concurrency class \(1, 1\) repeats an id"),
        (((0, 1), (1, 2)), "concurrency classes must be disjoint"),
        (((0,), (2,)), "classes must cover the id set 0..n exactly"),
        ((), "classes must cover the id set 0..n exactly"),
    ],
)
def test_block_action_validation_messages(classes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BlockAction(classes)


def nested_join_text(act):
    """The text as it was once joined at every read: classes on '|', ids on ','."""
    return "|".join(",".join(str(i) for i in cls) for cls in act.classes)


def assert_tables_match_their_definitions(act):
    """The process count, views and text worked out at construction are
    what their definitions give: the classes' sizes, :func:`view1` and
    the nested join."""
    assert act.process_count == sum(map(len, act.classes))
    assert act.views == tuple(
        tuple(sorted(view1(i, act))) for i in range(act.process_count)
    )
    assert act.text() == nested_join_text(act)


@pytest.mark.parametrize("n", range(6))
def test_enumerated_actions_work_out_their_tables_at_construction(n):
    for act in enum_block_actions(n):
        assert_tables_match_their_definitions(act)


@pytest.mark.parametrize("seed", range(5))
def test_parsed_and_built_actions_work_out_the_same_tables(seed):
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randrange(6)
        ids = list(range(n + 1))
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, n + 1), rng.randrange(n + 1)))
        classes = [ids[i:j] for i, j in zip([0, *cuts], [*cuts, n + 1])]
        built = block_action(*classes)
        assert_tables_match_their_definitions(built)
        text = "|".join(",".join(map(str, cls)) for cls in classes)
        for act in parse_schedule(f"{text};{text}").rounds:
            assert act == built
            assert_tables_match_their_definitions(act)


@pytest.mark.parametrize("n", range(6))
def test_enumerated_actions_equal_the_checked_ones(n):
    # the enumeration builds its actions without the constructor's checks;
    # each must be the action the checked constructor gives its classes
    for act in enum_block_actions(n):
        checked = BlockAction(act.classes)
        assert type(act) is BlockAction
        assert act == checked and hash(act) == hash(checked)
        assert act.views == checked.views
        assert act.text() == checked.text()
        assert act.process_count == checked.process_count


def test_schedule_text_roundtrip():
    sched = parse_schedule("0|1,2 ; 0,1,2")
    assert sched.rounds[0] == block_action([0], [1, 2])
    assert sched.rounds[1] == block_action([0, 1, 2])
    assert sched.text() == "0|1,2;0,1,2"
    assert parse_schedule(sched.text()) == sched


def test_schedule_json_roundtrip():
    sched = parse_schedule("0|1,2;0,1,2")
    assert schedule(*schedule_to_json(sched)["rounds"]) == sched


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
    assert R in walked_seen_ids(run(s).finals[Q])


def heard_of_finals(n, rounds):
    """Each schedule's final heard-of sets, simulated run by run."""
    return [
        tuple(map(walked_seen_ids, run(sched).finals))
        for sched in enum_schedules(n, rounds)
    ]


def recursive_seen_ids(state):
    if isinstance(state, int):
        return {state}
    own, snap = state
    out = {own}
    for j, sub in snap:
        out |= {j} | recursive_seen_ids(sub)
    return out


def test_seen_ids_matches_a_recursive_walk():
    heard = heard_of_finals(2, 2)
    assert heard == [tuple(map(recursive_seen_ids, finals)) for finals in view_finals(2, 2)]


def walked_seen_ids(state):
    """Every process id occurring anywhere in a nested full-information
    local state, each shared sub-state walked once."""
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


# The builtins' rules for one schedule at a time, the references their
# tables are tested against.  They read what a simulated run tells each
# process of the others, so they stay independent of the view algebra
# and of the block-action rule the builtins are tabulated by.

def never_reads_others(agent, sched):
    """True when nothing of any other process ever reaches the agent,
    directly or through an intermediary."""
    return walked_seen_ids(run(sched).finals[agent]) == {agent}


def reads_only(agents, sched):
    """True when the given processes jointly never acquire data from
    outside the group."""
    finals = run(sched).finals
    return all(walked_seen_ids(finals[i]) <= agents for i in agents)


@pytest.mark.parametrize(
    "n, rounds", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
)
def test_seen_ids_with_one_memo_match_a_walk_per_view_class(n, rounds):
    # every member of an agent's full-information view class has heard
    # of the ids in that class's state
    heard = heard_of_finals(n, rounds)
    rows = view_finals(n, rounds)
    for a, classes in enumerate(schedule_context(n, rounds).frame.classes_by_agent):
        for members in classes:
            expected = walked_seen_ids(rows[members[0]][a])
            assert {heard[m][a] for m in members} == {expected}


@pytest.mark.parametrize("n, rounds", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_seen_ids_with_one_memo_agree_with_the_simulator_references(n, rounds):
    groups = [frozenset(g) for size in (1, 2) for g in combinations(range(n + 1), size)]
    for sched, finals in zip(enum_schedules(n, rounds), view_finals(n, rounds)):
        seen = [walked_seen_ids(state) for state in finals]
        for a in range(n + 1):
            assert (seen[a] == {a}) == never_reads_others(a, sched)
        for group in groups:
            assert all(seen[i] <= group for i in group) == reads_only(group, sched)


# ---------------------------------------------------------------------------
# final states in one walk of the schedule tree

def seeded_abstraction(seed):
    """A deterministic protocol drawn from the seed: its answer depends
    on the seed and the arguments only, not on the order of the calls.
    The write is tagged apart from the new state, so it never equals it."""

    def abstraction(rnd, state, snap):
        rng = random.Random(repr((seed, rnd, state, snap)))
        parts = [snap, tuple(j for j, _ in snap), state, rng.randrange(2)]
        return ("w", rng.choice(parts)), ("s", rng.choice(parts))

    return abstraction


CONTEXT_SIZES = [(n, r) for n in range(3) for r in (1, 2, 3)] + [(3, 1), (3, 2)]


@pytest.mark.parametrize("n, rounds", CONTEXT_SIZES)
def test_context_finals_match_lone_runs_under_seeded_abstractions(n, rounds):
    # the walk's full-information finals determine what each schedule,
    # run alone under a seeded protocol, ends in
    protocol = seeded_abstraction(100 * n + rounds)
    expected = [protocol_finals(s, protocol) for s in enum_schedules(n, rounds)]
    assert coarsen(protocol, view_finals(n, rounds), rounds) == expected


@pytest.mark.parametrize("n, rounds", CONTEXT_SIZES)
def test_full_information_context_finals_match_lone_runs(n, rounds):
    ctx = schedule_context(n, rounds)
    assert ctx.texts == tuple(s.text() for s in enum_schedules(n, rounds))
    rows = view_finals(n, rounds)
    assert len(rows) == len(ctx.texts)
    one_object: dict = {}
    for sched, states in zip(enum_schedules(n, rounds), rows):
        assert states == run(sched).finals
        for state in states:
            assert one_object.setdefault(state, state) is state


def test_final_states_reject_a_negative_n_and_no_rounds():
    with pytest.raises(ValueError):
        final_states(-1, 1)
    with pytest.raises(ValueError):
        final_states(1, 0)


def reference_frame(n, rounds):
    """The frame over the ids of each schedule's expanded row of final
    states, relabelled by ``new_frame``."""
    rows = view_finals(n, rounds)
    partitions = [[id(row[a]) for row in rows] for a in range(n + 1)]
    return new_frame(len(rows), n + 1, partitions)


# full information is the one protocol epikit builds; the kind stays in
# the test ids, which other protocols once shared
@pytest.mark.parametrize("kind", ["full information"])
@pytest.mark.parametrize("n, rounds", CONTEXT_SIZES)
def test_frame_read_off_the_prefixes_matches_the_expanded_rows(
    n, rounds, kind, monkeypatch
):
    walks = []

    def counting_walk(n, rounds):
        walks.append((n, rounds))
        return real_walk(n, rounds)

    real_walk = schedules.final_states
    monkeypatch.setattr(schedules, "final_states", counting_walk)
    ctx = schedule_context(n, rounds)
    frame = ctx.frame
    assert frame.state_count == len(ctx.texts)
    # the frame is read off one walk, and the context keeps no final state
    assert walks == [(n, rounds)]
    assert set(vars(ctx)) == {"n", "rounds", "texts", "frame"}
    assert frame == reference_frame(n, rounds)


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
        for s in enum_schedules(n, rounds)
    )


def test_the_frame_tables_hold_one_int_object_per_id():
    frame = schedule_context(3, 2).frame
    vertices = sum(frame.num_classes(a) for a in range(frame.agent_count))
    assert len({id(c) for facet in frame.class_ids for c in facet}) == vertices
    members = {id(s) for by_agent in frame.classes_by_agent for m in by_agent for s in m}
    assert len(members) == frame.state_count == 5625


@pytest.mark.parametrize("n", range(4))
def test_block_actions_are_built_once_per_n(n):
    assert enum_block_actions(n) is enum_block_actions(n)


def view_only(rnd, state, snap):
    # the ids in the last snapshot: equal after prefixes that differ
    ids = frozenset(j for j, _ in snap)
    return ids, ids


def test_coarsening_never_splits_classes():
    # identity on points is a morphism from the full-information frame to
    # the frame of any protocol, so a task solvable under that protocol is
    # solvable under full information
    constant = lambda rnd, state, snap: (0, 0)
    full = protocol_action_model(2, 2)
    scheds = enum_schedules(2, 2)
    for protocol in (view_only, constant, seeded_abstraction(7)):
        rows = [protocol_finals(s, protocol) for s in scheds]
        coarse = new_frame(len(rows), 3, [[row[a] for row in rows] for a in range(3)])
        ident = FrameMorphism(tuple(range(169)))
        assert is_morphism(ident, full.frame, coarse)


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


def checked_model(ctx, frame):
    """The model of ``frame`` with the schedule atoms, through the public
    constructor and its checks; the atoms come from the schedule records."""
    scheds = enum_schedules(ctx.n, ctx.rounds)
    ap = tuple(f"sched_{s.text()}" for s in scheds)
    ap += tuple(f"id_{i}" for i in range(ctx.n + 1))
    ids = frozenset(range(len(scheds), len(ap)))
    valuation = tuple(frozenset((k,)) | ids for k in range(len(scheds)))
    return KripkeModel(frame, ap, valuation)


@pytest.mark.parametrize("kind", ["full information"])
@pytest.mark.parametrize("n, rounds", CONTEXT_SIZES)
def test_built_models_equal_the_checked_constructor(n, rounds, kind):
    ctx = schedule_context(n, rounds)
    model = protocol_model(n, rounds)
    assert type(model) is KripkeModel
    assert model == checked_model(ctx, ctx.frame)
    count = len(enum_schedules(n, rounds))
    blind = new_frame(count, n + 1, [[0] * count] * (n + 1))
    assert input_model(n, rounds) == checked_model(ctx, blind)


def test_protocol_model_states_follow_schedules():
    model = protocol_model(2, 1)
    assert model.frame.state_count == 13
    # valuation survives the update: state k still carries its sched atom
    for k in range(13):
        assert model.satisfies_atom(k, model.ap[k])


# (3, 3) is left out, as above: its reference builds 421,875 schedule
# records, point-set preconditions and product pairs
@pytest.mark.parametrize("kind", ["full information"])
@pytest.mark.parametrize(
    "n, rounds", [(n, r) for n in range(4) for r in (1, 2, 3) if (n, r) != (3, 3)]
)
def test_protocol_model_is_the_papers_product_update(n, rounds, kind):
    # the paper's construction: the input model updated by the schedule
    # action model, whose point k is enabled at input state k alone
    reference, pairing = product_update(
        input_model(n, rounds), protocol_action_model(n, rounds)
    )
    assert pairing == {(k, k): k for k in range(reference.frame.state_count)}
    model = protocol_model(n, rounds)
    assert model == reference
    ctx = schedule_context(n, rounds)
    assert model.frame is ctx.frame
    # the atoms, by name, from the schedule records
    ids = {f"id_{i}" for i in range(n + 1)}
    assert len(model.ap) == len(enum_schedules(n, rounds)) + n + 1
    assert [{model.ap[i] for i in atoms} for atoms in model.valuation] == [
        {f"sched_{s.text()}"} | ids for s in enum_schedules(n, rounds)
    ]
