"""Built-in tasks, their relations, action models, and output models.

The oracle here classifies schedules through the simulator's snapshot
records (which registers ever showed foreign data, transitively), not
through the view algebra the task module uses.
"""

import random
import sys
from itertools import combinations, product

import pytest

from epikit.kernel import is_proper
from epikit.schedules import enum_block_actions, enum_schedules, input_model, parse_schedule, view1
from epikit.simengine import run
from epikit.tasks import (
    InputlessTask,
    OutputFrame,
    TaskError,
    _winners_task,
    builtin,
    make_task,
    output_model,
    task_action_model,
    task_from_json,
    task_to_json,
)

from test_schedules import never_reads_others, reads_only

P, Q, R = 0, 1, 2


def data_sources(sched):
    """Oracle: per process, every process whose data ever reached it,
    computed by chasing simulator snapshots round by round."""
    n = sched.process_count
    record = run(sched)
    sources = [{i} for i in range(n)]
    for snaps in record.snapshots:
        new_sources = []
        for i in range(n):
            acc = set(sources[i])
            for j, _ in snaps[i]:
                acc |= sources[j]
            new_sources.append(acc)
        sources = new_sources
    return [frozenset(s) for s in sources]


def solo_processes(sched):
    return {i for i, src in enumerate(data_sources(sched)) if src == {i}}


def exclusive_pairs(sched):
    srcs = data_sources(sched)
    n = sched.process_count
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if srcs[i] | srcs[j] <= {i, j}
    }


def oracle_two_testset_allows(sched, out):
    if sum(out) not in (1, 2):
        return False
    for i in solo_processes(sched):
        if out[i] != 1:
            return False
    for i, j in exclusive_pairs(sched):
        k = 3 - i - j
        if not (out[i] == 1 and out[j] == 1 and out[k] == 0):
            return False
    return True


# ---------------------------------------------------------------------------
# output frames

def test_output_frame_rejects_duplicates():
    with pytest.raises(ValueError):
        OutputFrame(((0, 1), (0, 1)))


def test_output_frame_relation_is_coordinatewise():
    frame = OutputFrame(((1, 0), (0, 1), (1, 1))).frame
    assert frame.related(0, 0, 2)
    assert not frame.related(0, 0, 1)
    assert frame.related(1, 1, 2)


def test_builtin_output_frames_proper():
    for task in (builtin("testset", 2), builtin("two_testset", 2), builtin("snapshot", 2)):
        assert is_proper(task.output.frame)


# ---------------------------------------------------------------------------
# testset

def test_testset_two_process_tuples_and_delta():
    task = builtin("testset", 1)
    assert task.output.tuples == ((1, 0), (0, 1))
    # canonical order over two processes: 0,1 then 0|1 then 1|0
    assert task.allowed_tuples(0) == ((1, 0), (0, 1))
    assert task.allowed_tuples(1) == ((1, 0),)
    assert task.allowed_tuples(2) == ((0, 1),)


def test_testset_three_process_solo_forcing():
    task = builtin("testset", 2)
    acts = enum_block_actions(2)
    for k, act in enumerate(acts):
        solos = solo_processes(enum_schedules(2, 1)[k])
        for out in task.allowed_tuples(k):
            for i in solos:
                assert out[i] == 1


# ---------------------------------------------------------------------------
# two_testset

def test_two_testset_requires_three_processes():
    with pytest.raises(TaskError):
        builtin("two_testset", 1)


def test_two_testset_tuple_set():
    task = builtin("two_testset", 2)
    assert set(task.output.tuples) == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    }


def test_two_testset_delta_against_snapshot_oracle():
    task = builtin("two_testset", 2)
    scheds = enum_schedules(2, 1)
    for k, sched in enumerate(scheds):
        expected = {
            out for out in task.output.tuples if oracle_two_testset_allows(sched, out)
        }
        assert set(task.allowed_tuples(k)) == expected, sched.text()


def test_two_testset_delta_shape():
    task = builtin("two_testset", 2)
    sizes = {enum_schedules(2, 1)[k].text(): len(row) for k, row in enumerate(task.delta_table)}
    # fully concurrent: anything with one or two winners
    assert sizes["0,1,2"] == 6
    # a solo leader whose followers share a class: only the leader is pinned
    assert sizes["0|1,2"] == 3
    # sequential runs pin a pair and hence a single tuple
    assert sizes["0|1|2"] == 1
    # pair first, third last: single tuple as well
    assert sizes["0,1|2"] == 1
    assert sum(sizes.values()) == 24


def test_two_testset_solo_tuples():
    task = builtin("two_testset", 2)
    scheds = enum_schedules(2, 1)
    k = next(i for i, s in enumerate(scheds) if s.text() == "1|0,2")
    assert set(task.allowed_tuples(k)) == {(0, 1, 0), (1, 1, 0), (0, 1, 1)}


def test_two_testset_pair_tuple():
    task = builtin("two_testset", 2)
    scheds = enum_schedules(2, 1)
    k = next(i for i, s in enumerate(scheds) if s.text() == "2|0|1")
    # 2 runs solo, then 0: the pair {0,2} never sees 1
    assert task.allowed_tuples(k) == ((1, 0, 1),)


def test_two_testset_nonempty_for_two_rounds():
    task = builtin("two_testset", 2, rounds=2)
    assert all(task.delta_table)
    assert len(task.delta_table) == 169


def test_two_round_solo_needs_both_rounds_alone():
    task = builtin("two_testset", 2, rounds=2)
    scheds = enum_schedules(2, 2)
    solo_then_crowd = next(
        i for i, s in enumerate(scheds) if s.text() == "0|1,2;0,1,2"
    )
    # process 0 read others in round 2, so it is not forced to win
    assert any(out[0] == 0 for out in task.allowed_tuples(solo_then_crowd))
    solo_twice = next(i for i, s in enumerate(scheds) if s.text() == "0|1,2;0|1,2")
    assert all(out[0] == 1 for out in task.allowed_tuples(solo_twice))


# ---------------------------------------------------------------------------
# snapshot task

def test_snapshot_delta_is_the_view_tuple():
    task = builtin("snapshot", 2)
    scheds = enum_schedules(2, 1)
    k = next(i for i, s in enumerate(scheds) if s.text() == "0|1,2")
    assert task.allowed_tuples(k) == (((0,), (0, 1, 2), (0, 1, 2)),)


def test_snapshot_rows_are_those_of_the_schedule_records():
    views = [s.rounds[0].views for s in enum_schedules(4, 1)]
    task = builtin("snapshot", 4)
    assert task.output.tuples == tuple(dict.fromkeys(views))
    assert [task.allowed_tuples(k) for k in range(len(views))] == [(v,) for v in views]


def test_snapshot_single_round_only():
    with pytest.raises(TaskError):
        builtin("snapshot", 2, rounds=2)


def test_snapshot_tuple_count():
    task = builtin("snapshot", 2)
    assert len(task.output.tuples) == 13  # block actions have distinct view rows


# ---------------------------------------------------------------------------
# builtin tables against a per-pair tabulation

def reference_row(name, sched, tuples):
    """A builtin's row for one schedule by definition, worked out from
    scratch: each reference is asked once per agent or pair, then every
    tuple is tested against the answers."""
    n = sched.process_count
    if name == "snapshot":
        views = tuple(tuple(sorted(view1(i, sched.rounds[0]))) for i in range(n))
        return tuple(t for t, out in enumerate(tuples) if out == views)
    solos = [i for i in range(n) if never_reads_others(i, sched)]
    pairs = []
    if name == "two_testset":
        pairs = [p for p in ((0, 1), (0, 2), (1, 2)) if reads_only(frozenset(p), sched)]
    return tuple(
        t for t, out in enumerate(tuples)
        if all(out[i] == 1 for i in solos)
        and all(out[i] == 1 and out[j] == 1 and out[3 - i - j] == 0 for i, j in pairs)
    )


@pytest.mark.parametrize(
    "name, n, rounds",
    [
        ("testset", 2, 2),
        ("testset", 3, 1),
        ("testset", 1, 3),
        ("two_testset", 2, 1),
        ("two_testset", 2, 2),
        ("two_testset", 2, 3),
        ("snapshot", 2, 1),
        ("snapshot", 3, 1),
        ("snapshot", 4, 1),
    ],
)
def test_builtin_table_matches_per_pair_reference(name, n, rounds):
    task = builtin(name, n, rounds)
    expected = tuple(
        reference_row(name, sched, task.output.tuples)
        for sched in enum_schedules(n, rounds)
    )
    assert task.delta_table == expected


@pytest.mark.parametrize("n, rounds", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_winners_rule_on_every_binary_tuple(n, rounds):
    # on the builtins' own tuples a group's winners leave the outsider
    # no 1 to output; every binary tuple lets the outsider rule show
    tuples = list(product((0, 1), repeat=n + 1))
    groups = [frozenset(g) for size in (1, 2) for g in combinations(range(n + 1), size)]
    task = _winners_task("t", n, rounds, tuples, 2)
    expected = []
    for sched in enum_schedules(n, rounds):
        alone = [g for g in groups if reads_only(g, sched)]
        expected.append(tuple(
            t for t, out in enumerate(tuples)
            if all(out[i] == 1 for g in alone for i in g)
            and all(out[i] == 0 for g in alone if len(g) == n for i in range(n + 1) if i not in g)
        ))
    assert task.delta_table == tuple(expected)


@pytest.mark.parametrize("name", ["testset", "two_testset"])
def test_winners_builtins_build_no_final_states_or_schedule_tables(monkeypatch, name):
    # every module's binding is counted, so a new import cannot slip past
    calls = []
    for module in [m for key, m in sys.modules.items() if key.startswith("epikit")]:
        for attr in ("final_states", "schedule_texts", "protocol_frame"):
            real = vars(module).get(attr)
            if real is not None:

                def counting(*args, real=real, attr=attr):
                    calls.append(attr)
                    return real(*args)

                monkeypatch.setattr(module, attr, counting)
    builtin(name, 2, 2)
    make_task("t", 2, 1, [(0, 0, 0)], lambda sched, out: True)
    assert calls == []
    input_model(2, 1)
    assert calls == ["schedule_texts"]  # the counting is live


def test_references_on_a_run_of_1500_rounds():
    s = parse_schedule(";".join(["0|1"] * 1500))
    assert never_reads_others(0, s)
    assert not never_reads_others(1, s)
    assert reads_only(frozenset((0,)), s)
    assert reads_only(frozenset((0, 1)), s)
    assert not reads_only(frozenset((1,)), s)


# ---------------------------------------------------------------------------
# output frame indexes against a scan

@pytest.mark.parametrize("seed", range(12))
def test_output_frame_indexes_match_a_scan(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    values = [0, 1, "x", (0, 1)][: rng.randint(1, 4)]
    every = list(product(values, repeat=width))
    # seed 0 draws no tuples
    tuples = tuple(rng.sample(every, rng.randint(0, len(every)) if seed else 0))
    output = OutputFrame(tuples)
    assert output.index == {t: tuples.index(t) for t in tuples}
    domains = [[] for _ in range(width)]
    for t in tuples:
        for a, value in enumerate(t):
            if value not in domains[a]:
                domains[a].append(value)
    masks = tuple(
        {v: sum(1 << k for k, t in enumerate(tuples) if t[a] == v) for v in domain}
        for a, domain in enumerate(domains)
    )
    assert output.value_masks == (masks if tuples else ())
    # values in first-occurrence order
    assert [output.values_for(a) for a in range(width)] == domains


# ---------------------------------------------------------------------------
# task action model and output model

def test_action_model_frame_is_output_frame():
    task = builtin("two_testset", 2)
    action = task_action_model(task)
    assert action.frame == task.output.frame


def test_action_model_preconditions_enable_allowed_states():
    task = builtin("two_testset", 2)
    action = task_action_model(task)
    for t, out in enumerate(task.output.tuples):
        expected = frozenset(
            k for k, row in enumerate(task.delta_table) if t in row
        )
        assert action.preconditions[t] == expected


def test_winner_tuple_enabled_only_without_conflicting_forcings():
    task = builtin("two_testset", 2)
    action = task_action_model(task)
    t = task.output.tuples.index((1, 0, 0))
    scheds = enum_schedules(2, 1)
    enabled = {scheds[k].text() for k in action.preconditions[t]}
    # every other schedule forces a different winner set
    assert enabled == {"0,1,2", "0|1,2"}


def test_output_model_counts():
    snapshot = builtin("snapshot", 2)
    model, _ = output_model(snapshot)
    assert model.frame.state_count == 13  # functional relation: one per schedule

    two = builtin("two_testset", 2)
    model, _ = output_model(two)
    assert model.frame.state_count == 24  # sum of the delta table sizes


def test_output_model_relation_is_decision_equality():
    task = builtin("two_testset", 2)
    model, pairing = output_model(task)
    reverse = {v: k for k, v in pairing.items()}
    for u in range(model.frame.state_count):
        for v in range(model.frame.state_count):
            _, tu = reverse[u]
            _, tv = reverse[v]
            for a in range(3):
                expected = task.output.tuples[tu][a] == task.output.tuples[tv][a]
                assert model.frame.related(a, u, v) == expected


def test_all_tuples_everywhere_gives_full_product():
    task = make_task(
        "anything", 2, 1, builtin("two_testset", 2).output.tuples, lambda s, out: True
    )
    model, _ = output_model(task)
    assert model.frame.state_count == 13 * 6


def test_empty_delta_reported():
    task = make_task("impossible", 1, 1, ((0, 0), (1, 1)), lambda s, out: False)
    assert task.delta_table == ((), (), ())


# ---------------------------------------------------------------------------
# serialization

def test_task_json_roundtrip():
    for name in ("testset", "two_testset", "snapshot"):
        task = builtin(name, 2)
        again = task_from_json(task_to_json(task))
        assert again.output.tuples == task.output.tuples
        assert again.delta_table == task.delta_table
        assert again.n == task.n and again.rounds == task.rounds


@pytest.mark.parametrize("bad", [2, 5, -1, True, 1.0, "0", [0]])
def test_task_from_json_rejects_bad_delta_entries(bad):
    data = task_to_json(builtin("testset", 1))
    data["delta"][1] = [0, bad]
    with pytest.raises(TaskError) as err:
        task_from_json(data)
    assert "delta row 1" in str(err.value)


def test_task_from_json_rejects_delta_rows_that_are_not_lists():
    data = task_to_json(builtin("testset", 1))
    data["delta"][1] = 0
    with pytest.raises(TaskError):
        task_from_json(data)


MALFORMED_TASKS = {
    "missing delta": {"n": 0, "N": 1, "tuples": [[0]]},
    "missing n": {"N": 1, "tuples": [[0]], "delta": [[0]]},
    "missing N": {"n": 0, "tuples": [[0]], "delta": [[0]]},
    "missing tuples": {"n": 0, "N": 1, "delta": [[0]]},
    "not an object": [1, 2],
    "tuples not a list": {"n": 0, "N": 1, "tuples": 5, "delta": [[0]]},
    "tuple not a list": {"n": 0, "N": 1, "tuples": [0], "delta": [[0]]},
    "n not an int": {"n": [0], "N": 1, "tuples": [[0]], "delta": [[0]]},
    "unhashable value": {"n": 0, "N": 1, "tuples": [[{"v": 0}]], "delta": [[0]]},
    "narrow tuples": {
        "n": 2, "N": 1, "tuples": [[0, 1], [1, 0]], "delta": [[0, 1]] * 13,
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TASKS))
def test_task_from_json_rejects_malformed_files(case):
    with pytest.raises(TaskError):
        task_from_json(MALFORMED_TASKS[case])


def test_task_from_json_allows_no_tuples():
    task = task_from_json({"n": 0, "N": 1, "tuples": [], "delta": [[]]})
    assert task.output.tuples == ()
    assert task.delta_table == ((),)
    # such a task is refused only where an output frame is needed
    with pytest.raises(TaskError, match="no output tuples"):
        task.output.frame


def test_tuple_width_checked_for_made_tasks():
    with pytest.raises(TaskError) as err:
        make_task("narrow", 2, 1, ((0, 1), (1, 0)), lambda s, out: True)
    assert "3 processes" in str(err.value)


def test_task_rejects_bad_dimensions():
    output = OutputFrame(((1, 0), (0, 1)))
    with pytest.raises(TaskError):
        InputlessTask("t", -1, 1, output, ())
    with pytest.raises(TaskError):
        InputlessTask("t", 1, 0, output, ())
    with pytest.raises(TaskError):
        InputlessTask("t", 1, 2, output, ((0,),) * 8)  # two rounds need 9 rows
    with pytest.raises(TaskError, match="^delta table covers 10 schedules, expected 9$"):
        InputlessTask("t", 1, 2, output, ((0,),) * 10)


def test_a_shared_delta_row_is_checked_and_named_at_its_first_schedule():
    # builders share row objects between schedules; each distinct object
    # is checked once, and an error names the first row that fails
    output = OutputFrame(((1, 0), (0, 1)))
    good, bad, worse = (0, 1), (0, 7), (9,)
    for table, message in [
        ((good, bad, bad), "delta row 1 names tuple 7; the task has tuples 0..1"),
        ((worse, bad, worse), "delta row 0 names tuple 9; the task has tuples 0..1"),
        ((good, good, worse), "delta row 2 names tuple 9; the task has tuples 0..1"),
    ]:
        with pytest.raises(TaskError) as err:
            InputlessTask("t", 1, 1, output, table)
        assert str(err.value) == message
    assert InputlessTask("t", 1, 1, output, (good,) * 3).delta_table == (good,) * 3


def test_builtin_refuses_an_unknown_name():
    with pytest.raises(TaskError, match="^unknown task 'nope'$"):
        builtin("nope", 1)
