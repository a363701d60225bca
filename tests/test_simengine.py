"""Memory-array simulator and its agreement with the view algebra."""

import random
from itertools import chain

import pytest

from epikit import schedules
from epikit.schedules import (
    Schedule,
    enum_block_actions,
    enum_schedules,
    parse_schedule,
    schedule_context,
)
from epikit.simengine import (
    RunRecord,
    _trace_size,
    canonical_finals,
    class_rows,
    format_trace,
    oracle_indist,
    record_to_json,
    run,
)

P, Q, R = 0, 1, 2


def test_sequential_round_snapshots():
    record = run(parse_schedule("0|1|2"))
    snaps = record.snapshots[0]
    assert [j for j, _ in snaps[P]] == [0]
    assert [j for j, _ in snaps[Q]] == [0, 1]
    assert [j for j, _ in snaps[R]] == [0, 1, 2]


def test_fully_concurrent_round():
    record = run(parse_schedule("0,1,2"))
    snaps = record.snapshots[0]
    assert snaps[P] == snaps[Q] == snaps[R]


def test_first_round_writes_ids():
    record = run(parse_schedule("0,1,2"))
    assert record.snapshots[0][P] == ((0, 0), (1, 1), (2, 2))


def test_later_round_writes_previous_states():
    record = run(parse_schedule("0|1|2;0,1,2"))
    round2 = record.snapshots[1][R]
    written = dict(round2)
    # each process announced its round-1 state: (id, round-1 snapshot)
    assert written[P] == (P, record.snapshots[0][P])
    assert written[R] == (R, record.snapshots[0][R])


def test_oracle_indist_one_round_pair():
    u = parse_schedule("0|1,2")
    v = parse_schedule("0|1|2")
    assert oracle_indist(P, u, v)
    assert oracle_indist(R, u, v)
    assert not oracle_indist(Q, u, v)


def test_oracle_indist_reflexive():
    for sched in enum_schedules(2, 1):
        for i in range(3):
            assert oracle_indist(i, sched, sched)


def test_run_is_deterministic():
    sched = parse_schedule("1|0,2;2,1|0")
    assert run(sched) == run(sched)


def test_freshness_round_values_do_not_leak():
    # a round-2 snapshot only holds round-2 writes: every value in it is a
    # (id, snapshot) pair, never a bare round-1 id
    record = run(parse_schedule("0|1,2;0,1,2"))
    for _, value in record.snapshots[1][Q]:
        assert isinstance(value, tuple) and len(value) == 2


def view_finals(n, rounds):
    """The view algebra's final states, one row per canonical schedule."""
    prefixes, picks = schedules.final_states(n, rounds)
    return [tuple(map(tuple.__getitem__, steps, pick)) for steps in prefixes for pick in picks]


def test_simulator_agrees_with_view_algebra():
    # the same final states arise from array mechanics and from the view
    # formula; both paths share only the schedule
    for n, rounds in ((2, 1), (1, 2)):
        for sched, finals in zip(enum_schedules(n, rounds), view_finals(n, rounds)):
            assert run(sched).finals == finals


def reference_run(sched):
    """The simulator before its states were shared, kept as it was: every
    process writes and steps anew in every round."""
    n_proc = sched.process_count
    states: list = list(range(n_proc))  # round 1 writes the ids
    all_snaps: list[tuple] = []
    for act in sched.rounds:
        mem: list = [None] * n_proc  # fresh single-writer array
        snaps: list = [None] * n_proc
        for cls in act.classes:
            for i in cls:
                mem[i] = states[i]
            for i in cls:
                snaps[i] = tuple((j, mem[j]) for j in range(n_proc) if mem[j] is not None)
        states = [(i, snaps[i]) for i in range(n_proc)]
        all_snaps.append(tuple(snaps))
    return RunRecord(sched, tuple(all_snaps), tuple(states))


# ---------------------------------------------------------------------------
# every deterministic protocol coarsens full information
#
# epikit builds full information alone.  A protocol other than that is
# written here, in the tests, as a step ``protocol(rnd, state, snapshot)
# -> (write, new state)``, whose write of None reads as an unwritten cell;
# ``coarsen`` computes its final states from the full-information ones.


def full_information(rnd, state, snap):
    new_state = (state if isinstance(state, int) else state[0], snap)
    return new_state, new_state


def protocol_finals(sched, protocol):
    """Each process's final state when ``sched`` runs ``protocol``, on a
    fresh memory array per round, as ``reference_run`` does."""
    n_proc = sched.process_count
    states: list = list(range(n_proc))
    pending: list = list(range(n_proc))  # round 1 writes the ids
    for rnd, act in enumerate(sched.rounds, start=1):
        mem: list = [None] * n_proc
        snaps: list = [None] * n_proc
        for cls in act.classes:
            for i in cls:
                mem[i] = pending[i]
            for i in cls:
                snaps[i] = tuple((j, mem[j]) for j in range(n_proc) if mem[j] is not None)
        for i in range(n_proc):
            pending[i], states[i] = protocol(rnd, states[i], snaps[i])
    return tuple(states)


def coarsen(protocol, rows, rounds):
    """Under ``protocol``, the final states of the processes whose
    full-information final states after ``rounds`` rounds are ``rows``,
    read off those states alone: a full-information snapshot holds each
    writer's previous state, the reader's own among them."""
    steps: dict = {}

    def step(state, rnd):
        # the (write, state) pair after rnd rounds
        key = (rnd, state)
        if key not in steps:
            if rnd == 0:
                steps[key] = state, state
            else:
                i, snap = state
                own = step(dict(snap)[i], rnd - 1)[1]
                writes = ((j, step(s, rnd - 1)[0]) for j, s in snap)
                seen = tuple((j, w) for j, w in writes if w is not None)
                steps[key] = protocol(rnd, own, seen)
        return steps[key]

    return [tuple(step(state, rounds)[1] for state in row) for row in rows]


def random_abstraction(rng):
    """A deterministic protocol drawn at random: each (round, state,
    snapshot) gets a fixed (write, new state) pair the first time it is
    asked for, each part being the snapshot, its ids, the old state or a
    bit."""
    table = {}

    def abstraction(rnd, state, snap):
        key = (rnd, state, snap)
        if key not in table:
            parts = [snap, tuple(j for j, _ in snap), state, rng.randrange(2)]
            table[key] = (rng.choice(parts), rng.choice(parts))
        return table[key]

    return abstraction


def silent_on_even_snapshots(rnd, state, snap):
    """Full information, except that after a snapshot of even size the
    process writes None, which the next round reads as an unwritten cell."""
    write, new_state = full_information(rnd, state, snap)
    return (None if len(snap) % 2 == 0 else write), new_state


@pytest.mark.parametrize("n, rounds", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_simulator_agrees_with_view_algebra_under_random_abstractions(
    n, rounds, seed
):
    # the view algebra's full-information finals determine what a random
    # protocol's simulated runs end in
    protocol = random_abstraction(random.Random(seed))
    expected = [protocol_finals(s, protocol) for s in enum_schedules(n, rounds)]
    assert coarsen(protocol, view_finals(n, rounds), rounds) == expected


def mixed_batch(rng, size):
    """Random schedules over n = 0..3 and 1..3 rounds; about half share a
    random prefix with the schedule before them."""
    acts = [enum_block_actions(n) for n in range(4)]
    batch = []
    for _ in range(size):
        head = ()
        n, rounds = rng.randrange(4), rng.randint(1, 3)
        if batch and rng.random() < 0.5:
            prev = batch[-1]
            head = prev.rounds[: rng.randrange(prev.round_count + 1)]
            n, rounds = prev.process_count - 1, rng.randint(max(len(head), 1), 3)
        tail = tuple(rng.choice(acts[n]) for _ in range(rounds - len(head)))
        batch.append(Schedule(head + tail))
    return batch


def batches(rng):
    canonical = list(chain.from_iterable(
        enum_schedules(n, rounds) for n, rounds in ((0, 3), (1, 3), (2, 2))
    ))
    shuffled = rng.sample(canonical, len(canonical))
    doubled = [s for s in shuffled[:200] for _ in range(2)] + shuffled[:200]
    return {
        "canonical": canonical,
        "shuffled": shuffled,
        "duplicated": doubled,
        "mixed": mixed_batch(rng, 400),
    }


@pytest.mark.parametrize("order", ["canonical", "shuffled", "duplicated", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_runs_agrees_with_the_per_schedule_reference(order, seed):
    rng = random.Random(seed)
    batch = batches(rng)[order]
    records = [run(s) for s in batch]
    assert records == [reference_run(s) for s in batch]
    # equal final states and written values of one run are one object
    for record in records:
        canon: dict = {}
        for state in record.finals:
            assert canon.setdefault(state, state) is state
        for snap in chain.from_iterable(record.snapshots):
            for _, value in snap:
                assert canon.setdefault(value, value) is value


@pytest.mark.parametrize("seed", range(3))
def test_trace_size_is_the_length_of_the_trace(seed):
    for sched in mixed_batch(random.Random(seed), 100):
        record = run(sched)
        assert _trace_size(record) == len(format_trace(record)), sched.text()


FINALS_SIZES = [*((n, rounds) for n in range(3) for rounds in (1, 2, 3)), (3, 1), (3, 2)]


FINALS_PROTOCOLS = {
    "full information": lambda: full_information,
    "random 1": lambda: random_abstraction(random.Random(1)),
    "random 2": lambda: random_abstraction(random.Random(2)),
    "silent": lambda: silent_on_even_snapshots,
}


@pytest.mark.parametrize("kind", FINALS_PROTOCOLS)
@pytest.mark.parametrize("n, rounds", FINALS_SIZES)
def test_canonical_finals_agrees_with_each_run(n, rounds, kind):
    finals = canonical_finals(n, rounds)
    scheds = enum_schedules(n, rounds)
    assert finals == [run(s).finals for s in scheds]
    # equal final states of one call are one object
    canon: dict = {}
    for state in chain.from_iterable(finals):
        assert canon.setdefault(state, state) is state
    # and they determine the kind's protocol's final states
    protocol = FINALS_PROTOCOLS[kind]()
    assert coarsen(protocol, finals, rounds) == [
        protocol_finals(s, protocol) for s in scheds
    ]


@pytest.mark.parametrize("kind", FINALS_PROTOCOLS)
@pytest.mark.parametrize("n, rounds", FINALS_SIZES)
def test_class_rows_are_the_frames_rows(n, rounds, kind):
    # the certificate check compares these rows with the frame's as they
    # are, so the simulator's classes must be numbered by the frame's rule
    rows = list(class_rows(n, rounds))
    frame = schedule_context(n, rounds).frame
    assert [labels for labels, _ in rows] == list(frame.partitions)
    assert [count for _, count in rows] == list(map(len, frame.classes_by_agent))
    # each class holds one final state of the kind's protocol, so a
    # decision on that protocol's states is one on these classes
    protocol = FINALS_PROTOCOLS[kind]()
    states = [protocol_finals(s, protocol) for s in enum_schedules(n, rounds)]
    for a, (labels, _) in enumerate(rows):
        lifted: dict = {}
        for label, row in zip(labels, states):
            assert lifted.setdefault(label, row[a]) == row[a]


def test_silent_writes_read_as_unwritten_cells():
    # round 1 snapshots of sizes 1, 2 and 3: process 1 writes None, so
    # in round 2 everyone reads the cells of 0 and 2 alone
    finals = coarsen(silent_on_even_snapshots, canonical_finals(2, 2), 2)
    k = [s.text() for s in enum_schedules(2, 2)].index("0|1|2;0,1,2")
    for _, snap in finals[k]:
        assert [j for j, _ in snap] == [0, 2]


class UnreadViews:
    """Stands in for a block action's views: every read of it fails."""

    def refuse(self, *args):
        raise AssertionError("the simulator read a view")

    __getitem__ = __iter__ = __len__ = __contains__ = refuse
    __eq__ = __hash__ = __bool__ = __getattr__ = refuse


def test_canonical_finals_reads_no_view(monkeypatch):
    # fresh actions, whose tables are filled with views that refuse every
    # read in place of those worked out, and a view function that
    # refuses: the walk must see only the classes.  Enumerated and
    # checked actions both get their tables from ``_fill_tables``.
    expected = [run(s).finals for s in enum_schedules(2, 2)]
    fill = schedules._fill_tables

    def fill_without_views(act):
        fill(act)
        object.__setattr__(act, "views", UnreadViews())

    def no_views(agent, act):
        raise AssertionError("the simulator read a view")

    monkeypatch.setattr(schedules, "_fill_tables", fill_without_views)
    monkeypatch.setattr(schedules, "view1", no_views)
    schedules.enum_block_actions.cache_clear()
    try:
        assert isinstance(enum_block_actions(2)[0].views, UnreadViews)
        assert canonical_finals(2, 2) == expected
    finally:
        # the next caller gets actions with their views
        schedules.enum_block_actions.cache_clear()


def test_canonical_finals_refuses_zero_rounds():
    with pytest.raises(ValueError, match="rounds"):
        canonical_finals(1, 0)


def test_two_round_oracle_example():
    u = parse_schedule("0|1,2;0,1,2")
    v = parse_schedule("0|1,2;0,2|1")
    assert oracle_indist(Q, u, v)
    assert not oracle_indist(P, u, v)
    assert not oracle_indist(R, u, v)


def test_oracle_indist_past_the_recursion_limit():
    # 1,200 rounds nest each final state 1,200 deep; schedules that differ
    # in the first round only differ at the bottom of that nesting
    rest = ";0,1" * 1199
    u, v = parse_schedule("0,1" + rest), parse_schedule("0|1" + rest)
    assert oracle_indist(P, u, u)
    assert not oracle_indist(P, u, v)


def test_trace_format_stable():
    record = run(parse_schedule("0|1,2"))
    text = format_trace(record)
    assert text.startswith("schedule 0|1,2\n")
    assert "process 0 snapshot: 0=0" in text
    assert text == format_trace(run(parse_schedule("0|1,2")))


def test_record_json_shape():
    data = record_to_json(run(parse_schedule("0|1,2")))
    assert data["schedule"] == "0|1,2"
    assert len(data["snapshots"]) == 1
    assert len(data["finals"]) == 3
