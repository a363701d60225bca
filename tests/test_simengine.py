"""Memory-array simulator and its agreement with the view algebra."""

import random

import pytest

from epikit.schedules import enum_schedules, parse_schedule, schedule_context
from epikit.simengine import format_trace, oracle_indist, record_to_json, run

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


def test_simulator_agrees_with_view_algebra():
    # the same final states arise from array mechanics and from the view
    # formula; both paths share only the schedule
    for ctx in (schedule_context(2, 1), schedule_context(1, 2)):
        for sched, finals in zip(ctx.schedules, ctx.finals):
            assert run(sched).finals == finals


def random_abstraction(rng):
    """A deterministic abstraction drawn at random: each (round, state,
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


@pytest.mark.parametrize("n, rounds", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_simulator_agrees_with_view_algebra_under_random_abstractions(
    n, rounds, seed
):
    abstraction = random_abstraction(random.Random(seed))
    ctx = schedule_context(n, rounds, abstraction)
    for sched, finals in zip(ctx.schedules, ctx.finals):
        assert run(sched, abstraction).finals == finals


def test_two_round_oracle_example():
    u = parse_schedule("0|1,2;0,1,2")
    v = parse_schedule("0|1,2;0,2|1")
    assert oracle_indist(Q, u, v)
    assert not oracle_indist(P, u, v)
    assert not oracle_indist(R, u, v)


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
