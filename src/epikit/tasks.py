"""Inputless tasks: output frames, decision relations, and builtins.

An inputless task fixes a set of output tuples (one decision per process)
and a relation telling, for each schedule, which tuples are acceptable.
The output frame relates two tuples for process i exactly when their i-th
decisions are equal; the task action model has the output frame as its
frame and enables each tuple at the input states whose schedule allows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .kernel import KripkeFrame, new_frame
from .logic import ActionModel, KripkeModel, product_update
from .schedules import (
    Schedule,
    final_states,
    input_model,
    schedule_context,
    schedule_count,
    seen_ids,
    view1,
)

Value = object
OutputTuple = tuple[Value, ...]
DeltaPredicate = Callable[[Schedule, OutputTuple], bool]


@dataclass(frozen=True)
class OutputFrame:
    """Distinct output tuples plus the per-coordinate equality frame."""

    tuples: tuple[OutputTuple, ...]

    def __post_init__(self):
        if len(set(self.tuples)) != len(self.tuples):
            raise ValueError("output tuples must be pairwise distinct")
        widths = {len(t) for t in self.tuples}
        if len(widths) > 1:
            raise ValueError("output tuples must have equal width")

    @property
    def process_count(self) -> int:
        return len(self.tuples[0])

    @cached_property
    def frame(self) -> KripkeFrame:
        n = self.process_count
        partitions = [[t[i] for t in self.tuples] for i in range(n)]
        return new_frame(len(self.tuples), n, partitions)

    def values_for(self, agent: int) -> list[Value]:
        """The agent's decision domain, ordered by first tuple occurrence."""
        out: list[Value] = []
        for t in self.tuples:
            if t[agent] not in out:
                out.append(t[agent])
        return out


class TaskError(ValueError):
    pass


@dataclass(frozen=True)
class InputlessTask:
    """Output tuples plus the schedule->tuples relation, tabulated eagerly.

    ``delta_table[k]`` lists the indices of the tuples acceptable for the
    k-th schedule of the canonical enumeration for (n, rounds); every
    entry is an index into ``output.tuples``.  Schedules with an empty
    entry make the task vacuously unsolvable; they are kept and reported
    through ``empty_schedules`` rather than rejected.
    """

    name: str
    n: int
    rounds: int
    output: OutputFrame
    delta_table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise TaskError("n must be >= 0")
        if self.rounds < 1:
            raise TaskError("rounds must be >= 1")
        rows = len(self.delta_table)
        expected = schedule_count(self.n, self.rounds, rows)
        if expected is None:
            raise TaskError(
                f"delta table covers {rows} schedules; n={self.n} and "
                f"N={self.rounds} have more"
            )
        if rows != expected:
            raise TaskError(
                f"delta table covers {rows} schedules, expected {expected}"
            )
        for t in self.output.tuples:
            if len(t) != self.process_count:
                raise TaskError(
                    f"output tuple {t!r} has {len(t)} values; the task has "
                    f"{self.process_count} processes"
                )
        width = len(self.output.tuples)
        for k, row in enumerate(self.delta_table):
            for t in row:
                if type(t) is not int or not 0 <= t < width:
                    raise TaskError(
                        f"delta row {k} names tuple {t!r}; the task has "
                        f"tuples 0..{width - 1}"
                    )

    @property
    def process_count(self) -> int:
        return self.n + 1

    @cached_property
    def empty_schedules(self) -> tuple[int, ...]:
        return tuple(k for k, row in enumerate(self.delta_table) if not row)

    def allows(self, schedule_index: int, output: OutputTuple) -> bool:
        try:
            t = self.output.tuples.index(output)
        except ValueError:
            return False
        return t in self.delta_table[schedule_index]

    def allowed_tuples(self, schedule_index: int) -> tuple[OutputTuple, ...]:
        return tuple(self.output.tuples[t] for t in self.delta_table[schedule_index])


def make_task(
    name: str,
    n: int,
    rounds: int,
    tuples: Sequence[OutputTuple],
    delta: DeltaPredicate,
) -> InputlessTask:
    """Tabulate a predicate-form relation over the canonical schedules,
    asking about every tuple of one schedule before the next schedule."""
    output = OutputFrame(tuple(tuple(t) for t in tuples))
    table = tuple(
        tuple(t for t, out in enumerate(output.tuples) if delta(sched, out))
        for sched in schedule_context(n, rounds).schedules
    )
    return InputlessTask(name, n, rounds, output, table)


def task_action_model(task: InputlessTask) -> ActionModel:
    """Action points are the output tuples; tuple t is enabled exactly at
    the input states whose schedule accepts t."""
    enabling: list[set[int]] = [set() for _ in task.output.tuples]
    for k, row in enumerate(task.delta_table):
        for t in row:
            enabling[t].add(k)
    preconditions = tuple(frozenset(e) for e in enabling)
    return ActionModel(task.output.frame, preconditions)


def output_model(
    task: InputlessTask, n: int, rounds: int
) -> tuple[KripkeModel, dict[tuple[int, int], int]]:
    """Product update of the input model with the task action model.
    States are (schedule, tuple) pairs related for i iff the i-th
    decisions agree."""
    if n != task.n or rounds != task.rounds:
        raise TaskError(
            f"task {task.name!r} is tabulated for n={task.n}, rounds={task.rounds}"
        )
    return product_update(input_model(n, rounds), task_action_model(task))


# ---------------------------------------------------------------------------
# builtins

# The builtins' rules for one schedule at a time.  The builtins themselves
# read the same facts off the shared schedule context, once per schedule.

def never_reads_others(agent: int, sched: Schedule) -> bool:
    """True when nothing of any other process ever reaches the agent.

    Checked on the full-information final state: any foreign id in it
    means some snapshot carried another process's data, directly or
    through an intermediary.
    """
    return seen_ids(final_states(sched)[agent]) == frozenset((agent,))


def reads_only(agents: frozenset[int], sched: Schedule) -> bool:
    """True when the given processes jointly never acquire data from
    outside the group."""
    finals = final_states(sched)
    return all(seen_ids(finals[i]) <= agents for i in agents)


def _one_hot_tuples(width: int) -> list[OutputTuple]:
    return [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]


def _per_schedule(facts: Callable[[Schedule], object]) -> Callable[[Schedule], object]:
    """``facts`` remembered for the schedule it was last asked about.
    :func:`make_task` asks about every tuple of a schedule before the next
    one, so a builtin's facts are worked out once per schedule, not once
    per (schedule, tuple) pair."""
    last: list = [None, None]

    def get(sched: Schedule):
        if last[0] is not sched:
            last[0], last[1] = sched, facts(sched)
        return last[1]

    return get


def _seen_sets(n: int, rounds: int) -> Callable[[Schedule], list[frozenset[int]]]:
    """Per schedule, the ids seen by each process, read off the shared
    full-information final states."""
    ctx = schedule_context(n, rounds)
    return lambda sched: [seen_ids(state) for state in ctx.finals[ctx.index[sched]]]


def _solo(seen: list[frozenset[int]]) -> list[int]:
    """The processes that never read anyone else; each must win."""
    return [i for i, ids in enumerate(seen) if ids == {i}]


def _testset_delta(n: int, rounds: int) -> DeltaPredicate:
    seen = _seen_sets(n, rounds)
    solo = _per_schedule(lambda s: _solo(seen(s)))
    return lambda sched, out: all(out[i] == 1 for i in solo(sched))


def _two_testset_delta(rounds: int) -> DeltaPredicate:
    seen = _seen_sets(2, rounds)

    def forced(sched: Schedule):
        ids = seen(sched)
        # a pair that only ever sees itself wins together
        pairs = [
            (i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if ids[i] | ids[j] <= {i, j}
        ]
        return _solo(ids), pairs

    facts = _per_schedule(forced)

    def delta(sched: Schedule, out: OutputTuple) -> bool:
        solo, pairs = facts(sched)
        return all(out[i] == 1 for i in solo) and all(
            out[i] == 1 and out[j] == 1 and out[3 - i - j] == 0 for i, j in pairs
        )

    return delta


def builtin(name: str, n: int, rounds: int = 1) -> InputlessTask:
    """Construct a library task for n+1 processes and the given round count.

    testset: exactly one process outputs 1; a process that never reads
    another's value must be the winner.

    two_testset (three processes): one or two processes output 1; a
    process seeing nobody wins, and a pair seeing only each other both win
    while the third loses.

    snapshot (one round): every process outputs its own round-1 view; the
    only acceptable tuple for a schedule is that schedule's view tuple.
    """
    key = name.replace("-", "_")
    if key == "testset":
        width = n + 1
        return make_task(
            "testset", n, rounds, _one_hot_tuples(width), _testset_delta(n, rounds)
        )
    if key == "two_testset":
        if n + 1 != 3:
            raise TaskError("two_testset is defined for exactly 3 processes")
        tuples = _one_hot_tuples(3) + [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        return make_task("two_testset", n, rounds, tuples, _two_testset_delta(rounds))
    if key == "snapshot":
        if rounds != 1:
            raise TaskError("snapshot is defined for a single round")
        view_tuple = _per_schedule(
            lambda s: tuple(tuple(sorted(view1(i, s.rounds[0]))) for i in range(n + 1))
        )
        scheds = schedule_context(n, 1).schedules
        tuples = list(dict.fromkeys(view_tuple(s) for s in scheds))
        return make_task(
            "snapshot", n, 1, tuples, lambda s, out: out == view_tuple(s)
        )
    raise TaskError(f"unknown task {name!r}")


# ---------------------------------------------------------------------------
# serialization

def _value_to_json(value: Value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _value_from_json(value) -> Value:
    if isinstance(value, list):
        return tuple(value)
    return value


def task_to_json(task: InputlessTask) -> dict:
    return {
        "name": task.name,
        "n": task.n,
        "N": task.rounds,
        "tuples": [[_value_to_json(v) for v in t] for t in task.output.tuples],
        "delta": [list(row) for row in task.delta_table],
    }


def _list_of_lists(data: dict, key: str) -> list:
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TaskError(f"{key} must be a list of lists")
    return rows


def task_from_json(data: dict) -> InputlessTask:
    if not isinstance(data, dict):
        raise TaskError("a task must be a JSON object")
    missing = [key for key in ("n", "N", "tuples", "delta") if key not in data]
    if missing:
        raise TaskError(f"task is missing {', '.join(missing)}")
    for key in ("n", "N"):
        if type(data[key]) is not int:
            raise TaskError(f"{key} must be an integer")
    tuples = tuple(
        tuple(_value_from_json(v) for v in t) for t in _list_of_lists(data, "tuples")
    )
    try:
        output = OutputFrame(tuples)
    except TypeError:
        raise TaskError("output values must be numbers, strings or flat lists")
    return InputlessTask(
        str(data.get("name", "custom")),
        data["n"],
        data["N"],
        output,
        tuple(tuple(row) for row in _list_of_lists(data, "delta")),
    )
