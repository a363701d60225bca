"""Inputless tasks: output frames, decision relations, and builtins.

An inputless task fixes a set of output tuples (one decision per process)
and a relation telling, for each schedule, which tuples are acceptable.
The output frame relates two tuples for process i exactly when their i-th
decisions are equal; the task action model has the output frame as its
frame and enables each tuple at the input states whose schedule allows it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property, reduce
from itertools import accumulate, combinations

from .kernel import ActionModel, KripkeFrame, _check_json_object, new_frame
from .record import Record
from .schedules import (
    Schedule,
    enum_block_actions,
    enum_schedules,
    input_model,
    schedule_count,
)

Value = object
OutputTuple = tuple[Value, ...]
DeltaPredicate = Callable[[Schedule, OutputTuple], bool]


class OutputFrame(Record):
    """Distinct output tuples plus the per-coordinate equality frame."""

    tuples: tuple[OutputTuple, ...]

    def __post_init__(self):
        if len(self.index) != len(self.tuples):
            raise ValueError("output tuples must be pairwise distinct")
        widths = {len(t) for t in self.tuples}
        if len(widths) > 1:
            raise ValueError("output tuples must have equal width")

    @property
    def process_count(self) -> int:
        if not self.tuples:
            raise TaskError("the task has no output tuples, so no output frame")
        return len(self.tuples[0])

    @cached_property
    def frame(self) -> KripkeFrame:
        n = self.process_count
        partitions = [[t[i] for t in self.tuples] for i in range(n)]
        return new_frame(len(self.tuples), n, partitions)

    @cached_property
    def index(self) -> dict[OutputTuple, int]:
        """The position of each tuple in ``tuples``."""
        return {t: k for k, t in enumerate(self.tuples)}

    @cached_property
    def value_masks(self) -> tuple[dict[Value, int], ...]:
        """Per agent, each decision value, in order of first tuple
        occurrence, with the bitmask of the tuples carrying it (bit k for
        ``tuples[k]``).  Empty when there are no tuples."""
        masks: list[dict[Value, int]] = (
            [{} for _ in self.tuples[0]] if self.tuples else []
        )
        for k, t in enumerate(self.tuples):
            for by_value, value in zip(masks, t):
                by_value[value] = by_value.get(value, 0) | 1 << k
        return tuple(masks)

    def values_for(self, agent: int) -> list[Value]:
        """The agent's decision domain, ordered by first tuple occurrence."""
        return list(self.value_masks[agent]) if self.tuples else []


class TaskError(ValueError):
    pass


class InputlessTask(Record):
    """Output tuples plus the schedule->tuples relation, tabulated eagerly.

    ``delta_table[k]`` lists the indices of the tuples acceptable for the
    k-th schedule of the canonical enumeration for (n, rounds); every
    entry is an index into ``output.tuples``.  Schedules with an empty
    entry make the task vacuously unsolvable; they are kept rather than
    rejected, and ``solve`` returns Unsolvable before it searches, so the
    report's conflict core is one such schedule.
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
        # the output frame refuses tuples of unequal widths
        for t in self.output.tuples[:1]:
            if len(t) != self.process_count:
                raise TaskError(
                    f"output tuple {t!r} has {len(t)} values; the task has "
                    f"{self.process_count} processes"
                )
        width = len(self.output.tuples)
        # builders share one row object between many schedules, so each
        # distinct object is checked once (by id, as a row read from JSON
        # may hold an unhashable value)
        for row in {id(row): row for row in self.delta_table}.values():
            for t in row:
                if type(t) is not int or not 0 <= t < width:
                    k = next(k for k, r in enumerate(self.delta_table) if r is row)
                    raise TaskError(
                        f"delta row {k} names tuple {t!r}; the task has "
                        f"tuples 0..{width - 1}"
                    )

    @property
    def process_count(self) -> int:
        return self.n + 1

    def allows(self, schedule_index: int, output: OutputTuple) -> bool:
        t = self.output.index.get(output)
        return t is not None and t in self.delta_table[schedule_index]

    def allowed_tuples(self, schedule_index: int) -> tuple[OutputTuple, ...]:
        return tuple(self.output.tuples[t] for t in self.delta_table[schedule_index])


def make_task(
    name: str,
    n: int,
    rounds: int,
    tuples: Sequence[OutputTuple],
    delta: DeltaPredicate,
) -> InputlessTask:
    """Tabulate a predicate-form relation over the canonical schedules.
    Kept for README, the tests' tasks and perfbench's span list."""
    output = OutputFrame(tuple(tuple(t) for t in tuples))
    table = tuple(
        tuple(t for t, out in enumerate(output.tuples) if delta(sched, out))
        for sched in enum_schedules(n, rounds)
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


def output_model(task: InputlessTask) -> tuple[KripkeModel, dict[tuple[int, int], int]]:
    """Product update of the input model with the task action model.
    States are (schedule, tuple) pairs related for i iff the i-th
    decisions agree."""
    from .logic import product_update

    return product_update(input_model(task.n, task.rounds), task_action_model(task))


# ---------------------------------------------------------------------------
# builtins

# The builtins' rules for one schedule at a time, the references their
# tables are tested against.  They read what a simulated run tells each
# process of the others, so they stay independent of the view algebra
# and of the block-action rule the builtins are tabulated by.

def _seen_ids(state) -> frozenset[int]:
    """Every process id in a full-information local state: its own and,
    through each snapshot, that of every state it read (a snapshot pairs
    each state read with its writer's id, which is that state's own).  One
    loop over an explicit stack walks each shared sub-state once, so the
    nesting (one level per round) meets no recursion limit."""
    ids: set[int] = set()
    walked: set[int] = set()
    stack = [state]
    while stack:
        value = stack.pop()
        if isinstance(value, int):  # a round-1 write
            ids.add(value)
        elif id(value) not in walked:
            walked.add(id(value))
            own, snap = value
            ids.add(own)
            stack += [sub for _, sub in snap]
    return frozenset(ids)


def never_reads_others(agent: int, sched: Schedule) -> bool:
    """True when nothing of any other process ever reaches the agent,
    directly or through an intermediary."""
    from .simengine import run

    return _seen_ids(run(sched).finals[agent]) == {agent}


def reads_only(agents: frozenset[int], sched: Schedule) -> bool:
    """True when the given processes jointly never acquire data from
    outside the group."""
    from .simengine import run

    finals = run(sched).finals
    return all(_seen_ids(finals[i]) <= agents for i in agents)


def _one_hot_tuples(width: int) -> list[OutputTuple]:
    return [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]


def _winners_task(
    name: str, n: int, rounds: int, tuples: list[OutputTuple], largest: int
) -> InputlessTask:
    """The task whose row for a schedule keeps the tuples in which, for
    every group of at most ``largest`` processes that has heard only of
    itself, the members output 1 and, when it holds all processes but
    one, that outsider outputs 0.

    A group has heard only of itself exactly when, in every round, it is
    the union of the action's first few classes (see README), so each
    block action gives the bit set of the groups it lets pass, and a
    schedule's key is the AND of its rounds' bit sets, built level by
    level in canonical order.  Each distinct key's row is built once."""
    output = OutputFrame(tuple(tuples))
    masks = output.value_masks
    everyone = frozenset(range(n + 1))
    groups = [
        frozenset(g) for size in range(1, largest + 1) for g in combinations(everyone, size)
    ]
    bit = {g: 1 << b for b, g in enumerate(groups)}
    # the tuples each group keeps
    kept = [
        reduce(int.__and__, [masks[i][1] for i in g], -1)
        & (masks[min(everyone - g)][0] if len(g) == n else -1)
        for g in groups
    ]
    # per block action, the groups that are the union of its first few classes
    passing = [
        sum(bit.get(p, 0) for p in accumulate(map(frozenset, act.classes), frozenset.union))
        for act in enum_block_actions(n)
    ]
    keys = [-1]
    for _ in range(rounds):  # the last round varies fastest
        keys = [key & passed for key in keys for passed in passing]
    rows = {}
    for key in set(keys):
        live = reduce(int.__and__, (m for g, m in enumerate(kept) if key >> g & 1), -1)
        rows[key] = tuple(t for t in range(len(tuples)) if live >> t & 1)
    return InputlessTask(name, n, rounds, output, tuple(map(rows.__getitem__, keys)))


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
        return _winners_task("testset", n, rounds, _one_hot_tuples(n + 1), 1)
    if key == "two_testset":
        if n + 1 != 3:
            raise TaskError("two_testset is defined for exactly 3 processes")
        tuples = _one_hot_tuples(3) + [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        return _winners_task("two_testset", n, rounds, tuples, 2)
    if key == "snapshot":
        if rounds != 1:
            raise TaskError("snapshot is defined for a single round")
        views = [a.views for a in enum_block_actions(n)]
        output = OutputFrame(tuple(dict.fromkeys(views)))
        rows = tuple((output.index[v],) for v in views)
        return InputlessTask("snapshot", n, 1, output, rows)
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
    _check_json_object(data, "task", ("n", "N", "tuples", "delta"), TaskError)
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
