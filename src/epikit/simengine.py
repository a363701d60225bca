"""Operational shared-memory simulator for block-scheduled rounds.

Each round runs on a fresh array of single-writer cells.  The scheduler
walks the concurrency classes of the round's block action in order: every
member of the class writes its pending value into its own cell, then every
member takes an atomic snapshot of the array.  What a process sees is
determined entirely by the array contents at snapshot time, which is what
makes this module an oracle for the view-based relation computed in
:mod:`epikit.schedules` rather than a restatement of it.

:func:`run` simulates one schedule.  :func:`canonical_finals`
simulates every canonical schedule of (n, rounds) in one walk of the
schedule tree, round by round: the runs under one prefix of actions share
its rounds, and under one prefix the values every process will write are
fixed, so a snapshot is fixed by the set of cells written when it is
taken.  The scheduler writes each block action's classes into a fresh
array once, which gives every process that set, and a new local state is
made once per (prefix, process, written set).  Both shortcuts stay in the
simulator's own terms, a prefix of actions and the cells of an array, so
it remains an oracle independent of the view algebra: no view is worked
out and nothing of :mod:`epikit.schedules` but the schedule types and the
action enumeration is read, and the written sets come from the
scheduler's writes, so a fault in the views cannot reach the simulator
through them.  Equal local states come out as one object within a call,
found by value, never by view.  The walk's last level comes out per
prefix of all rounds but the last, each process's final state per
written set; :func:`canonical_finals` expands it per schedule, and
:func:`class_rows`, which the certificate check of :mod:`epikit.solver`
reads, numbers each process's classes off it without expanding it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .record import Record
from .schedules import BlockAction, Schedule, enum_block_actions


class RunRecord(Record):
    """Everything observable about one simulated execution."""

    schedule: Schedule
    snapshots: tuple[tuple[tuple, ...], ...]  # [round][process] -> snapshot
    finals: tuple  # [process] -> final local state


class _Canon:
    """One object per value: calling it gives the first value seen that
    is equal to its argument.

    A tuple is looked up by the ids of its items' canonical objects, so
    the cost of a lookup is that of the items not canonical yet, not of
    the whole nesting: the nested local states of many rounds are never
    hashed through.  Other values are looked up by value.  Every
    canonical object lives as long as the table, so no id in it is
    reused."""

    def __init__(self):
        self._ids: set[int] = set()
        self._tuples: dict[tuple[int, ...], tuple] = {}
        self._others: dict = {}

    def __call__(self, value):
        if id(value) in self._ids:
            return value
        if isinstance(value, tuple):
            key = tuple(map(id, value))
            if not self._ids.issuperset(key):
                key = tuple([id(self(item)) for item in value])
            canon = self._tuples.setdefault(key, value)
        else:
            canon = self._others.setdefault(value, value)
        self._ids.add(id(canon))
        return canon


def _written(act: BlockAction) -> list[int]:
    """Per process, the cells of the round's fresh array already written
    when the scheduler lets it take its snapshot, as a bit set: each
    class writes, then snapshots."""
    written = 0  # the array, one bit per cell
    out = [0] * act.process_count
    for cls in act.classes:
        for i in cls:
            written |= 1 << i
        for i in cls:
            out[i] = written
    return out


def _cells(states: tuple, canon: _Canon) -> tuple:
    """Per process, the (id, value) pair its write of its state puts in
    the array."""
    return tuple([canon((j, state)) for j, state in enumerate(states)])


def _snapshot(cells: tuple, written: int, canon: _Canon) -> tuple:
    """The array read when the cells in ``written`` hold their writes."""
    return canon(tuple([cell for j, cell in enumerate(cells) if written >> j & 1]))


def run(sched: Schedule) -> RunRecord:
    """Execute one schedule and record its snapshots and final states.

    Full information: round 1 writes the ids and every later round each
    process's state, into that round's array alone, and a process's
    state after a round is ``(own id, snapshot)``.  Within one run equal
    states are one object.
    """
    return _run(sched, _Canon())


def _run(sched: Schedule, canon: _Canon) -> RunRecord:
    """:func:`run`, with equal states found in ``canon``, which several
    runs may share."""
    states = tuple(range(sched.process_count))  # round 1 writes the ids
    snapshots = []
    for act in sched.rounds:
        cells = _cells(states, canon)
        snaps = tuple([_snapshot(cells, w, canon) for w in _written(act)])
        states = tuple([canon((i, snap)) for i, snap in enumerate(snaps)])
        snapshots.append(snaps)
    return RunRecord(sched, tuple(snapshots), states)


def canonical_finals(n: int, rounds: int) -> list[tuple]:
    """``canonical_finals(n, rounds)[k]``: the final states of the k-th
    schedule of :func:`epikit.schedules.enum_schedules`, equal to
    ``run(schedule).finals``.

    One walk of the schedule tree, round by round: every prefix of
    actions is stepped by every block action, with one new state per
    (prefix, process, written set).  Within one call equal final states
    are one object.  Kept for README and the tests' simulator reference.
    """
    return _expand(*_last_level(n, rounds))


def _expand(prefixes: list, picks: list) -> list[tuple]:
    """A level per schedule: under each prefix in order, for each action,
    every process's entry at its slot."""
    return [
        tuple(map(list.__getitem__, steps, pick)) for steps in prefixes for pick in picks
    ]


def _last_level(n: int, rounds: int) -> tuple[list, list]:
    """The walk of :func:`canonical_finals`, whose last level is returned
    as it comes out: ``prefixes[p][i][w]`` is process i's final state
    after the p-th prefix of all rounds but the last and its w-th
    distinct written set, and ``picks[x][i]`` is the slot of process i's
    set under the x-th block action.  Schedule k is prefix
    ``k // len(picks)`` followed by action ``k % len(picks)``.  Equal
    final states are one object, which lives as long as ``prefixes``."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    acts = enum_block_actions(n)
    canon = _Canon()
    # per process, its distinct written sets in order of first occurrence,
    # and per action where each process's set stands among them
    sets: list[dict[int, int]] = [{} for _ in range(n + 1)]
    picks = [
        tuple([sets[i].setdefault(w, len(sets[i])) for i, w in enumerate(_written(act))])
        for act in acts
    ]
    # per prefix, each process's state; round 1 writes the ids
    level: list = [tuple(range(n + 1))]
    for rnd in range(1, rounds + 1):
        stepped_level = []
        for before in level:
            cells = _cells(before, canon)
            snaps: dict[int, tuple] = {}  # written set -> snapshot, under this prefix
            steps = []
            for i, own_sets in enumerate(sets):
                stepped = []
                for w in own_sets:
                    snap = snaps.get(w)
                    if snap is None:
                        snap = snaps[w] = _snapshot(cells, w, canon)
                    stepped.append(canon((i, snap)))
                steps.append(stepped)
            stepped_level.append(steps)
        if rnd == rounds:
            return stepped_level, picks
        level = _expand(stepped_level, picks)


def class_rows(n: int, rounds: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Per process, its classes over the canonical schedules (two alike
    iff its final states are equal) as a row, the class of each
    schedule numbered by first occurrence, and their count.

    Read off the last level of one :func:`canonical_finals` walk as it
    comes out: after each prefix, the process's final states are
    labelled once, by identity (equal states are one object), and the
    labels are spread over the block actions by its written-set slots.
    Prefixes in order and slots in index order number the classes by
    first occurrence, since slots are numbered in action order."""
    # kept until every row is labelled, so that no id is reused
    prefixes, picks = _last_level(n, rounds)
    for i, slots in enumerate(zip(*picks)):
        seen: dict[int, int] = {}
        row: list[int] = []
        for steps in prefixes:
            labels = [seen.setdefault(id(state), len(seen)) for state in steps[i]]
            row.extend(map(labels.__getitem__, slots))
        yield tuple(row), len(seen)


def oracle_indist(agent: int, u: Schedule, v: Schedule) -> bool:
    """Whether the agent ends up in the same local state under both
    schedules.  Both must range over the same ids and round count.  Kept
    for README's quick tour and the tests."""
    if u.process_count != v.process_count or u.round_count != v.round_count:
        raise ValueError("schedules must share process and round counts")
    # one table for both runs: equal states are one object, so no
    # comparison walks through their nesting (one level per round)
    canon = _Canon()
    return _run(u, canon).finals[agent] is _run(v, canon).finals[agent]


def _shown(values, leaf, node) -> dict:
    """Per ``id``, how the values and every local state nested in them
    show: ``leaf(i)`` for an id i, ``node(own, [(j, shown sub), ...])``
    for ``(own, snapshot)``.  Each distinct object is shown once, in a
    loop over an explicit stack, so the nesting (one level per round)
    meets no recursion limit and the time is linear in the distinct
    states however often each one is shown."""
    shown: dict = {}
    stack = list(values)
    while stack:
        value = stack[-1]
        if id(value) in shown:
            stack.pop()
        elif isinstance(value, int):
            shown[id(stack.pop())] = leaf(value)
        elif todo := [sub for _, sub in value[1] if id(sub) not in shown]:
            stack += todo  # come back once every nested state is shown
        else:
            own, snap = stack.pop()
            shown[id(value)] = node(own, [(j, shown[id(sub)]) for j, sub in snap])
    return shown


def _text(own, subs) -> str:
    """A local state as text, ``(own saw {j:sub, ...})``."""
    return f"({own} saw {{" + ", ".join([f"{j}:{sub}" for j, sub in subs]) + "})"


def _text_length(own, subs) -> int:
    """``len(_text(own, subs))``, given each sub's length."""
    return len(_text(own, [(j, "") for j, _ in subs])) + sum(sub for _, sub in subs)


def _trace(record: RunRecord, leaf, node) -> list:
    """The text trace of a run as its literal text (the strings) and the
    local states shown between them (see :func:`_shown`)."""
    pieces: list = [f"schedule {record.schedule.text()}\n"]
    for rnd, (act, snaps) in enumerate(
        zip(record.schedule.rounds, record.snapshots), start=1
    ):
        pieces.append(f"round {rnd}: blocks {act.text()}\n")
        for i, snap in enumerate(snaps):
            pieces.append(f"  process {i} snapshot: ")
            for k, (j, val) in enumerate(snap):
                pieces += [f", {j}=" if k else f"{j}=", val]
            pieces.append("\n")
    for i, state in enumerate(record.finals):
        pieces += [f"final {i}: ", state, "\n"]
    states = [piece for piece in pieces if not isinstance(piece, str)]
    shown = _shown(states, leaf, node)
    return [piece if isinstance(piece, str) else shown[id(piece)] for piece in pieces]


def format_trace(record: RunRecord) -> str:
    """Stable round-by-round text trace of a run."""
    return "".join(_trace(record, str, _text))


def _trace_size(record: RunRecord) -> int:
    """``len(format_trace(record))``, worked out without building the text."""
    return sum(
        len(piece) if isinstance(piece, str) else piece
        for piece in _trace(record, lambda i: len(str(i)), _text_length)
    )


def record_to_json(record: RunRecord) -> dict:
    return {
        "schedule": record.schedule.text(),
        "snapshots": record.snapshots,
        "finals": record.finals,
    }
