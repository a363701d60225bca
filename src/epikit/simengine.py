"""Operational shared-memory simulator for block-scheduled rounds.

Each round runs on a fresh array of single-writer cells.  The scheduler
walks the concurrency classes of the round's block action in order: every
member of the class writes its pending value into its own cell, then every
member takes an atomic snapshot of the array.  What a process sees is
determined entirely by the array contents at snapshot time, which is what
makes this module an oracle for the view-based relation computed in
:mod:`epikit.schedules` rather than a restatement of it.

:func:`runs` simulates schedules one at a time.  :func:`canonical_finals`
simulates every canonical schedule of (n, rounds) in one walk of the
schedule tree, round by round: the runs under one prefix of actions share
its rounds, and under one prefix the values every process will write are
fixed, so a snapshot is fixed by the set of cells written when it is
taken.  The scheduler writes each block action's classes into a fresh
array once, which gives every process that set, and the abstraction is
called once per (prefix, process, written set).  Both shortcuts stay in
the simulator's own terms, a prefix of actions and the cells of an array,
so it remains an oracle independent of the view algebra: no view is worked
out and nothing of :mod:`epikit.schedules` but the schedule types, the
action enumeration and the default abstraction is read, and the written
sets come from the scheduler's writes, so a fault in the views cannot
reach the simulator through them.  Equal local states come out as one
object within a call, found by value, never by view.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .record import Record
from .schedules import (
    Abstraction,
    BlockAction,
    Schedule,
    enum_block_actions,
    full_information,
)


class RunRecord(Record):
    """Everything observable about one simulated execution."""

    schedule: Schedule
    snapshots: tuple[tuple[tuple, ...], ...]  # [round][process] -> snapshot
    finals: tuple  # [process] -> final local state

    def final(self, agent: int):
        return self.finals[agent]


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


def _cells(writes: tuple, canon: _Canon) -> tuple:
    """Per process, the (id, value) pair its write puts in the array, or
    None when the value is None: a cell that holds None reads as not
    written."""
    return tuple(None if w is None else canon((j, w)) for j, w in enumerate(writes))


def _snapshot(cells: tuple, written: int, canon: _Canon) -> tuple:
    """The array read when the cells in ``written`` hold their writes."""
    return canon(tuple([
        cell for j, cell in enumerate(cells) if written >> j & 1 and cell is not None
    ]))


def runs(
    scheds: Iterable[Schedule], abstraction: Abstraction | None = None
) -> Iterator[RunRecord]:
    """Execute schedules in turn, yielding one :class:`RunRecord` each,
    in input order, equal to the record of a lone :func:`run`.

    Values written in round r live only in round r's array; a process's
    pending write for round r+1 is produced by the abstraction from its
    state after round r (full information by default), which must be a
    function of its arguments.  Within one call equal writes and states
    are one object (so both must be hashable).
    """
    abstraction = abstraction or full_information
    canon = _Canon()
    for sched in scheds:
        states = writes = tuple(range(sched.process_count))  # round 1 writes the ids
        snapshots = []
        for rnd, act in enumerate(sched.rounds, start=1):
            cells = _cells(writes, canon)
            snaps = tuple([_snapshot(cells, w, canon) for w in _written(act)])
            steps = [abstraction(rnd, state, snap) for state, snap in zip(states, snaps)]
            writes = tuple([canon(write) for write, _ in steps])
            states = tuple([canon(state) for _, state in steps])
            snapshots.append(snaps)
        yield RunRecord(sched, tuple(snapshots), states)


def run(sched: Schedule, abstraction: Abstraction | None = None) -> RunRecord:
    """Execute one schedule and record snapshots and final states (see
    :func:`runs`)."""
    return next(runs((sched,), abstraction))


def canonical_finals(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> list[tuple]:
    """``canonical_finals(n, rounds)[k]``: the final states of the k-th
    schedule of :func:`epikit.schedules.enum_schedules`, equal to
    ``run(schedule).finals``.

    One walk of the schedule tree, round by round: every prefix of
    actions is stepped by every block action, with one abstraction call
    per (prefix, process, written set).  Within one call equal final
    states are one object (so writes and states must be hashable).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    acts = enum_block_actions(n)
    abstraction = abstraction or full_information
    canon = _Canon()
    # per process, its distinct written sets in order of first occurrence,
    # and per action where each process's set stands among them
    sets: list[dict[int, int]] = [{} for _ in range(n + 1)]
    picks = [
        tuple([sets[i].setdefault(w, len(sets[i])) for i, w in enumerate(_written(act))])
        for act in acts
    ]
    # per prefix, each process's (write, state); round 1 writes the ids
    level: list = [tuple((i, i) for i in range(n + 1))]
    for rnd in range(1, rounds + 1):
        after: list = []
        for before in level:
            cells = _cells([write for write, _ in before], canon)
            snaps: dict[int, tuple] = {}  # written set -> snapshot, under this prefix
            steps = []
            for i, own_sets in enumerate(sets):
                stepped = []
                for w in own_sets:
                    snap = snaps.get(w)
                    if snap is None:
                        snap = snaps[w] = _snapshot(cells, w, canon)
                    write, state = abstraction(rnd, before[i][1], snap)
                    # nothing reads the last writes
                    stepped.append(canon(state) if rnd == rounds else (write, canon(state)))
                steps.append(stepped)
            after.extend([tuple(map(list.__getitem__, steps, pick)) for pick in picks])
        level = after
    return level


def oracle_indist(
    agent: int, u: Schedule, v: Schedule, abstraction: Abstraction | None = None
) -> bool:
    """Whether the agent ends up in the same local state under both
    schedules.  Both must range over the same ids and round count."""
    if u.process_count != v.process_count or u.round_count != v.round_count:
        raise ValueError("schedules must share process and round counts")
    ru, rv = runs((u, v), abstraction)
    return ru.final(agent) == rv.final(agent)


def _show_value(value) -> str:
    """A local state as text: an id, or ``(own saw {j:value, ...})``.

    A loop over an explicit stack of values still to show and literal
    text (the strings), so the nesting (one level per round) is not
    bounded by the recursion limit."""
    out: list[str] = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, int):
            out.append(str(item))
        else:
            own, snap = item
            out.append(f"({own} saw {{")
            stack.append("})")
            for k in range(len(snap) - 1, -1, -1):
                j, sub = snap[k]
                stack.append(sub)
                stack.append(f", {j}:" if k else f"{j}:")
    return "".join(out)


def format_trace(record: RunRecord) -> str:
    """Stable round-by-round text trace of a run."""
    lines = [f"schedule {record.schedule.text()}"]
    for rnd, (act, snaps) in enumerate(
        zip(record.schedule.rounds, record.snapshots), start=1
    ):
        lines.append(f"round {rnd}: blocks {act.text()}")
        for i, snap in enumerate(snaps):
            seen = ", ".join(f"{j}={_show_value(val)}" for j, val in snap)
            lines.append(f"  process {i} snapshot: {seen}")
    for i, state in enumerate(record.finals):
        lines.append(f"final {i}: {_show_value(state)}")
    return "\n".join(lines) + "\n"


def record_to_json(record: RunRecord) -> dict:
    return {
        "schedule": record.schedule.text(),
        "snapshots": record.snapshots,
        "finals": record.finals,
    }
