"""Operational shared-memory simulator for block-scheduled rounds.

Each round runs on a fresh array of single-writer cells.  The scheduler
walks the concurrency classes of the round's block action in order: every
member of the class writes its pending value into its own cell, then every
member takes an atomic snapshot of the array.  What a process sees is
determined entirely by the array contents at snapshot time, which is what
makes this module an oracle for the view-based relation computed in
:mod:`epikit.schedules` rather than a restatement of it.

:func:`runs` simulates a batch of schedules and shares work between them,
still only through the array.  A run is its sequence of block actions, so
schedules that begin with the same rounds go through the same states up
to the end of those rounds: consecutive schedules reuse the simulated
rounds of their common prefix.  Under one prefix, the values every
process will write are fixed, so a snapshot is fixed by the set of cells
written when it is taken, which the round's array shows.  The abstraction
is therefore called once per (prefix, process, written cells).  Both
shortcuts stay inside the simulator's own terms, a prefix of actions and
the cells of an array, so it remains an oracle independent of the view
algebra: no view is worked out and nothing of :mod:`epikit.schedules`
but the schedule types and the default abstraction is read, and the
written cells come from the scheduler's writes, so a fault in the views
cannot reach the simulator through the memo.  Equal local states come
out as one object, found by value, never by view.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .record import Record
from .schedules import Abstraction, BlockAction, Schedule, full_information


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


class _Level:
    """A run before one round: per process its local state and the value
    it writes, and what the round gives from here.

    ``cells[j]`` is the (j, value) pair j's write puts in the array, or
    None when the value is None (a cell that holds None reads as not
    written), made on first use.  Under one level the written cells fix
    the snapshot, so ``memo`` maps them, as a bit set, to the snapshot,
    and (process, written cells) to the process's snapshot, write and
    new state."""

    __slots__ = ("states", "writes", "cells", "memo")

    def __init__(self, states: tuple, writes: tuple):
        self.states = states
        self.writes = writes
        self.cells: tuple | None = None
        self.memo: dict = {}


def _round(
    rnd: int, act: BlockAction, level: _Level, abstraction: Abstraction, canon: _Canon
) -> tuple[tuple, _Level]:
    """One round on a fresh array: its snapshots and the level after it."""
    cells = level.cells
    if cells is None:
        cells = level.cells = tuple(
            None if w is None else canon((j, w)) for j, w in enumerate(level.writes)
        )
    memo, states = level.memo, level.states
    n_proc = len(cells)
    mem: list = [None] * n_proc  # fresh single-writer array
    snaps: list = [None] * n_proc
    writes: list = [None] * n_proc
    after: list = [None] * n_proc
    written = 0
    for cls in act.classes:
        for i in cls:
            mem[i] = cells[i]
            written |= 1 << i
        for i in cls:
            key = (i, written)
            step = memo.get(key)
            if step is None:
                snap = memo.get(written)
                if snap is None:
                    snap = memo[written] = canon(
                        tuple([cell for cell in mem if cell is not None])
                    )
                write, state = abstraction(rnd, states[i], snap)
                step = memo[key] = (snap, canon(write), canon(state))
            snaps[i], writes[i], after[i] = step
    return tuple(snaps), _Level(tuple(after), tuple(writes))


def runs(
    scheds: Iterable[Schedule], abstraction: Abstraction | None = None
) -> Iterator[RunRecord]:
    """Execute schedules in turn, yielding one :class:`RunRecord` each,
    in input order, equal to the record of a lone :func:`run`.

    Values written in round r live only in round r's array; a process's
    pending write for round r+1 is produced by the abstraction from its
    state after round r (full information by default), which must be a
    function of its arguments.  A schedule reuses the rounds it shares
    with the one before it, so any order is correct and the canonical
    order shares the most.  Within one call equal writes and states are
    one object (so both must be hashable).
    """
    abstraction = abstraction or full_information
    canon = _Canon()
    # the previous schedule's rounds: levels[r] is the run before round
    # r + 1, done[r] the action of that round and its snapshots
    levels: list[_Level] = []
    done: list[tuple[BlockAction, tuple]] = []
    for sched in scheds:
        acts = sched.rounds
        n_proc = sched.process_count
        if not levels or len(levels[0].states) != n_proc:
            ids = tuple(range(n_proc))
            levels[:] = [_Level(ids, ids)]  # round 1 writes the ids
            done.clear()
        same = 0
        for (act_done, _), act in zip(done, acts):
            if act_done is not act and act_done.classes != act.classes:
                break
            same += 1
        # the level before the first round that differs stays, memo and
        # all: it depends only on the rounds before it
        del done[same:], levels[same + 1:]
        for rnd in range(same, len(acts)):
            snaps, after = _round(rnd + 1, acts[rnd], levels[rnd], abstraction, canon)
            done.append((acts[rnd], snaps))
            levels.append(after)
        yield RunRecord(sched, tuple([snaps for _, snaps in done]), levels[-1].states)


def run(sched: Schedule, abstraction: Abstraction | None = None) -> RunRecord:
    """Execute one schedule and record snapshots and final states (see
    :func:`runs`)."""
    return next(runs((sched,), abstraction))


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
