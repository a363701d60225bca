"""Operational shared-memory simulator for block-scheduled rounds.

Each round runs on a fresh array of single-writer cells.  The scheduler
walks the concurrency classes of the round's block action in order: every
member of the class writes its pending value into its own cell, then every
member takes an atomic snapshot of the array.  What a process sees is
determined entirely by the array contents at snapshot time, which is what
makes this module an oracle for the view-based relation computed in
:mod:`epikit.schedules` rather than a restatement of it.
"""

from __future__ import annotations

from .record import Record
from .schedules import Abstraction, Schedule, full_information


class RunRecord(Record):
    """Everything observable about one simulated execution."""

    schedule: Schedule
    snapshots: tuple[tuple[tuple, ...], ...]  # [round][process] -> snapshot
    finals: tuple  # [process] -> final local state

    def final(self, agent: int):
        return self.finals[agent]


def run(sched: Schedule, abstraction: Abstraction | None = None) -> RunRecord:
    """Execute a schedule and record snapshots and final states.

    Values written in round r live only in round r's array; a process's
    pending write for round r+1 is produced by the abstraction from its
    state after round r (full information by default).
    """
    abstraction = abstraction or full_information
    n_proc = sched.process_count
    states: list = list(range(n_proc))
    pending: list = list(range(n_proc))
    all_snaps: list[tuple] = []
    for rnd, act in enumerate(sched.rounds, start=1):
        mem: list = [None] * n_proc  # fresh single-writer array
        snaps: list = [None] * n_proc
        for cls in act.classes:
            for i in cls:
                mem[i] = pending[i]
            for i in cls:
                snaps[i] = tuple((j, mem[j]) for j in range(n_proc) if mem[j] is not None)
        for i in range(n_proc):
            pending[i], states[i] = abstraction(rnd, states[i], snaps[i])
        all_snaps.append(tuple(snaps))
    return RunRecord(sched, tuple(all_snaps), tuple(states))


def oracle_indist(
    agent: int, u: Schedule, v: Schedule, abstraction: Abstraction | None = None
) -> bool:
    """Whether the agent ends up in the same local state under both
    schedules.  Both must range over the same ids and round count."""
    if u.process_count != v.process_count or u.round_count != v.round_count:
        raise ValueError("schedules must share process and round counts")
    return run(u, abstraction).final(agent) == run(v, abstraction).final(agent)


def _show_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    own, snap = value
    inner = ", ".join(f"{j}:{_show_value(sub)}" for j, sub in snap)
    return f"({own} saw {{{inner}}})"


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


def _jsonable(value):
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def record_to_json(record: RunRecord) -> dict:
    return {
        "schedule": record.schedule.text(),
        "snapshots": _jsonable(record.snapshots),
        "finals": _jsonable(record.finals),
    }
