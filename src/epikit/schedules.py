"""Block scheduling actions, views, and the schedule-driven models.

One round of the iterated-snapshot discipline is scheduled by a block
action: an ordered partition of the process ids into concurrency classes.
Every class writes together, then snapshots together, so a process sees
exactly the processes scheduled before or with it.  An N-round schedule
is a sequence of N block actions, each applied to a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice, product as iproduct
from typing import Callable, Iterator, Sequence

from .kernel import KripkeFrame, new_frame
from .logic import ActionModel, KripkeModel, product_update


@dataclass(frozen=True)
class BlockAction:
    """Ordered partition of {0..n} into non-empty concurrency classes."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("concurrency classes must be non-empty")
            if tuple(sorted(cls)) != cls:
                raise ValueError("classes must be sorted id tuples")
            if seen & set(cls):
                raise ValueError("concurrency classes must be disjoint")
            seen.update(cls)
        if seen != set(range(len(seen))) or not seen:
            raise ValueError("classes must cover the id set 0..n exactly")

    @property
    def process_count(self) -> int:
        return sum(len(c) for c in self.classes)

    def view(self, agent: int) -> frozenset[int]:
        return view1(agent, self)

    def text(self) -> str:
        return "|".join(",".join(str(i) for i in cls) for cls in self.classes)


@dataclass(frozen=True)
class Schedule:
    """A sequence of block actions, one per round, over one id set."""

    rounds: tuple[BlockAction, ...]

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("a schedule needs at least one round")
        counts = {act.process_count for act in self.rounds}
        if len(counts) != 1:
            raise ValueError("every round must schedule the same id set")

    @property
    def process_count(self) -> int:
        return self.rounds[0].process_count

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    def text(self) -> str:
        return ";".join(act.text() for act in self.rounds)


def block_action(*classes: Sequence[int]) -> BlockAction:
    return BlockAction(tuple(tuple(sorted(c)) for c in classes))


def schedule(*rounds: BlockAction | Sequence[Sequence[int]]) -> Schedule:
    acts = []
    for r in rounds:
        acts.append(r if isinstance(r, BlockAction) else block_action(*r))
    return Schedule(tuple(acts))


def parse_schedule(text: str) -> Schedule:
    """Parse the text syntax: rounds split on ';', classes on '|', ids on
    ','.  Whitespace is ignored, so ``0|1,2 ; 0,1,2`` works."""
    rounds = []
    for part in text.replace(" ", "").split(";"):
        if not part:
            raise ValueError(f"empty round in schedule text {text!r}")
        classes = []
        for cls in part.split("|"):
            if not cls:
                raise ValueError(f"empty class in schedule text {text!r}")
            classes.append([int(tok) for tok in cls.split(",")])
        rounds.append(block_action(*classes))
    return Schedule(tuple(rounds))


def schedule_to_json(sched: Schedule) -> dict:
    return {"rounds": [[list(cls) for cls in act.classes] for act in sched.rounds]}


def schedule_from_json(data: dict) -> Schedule:
    return Schedule(tuple(block_action(*rnd) for rnd in data["rounds"]))


# ---------------------------------------------------------------------------
# enumeration

def _ordered_partitions(ids: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not ids:
        yield ()
        return
    for k in range(1, len(ids) + 1):
        for first in combinations(ids, k):
            rest = tuple(x for x in ids if x not in first)
            for tail in _ordered_partitions(rest):
                yield (first,) + tail


def enum_block_actions(n: int) -> list[BlockAction]:
    """All block actions over {0..n}, shortest first, then lexicographic
    on the class sequence.  The order is the state numbering used by
    every schedule-indexed model, so it must never change."""
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = sorted(_ordered_partitions(tuple(range(n + 1))), key=lambda p: (len(p), p))
    return [BlockAction(p) for p in parts]


def enum_schedules(n: int, rounds: int) -> list[Schedule]:
    """IIS_N in canonical order: cartesian power of the block-action order
    with the first round varying slowest."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    acts = enum_block_actions(n)
    return [Schedule(combo) for combo in iproduct(acts, repeat=rounds)]


# ---------------------------------------------------------------------------
# views

def view1(agent: int, act: BlockAction) -> frozenset[int]:
    """Everyone scheduled before or together with the agent."""
    out: set[int] = set()
    for cls in act.classes:
        out.update(cls)
        if agent in cls:
            return frozenset(out)
    raise ValueError(f"agent {agent} does not appear in {act.classes}")


def indist_1(agent: int, a: BlockAction, b: BlockAction) -> bool:
    """One-round indistinguishability: equal views."""
    return view1(agent, a) == view1(agent, b)


# A protocol abstraction maps (round, old local state, snapshot) to the
# pair (value to write next round, new local state).  The snapshot is a
# tuple of (id, written value) sorted by id.  Full information keeps and
# writes everything: the new state is (own id, snapshot).
Abstraction = Callable[[int, object, tuple], tuple[object, object]]


def _own_id(state) -> int:
    return state if isinstance(state, int) else state[0]


def full_information(rnd: int, state, snapshot: tuple) -> tuple[object, object]:
    new_state = (_own_id(state), snapshot)
    return new_state, new_state


def final_states(sched: Schedule, abstraction: Abstraction | None = None) -> tuple:
    """Per-process local states after running all rounds of a schedule.

    Derived from the view structure alone: round r hands agent i the
    written values of everyone in its round-r view.  The memory-array
    simulator recomputes the same thing operationally and the two must
    agree; keep this path free of simulator code.
    """
    abstraction = abstraction or full_information
    n_proc = sched.process_count
    states: list = list(range(n_proc))
    writes: list = list(range(n_proc))  # first round writes the initial state
    for rnd, act in enumerate(sched.rounds, start=1):
        new_states: list = [None] * n_proc
        new_writes: list = [None] * n_proc
        for i in range(n_proc):
            snap = tuple((j, writes[j]) for j in sorted(view1(i, act)))
            new_writes[i], new_states[i] = abstraction(rnd, states[i], snap)
        states, writes = new_states, new_writes
    return tuple(states)


def seen_ids(state) -> frozenset[int]:
    """All process ids occurring anywhere in a nested local state."""
    if isinstance(state, int):
        return frozenset((state,))
    own, snap = state
    out = {own}
    for j, sub in snap:
        out.add(j)
        out |= seen_ids(sub)
    return frozenset(out)


# ---------------------------------------------------------------------------
# the shared schedule context

class ScheduleContext:
    """The canonical schedules of (n, rounds), their final states under
    one abstraction and the frame of the view classes those give.

    Get it from :func:`schedule_context`, which builds one per key and
    process, so the model builders, the task tabulation and the solver
    share it instead of enumerating again.  Final states (through
    :func:`final_states`) and the frame are worked out on first use.  (A
    plain class, not a dataclass: building a dataclass costs about a
    millisecond at import, which every command pays.)
    """

    def __init__(self, abstraction: Abstraction, schedules: tuple[Schedule, ...]):
        self.abstraction = abstraction
        self.schedules = schedules

    @cached_property
    def finals(self) -> tuple[tuple, ...]:
        """``finals[k][i]``: process i's final state under schedule k.

        Equal states are kept as one object: there are far fewer distinct
        local states than (schedule, process) pairs, and the nested
        full-information states are large."""
        distinct: dict = {}
        return tuple(
            tuple(distinct.setdefault(x, x) for x in final_states(s, self.abstraction))
            for s in self.schedules
        )

    @cached_property
    def frame(self) -> KripkeFrame:
        """One state per schedule, two alike for an agent iff the agent's
        final states under them are equal: the frame of the schedule
        action model, whose classes are the solver's view classes."""
        n_agents = self.schedules[0].process_count
        partitions = [[f[a] for f in self.finals] for a in range(n_agents)]
        return new_frame(len(self.schedules), n_agents, partitions)

    @cached_property
    def index(self) -> dict[Schedule, int]:
        """Canonical position of each schedule."""
        return {s: k for k, s in enumerate(self.schedules)}


@lru_cache(maxsize=16)
def _cached_context(n: int, rounds: int, abstraction: Abstraction) -> ScheduleContext:
    return ScheduleContext(abstraction, tuple(enum_schedules(n, rounds)))


def schedule_context(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> ScheduleContext:
    """The shared context for (n, rounds, abstraction); no abstraction
    means full information."""
    return _cached_context(n, rounds, abstraction or full_information)


# ---------------------------------------------------------------------------
# models

def sched_atom(sched: Schedule) -> str:
    return f"sched_{sched.text()}"


def protocol_action_model(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> ActionModel:
    """The N-round schedule action model.

    One point per schedule in canonical order; two points are alike for an
    agent iff the agent's final local states under them are equal.  Point
    k's precondition is the point-set {k}: it fires exactly at the input
    state carrying the same schedule.  Points record who observes whom in
    the last round, which is what sequential composition needs.
    """
    ctx = schedule_context(n, rounds, abstraction)
    scheds = ctx.schedules
    preconditions = tuple(frozenset((k,)) for k in range(len(scheds)))
    # who observes whom depends only on the last round's block action
    observed = {
        act: tuple(tuple(sorted(view1(a, act))) for a in range(n + 1))
        for act in enum_block_actions(n)
    }
    sees = tuple(observed[s.rounds[-1]] for s in scheds)
    return ActionModel(ctx.frame, preconditions, sees)


def input_model(n: int, rounds: int) -> KripkeModel:
    """The initial model: one state per schedule, all states alike to every
    process (only the environment knows the schedule).  State atoms name
    the schedule; id atoms hold everywhere."""
    scheds = schedule_context(n, rounds).schedules
    frame = new_frame(len(scheds), n + 1, [[0] * len(scheds)] * (n + 1))
    ap = tuple(sched_atom(s) for s in scheds) + tuple(f"id_{i}" for i in range(n + 1))
    ids = frozenset(range(len(scheds), len(scheds) + n + 1))
    valuation = tuple(frozenset((k,)) | ids for k in range(len(scheds)))
    return KripkeModel(frame, ap, valuation)


def protocol_model(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> KripkeModel:
    """Product update of the input model with the schedule action model.
    The identity preconditions collapse the product to one state per
    schedule, numbered like the canonical enumeration."""
    model, _ = product_update(input_model(n, rounds), protocol_action_model(n, rounds, abstraction))
    return model


def _fubini_numbers() -> Iterator[int]:
    """fubini(0), fubini(1), ...: the numbers of ordered set partitions,
    one term at a time via the binomial recurrence."""
    from math import comb

    table = [1]
    while True:
        yield table[-1]
        m = len(table)
        table.append(sum(comb(m, k) * table[m - k] for k in range(1, m + 1)))


def fubini(count: int) -> int:
    """Number of block actions over ``count`` processes (ordered set
    partitions)."""
    return next(islice(_fubini_numbers(), count, None))


def schedule_count(n: int, rounds: int, limit: int) -> int | None:
    """``fubini(n + 1) ** rounds``, the number of schedules of (n, rounds),
    or None when it exceeds ``limit``.  Every factor and partial product
    is compared with ``limit`` as it is made, so no number much larger is
    built and a size of thousands of processes or rounds is answered at
    once."""
    for m, per_round in enumerate(_fubini_numbers()):
        if per_round > limit:
            return None
        if m == n + 1:
            break
    count = 1
    for _ in range(rounds):
        count *= per_round
        if count > limit:
            return None
        if per_round == 1:
            break
    return count
