"""Block scheduling actions, views, and the schedule-driven models.

One round of the iterated-snapshot discipline is scheduled by a block
action: an ordered partition of the process ids into concurrency classes.
Every class writes together, then snapshots together, so a process sees
exactly the processes scheduled before or with it.  An N-round schedule
is a sequence of N block actions, each applied to a fresh array.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import combinations, islice, product as iproduct

from .kernel import KripkeFrame, new_frame
from .logic import ActionModel, KripkeModel
from .record import Record


class BlockAction(Record):
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

    @cached_property
    def process_count(self) -> int:
        return sum(len(c) for c in self.classes)

    def view(self, agent: int) -> frozenset[int]:
        return view1(agent, self)

    @cached_property
    def views(self) -> tuple[tuple[int, ...], ...]:
        """``views[i]``: agent i's view (:func:`view1`) as a sorted id
        tuple, worked out once per action."""
        return tuple(
            tuple(sorted(view1(i, self))) for i in range(self.process_count)
        )

    def text(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        return "|".join(",".join(str(i) for i in cls) for cls in self.classes)


class Schedule(Record):
    """A sequence of block actions, one per round, over one id set."""

    rounds: tuple[BlockAction, ...]

    def __post_init__(self):
        rounds = self.rounds
        if not rounds:
            raise ValueError("a schedule needs at least one round")
        # a loop, not a set of the counts: every schedule of an
        # enumeration passes through here
        count = rounds[0].process_count
        for act in rounds:
            if act.process_count != count:
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


@lru_cache(maxsize=16)
def enum_block_actions(n: int) -> tuple[BlockAction, ...]:
    """All block actions over {0..n}, shortest first, then lexicographic
    on the class sequence.  The order is the state numbering used by
    every schedule-indexed model, so it must never change.  Built once
    per n and process, so each action's views and text are worked out once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = sorted(_ordered_partitions(tuple(range(n + 1))), key=lambda p: (len(p), p))
    return tuple(BlockAction(p) for p in parts)


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


def final_states(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> tuple[tuple, ...]:
    """``final_states(n, rounds)[k][i]``: process i's local state after
    all rounds of the k-th schedule of :func:`enum_schedules`.

    Derived from the view structure alone: round r hands agent i the
    written values of everyone in its round-r view.  The memory-array
    simulator recomputes the same thing operationally and the two must
    agree; keep this path free of simulator code.  The schedule tree is
    walked round by round, each prefix's (write, state) pairs stepped by
    every block action with one abstraction call per (prefix, process,
    view).  Equal states or writes are one object (so both must be
    hashable).
    """
    acts = enum_block_actions(n)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    abstraction = abstraction or full_information
    # per process, its distinct views in order of first occurrence, and
    # per action where each process's view stands among them
    views: list[dict] = [{} for _ in range(n + 1)]
    picks = [
        tuple(views[i].setdefault(v, len(views[i])) for i, v in enumerate(act.views))
        for act in acts
    ]
    distinct: dict = {}
    level = [tuple((i, i) for i in range(n + 1))]  # round 1 writes the ids
    for rnd in range(1, rounds + 1):
        after = []
        for before in level:
            steps = []
            for i, own_views in enumerate(views):
                stepped = []
                for view in own_views:
                    snap = tuple((j, before[j][0]) for j in view)
                    write, state = abstraction(rnd, before[i][1], snap)
                    if rnd == rounds:  # nothing reads the last writes
                        stepped.append(distinct.setdefault(state, state))
                        continue
                    # full information writes its state: hash it once
                    same = state is write
                    write = distinct.setdefault(write, write)
                    state = write if same else distinct.setdefault(state, state)
                    stepped.append((write, state))
                steps.append(stepped)
            after.extend(tuple(map(list.__getitem__, steps, pick)) for pick in picks)
        level = after
    return tuple(level)


def seen_ids(state, memo: dict[int, frozenset[int]] | None = None) -> frozenset[int]:
    """All process ids occurring anywhere in a nested local state.

    A state's ids are its own and, for each entry of its snapshot, the
    writer's and the ids of what it wrote.  Full-information states share
    their sub-states, so each one is worked out once and kept in ``memo``
    by ``id``.  Pass one memo to calls on states that stay alive as long
    as it does (the final states of one schedule context), so that what
    they share is worked out once in all.  A loop over an explicit stack,
    so the nesting (one level per round) is not bounded by the recursion
    limit."""
    if isinstance(state, int):
        return frozenset((state,))
    if memo is None:
        memo = {}
    stack = [state]
    while stack:
        top = stack.pop()
        own, snap = top
        seen = {own}
        for j, sub in snap:
            seen.add(j)
            if isinstance(sub, int):
                seen.add(sub)
            elif id(sub) in memo:
                seen |= memo[id(sub)]
            else:
                # come back once every sub-state is worked out
                stack.append(top)
                stack.extend(sub for _, sub in snap
                             if not isinstance(sub, int) and id(sub) not in memo)
                break
        else:
            memo[id(top)] = frozenset(seen)
    return memo[id(state)]


# ---------------------------------------------------------------------------
# the shared schedule context

class ScheduleContext:
    """The canonical schedules of (n, rounds), their final states under
    one abstraction and the frame of the view classes those give.

    Get it from :func:`schedule_context`, which builds one per key and
    process, so the model builders, the task tabulation and the solver
    share it instead of enumerating again.  Its four tables (schedule
    records, final states from one :func:`final_states` call, texts and
    the frame) are each built on first use.  A plain class, not a
    :class:`Record`: it is a cache shared by identity, not a value
    compared by its fields.
    """

    def __init__(self, n: int, rounds: int, abstraction: Abstraction):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.n = n
        self.rounds = rounds
        self.abstraction = abstraction

    @cached_property
    def schedules(self) -> tuple[Schedule, ...]:
        return tuple(enum_schedules(self.n, self.rounds))

    @cached_property
    def finals(self) -> tuple[tuple, ...]:
        """``finals[k][i]``: process i's final state under schedule k.

        Equal states are kept as one object: there are far fewer distinct
        local states than (schedule, process) pairs, and the nested
        full-information states are large."""
        return final_states(self.n, self.rounds, self.abstraction)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """``texts[k]`` is ``schedules[k].text()``.  The canonical order is
        the cartesian power of the block-action order, so the texts are
        that power of the actions' texts."""
        acts = enum_block_actions(self.n)
        return tuple(
            map(";".join, iproduct([a.text() for a in acts], repeat=self.rounds))
        )

    @cached_property
    def frame(self) -> KripkeFrame:
        """One state per schedule, two alike for an agent iff the agent's
        final states under them are equal: the frame of the schedule
        action model, whose classes are the solver's view classes."""
        # equal final states are one object, so ids label the classes and
        # no nested state is hashed again
        partitions = [[id(f[a]) for f in self.finals] for a in range(self.n + 1)]
        return new_frame(len(self.finals), self.n + 1, partitions)


@lru_cache(maxsize=16)
def _cached_context(n: int, rounds: int, abstraction: Abstraction) -> ScheduleContext:
    return ScheduleContext(n, rounds, abstraction)


def schedule_context(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> ScheduleContext:
    """The shared context for (n, rounds, abstraction); no abstraction
    means full information."""
    return _cached_context(n, rounds, abstraction or full_information)


# ---------------------------------------------------------------------------
# models

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
    frame = schedule_context(n, rounds, abstraction).frame
    preconditions = tuple(frozenset((k,)) for k in range(frame.state_count))
    # who observes whom depends only on the last round, which varies fastest
    acts = enum_block_actions(n)
    sees = tuple(a.views for a in acts) * len(acts) ** (rounds - 1)
    return ActionModel(frame, preconditions, sees)


def _schedule_atoms(ctx: ScheduleContext) -> tuple[tuple, tuple]:
    """The input atoms and valuation: state k has ``sched_<its text>`` and each ``id_i``."""
    ap = tuple(f"sched_{t}" for t in ctx.texts) + tuple(f"id_{i}" for i in range(ctx.n + 1))
    ids = frozenset(range(len(ctx.texts), len(ap)))
    return ap, tuple(frozenset((k,)) | ids for k in range(len(ctx.texts)))


def input_model(n: int, rounds: int) -> KripkeModel:
    """The initial model: one state per schedule, all states alike to every
    process (only the environment knows the schedule).  State atoms name
    the schedule; id atoms hold everywhere."""
    ctx = schedule_context(n, rounds)
    frame = new_frame(len(ctx.texts), n + 1, [[0] * len(ctx.texts)] * (n + 1))
    return KripkeModel(frame, *_schedule_atoms(ctx))


def protocol_model(
    n: int, rounds: int, abstraction: Abstraction | None = None
) -> KripkeModel:
    """The product update of the input model with the schedule action
    model, read off the schedule context.  Point k's precondition {k}
    keeps exactly the pairs (k, k), and the input frame relates every
    state, so the product is the context's frame with the input atoms."""
    ctx = schedule_context(n, rounds, abstraction)
    return KripkeModel(ctx.frame, *_schedule_atoms(ctx))


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
