"""Block scheduling actions, views, and the schedule-driven models.

One round of the iterated-snapshot discipline is scheduled by a block
action: an ordered partition of the process ids into concurrency classes.
Every class writes together, then snapshots together, so a process sees
exactly the processes scheduled before or with it.  An N-round schedule
is a sequence of N block actions, each applied to a fresh array.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import combinations, islice, product as iproduct

from .kernel import ActionModel, KripkeFrame, new_frame
from .record import Record

# ``logic`` (formulas and Kripke models) is imported by the two model
# builders alone: deciding a task reads frames and compiles no formula code


class BlockAction(Record):
    """Ordered partition of {0..n} into non-empty concurrency classes.

    Once its classes are checked, an action works out ``process_count``,
    ``views`` (``views[i]`` is agent i's view, :func:`view1`, as a sorted
    id tuple) and the text of :meth:`text` (see :func:`_fill_tables`)."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("concurrency classes must be non-empty")
            if tuple(sorted(cls)) != cls:
                raise ValueError("classes must be sorted id tuples")
            ids = set(cls)
            if len(ids) != len(cls):
                raise ValueError(f"concurrency class {cls} repeats an id")
            if seen & ids:
                raise ValueError("concurrency classes must be disjoint")
            seen |= ids
        if seen != set(range(len(seen))) or not seen:
            raise ValueError("classes must cover the id set 0..n exactly")
        _fill_tables(self)

    def view(self, agent: int) -> frozenset[int]:
        return view1(agent, self)

    def text(self) -> str:
        return self._text


def _fill_tables(act: BlockAction) -> None:
    """Set the tables of an action whose classes are valid: its
    ``process_count``, its ``views`` (agent i's view is the sorted union
    of the classes up to and including its own) and its text, worked
    out once per action."""
    view: tuple[int, ...] = ()
    views: dict[int, tuple[int, ...]] = {}
    for cls in act.classes:
        view = tuple(sorted(view + cls))
        for i in cls:
            views[i] = view
    count = len(views)
    object.__setattr__(act, "process_count", count)
    object.__setattr__(act, "views", tuple(map(views.__getitem__, range(count))))
    text = "|".join([",".join(map(str, cls)) for cls in act.classes])
    object.__setattr__(act, "_text", text)


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
    ','.  Spaces are ignored, so ``0|1,2 ; 0,1,2`` works.  An id is ASCII
    decimal digits: ``int`` would also read ``+1``, ``0_1`` and ``٣``."""
    rounds = []
    for part in text.replace(" ", "").split(";"):
        if not part:
            raise ValueError(f"empty round in schedule text {text!r}")
        classes = []
        for cls in part.split("|"):
            if not cls:
                raise ValueError(f"empty class in schedule text {text!r}")
            ids = cls.split(",")
            for tok in ids:
                if not (tok.isascii() and tok.isdigit()):
                    raise ValueError(
                        f"process id {tok!r} in schedule text {text!r} is not "
                        "a decimal number"
                    )
            classes.append([int(tok) for tok in ids])
        rounds.append(block_action(*classes))
    return Schedule(tuple(rounds))


def schedule_to_json(sched: Schedule) -> dict:
    return {"rounds": [[list(cls) for cls in act.classes] for act in sched.rounds]}


# ---------------------------------------------------------------------------
# enumeration

def _ordered_partitions(ids: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every ordered partition of ``ids``: each first class (by size,
    then as ``combinations`` gives it) followed by each partition of the
    ids it leaves.  The partitions of each subset are worked out once,
    smallest subsets first, and shared by every first class that leaves
    it; a subset is keyed in the order of ``ids``, as ``combinations``
    gives it."""
    parts: dict[tuple[int, ...], list] = {(): [()]}
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            parts[sub] = [
                (first,) + tail
                for k in range(1, size + 1)
                for first in combinations(sub, k)
                for tail in parts[tuple(x for x in sub if x not in first)]
            ]
    return parts[ids]


@lru_cache(maxsize=16)
def enum_block_actions(n: int) -> tuple[BlockAction, ...]:
    """All block actions over {0..n}, shortest first, then lexicographic
    on the class sequence.  The order is the state numbering used by
    every schedule-indexed model, so it must never change.  Built once
    per n and process, so each action's views and text are worked out
    once, and without the checks of ``BlockAction``: every ordered
    partition is a valid action."""
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = sorted(_ordered_partitions(tuple(range(n + 1))), key=lambda p: (len(p), p))
    acts = tuple(map(BlockAction._trusted, parts))
    for act in acts:
        _fill_tables(act)
    return acts


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
    """One-round indistinguishability: equal views; kept for criterion 11."""
    return view1(agent, a) == view1(agent, b)


def final_states(n: int, rounds: int) -> tuple[list, tuple]:
    """Every process's local state after all rounds of every schedule of
    :func:`enum_schedules`, as the pair ``(prefixes, picks)``: per prefix
    of all rounds but the last, ``prefixes[p][i][v]`` is process i's state
    after that prefix and its v-th distinct last-round view, and
    ``picks[x][i]`` is process i's view slot under the x-th block action.
    Schedule k is prefix ``k // len(picks)`` followed by action
    ``k % len(picks)``.

    Full information, derived from the view structure alone: round 1
    writes the ids, every later round each process's state, and round r
    leaves agent i the state ``(i, snapshot)``, the snapshot holding the
    ``(id, written value)`` of everyone in its round-r view, by id.  The
    memory-array simulator recomputes the same thing operationally and
    the two must agree; keep this path free of simulator code.  The
    schedule tree is walked round by round, each prefix's states stepped
    by every block action with one step per (prefix, process, view).  The
    last level is returned as it comes out, not expanded per schedule:
    its one reader, :func:`protocol_frame`, labels it per prefix.
    Equal states are one object: states of different rounds never are
    equal, so each round interns its own.
    """
    acts = enum_block_actions(n)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    # per process, its distinct views in order of first occurrence, and
    # per action where each process's view stands among them
    views: list[dict] = [{} for _ in range(n + 1)]
    picks = tuple(
        tuple(views[i].setdefault(v, len(views[i])) for i, v in enumerate(act.views))
        for act in acts
    )
    level = [tuple(range(n + 1))]  # round 1 writes the ids
    for rnd in range(1, rounds + 1):
        # per process, a round's states keyed by the ids of the states its
        # view reads: the level before is interned and alive, and each of
        # its states carries its process, so the key names one state.  No
        # state is hashed, which would recurse once per round it nests
        distinct: list[dict] = [{} for _ in views]
        stepped_level = []
        for before in level:
            # per process, the (id, value) its write puts in a snapshot,
            # built once per prefix and shared by every snapshot holding it
            cells = list(enumerate(before))
            ids = list(map(id, before))
            steps = []
            for i, (own_views, own) in enumerate(zip(views, distinct)):
                stepped = []
                for view in own_views:
                    key = tuple(map(ids.__getitem__, view))
                    state = own.get(key)
                    if state is None:
                        state = own[key] = (i, tuple(map(cells.__getitem__, view)))
                    stepped.append(state)
                steps.append(tuple(stepped))
            stepped_level.append(tuple(steps))
        if rnd == rounds:
            return stepped_level, picks
        level = [
            tuple(map(tuple.__getitem__, steps, pick))
            for steps in stepped_level
            for pick in picks
        ]


# ---------------------------------------------------------------------------
# the tables of (n, rounds), built once per key and process and shared by
# the model builders, the solver and the reports

@lru_cache(maxsize=16)
def schedule_texts(n: int, rounds: int) -> tuple[str, ...]:
    """``texts[k]`` is ``enum_schedules(n, rounds)[k].text()``.  The
    canonical order is the cartesian power of the block-action order, so
    the texts are that power of the actions' texts.  No :class:`Schedule`
    record is kept: a caller that needs them calls :func:`enum_schedules`."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    acts = enum_block_actions(n)
    return tuple(map(";".join, iproduct([a.text() for a in acts], repeat=rounds)))


@lru_cache(maxsize=16)
def protocol_frame(n: int, rounds: int) -> KripkeFrame:
    """One state per schedule, two alike for an agent iff the agent's
    final states under them are equal: the frame of the schedule action
    model, whose classes are the solver's view classes.

    Read off the last level of one :func:`final_states` walk as it comes
    out: each agent's states after a prefix are labelled once (equal
    states are one object, so by id, while the level lives) and the
    labels are spread over the actions by the agent's view slots.
    Prefixes in order and slots in index order number the classes by
    first occurrence, since slots are numbered in action order.  The
    level is dropped before the frame is built."""
    prefixes, picks = final_states(n, rounds)
    partitions = []
    for a, slots in enumerate(zip(*picks)):
        seen: dict[int, int] = {}
        row: list[int] = []
        for steps in prefixes:
            labels = [seen.setdefault(id(state), len(seen)) for state in steps[a]]
            row.extend(map(labels.__getitem__, slots))
        partitions.append(row)
    del prefixes
    return new_frame(len(partitions[0]), n + 1, partitions)


# ---------------------------------------------------------------------------
# models

def protocol_action_model(n: int, rounds: int) -> ActionModel:
    """The N-round schedule action model.

    One point per schedule in canonical order; two points are alike for an
    agent iff the agent's final local states under them are equal.  Point
    k's precondition is the point-set {k}: it fires exactly at the input
    state carrying the same schedule.  Points record who observes whom in
    the last round, which is what sequential composition needs.
    """
    frame = protocol_frame(n, rounds)
    preconditions = tuple(frozenset((k,)) for k in range(frame.state_count))
    # who observes whom depends only on the last round, which varies fastest
    acts = enum_block_actions(n)
    sees = tuple(a.views for a in acts) * len(acts) ** (rounds - 1)
    return ActionModel(frame, preconditions, sees)


def _schedule_atoms(n: int, rounds: int) -> tuple[tuple, tuple]:
    """The input atoms and valuation: state k has ``sched_<its text>`` and each ``id_i``."""
    texts = schedule_texts(n, rounds)
    ap = tuple(f"sched_{t}" for t in texts) + tuple(f"id_{i}" for i in range(n + 1))
    ids = frozenset(range(len(texts), len(ap)))
    return ap, tuple(frozenset((k,)) | ids for k in range(len(texts)))


def input_model(n: int, rounds: int) -> KripkeModel:
    """The initial model: one state per schedule, all states alike to every
    process (only the environment knows the schedule).  State atoms name
    the schedule; id atoms hold everywhere."""
    from .logic import KripkeModel

    ap, valuation = _schedule_atoms(n, rounds)
    frame = new_frame(len(valuation), n + 1, [[0] * len(valuation)] * (n + 1))
    return KripkeModel._trusted(frame, ap, valuation)


def protocol_model(n: int, rounds: int) -> KripkeModel:
    """The product update of the input model with the schedule action
    model, read off :func:`protocol_frame`.  Point k's precondition {k}
    keeps exactly the pairs (k, k), and the input frame relates every
    state, so the product is the protocol frame with the input atoms.
    Built, like :func:`input_model`, without the constructor's checks of
    a caller's parts."""
    from .logic import KripkeModel

    return KripkeModel._trusted(protocol_frame(n, rounds), *_schedule_atoms(n, rounds))


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
