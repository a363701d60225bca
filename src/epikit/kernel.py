"""Kripke frames, frame morphisms, action models, products, and
isomorphism search.

A frame stores one equivalence relation per agent as dense class labels:
``partitions[a][s]`` is the class of state ``s`` for agent ``a``, and two
states are related for ``a`` exactly when their labels are equal.  All
structures are immutable; every operation here is a pure function.

The action model record is kept here, with the frames, and not with the
formulas of :mod:`epikit.logic`: deciding a task reads action frames but
evaluates no formula, so it loads no formula code.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Hashable, Iterator, Sequence
from functools import cached_property

from .record import Record


class KripkeFrame(Record):
    """States plus one equivalence partition per agent.

    Labels are dense per agent (0..num_classes-1, numbered by first
    occurrence).  Construct through :func:`new_frame`, which canonicalizes
    arbitrary labels.  Zero-state frames are allowed; they arise from
    product updates whose preconditions enable nothing.
    """

    state_count: int
    agent_count: int
    partitions: tuple[tuple[int, ...], ...]  # [agent][state] -> class label

    def related(self, agent: int, u: int, v: int) -> bool:
        return self.partitions[agent][u] == self.partitions[agent][v]

    def num_classes(self, agent: int) -> int:
        row = self.partitions[agent]
        return max(row) + 1 if row else 0

    @cached_property
    def classes_by_agent(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each agent, the states of each class, class index order."""
        out = []
        for a in range(self.agent_count):
            row = self.partitions[a]
            buckets: list[list[int]] = [[] for _ in range(self.num_classes(a))]
            for s, c in enumerate(row):
                buckets[c].append(s)
            out.append(tuple(tuple(b) for b in buckets))
        return tuple(out)

    @cached_property
    def class_ids(self) -> tuple[tuple[int, ...], ...]:
        """For each state, its class under each agent, numbered across the
        agents: agent a's class c is number c after all classes of agents
        0..a-1.  The numbers rise with the agent, so a state's tuple is
        its facet in the dual complex, in ascending order."""
        columns = []
        offset = 0
        for a, row in enumerate(self.partitions):
            columns.append(map(offset.__add__, row))
            offset += self.num_classes(a)
        return tuple(zip(*columns))

    def states(self) -> range:
        return range(self.state_count)


class FrameMorphism(Record):
    """A total map of states, ``mapping[u]`` = image of state ``u``."""

    mapping: tuple[int, ...]

    def __call__(self, state: int) -> int:
        return self.mapping[state]


class ActionModel(Record):
    """Action points with per-agent indistinguishability and preconditions.

    A precondition is a formula of :mod:`epikit.logic` or a frozen set of
    the input states where the point fires.  ``sees``, when present,
    records for each point and agent which agents' current states that
    agent observes while the action runs.  Schedule actions carry it (a
    process reads the states of everyone scheduled before or with it); it
    is what makes iterated composition reproduce the multi-round relation,
    since a later round re-announces the states of every process a
    snapshot contains.
    """

    frame: KripkeFrame
    preconditions: tuple["Formula | frozenset[int]", ...]
    sees: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    def __post_init__(self):
        if len(self.preconditions) != self.frame.state_count:
            raise ValueError("need one precondition per action point")

    @property
    def point_count(self) -> int:
        return self.frame.state_count


def new_frame(
    state_count: int,
    agent_count: int,
    partitions: Sequence[Sequence[Hashable]],
) -> KripkeFrame:
    """Build a canonical frame from per-agent labelings.

    Labels may be any hashable values; they are renumbered densely per
    agent in order of first occurrence (gaps are silently closed).  A
    row already numbered so is kept as it is, found with one hash pass
    over its labels and one pass over their types: it must hold ``int``
    labels alone, so ``False``/``True`` or ``0.0`` labels are renumbered
    to ints.  Raises ValueError on shape mismatch.
    """
    if state_count < 0 or agent_count < 1:
        raise ValueError("state_count must be >= 0 and agent_count >= 1")
    if len(partitions) != agent_count:
        raise ValueError(
            f"expected {agent_count} agent labelings, got {len(partitions)}"
        )
    canon: list[tuple[int, ...]] = []
    for a, row in enumerate(partitions):
        row = tuple(row)
        if len(row) != state_count:
            raise ValueError(
                f"agent {a}: labeling covers {len(row)} states, frame has {state_count}"
            )
        labels = dict.fromkeys(row)  # in order of first occurrence
        dense = list(labels) == list(range(len(labels)))
        if not (dense and list(map(type, row)).count(int) == len(row)):
            number = dict(zip(labels, range(len(labels))))
            row = tuple(map(number.__getitem__, row))
        canon.append(row)
    return KripkeFrame(state_count, agent_count, tuple(canon))


def is_proper(frame: KripkeFrame) -> bool:
    """True iff no two distinct states are related for every agent."""
    return len(set(frame.class_ids)) == frame.state_count


def product(
    f: KripkeFrame, g: KripkeFrame
) -> tuple[KripkeFrame, FrameMorphism, FrameMorphism]:
    """Cartesian product frame plus its two projections.

    States are pairs in row-major order (s * |G| + t); a pair is related
    for an agent exactly when both components are.  The projections are
    Kripke frame morphisms.
    """
    if f.agent_count != g.agent_count:
        raise ValueError("product requires equal agent counts")
    nf, ng = f.state_count, g.state_count
    partitions = []
    for a in range(f.agent_count):
        width, row_g = g.num_classes(a), g.partitions[a]
        partitions.append(
            [c * width + d for c in f.partitions[a] for d in row_g]
        )
    prod = new_frame(nf * ng, f.agent_count, partitions)
    proj_f = FrameMorphism(tuple(s for s in range(nf) for _ in range(ng)))
    proj_g = FrameMorphism(tuple(t for _ in range(nf) for t in range(ng)))
    return prod, proj_f, proj_g


def is_morphism(f: FrameMorphism, src: KripkeFrame, dst: KripkeFrame) -> bool:
    """Check u ~_a v implies f(u) ~_a f(v) for all pairs and agents.

    Raises ValueError if the frames have different agent counts, or if
    the map is not total on src or hits an out-of-range codomain index.
    """
    if src.agent_count != dst.agent_count:
        raise ValueError("morphism requires equal agent counts")
    if len(f.mapping) != src.state_count:
        raise ValueError("morphism map must be total on the source frame")
    for img in f.mapping:
        if not 0 <= img < dst.state_count:
            raise ValueError(f"codomain index {img} out of range")
    # per agent, every source class must land inside one target class
    for a in range(src.agent_count):
        for members in src.classes_by_agent[a]:
            first = dst.partitions[a][f.mapping[members[0]]]
            for s in members[1:]:
                if dst.partitions[a][f.mapping[s]] != first:
                    return False
    return True


def identity_morphism(frame: KripkeFrame) -> FrameMorphism:
    return FrameMorphism(tuple(range(frame.state_count)))


def _refine_colors(f: KripkeFrame, g: KripkeFrame) -> tuple[list[int], list[int]]:
    """Joint color refinement of two frames.

    Colors are comparable across the frames: states that could correspond
    under an isomorphism always get equal colors.  Used as pruning before
    the backtracking search.  A state's new color is its color and, per
    agent, the sorted colors of its class; each class's sorted colors are
    worked out once and numbered in a table both frames share, so a
    round costs time linear in the states, up to the sorting.
    """
    cf = [0] * f.state_count
    cg = [0] * g.state_count
    while True:
        class_numbers: dict[tuple[int, ...], int] = {}
        table: dict[tuple[int, ...], int] = {}

        def refine(frame: KripkeFrame, colors: list[int]) -> list[int]:
            columns = []
            for classes, row in zip(frame.classes_by_agent, frame.partitions):
                numbers = [
                    class_numbers.setdefault(
                        tuple(sorted(map(colors.__getitem__, members))), len(class_numbers)
                    )
                    for members in classes
                ]
                columns.append(map(numbers.__getitem__, row))
            return [table.setdefault(sig, len(table)) for sig in zip(colors, *columns)]

        nf = refine(f, cf)
        ng = refine(g, cg)
        if nf == cf and ng == cg:
            return cf, cg
        cf, cg = nf, ng


def find_isomorphism(f: KripkeFrame, g: KripkeFrame) -> FrameMorphism | None:
    """Search for a bijective morphism whose inverse is a morphism.

    Color refinement alone prunes before the search.  Its first round
    colors each state by its class size under each agent, and later
    rounds only split colors, so frames whose class sizes differ under
    some agent end with different color multisets.  Intended for
    desk-scale frames (a few thousand states).  Returns the witness map
    or None.
    """
    if f.state_count != g.state_count or f.agent_count != g.agent_count:
        return None
    cf, cg = _refine_colors(f, g)
    if sorted(cf) != sorted(cg):
        return None

    by_color: dict[int, list[int]] = {}
    for t, c in enumerate(cg):
        by_color.setdefault(c, []).append(t)
    # most-constrained first: rarest color, then index for determinism
    order = sorted(f.states(), key=lambda s: (len(by_color.get(cf[s], ())), s))

    n_agents = f.agent_count
    mapping: list[int] = [-1] * f.state_count
    used = [False] * g.state_count
    cls_fwd: list[dict[int, int]] = [{} for _ in range(n_agents)]
    cls_rev: list[dict[int, int]] = [{} for _ in range(n_agents)]

    def assign(s: int, t: int) -> list[tuple[int, int]] | None:
        """Try f(s)=t; returns the class-pairings added, or None on clash."""
        added: list[tuple[int, int]] = []
        for a in range(n_agents):
            cs, ct = f.partitions[a][s], g.partitions[a][t]
            bound = cls_fwd[a].get(cs)
            if bound is not None:
                if bound != ct:
                    break
                continue
            # s and t share a color, so their classes have one size
            if ct in cls_rev[a]:
                break
            cls_fwd[a][cs] = ct
            cls_rev[a][ct] = cs
            added.append((a, cs))
        else:
            return added
        for a, cs in added:
            del cls_rev[a][cls_fwd[a].pop(cs)]
        return None

    # a loop over an explicit stack, so the frame size is not bounded by
    # the recursion limit: tried[i] holds the candidate index taken at
    # order[i] and the class pairings its assignment added
    tried: list[tuple[int, list[tuple[int, int]]]] = []
    pos = start = 0
    while pos < len(order):
        s = order[pos]
        candidates = by_color.get(cf[s], ())
        for i in range(start, len(candidates)):
            t = candidates[i]
            if used[t]:
                continue
            added = assign(s, t)
            if added is None:
                continue
            mapping[s] = t
            used[t] = True
            tried.append((i, added))
            pos, start = pos + 1, 0
            break
        else:
            if not tried:
                return None
            pos -= 1
            i, added = tried.pop()
            s = order[pos]
            used[mapping[s]] = False
            mapping[s] = -1
            for a, cs in added:
                del cls_rev[a][cls_fwd[a].pop(cs)]
            start = i + 1
    return FrameMorphism(tuple(mapping))


def are_isomorphic(f: KripkeFrame, g: KripkeFrame) -> bool:
    return find_isomorphism(f, g) is not None


# ---------------------------------------------------------------------------
# serialization

def agent_name(i: int) -> str:
    """Process display names: p, q, r, ... then a<i>."""
    if 0 <= i < 11:
        return chr(ord("p") + i)
    return f"a{i}"


def frame_to_json(frame: KripkeFrame) -> dict:
    return {
        "states": frame.state_count,
        "agents": frame.agent_count,
        "partitions": [list(row) for row in frame.partitions],
    }


class FormatError(ValueError):
    """JSON data without the documented shape of a frame or a model."""


def _check_json_object(data, name: str, keys: Sequence[str], error: type) -> None:
    """Raise ``error`` unless ``data`` is a JSON object with all ``keys``."""
    if not isinstance(data, dict):
        raise error(f"a {name} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise error(f"{name} is missing {', '.join(missing)}")


def frame_from_json(data: dict) -> KripkeFrame:
    """The frame :func:`frame_to_json` wrote.  Anything else, such as a
    missing key, a count that is not an integer or a partition row of the
    wrong length, raises :class:`FormatError`."""
    _check_json_object(data, "frame", ("states", "agents", "partitions"), FormatError)
    states, agents, partitions = data["states"], data["agents"], data["partitions"]
    if type(states) is not int or states < 0:
        raise FormatError("states must be an integer >= 0")
    if type(agents) is not int or agents < 1:
        raise FormatError("agents must be an integer >= 1")
    if (
        not isinstance(partitions, list)
        or len(partitions) != agents
        or not all(isinstance(row, list) and len(row) == states for row in partitions)
    ):
        raise FormatError(
            f"partitions must be {agents} lists of {states} class labels"
        )
    if not all(type(label) is int for row in partitions for label in row):
        raise FormatError("class labels must be integers")
    return new_frame(states, agents, partitions)


def _related_pairs(frame: KripkeFrame) -> Iterator[tuple[int, int, list[int]]]:
    """``(u, v, agents)`` for every related pair u < v in (u, v) order,
    ``agents`` the relating agents in ascending order.  Each state's
    classes are walked once, from the state onward, so the time is linear
    in the related pairs (up to sorting each state's later partners), not
    quadratic in the states."""
    classes, rows = frame.classes_by_agent, frame.partitions
    for u in frame.states():
        agents_of: dict[int, list[int]] = {}
        for a in range(frame.agent_count):
            members = classes[a][rows[a][u]]
            for v in members[bisect_right(members, u):]:
                agents_of.setdefault(v, []).append(a)
        for v in sorted(agents_of):
            yield u, v, agents_of[v]


def frame_to_dot(frame: KripkeFrame) -> str:
    """DOT rendering: one node per state, one undirected edge per related
    pair, edge labels the comma-joined names of the relating agents."""
    names = [agent_name(a) for a in range(frame.agent_count)]
    lines = ["graph frame {", "  node [shape=circle];"]
    for s in frame.states():
        lines.append(f'  s{s} [label="{s}"];')
    for u, v, agents in _related_pairs(frame):
        relating = ",".join(names[a] for a in agents)
        lines.append(f'  s{u} -- s{v} [label="{relating}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
