"""Decide inputless-task solvability by exhaustive decision-map search.

A protocol solves a task exactly when there is a knowledge-respecting map
from the protocol model to the task's output model that picks an allowed
tuple for every schedule.  Because output states are related per agent by
decision equality, any such map is determined by one value per (agent,
view-class) pair, so the search runs over decision maps instead of raw
state maps.  Verdicts are deterministic: variables are ordered agent by
agent, classes by first occurrence, values by first tuple occurrence, and
the first satisfying assignment is the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import simengine
from .kernel import FrameMorphism, KripkeFrame, is_morphism
from .schedules import Abstraction, protocol_action_model, schedule_context
from .tasks import InputlessTask, Value, _value_to_json


@dataclass(frozen=True)
class DecisionMap:
    """Per agent, one output value for each of its view-classes."""

    values: tuple[tuple[Value, ...], ...]  # [agent][class] -> value

    def value(self, agent: int, cls: int) -> Value:
        return self.values[agent][cls]


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    backtracks: int
    assignments: int


@dataclass(frozen=True)
class Verdict:
    solvable: bool
    decision: DecisionMap | None
    classes: tuple[tuple[tuple[int, ...], ...], ...]  # [agent][class] -> schedules
    stats: SearchStats

    def __bool__(self) -> bool:
        return self.solvable


class SolverError(ValueError):
    pass


class _Search:
    """Backtracking over (agent, view-class) assignments.

    Live tuple sets per schedule are bitmasks; assigning a value
    intersects them with the value's coordinate mask.  Forced values
    (every live tuple of some schedule agreeing on a coordinate) are
    propagated through a work queue before branching, which never skips a
    solution, so the first one found under the canonical variable and
    value order is still the canonically first certificate.  Variables
    are flattened to dense ints for the hot loop.  The view classes are
    those of ``frame``, the schedule action model's frame.
    """

    def __init__(
        self,
        task: InputlessTask,
        frame: KripkeFrame,
        keep: Sequence[int] | None = None,
    ):
        tuples = task.output.tuples
        n_agents = self.agent_count = task.process_count
        self.variables = [
            (a, c)
            for a in range(n_agents)
            for c in range(len(frame.classes_by_agent[a]))
        ]
        var_id = {v: i for i, v in enumerate(self.variables)}
        n_vars = len(self.variables)
        domains = [task.output.values_for(a) for a in range(n_agents)]
        # per variable: candidate values and the tuple mask of each value
        self.var_values: list[tuple] = [()] * n_vars
        self.var_masks: list[tuple[int, ...]] = [()] * n_vars
        for (a, c), vid in var_id.items():
            self.var_values[vid] = tuple(domains[a])
            self.var_masks[vid] = tuple(
                sum(1 << t for t, out in enumerate(tuples) if out[a] == value)
                for value in domains[a]
            )
        kept = range(len(task.delta_table)) if keep is None else keep
        self.sched_ids = list(kept)
        self.live = [
            sum(1 << t for t in task.delta_table[k]) for k in self.sched_ids
        ]
        self.sched_vars = [
            tuple(var_id[(a, frame.partitions[a][k])] for a in range(n_agents))
            for k in self.sched_ids
        ]
        self.touching: list[list[int]] = [[] for _ in range(n_vars)]
        for pos, svars in enumerate(self.sched_vars):
            for vid in svars:
                self.touching[vid].append(pos)
        # only variables under some kept constraint are worth branching on;
        # the rest take their first domain value (their canonical choice)
        self.branch_order = [
            vid for vid in range(n_vars) if self.touching[vid]
        ]
        self.value_of: list = [None] * n_vars
        self.nodes = 0
        self.backtracks = 0
        self.assignments = 0

    def _assign(self, vid: int, choice: int, trail: list) -> bool:
        self.assignments += 1
        self.value_of[vid] = self.var_values[vid][choice]
        trail.append((-1, vid))
        mask = self.var_masks[vid][choice]
        live = self.live
        for pos in self.touching[vid]:
            new = live[pos] & mask
            if new != live[pos]:
                trail.append((pos, live[pos]))
                live[pos] = new
                if not new:
                    return False
                self.queue.append(pos)
        return True

    def _propagate(self, trail: list) -> bool:
        queue = self.queue
        live = self.live
        value_of = self.value_of
        while queue:
            pos = queue.pop()
            lv = live[pos]
            for vid in self.sched_vars[pos]:
                if value_of[vid] is not None:
                    continue
                for choice, mask in enumerate(self.var_masks[vid]):
                    if lv & ~mask == 0:
                        if not self._assign(vid, choice, trail):
                            return False
                        break
        return True

    def _undo(self, trail: list):
        value_of = self.value_of
        live = self.live
        while trail:
            key, old = trail.pop()
            if key < 0:
                value_of[old] = None
            else:
                live[key] = old

    def run(self) -> bool:
        """True when a complete assignment exists; :meth:`decision` reads
        it off."""
        self.queue: list[int] = list(range(len(self.sched_ids)))
        return self._propagate([]) and self._search()

    def decision(self) -> DecisionMap:
        """The assignment :meth:`run` found, per agent in class order."""
        values: list[list[Value]] = [[] for _ in range(self.agent_count)]
        for vid, (a, _) in enumerate(self.variables):
            value = self.value_of[vid]
            values[a].append(self.var_values[vid][0] if value is None else value)
        return DecisionMap(tuple(tuple(v) for v in values))

    def _search(self) -> bool:
        """Depth-first over ``branch_order`` with an explicit stack, so no
        recursion limit bounds the number of branching levels.  A node is
        opened at the first unassigned variable past its parent's; its
        values are tried in order, each undone before the next."""
        value_of = self.value_of
        order = self.branch_order
        stack: list[list] = []  # per open node: [pos, vid, next choice, trail]
        pos = 0
        while True:
            while pos < len(order) and value_of[order[pos]] is not None:
                pos += 1
            if pos == len(order):
                return True
            self.nodes += 1
            stack.append([pos, order[pos], 0, []])
            while True:
                if not stack:
                    return False
                node = stack[-1]
                pos, vid, choice, trail = node
                self._undo(trail)
                if choice == len(self.var_values[vid]):
                    self.backtracks += 1
                    stack.pop()
                    continue
                node[2] = choice + 1
                self.queue = []
                if self._assign(vid, choice, trail) and self._propagate(trail):
                    pos += 1
                    break


def solve(
    task: InputlessTask,
    n: int | None = None,
    rounds: int | None = None,
    abstraction: Abstraction | None = None,
) -> Verdict:
    """Complete backtracking search over decision maps.

    Any schedule whose compatible tuple set empties prunes the branch.  A
    Solvable verdict is re-verified through the simulator path before
    being returned.
    """
    n = task.n if n is None else n
    rounds = task.rounds if rounds is None else rounds
    if n != task.n or rounds != task.rounds:
        raise SolverError(
            f"task {task.name!r} is tabulated for n={task.n}, rounds={task.rounds}"
        )
    frame = protocol_action_model(task.n, task.rounds, abstraction).frame
    classes = frame.classes_by_agent
    if task.empty_schedules:
        return Verdict(False, None, classes, SearchStats(0, 0, 0))

    search = _Search(task, frame)
    solvable = search.run()
    stats = SearchStats(search.nodes, search.backtracks, search.assignments)
    if not solvable:
        return Verdict(False, None, classes, stats)
    decision = search.decision()
    if not verify_certificate(task, n, rounds, decision, abstraction):
        raise SolverError("internal error: found certificate failed verification")
    return Verdict(True, decision, classes, stats)


def verify_certificate(
    task: InputlessTask,
    n: int,
    rounds: int,
    decision: DecisionMap,
    abstraction: Abstraction | None = None,
) -> bool:
    """Re-check a decision map through the simulator.

    Solvability is one condition: the map sending schedule k to the
    tuple t_k its processes decide is a morphism from the protocol frame
    to the output frame, where t and t' are related for agent a iff
    t[a] == t'[a], and every t_k is allowed at k.  This is the paper's
    model-morphism form: the input model relates all states for every
    agent and both the protocol and the output model give state k the
    input valuation of k, so k -> (k, t_k) is a morphism of Kripke models
    exactly when the projected map is a frame morphism.  On proper frames
    a frame morphism always translates to a chromatic simplicial map onto
    the output complex (the duality of :mod:`epikit.topology`).

    View classes are re-derived by running every schedule once in the
    memory simulator and grouping final states, not by reusing the view
    algebra; the morphism check against the view algebra's frame is what
    makes the two agree.  Raises on partial maps or class-count
    mismatches.
    """
    if n != task.n or rounds != task.rounds:
        raise SolverError(
            f"task {task.name!r} is tabulated for n={task.n}, rounds={task.rounds}"
        )
    scheds = schedule_context(n, rounds).schedules
    n_agents = task.process_count
    # simulator-side classes, numbered by first occurrence
    index: list[dict[object, int]] = [{} for _ in range(n_agents)]
    sim_class: list[list[int]] = [[] for _ in range(n_agents)]
    for sched in scheds:
        finals = simengine.run(sched, abstraction).finals
        for a in range(n_agents):
            sim_class[a].append(index[a].setdefault(finals[a], len(index[a])))
    for a in range(n_agents):
        if len(decision.values[a]) != max(sim_class[a]) + 1:
            raise SolverError(
                f"decision map for agent {a} covers {len(decision.values[a])} "
                f"classes, simulator found {max(sim_class[a]) + 1}"
            )

    tuple_index = {t: i for i, t in enumerate(task.output.tuples)}
    image = []
    for k in range(len(scheds)):
        out = tuple(decision.value(a, sim_class[a][k]) for a in range(n_agents))
        if not task.allows(k, out):
            return False
        image.append(tuple_index[out])
    frame = protocol_action_model(n, rounds, abstraction).frame
    return is_morphism(FrameMorphism(tuple(image)), frame, task.output.frame)


def _solve_restricted(
    task: InputlessTask, keep: Sequence[int], frame: KripkeFrame
) -> bool:
    """Solvability over a subset of schedules (used for conflict cores).
    Classes stay those of the full model; dropped schedules impose no
    constraint."""
    if any(not task.delta_table[k] for k in keep):
        return False
    return _Search(task, frame, keep).run()


def conflict_core(
    task: InputlessTask, abstraction: Abstraction | None = None
) -> tuple[int, ...]:
    """Greedy shrink of the schedule set keeping unsolvability.

    Drops canonical-order blocks of schedules while unsolvability
    survives, halving the block size down to single deletions.  The final
    single-deletion pass makes the result minimal: removing any one
    member restores solvability.
    """
    frame = protocol_action_model(task.n, task.rounds, abstraction).frame
    everything = range(len(task.delta_table))
    if _solve_restricted(task, everything, frame):
        raise SolverError("conflict core requested for a solvable task")
    core = list(everything)
    chunk = max(1, len(core) // 2)
    while chunk >= 1:
        pos = 0
        while pos < len(core):
            trial = core[:pos] + core[pos + chunk:]
            if not _solve_restricted(task, trial, frame):
                core = trial
            else:
                pos += chunk
        chunk = chunk // 2 if chunk > 1 else 0
    return tuple(core)


def solve_report(
    task: InputlessTask,
    n: int | None = None,
    rounds: int | None = None,
    abstraction: Abstraction | None = None,
) -> dict:
    """Verdict plus class inventories and search statistics, JSON-ready."""
    return verdict_report(task, solve(task, n, rounds, abstraction), abstraction)


def verdict_report(
    task: InputlessTask, verdict: Verdict, abstraction: Abstraction | None = None
) -> dict:
    """The :func:`solve_report` of a verdict already found for the task;
    only an unsolvable verdict searches again, for its conflict core."""
    scheds = schedule_context(task.n, task.rounds).schedules
    report = {
        "task": task.name,
        "n": task.n,
        "rounds": task.rounds,
        "solvable": verdict.solvable,
        "states": len(scheds),
        "class_counts": [len(by_agent) for by_agent in verdict.classes],
        "classes": _class_texts(scheds, verdict),
        "search_nodes": verdict.stats.nodes,
        "search_backtracks": verdict.stats.backtracks,
        "search_assignments": verdict.stats.assignments,
    }
    if verdict.solvable:
        report["decision"] = _decision_values(verdict)
    else:
        core = conflict_core(task, abstraction)
        report["conflict_core"] = [scheds[k].text() for k in core]
    return report


def _class_texts(scheds, verdict: Verdict) -> list:
    return [
        [[scheds[k].text() for k in members] for members in by_agent]
        for by_agent in verdict.classes
    ]


def _decision_values(verdict: Verdict) -> list:
    return [
        [_value_to_json(v) for v in per_agent] for per_agent in verdict.decision.values
    ]


def decision_to_json(task: InputlessTask, verdict: Verdict) -> dict:
    """Certificate file contents: values per class plus class membership
    in canonical schedule order."""
    if not verdict.solvable:
        raise SolverError("no certificate for an unsolvable task")
    scheds = schedule_context(task.n, task.rounds).schedules
    return {
        "task": task.name,
        "n": task.n,
        "N": task.rounds,
        "decision": _decision_values(verdict),
        "classes": _class_texts(scheds, verdict),
    }
