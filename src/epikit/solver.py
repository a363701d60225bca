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

from collections.abc import Sequence
from operator import contains

from .kernel import KripkeFrame, new_frame
from .record import Record
from .schedules import protocol_action_model, schedule_context
from .tasks import InputlessTask, Value, _value_to_json


class DecisionMap(Record):
    """Per agent, one output value for each of its view-classes."""

    values: tuple[tuple[Value, ...], ...]  # [agent][class] -> value

    def value(self, agent: int, cls: int) -> Value:
        return self.values[agent][cls]


class SearchStats(Record):
    """What one search did.  ``nodes`` counts decisions, ``backtracks``
    counts conflicts (each ends in a backjump, or at the root in the
    verdict Unsolvable), ``assignments`` counts variables given a value,
    decided or implied, and ``learned`` counts recorded nogoods."""

    nodes: int
    backtracks: int
    assignments: int
    learned: int


class Verdict(Record):
    solvable: bool
    decision: DecisionMap | None
    classes: tuple[tuple[tuple[int, ...], ...], ...]  # [agent][class] -> schedules
    stats: SearchStats

    def __bool__(self) -> bool:
        return self.solvable


class SolverError(ValueError):
    pass


# reasons of an assignment other than the forcing schedule's index
_DECIDED = -1
_LAST_VALUE = -2  # every other value of the variable was removed


class _Search:
    """Conflict-driven search over (agent, view-class) assignments.

    Live tuple sets per schedule are bitmasks; assigning a value
    intersects them with the value's coordinate mask.  A schedule whose
    live tuples all agree on a coordinate forces that value; one whose
    live set empties is a conflict.  Variables are flattened to dense ints
    and a literal ``var = value`` to ``lit_base[var] + choice``.

    Each conflict is explained by the literals behind it, worked out only
    then: a value forced at schedule ``k`` is explained by the earlier
    assignments on that schedule's variables, a variable left with one
    value by the nogoods that removed the others.  Resolving back to the
    first unique implication point of the current level gives a nogood, a
    set of literals no solution holds together (GRASP's 1UIP scheme over
    multi-valued domains).  Literals fixed at the root are dropped from
    it, since the task alone implies them.  The search jumps back to the
    highest other level in the nogood, where all its literals but the
    UIP hold, and removes the UIP's value from that variable's
    remaining-values mask.  Learned nogoods are watched on two literals:
    once all but one hold, the last one's value is removed.  A variable
    with one value left is assigned it, so an unassigned one keeps two or
    more and a removal never empties a domain: the first root propagation
    queues every schedule and so assigns every single-valued variable (or
    meets a conflict, which ends the search), and later a domain that
    falls to one value is assigned at the same level and undone with it.

    Each decision takes the first unassigned variable of an order and its
    smallest remaining value.  The order is the variable numbers until
    the first conflict; its nogood is learned at the root, and from there
    the variables of the most schedules come first (fail first, Haralick
    and Elliott 1980; ties by class index, then agent), which refutes
    sooner.  A complete assignment that order reaches with decisions is
    dropped for a search from the root in number order under every
    nogood.  A search in number order ends with the lexicographically
    first solution S in that order, the certificate plain depth-first
    search would find:

    - Every nogood is implied by the task, so every removed value and
      every implied literal is implied by the task plus the decisions at
      its level and below.
    - Take the lowest-level decision that disagrees with S, on variable x.
      All decisions below it agree with S, so S satisfies everything
      implied at those levels: every variable numbered before x (all
      assigned when x was chosen) has its value in S, and S's value for x
      was not removed.  The smallest remaining value is then smaller
      than S's, so any solution below that decision would precede S;
      there is none, and the search backjumps out of it.
      No nogood excludes S, so the search cannot end Unsolvable; it ends
      only with every decision agreeing with S, and the assignment it
      ends with is S.

    A complete assignment reached at the root is implied by the task, so
    it is the only solution, S.

    The view classes are those of ``frame``, the schedule action model's
    frame, read as its dual complex: the variables are the vertices and
    schedule k constrains facet ``frame.class_ids[k]``.  With ``keep``
    (ascending), as in the trials of :func:`conflict_core`, it searches
    the kept rows over the frame restricted to the kept schedules, whose
    classes are renumbered by first occurrence; a class with no kept
    member is no variable.
    """

    def __init__(
        self,
        task: InputlessTask,
        frame: KripkeFrame,
        keep: Sequence[int] | None = None,
    ):
        rows = task.delta_table
        if keep is not None:
            # the restricted problem: the kept rows over the kept schedules
            rows = [rows[k] for k in keep]
            partitions = [[row[k] for k in keep] for row in frame.partitions]
            frame = new_frame(len(keep), frame.agent_count, partitions)
        n_agents = self.agent_count = task.process_count
        self.variables = [
            (a, c) for a in range(n_agents) for c in range(frame.num_classes(a))
        ]
        n_vars = len(self.variables)
        # per variable: candidate values and the tuple mask of each value,
        # one pair shared by all of an agent's variables (a task without
        # tuples has no values)
        by_agent = [
            (tuple(masks), tuple(masks.values()))
            for masks in task.output.value_masks or ({},) * n_agents
        ]
        self.var_values = [by_agent[a][0] for a, _ in self.variables]
        self.var_masks = [by_agent[a][1] for a, _ in self.variables]
        # a row names a set of tuples, so a repeated index is one tuple
        live = self.live = [0] * len(rows)
        for k, row in enumerate(rows):
            for t in row:
                live[k] |= 1 << t
        # variable (a, c) is number c after the variables of agents 0..a-1,
        # and its schedules are the members of its class
        self.sched_vars = frame.class_ids
        self.touching = [
            members for classes in frame.classes_by_agent for members in classes
        ]
        self.full = [(1 << len(values)) - 1 for values in self.var_values]
        self.lit_base: list[int] = []
        self.lit_var: list[int] = []
        for vid, values in enumerate(self.var_values):
            self.lit_base.append(len(self.lit_var))
            self.lit_var += [vid] * len(values)
        # per literal: the nogoods watching it, and the nogood that last
        # removed its value
        self.watches: list[list[list[int]]] = [[] for _ in self.lit_var]
        self.removed_by: list = [None] * len(self.lit_var)

        self.choice = [-1] * n_vars  # value index, -1 while unassigned
        self.domain = self.full[:]  # remaining value indices as a bitmask
        self.level = [0] * n_vars
        self.reason = [_DECIDED] * n_vars  # or the forcing schedule's index
        self.trail_at = [0] * n_vars
        self.trail: list[int] = []  # assigned variables in order
        self.log: list[tuple[int, int]] = []  # (k, old live) or (~var, old domain)
        self.marks: list[tuple[int, int]] = []  # trail and log length per level
        self.queue: list[int] = []
        self.qhead = 0  # trail variables whose nogood watches were visited
        self.conflict: list[int] = []  # the variables behind the last conflict
        self.nodes = 0
        self.backtracks = 0
        self.assignments = 0
        self.learned = 0

    # -- propagation -------------------------------------------------------

    def _assign(self, vid: int, choice: int, reason: int) -> bool:
        self.assignments += 1
        self.choice[vid] = choice
        self.level[vid] = len(self.marks)
        self.reason[vid] = reason
        self.trail_at[vid] = len(self.trail)
        self.trail.append(vid)
        mask = self.var_masks[vid][choice]
        live = self.live
        for k in self.touching[vid]:
            new = live[k] & mask
            if new != live[k]:
                self.log.append((k, live[k]))
                live[k] = new
                if not new:
                    self.conflict = self._assigned_on(k)
                    return False
                self.queue.append(k)
        return True

    def _remove(self, vid: int, choice: int, nogood: list[int]) -> bool:
        dom = self.domain[vid]
        self.log.append((~vid, dom))
        dom &= ~(1 << choice)
        self.domain[vid] = dom
        self.removed_by[self.lit_base[vid] + choice] = nogood
        if dom & (dom - 1):
            return True
        # one value is left (see the class docstring)
        return self._assign(vid, dom.bit_length() - 1, _LAST_VALUE)

    def _watch(self, lit: int) -> bool:
        """Visit the nogoods watching ``lit``, which now holds."""
        watchers = self.watches[lit]
        if not watchers:
            return True
        self.watches[lit] = kept = []
        choice, lit_var, lit_base = self.choice, self.lit_var, self.lit_base
        for i, nogood in enumerate(watchers):
            if nogood[0] == lit:
                nogood[0], nogood[1] = nogood[1], lit
            for k in range(2, len(nogood)):
                other = nogood[k]
                var = lit_var[other]
                if choice[var] != other - lit_base[var]:
                    nogood[1], nogood[k] = other, lit
                    self.watches[other].append(nogood)
                    break
            else:
                kept.append(nogood)
                last = nogood[0]
                var = lit_var[last]
                c = last - lit_base[var]
                if choice[var] == c:
                    self.conflict = [lit_var[held] for held in nogood]
                elif choice[var] >= 0 or not self.domain[var] >> c & 1:
                    continue
                elif self._remove(var, c, nogood):
                    continue
                kept += watchers[i + 1:]
                return False
        return True

    def _propagate(self) -> bool:
        queue = self.queue
        live = self.live
        choice = self.choice
        trail = self.trail
        while True:
            if self.qhead < len(trail):
                vid = trail[self.qhead]
                self.qhead += 1
                if not self._watch(self.lit_base[vid] + choice[vid]):
                    return False
                continue
            if not queue:
                return True
            k = queue.pop()
            lv = live[k]
            for vid in self.sched_vars[k]:
                if choice[vid] >= 0:
                    continue
                for c, mask in enumerate(self.var_masks[vid]):
                    if lv & ~mask == 0:
                        if not self.domain[vid] >> c & 1:
                            # forced to a value a nogood removed
                            self.conflict = self._assigned_on(k)
                            self.conflict += self._removal_reasons(vid, 1 << c)
                            return False
                        if not self._assign(vid, c, k):
                            return False
                        break

    # -- conflict analysis -------------------------------------------------

    def _removal_reasons(self, vid: int, removed: int) -> list[int]:
        """The variables behind the removal of each value in ``removed``."""
        out = []
        base = self.lit_base[vid]
        while removed:
            c = (removed & -removed).bit_length() - 1
            removed &= removed - 1
            out += [self.lit_var[lit] for lit in self.removed_by[base + c]]
        return [u for u in out if u != vid]

    def _assigned_on(self, k: int) -> list[int]:
        return [u for u in self.sched_vars[k] if self.choice[u] >= 0]

    def _explain(self, vid: int) -> list[int]:
        """The assigned variables that implied ``vid``'s value."""
        reason = self.reason[vid]
        if reason == _LAST_VALUE:
            return self._removal_reasons(vid, self.full[vid] & ~self.domain[vid])
        at = self.trail_at[vid]
        return [
            u for u in self._assigned_on(reason)
            if u != vid and self.trail_at[u] < at
        ]

    def _analyze(self) -> list[int]:
        """The 1UIP nogood of the current conflict: the UIP's literal
        first, then the literal of highest level among the rest."""
        depth = len(self.marks)
        level = self.level
        seen: set[int] = set()
        lower: list[int] = []
        pending = 0
        frontier = self.conflict
        i = len(self.trail)
        while True:
            for u in frontier:
                if u not in seen:
                    seen.add(u)
                    if level[u] == depth:
                        pending += 1
                    elif level[u] > 0:
                        lower.append(u)
            i -= 1
            while self.trail[i] not in seen:
                i -= 1
            uip = self.trail[i]
            pending -= 1
            if not pending:
                break
            frontier = self._explain(uip)
        lower.sort(key=level.__getitem__, reverse=True)
        return [self.lit_base[u] + self.choice[u] for u in [uip] + lower]

    def _backjump(self, depth: int):
        trail_len, log_len = self.marks[depth]
        del self.marks[depth:]
        for vid in self.trail[trail_len:]:
            self.choice[vid] = -1
        del self.trail[trail_len:]
        log, live, domain = self.log, self.live, self.domain
        while len(log) > log_len:
            key, old = log.pop()
            if key >= 0:
                live[key] = old
            else:
                domain[~key] = old
        self.qhead = trail_len
        self.queue.clear()

    def _learn(self, nogood: list[int]) -> bool:
        """Record ``nogood``, and remove its UIP value unless the search
        returned to the root, where no other literal holds."""
        self.learned += 1
        if len(nogood) > 1:
            self.watches[nogood[0]].append(nogood)
            self.watches[nogood[1]].append(nogood)
            if self.choice[self.lit_var[nogood[1]]] < 0:
                return True
        vid = self.lit_var[nogood[0]]
        return self._remove(vid, nogood[0] - self.lit_base[vid], nogood)

    # -- search ------------------------------------------------------------

    def run(self) -> bool:
        """True when a complete assignment exists; :meth:`decision` reads
        it off."""
        if not all(self.live):
            return False  # a schedule allows no tuple
        self.queue = list(range(len(self.live)))
        canonical = range(len(self.variables))
        found = self._decide(canonical, self._propagate(), restart=True)
        if found is None:
            nogood = self._analyze()
            self._backjump(0)
            ok = self._learn(nogood) and self._propagate()
            found = self._decide(self._refutation_order(), ok)
            if found and self.marks:
                self._backjump(0)
                found = self._decide(canonical, True)
        return found

    def _refutation_order(self) -> list[int]:
        """The variables by the number of schedules they constrain, most
        first, then by class index, then by agent."""
        touching, variables = self.touching, self.variables
        return sorted(
            range(len(variables)),
            key=lambda v: (-len(touching[v]), variables[v][1], variables[v][0]),
        )

    def _decide(self, order, ok: bool, restart: bool = False) -> bool | None:
        """Decide in ``order`` from the root, whose propagation returned
        ``ok``: True once every variable has a value, False at a conflict
        at the root, and with ``restart`` None at the first conflict."""
        choice = self.choice
        n_vars = len(order)
        pos = 0
        decided_at: list[int] = []  # per level, its decision's position
        while True:
            while not ok:
                self.backtracks += 1
                if not self.marks:
                    return False
                if restart:
                    return None
                nogood = self._analyze()
                back = self.level[self.lit_var[nogood[1]]] if len(nogood) > 1 else 0
                pos = decided_at[back]
                del decided_at[back:]
                self._backjump(back)
                ok = self._learn(nogood) and self._propagate()
            while pos < n_vars and choice[order[pos]] >= 0:
                pos += 1
            if pos == n_vars:
                return True
            vid = order[pos]
            decided_at.append(pos)
            self.nodes += 1
            self.marks.append((len(self.trail), len(self.log)))
            dom = self.domain[vid]
            ok = (
                self._assign(vid, (dom & -dom).bit_length() - 1, _DECIDED)
                and self._propagate()
            )

    def decision(self) -> DecisionMap:
        """The assignment :meth:`run` found, per agent in class order."""
        values: list[list[Value]] = [[] for _ in range(self.agent_count)]
        for vid, (a, _) in enumerate(self.variables):
            values[a].append(self.var_values[vid][self.choice[vid]])
        return DecisionMap(tuple(tuple(v) for v in values))


def solve(task: InputlessTask) -> Verdict:
    """Complete search over decision maps, learning a nogood from every
    conflict (see :class:`_Search`).

    A Solvable verdict carries the canonically first certificate and is
    re-verified through the simulator path before being returned.
    """
    frame = protocol_action_model(task.n, task.rounds).frame
    classes = frame.classes_by_agent
    search = _Search(task, frame)
    solvable = search.run()
    stats = SearchStats(
        search.nodes, search.backtracks, search.assignments, search.learned
    )
    if not solvable:
        return Verdict(False, None, classes, stats)
    decision = search.decision()
    if not verify_certificate(task, decision):
        raise SolverError("internal error: found certificate failed verification")
    return Verdict(True, decision, classes, stats)


def verify_certificate(task: InputlessTask, decision: DecisionMap) -> bool:
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
    memory simulator, in one walk of the schedule tree
    (:func:`simengine.class_rows`), not by reusing the view algebra: the
    walk reads what each process snapshots off the scheduler's writes to
    an array, never off a view, so it stays an oracle.  Each agent's
    classes come as one row over the schedules, numbered by first
    occurrence as :attr:`ScheduleContext.frame` numbers the view
    algebra's, and the row must equal the frame's: any disagreement
    between the simulator and the view algebra is refused, whatever the
    map decides.  With the rows equal, schedule k decides the map's value
    for its class, so the morphism condition holds by construction; the
    induced tuples are then looked up and checked against the task's
    rows in one pass each.  Raises on partial maps and on agent-count or
    class-count mismatches, before any refusal.
    """
    from . import simengine

    ctx = schedule_context(task.n, task.rounds)
    n_agents = task.process_count
    if len(decision.values) != n_agents:
        raise SolverError(
            f"decision map covers {len(decision.values)} agents, "
            f"the task has {n_agents}"
        )
    agrees = True
    decided = []
    for a, ((labels, count), row) in enumerate(
        zip(simengine.class_rows(task.n, task.rounds), ctx.frame.partitions)
    ):
        if len(decision.values[a]) != count:
            raise SolverError(
                f"decision map for agent {a} covers {len(decision.values[a])} "
                f"classes, simulator found {count}"
            )
        agrees = agrees and labels == row
        decided.append(map(decision.values[a].__getitem__, row))
    if not agrees:
        return False
    image = map(task.output.index.get, zip(*decided))
    return all(map(contains, task.delta_table, image))


def conflict_core(task: InputlessTask) -> tuple[int, ...]:
    """Greedy shrink of the schedule set keeping unsolvability.

    Drops canonical-order blocks of schedules while unsolvability
    survives, halving the block size down to single deletions.  The final
    single-deletion pass makes the result minimal: removing any one
    member restores solvability.  Each trial searches the task restricted
    to the schedules it keeps, so it costs time in those schedules only.

    A trial that drops schedules and stays unsolvable proves the whole
    task unsolvable, since a solution would restrict to its schedules;
    so the whole task is searched only when the shrink dropped nothing.
    """
    frame = schedule_context(task.n, task.rounds).frame
    core = list(range(len(task.delta_table)))
    chunk = max(1, len(core) // 2)
    while chunk >= 1:
        pos = 0
        while pos < len(core):
            trial = core[:pos] + core[pos + chunk:]
            if not _Search(task, frame, trial).run():
                core = trial
            else:
                pos += chunk
        chunk //= 2
    if len(core) == len(task.delta_table) and _Search(task, frame).run():
        raise SolverError("conflict core requested for a solvable task")
    return tuple(core)


def verdict_report(task: InputlessTask, verdict: Verdict) -> dict:
    """The verdict with class inventories and search statistics, JSON-ready;
    only an unsolvable verdict searches again, for its conflict core."""
    texts = schedule_context(task.n, task.rounds).texts
    report = {
        "task": task.name,
        "n": task.n,
        "rounds": task.rounds,
        "solvable": verdict.solvable,
        "states": len(texts),
        "class_counts": [len(by_agent) for by_agent in verdict.classes],
        "classes": _class_texts(texts, verdict),
        "search_nodes": verdict.stats.nodes,
        "search_backtracks": verdict.stats.backtracks,
        "search_assignments": verdict.stats.assignments,
    }
    if verdict.solvable:
        report["decision"] = _decision_values(verdict)
    else:
        core = conflict_core(task)
        report["conflict_core"] = [texts[k] for k in core]
    return report


def _class_texts(texts: tuple[str, ...], verdict: Verdict) -> list:
    return [
        [[texts[k] for k in members] for members in by_agent]
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
    texts = schedule_context(task.n, task.rounds).texts
    return {
        "task": task.name,
        "n": task.n,
        "N": task.rounds,
        "decision": _decision_values(verdict),
        "classes": _class_texts(texts, verdict),
    }
