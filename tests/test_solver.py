"""Solvability search, certificates, and reports.

Unsolvability verdicts are cross-checked by brute-force enumeration of
every decision map (16 maps for two-process testset, 4096 for the
three-process task at one round), written against raw views without the
solver's data structures.
"""

import inspect
import random
import sys
from itertools import product as iproduct

import pytest

from epikit import schedules, simengine, solver
from epikit.kernel import FrameMorphism, is_morphism, is_proper, new_frame
from epikit.logic import is_model_morphism
from epikit.schedules import (
    Schedule,
    enum_schedules,
    protocol_action_model,
    protocol_model,
    view1,
)
from epikit.solver import (
    _Search,
    DecisionMap,
    SolverError,
    conflict_core,
    decision_to_json,
    solve,
    verdict_report,
    verify_certificate,
)
from epikit.tasks import InputlessTask, OutputFrame, builtin, make_task, output_model
from epikit.topology import morphism_to_simplicial

from test_simengine import protocol_finals

P, Q, R = 0, 1, 2


def brute_force_solvable(task):
    """Try every assignment of output values to view classes directly."""
    scheds = enum_schedules(task.n, task.rounds)
    n_agents = task.process_count
    # class of a schedule for an agent = its one-round view (rounds == 1)
    assert task.rounds == 1
    class_ids = []
    for a in range(n_agents):
        seen = {}
        row = []
        for s in scheds:
            v = view1(a, s.rounds[0])
            row.append(seen.setdefault(v, len(seen)))
        class_ids.append(row)
    counts = [max(row) + 1 for row in class_ids]
    domains = [sorted({t[a] for t in task.output.tuples}, key=repr) for a in range(n_agents)]
    total = 0
    for combo in iproduct(*[iproduct(domain, repeat=c) for domain, c in zip(domains, counts)]):
        total += 1
        ok = True
        for k in range(len(scheds)):
            out = tuple(combo[a][class_ids[a][k]] for a in range(n_agents))
            if not task.allows(k, out):
                ok = False
                break
        if ok:
            return True, total
    return False, total


# ---------------------------------------------------------------------------
# verdicts

def test_snapshot_solvable_with_view_decisions():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    assert verdict.solvable
    assert verdict.stats.backtracks == 0
    # every class decides exactly its own view
    scheds = enum_schedules(2, 1)
    for a in range(3):
        for c, members in enumerate(schedules.schedule_context(2, 1).frame.classes_by_agent[a]):
            view = tuple(sorted(view1(a, scheds[members[0]].rounds[0])))
            assert verdict.decision.value(a, c) == view


def test_testset_two_processes_unsolvable():
    task = builtin("testset", 1)
    solvable, tried = brute_force_solvable(task)
    assert not solvable
    assert tried == 16
    assert not solve(task).solvable


def test_two_testset_one_round_unsolvable():
    task = builtin("two_testset", 2)
    solvable, tried = brute_force_solvable(task)
    assert not solvable
    assert tried == 2 ** 12
    assert not solve(task).solvable


def test_two_testset_two_rounds_unsolvable():
    task = builtin("two_testset", 2, rounds=2)
    assert not solve(task).solvable


def test_testset_two_rounds_two_processes_unsolvable():
    task = builtin("testset", 1, rounds=2)
    assert not solve(task).solvable


def test_all_tuples_task_trivially_solvable():
    task = make_task(
        "anything", 2, 1, ((0, 0, 0), (1, 1, 1)), lambda s, out: True
    )
    verdict = solve(task)
    assert verdict.solvable
    # canonical first certificate: the first value in every domain
    assert all(v == 0 for per_agent in verdict.decision.values for v in per_agent)


@pytest.mark.parametrize("name, solvable", [("snapshot", True), ("testset", False)])
def test_a_verdict_is_its_decision_and_stats(name, solvable):
    verdict = solve(builtin(name, 2))
    assert type(verdict)._fields == ("decision", "stats")
    assert verdict.solvable is bool(verdict) is (verdict.decision is not None) is solvable


def test_empty_delta_is_unsolvable():
    task = make_task("void", 1, 1, ((0, 0), (1, 1)), lambda s, out: False)
    verdict = solve(task)
    assert not verdict.solvable


def test_the_task_fixes_the_size():
    # a call that still passes n and rounds fails at the call
    task = builtin("snapshot", 2)
    decision = solve(task).decision
    for call in (
        lambda: solve(task, 2, 1),
        lambda: verify_certificate(task, 2, 1, decision),
        lambda: output_model(task, 2, 1),
    ):
        with pytest.raises(TypeError):
            call()


# ---------------------------------------------------------------------------
# certificates

def test_certificate_survives_verification():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    assert verify_certificate(task, verdict.decision)


def test_verification_runs_each_schedule_once(monkeypatch):
    walks = []

    def counting_walk(n, rounds):
        walks.append((n, rounds))
        return real_walk(n, rounds)

    real_walk = simengine._last_level
    monkeypatch.setattr(simengine, "_last_level", counting_walk)
    task = builtin("snapshot", 2)
    verdict = solve(task)
    assert verify_certificate(task, verdict.decision)
    assert walks == [(2, 1)] * 2  # once in solve, once here


def count_records(monkeypatch, cls):
    """A list that grows by one for every ``cls`` record built."""
    built = []
    real_init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_search_and_models_build_no_schedule_record(monkeypatch):
    schedules.schedule_context.cache_clear()
    built = count_records(monkeypatch, Schedule)
    assert not solve(builtin("testset", 3, 2)).solvable
    protocol_model(3, 2)
    assert built == []


def test_snapshot_certificate_builds_actions_and_records_once(monkeypatch):
    schedules.schedule_context.cache_clear()
    schedules.enum_block_actions.cache_clear()
    # enumerated and checked actions both get their tables here
    actions = []
    real_fill = schedules._fill_tables
    monkeypatch.setattr(
        schedules, "_fill_tables", lambda act: actions.append(real_fill(act))
    )
    records = count_records(monkeypatch, Schedule)
    task = builtin("snapshot", 4)
    assert verify_certificate(task, solve(task).decision)
    assert len(actions) == 541
    assert records == []


def test_perturbed_certificate_fails():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    values = [list(per_agent) for per_agent in verdict.decision.values]
    values[0][0] = (1, 2)  # any different view leaves the functional relation
    broken = DecisionMap(tuple(tuple(v) for v in values))
    assert not verify_certificate(task, broken)


def test_constant_winner_map_fails_two_testset():
    task = builtin("two_testset", 2)
    all_ones = DecisionMap(tuple(tuple(1 for _ in range(4)) for _ in range(3)))
    assert not verify_certificate(task, all_ones)


def test_partial_certificate_rejected():
    task = builtin("snapshot", 2)
    stub = DecisionMap(((0,), (0,), (0,)))
    with pytest.raises(SolverError):
        verify_certificate(task, stub)


@pytest.mark.parametrize("extra", [False, True])
def test_certificate_with_the_wrong_agent_count_rejected(extra):
    task = builtin("snapshot", 1, 1)
    values = solve(task).decision.values
    # a third agent the task does not have, or one agent missing
    wrong = DecisionMap(values + ((7,),) if extra else values[:1])
    with pytest.raises(SolverError, match="agents"):
        verify_certificate(task, wrong)


def test_the_agent_count_is_checked_before_any_schedule_runs(monkeypatch):
    task = builtin("snapshot", 1, 1)
    values = solve(task).decision.values

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the agent count was checked")

    monkeypatch.setattr(simengine, "canonical_finals", refuse)
    with pytest.raises(SolverError, match="^decision map covers 3 agents, the task has 2$"):
        verify_certificate(task, DecisionMap(values + ((7,),)))


def test_certificate_json_lists_classes():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    data = decision_to_json(task, verdict)
    assert data["task"] == "snapshot"
    assert len(data["decision"]) == 3
    assert len(data["classes"][0]) == 4


def test_no_certificate_json_for_an_unsolvable_verdict():
    task = builtin("testset", 1)
    verdict = solve(task)
    assert not verdict.solvable
    with pytest.raises(SolverError, match="unsolvable"):
        decision_to_json(task, verdict)


# ---------------------------------------------------------------------------
# full-information dominance

def test_abstracted_solution_transfers_to_full_information():
    # a task solved under a collapsing protocol stays solvable with full
    # information: every full-information class inherits the value that
    # the protocol decides on its members' common state
    task = make_task("always-one", 2, 1, ((1, 1, 1),), lambda s, out: True)
    constant = lambda rnd, state, snap: (0, 0)
    coarse = [protocol_finals(s, constant) for s in enum_schedules(2, 1)]
    decide = {0: 1}  # the protocol's one state decides 1
    fine = solve(task)
    assert fine.solvable
    values = []
    for a, per_agent in enumerate(schedules.schedule_context(2, 1).frame.classes_by_agent):
        for members in per_agent:
            assert len({coarse[k][a] for k in members}) == 1
        values.append(tuple(decide[coarse[members[0]][a]] for members in per_agent))
    assert verify_certificate(task, DecisionMap(tuple(values)))


# ---------------------------------------------------------------------------
# reports

def test_testset_report_core_is_all_three_schedules():
    task = builtin("testset", 1)
    report = verdict_report(task, solve(task))
    assert report["solvable"] is False
    assert report["conflict_core"] == ["0,1", "0|1", "1|0"]
    assert report["states"] == 3
    assert report["class_counts"] == [2, 2]


def test_two_testset_report_shape():
    task = builtin("two_testset", 2)
    report = verdict_report(task, solve(task))
    assert report["solvable"] is False
    assert report["states"] == 13
    assert report["class_counts"] == [4, 4, 4]
    assert len(report["classes"][0]) == 4
    core = report["conflict_core"]
    assert 0 < len(core) <= 13


def test_conflict_core_is_minimal():
    task = builtin("two_testset", 2)
    scheds = [s.text() for s in enum_schedules(2, 1)]
    core = conflict_core(task)
    from epikit.solver import _Search

    frame = protocol_action_model(2, 1).frame
    assert not _Search(task, frame, core).run()
    for drop in core:
        rest = [k for k in core if k != drop]
        assert _Search(task, frame, rest).run()


def test_no_conflict_core_for_a_solvable_task():
    task = builtin("snapshot", 2)
    assert solve(task).solvable
    with pytest.raises(SolverError, match="solvable task"):
        conflict_core(task)


@pytest.mark.parametrize(
    "name, n, rounds, whole",
    [("two_testset", 2, 1, 0), ("two_testset", 2, 2, 0), ("testset", 1, 1, 1)],
)
def test_conflict_core_searches_the_whole_task_only_when_nothing_drops(
    monkeypatch, name, n, rounds, whole
):
    # a trial that drops schedules and stays unsolvable already refutes
    # the whole task; testset at n = 1 drops none of its three schedules
    keeps = []

    class Counting(_Search):
        def __init__(self, task, frame, keep=None):
            keeps.append(keep)
            super().__init__(task, frame, keep)

    monkeypatch.setattr(solver, "_Search", Counting)
    task = builtin(name, n, rounds)
    core = conflict_core(task)
    assert keeps.count(None) == whole
    assert (len(core) == len(task.delta_table)) == bool(whole)


def test_snapshot_report_zero_backtracks():
    task = builtin("snapshot", 2)
    report = verdict_report(task, solve(task))
    assert report["solvable"] is True
    assert report["search_backtracks"] == 0


# ---------------------------------------------------------------------------
# the one-condition verifier against the paper's three-check form

def reference_verify(task, decision):
    """The certificate check in the paper's form: simulator classes, the
    allowed-tuple check, a morphism of Kripke models from the protocol
    model into the output model (both built by product update), its
    projection as a frame morphism, and, on proper frames, the dual
    chromatic simplicial map."""
    scheds = enum_schedules(task.n, task.rounds)
    n_agents = task.process_count
    index = [{} for _ in range(n_agents)]
    sim_class = [[] for _ in range(n_agents)]
    for sched in scheds:
        finals = simengine.run(sched).finals
        for a in range(n_agents):
            sim_class[a].append(index[a].setdefault(finals[a], len(index[a])))
    for a in range(n_agents):
        if len(decision.values[a]) != max(sim_class[a]) + 1:
            raise SolverError("class count")
    outs = [
        tuple(decision.value(a, sim_class[a][k]) for a in range(n_agents))
        for k in range(len(scheds))
    ]
    if not all(task.allows(k, out) for k, out in enumerate(outs)):
        return False
    proto = protocol_model(task.n, task.rounds)
    out_model, pairing = output_model(task)
    tuple_index = {t: i for i, t in enumerate(task.output.tuples)}
    h = FrameMorphism(
        tuple(pairing[(k, tuple_index[out])] for k, out in enumerate(outs))
    )
    if not is_model_morphism(h, proto, out_model):
        return False
    projected = FrameMorphism(tuple(tuple_index[out] for out in outs))
    out_frame = task.output.frame
    if not is_morphism(projected, proto.frame, out_frame):
        return False
    if is_proper(proto.frame) and is_proper(out_frame):
        morphism_to_simplicial(projected, proto.frame, out_frame)
    return True


def _planted_task(rng, n, rounds):
    """Random binary tuples and rows, plus one planted decision map on the
    simulator classes whose tuples every row allows."""
    scheds = enum_schedules(n, rounds)
    finals = [simengine.run(s).finals for s in scheds]
    index = [{} for _ in range(n + 1)]
    classes = [
        [index[a].setdefault(f[a], len(index[a])) for f in finals]
        for a in range(n + 1)
    ]
    planted = [[rng.randrange(2) for _ in index[a]] for a in range(n + 1)]
    forced = [
        tuple(planted[a][classes[a][k]] for a in range(n + 1))
        for k in range(len(scheds))
    ]
    every = list(iproduct((0, 1), repeat=n + 1))
    tuples = sorted(set(forced) | set(rng.sample(every, rng.randrange(len(every)))))
    plant = rng.random() < 0.7
    allowed = {
        s: {t for t in tuples if rng.random() < 0.5} | ({forced[k]} if plant else set())
        for k, s in enumerate(scheds)
    }
    task = make_task("random", n, rounds, tuples, lambda s, out: out in allowed[s])
    return task, DecisionMap(tuple(tuple(p) for p in planted))


def _candidate_maps(rng, task, planted):
    """Certificates, perturbed maps, maps off the task's tuples and maps
    with a wrong class count."""
    maps = [planted]
    verdict = solve(task)
    if verdict.solvable:
        maps.append(verdict.decision)
    for base in list(maps):
        values = [list(v) for v in base.values]
        a = rng.randrange(len(values))
        c = rng.randrange(len(values[a]))
        flipped = [list(v) for v in values]
        flipped[a][c] = 1 - flipped[a][c]
        off_task = [list(v) for v in values]
        off_task[a][c] = 7
        short = [list(v) for v in values]
        short[a] = short[a][:-1]
        long = [list(v) for v in values]
        long[a] = long[a] + [0]
        maps += [
            DecisionMap(tuple(tuple(v) for v in m))
            for m in (flipped, off_task, short, long)
        ]
    return maps


def _verdict_or_error(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except SolverError:
        return SolverError


@pytest.mark.parametrize("seed", range(24))
def test_verifier_agrees_with_three_check_reference(seed):
    rng = random.Random(seed)
    n = rng.choice((1, 2))
    rounds = rng.choice((1, 2))
    task, planted = _planted_task(rng, n, rounds)
    for decision in _candidate_maps(rng, task, planted):
        expected = _verdict_or_error(reference_verify, task, decision)
        got = _verdict_or_error(verify_certificate, task, decision)
        assert got == expected


def test_verifier_catches_a_simulator_that_disagrees(monkeypatch):
    # a simulator that answers each schedule with the next schedule's run
    # keeps every class count, and the task allows every combination of
    # values, so only the comparison of classes can refuse; the reference
    # reads lone runs and the verifier the tree walk, so both are shifted
    # (one round has one prefix, so rotating the actions' slots shifts
    # every schedule by one)
    task = builtin("snapshot", 2)
    verdict = solve(task)
    combos = list(iproduct(*(task.output.values_for(a) for a in range(3))))
    anything = make_task("anything", 2, 1, combos, lambda s, out: True)
    scheds = enum_schedules(2, 1)
    shifted = {s: scheds[(k + 1) % len(scheds)] for k, s in enumerate(scheds)}
    real_run, real_walk = simengine.run, simengine._last_level

    def shifted_walk(n, rounds):
        prefixes, picks = real_walk(n, rounds)
        assert len(prefixes) == 1
        return prefixes, picks[1:] + picks[:1]

    monkeypatch.setattr(simengine, "run", lambda s: real_run(shifted[s]))
    monkeypatch.setattr(simengine, "_last_level", shifted_walk)
    assert not reference_verify(anything, verdict.decision)
    assert not verify_certificate(anything, verdict.decision)


@pytest.mark.parametrize("seed", range(8))
def test_verifier_refuses_simulator_classes_other_than_the_frames(monkeypatch, seed):
    # a simulator that answers each schedule with another schedule's final
    # states (a seeded permutation) keeps every class count; a map that
    # decides one value per agent is a morphism whatever the classes are
    # and the task allows its one tuple everywhere, so the map is accepted
    # on the true classes and only the comparison of classes can refuse
    rng = random.Random(seed)
    n, rounds = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    finals = simengine.canonical_finals(n, rounds)
    frame = schedules.schedule_context(n, rounds).frame
    while True:
        moved = rng.sample(finals, len(finals))
        rows = [[id(states[a]) for states in moved] for a in range(n + 1)]
        if new_frame(len(moved), n + 1, rows).partitions != frame.partitions:
            break
    task = make_task("one tuple", n, rounds, [(0,) * (n + 1)], lambda s, out: True)
    decision = DecisionMap(tuple((0,) * len(c) for c in frame.classes_by_agent))
    assert verify_certificate(task, decision)

    def moved_walk(n, rounds):
        # every schedule a prefix of its own, stepped by one action
        return [[[state] for state in states] for states in moved], [(0,) * (n + 1)]

    monkeypatch.setattr(simengine, "_last_level", moved_walk)
    assert [count for _, count in simengine.class_rows(n, rounds)] == [
        len(c) for c in frame.classes_by_agent
    ]
    assert not verify_certificate(task, decision)


# ---------------------------------------------------------------------------
# the learning search against chronological backtracking and brute force

class ChronologicalSearch:
    """The solver's search before it learned, kept as a reference:
    chronological depth-first search over the same variable and value
    order with the same tuple-mask propagation, undoing one level at a
    time and recording nothing (written recursively; the test tasks have
    at most about a hundred variables)."""

    def __init__(self, task, frame):
        tuples = task.output.tuples
        n_agents = self.agent_count = task.process_count
        self.variables = [
            (a, c)
            for a in range(n_agents)
            for c in range(len(frame.classes_by_agent[a]))
        ]
        var_id = {v: i for i, v in enumerate(self.variables)}
        domains = [task.output.values_for(a) for a in range(n_agents)]
        self.var_values = [tuple(domains[a]) for a, _ in self.variables]
        self.var_masks = [
            tuple(
                sum(1 << t for t, out in enumerate(tuples) if out[a] == value)
                for value in domains[a]
            )
            for a, _ in self.variables
        ]
        self.live = [sum(1 << t for t in row) for row in task.delta_table]
        self.sched_vars = [
            tuple(var_id[(a, frame.partitions[a][k])] for a in range(n_agents))
            for k in range(len(task.delta_table))
        ]
        self.touching = [[] for _ in self.variables]
        for pos, svars in enumerate(self.sched_vars):
            for vid in svars:
                self.touching[vid].append(pos)
        self.order = [vid for vid in range(len(self.variables)) if self.touching[vid]]
        self.value_of = [None] * len(self.variables)
        self.queue = list(range(len(self.live)))

    def _assign(self, vid, choice, trail):
        self.value_of[vid] = self.var_values[vid][choice]
        trail.append((-1, vid))
        mask = self.var_masks[vid][choice]
        for pos in self.touching[vid]:
            new = self.live[pos] & mask
            if new != self.live[pos]:
                trail.append((pos, self.live[pos]))
                self.live[pos] = new
                if not new:
                    return False
                self.queue.append(pos)
        return True

    def _propagate(self, trail):
        while self.queue:
            pos = self.queue.pop()
            lv = self.live[pos]
            for vid in self.sched_vars[pos]:
                if self.value_of[vid] is not None:
                    continue
                for choice, mask in enumerate(self.var_masks[vid]):
                    if lv & ~mask == 0:
                        if not self._assign(vid, choice, trail):
                            return False
                        break
        return True

    def _undo(self, trail):
        while trail:
            key, old = trail.pop()
            if key < 0:
                self.value_of[old] = None
            else:
                self.live[key] = old

    def _search(self, pos):
        while pos < len(self.order) and self.value_of[self.order[pos]] is not None:
            pos += 1
        if pos == len(self.order):
            return True
        vid = self.order[pos]
        for choice in range(len(self.var_values[vid])):
            trail = []
            self.queue = []
            if (
                self._assign(vid, choice, trail)
                and self._propagate(trail)
                and self._search(pos + 1)
            ):
                return True
            self._undo(trail)
        return False

    def solve(self):
        """The first decision map in canonical order, or None."""
        if not all(self.live) or not (self._propagate([]) and self._search(0)):
            return None
        values = [[] for _ in range(self.agent_count)]
        for vid, (a, _) in enumerate(self.variables):
            value = self.value_of[vid]
            values[a].append(self.var_values[vid][0] if value is None else value)
        return DecisionMap(tuple(tuple(v) for v in values))


def brute_force_first(task):
    """The first decision map in canonical order, by enumerating maps with
    one value per (agent, class) in agent-then-class order, values in the
    order of their first tuple, and refusing a prefix as soon as a
    schedule whose agents all have a value is not allowed.  Classes come
    from the simulator."""
    n_agents = task.process_count
    scheds = enum_schedules(task.n, task.rounds)
    index = [{} for _ in range(n_agents)]
    classes = [[] for _ in range(n_agents)]
    for sched in scheds:
        finals = simengine.run(sched).finals
        for a in range(n_agents):
            classes[a].append(index[a].setdefault(finals[a], len(index[a])))
    variables = [(a, c) for a in range(n_agents) for c in range(len(index[a]))]
    domains = [task.output.values_for(a) for a, _ in variables]
    position = {v: i for i, v in enumerate(variables)}
    # the schedules to check once variable i has its value
    due = [[] for _ in variables]
    for k in range(len(scheds)):
        last = max(position[(a, classes[a][k])] for a in range(n_agents))
        due[last].append(k)

    chosen = []

    def extend():
        i = len(chosen)
        if i == len(variables):
            return True
        for value in domains[i]:
            chosen.append(value)
            if all(
                task.allows(k, tuple(
                    chosen[position[(a, classes[a][k])]] for a in range(n_agents)
                ))
                for k in due[i]
            ) and extend():
                return True
            chosen.pop()
        return False

    if not extend():
        return None
    return DecisionMap(tuple(
        tuple(chosen[position[(a, c)]] for c in range(len(index[a])))
        for a in range(n_agents)
    ))


def _threshold_task(rng, n, rounds, width, allow):
    """Random tuples over ``width`` values per agent, each row allowing
    each tuple with probability ``allow``."""
    every = list(iproduct(range(width), repeat=n + 1))
    tuples = sorted(rng.sample(every, max(1, round(len(every) * rng.uniform(0.6, 1)))))
    scheds = enum_schedules(n, rounds)
    allowed = {s: {t for t in tuples if rng.random() < allow} for s in scheds}
    return make_task("threshold", n, rounds, tuples, lambda s, out: out in allowed[s])


# (n, rounds, values per agent, range of the share of tuples a row
# allows, brute force as well): the ranges sit where these tasks turn from
# solvable to unsolvable, so that searches meet conflicts; brute force
# only where it takes well under a second
DIFFERENTIAL_SHAPES = (
    (1, 1, 2, (0.5, 0.9), True),
    (1, 1, 3, (0.4, 0.7), True),
    (1, 2, 2, (0.6, 0.9), True),
    (1, 2, 3, (0.5, 0.7), True),
    (1, 3, 2, (0.7, 0.95), True),
    (1, 3, 3, (0.55, 0.7), False),
    (2, 1, 2, (0.7, 0.95), True),
    (2, 1, 3, (0.55, 0.7), True),
    (2, 2, 2, (0.88, 0.97), False),
)


def _differential_case(seed):
    rng = random.Random(seed)
    n, rounds, width, (low, high), brute = DIFFERENTIAL_SHAPES[
        seed % len(DIFFERENTIAL_SHAPES)
    ]
    return _threshold_task(rng, n, rounds, width, rng.uniform(low, high)), brute


# seed 205 reaches the conflict branch of _Search._watch (see
# test_a_watched_nogood_can_find_all_its_literals_holding)
@pytest.mark.parametrize("seed", [*range(90), 97, 205])
def test_learning_search_finds_the_canonical_first_certificate(seed):
    task, brute = _differential_case(seed)
    verdict = solve(task)
    frame = protocol_action_model(task.n, task.rounds).frame
    expected = ChronologicalSearch(task, frame).solve()
    assert verdict.solvable == (expected is not None)
    assert verdict.decision == expected
    if brute:
        assert brute_force_first(task) == expected


def test_repeated_tuple_indices_in_a_row_change_nothing():
    # a delta row names a set of tuples, so repeating an index (or
    # reordering the row) leaves the verdict, certificate and search as
    # they are
    rng = random.Random(4242)
    for seed in range(30):
        task = _differential_case(seed)[0]
        rows = []
        for row in task.delta_table:
            row = list(row) + [rng.choice(row) for _ in range(rng.randint(1, 3)) if row]
            rng.shuffle(row)
            rows.append(tuple(row))
        repeated = InputlessTask(task.name, task.n, task.rounds, task.output, tuple(rows))
        assert repeated.delta_table != task.delta_table
        expected, verdict = solve(task), solve(repeated)
        assert (verdict.solvable, verdict.decision, verdict.stats) == (
            expected.solvable, expected.decision, expected.stats
        )


def test_search_reads_the_frame_class_ids():
    task = builtin("two_testset", 2, 2)
    frame = protocol_action_model(2, 2).frame
    assert _Search(task, frame).sched_vars is frame.class_ids


def test_differential_cases_meet_conflicts():
    # the comparison above says little unless a good share of its cases
    # backjump and learn
    learned = [solve(_differential_case(seed)[0]).stats.learned for seed in range(90)]
    assert sum(1 for count in learned if count) >= 30


# (n, rounds, values per agent, range of the share of tuples a row
# allows): a task whose tuples alone force an agent's value at the root,
# which no differential shape above gives
SINGLE_VALUED_SHAPES = (
    (1, 1, (1, 3), (0.4, 0.8)),
    (1, 2, (2, 1), (0.6, 0.95)),
    (1, 2, (3, 1), (0.5, 0.8)),
    (2, 1, (2, 1, 3), (0.6, 0.9)),
    (2, 1, (1, 2, 2), (0.7, 0.95)),
    (2, 2, (1, 1, 1), (1.0, 1.0)),  # every agent single-valued
)


def _single_valued_case(seed):
    """Every tuple over the shape's values, each row allowing each tuple
    with one probability drawn from the shape's range."""
    rng = random.Random(seed)
    n, rounds, widths, (low, high) = SINGLE_VALUED_SHAPES[seed % len(SINGLE_VALUED_SHAPES)]
    tuples = list(iproduct(*map(range, widths)))
    allow = rng.uniform(low, high)
    allowed = {s: {t for t in tuples if rng.random() < allow} for s in enum_schedules(n, rounds)}
    return make_task("single-valued", n, rounds, tuples, lambda s, out: out in allowed[s])


@pytest.mark.parametrize("seed", range(30))
def test_single_valued_agents_are_decided_as_the_references_decide(seed):
    task = _single_valued_case(seed)
    assert 1 in [len(task.output.values_for(a)) for a in range(task.process_count)]
    verdict = solve(task)
    frame = protocol_action_model(task.n, task.rounds).frame
    expected = ChronologicalSearch(task, frame).solve()
    assert verdict.solvable == (expected is not None)
    assert verdict.decision == expected
    assert brute_force_first(task) == expected


def test_single_valued_cases_meet_conflicts():
    learned = [solve(_single_valued_case(seed)).stats.learned for seed in range(30)]
    assert sum(1 for count in learned if count) >= 5


def _line_hits(function, text, call):
    """How often ``call()`` runs the line of ``function`` that holds ``text``."""
    lines, start = inspect.getsourcelines(function)
    target = start + next(i for i, line in enumerate(lines) if text in line)
    code = function.__code__
    hits = 0

    def local(frame, event, arg):
        nonlocal hits
        hits += event == "line" and frame.f_lineno == target
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(before)
    return hits


def test_a_watched_nogood_can_find_all_its_literals_holding():
    # two literals of a learned nogood can come to hold in one propagation
    # step, before the watch of either is visited; the visit then finds
    # every literal holding, a conflict
    task = _differential_case(205)[0]
    assert _line_hits(_Search._watch, "for held in nogood", lambda: solve(task))


def _certified_searches(monkeypatch):
    """The searches, from now on, whose refutation stage ends with
    decisions on the trail, so that a canonical search gives the
    certificate."""
    refutations, certified = [], []
    build, decide = _Search._refutation_order, _Search._decide

    def refutation_order(self):
        refutations.append(build(self))
        return refutations[-1]

    def recorded(self, order, ok, restart=False):
        found = decide(self, order, ok, restart)
        if refutations and order is refutations[-1] and found and self.marks:
            certified.append(self)
        return found

    monkeypatch.setattr(_Search, "_refutation_order", refutation_order)
    monkeypatch.setattr(_Search, "_decide", recorded)
    return certified


def test_the_certificate_after_a_refutation_stage_is_the_canonical_first(monkeypatch):
    certified = _certified_searches(monkeypatch)
    tasks = [task for task, brute in map(_differential_case, range(90)) if brute]
    tasks += map(_single_valued_case, range(30))
    staged = 0
    for task in tasks:
        certified.clear()
        verdict = solve(task)
        if certified:
            staged += 1
            frame = protocol_action_model(task.n, task.rounds).frame
            expected = ChronologicalSearch(task, frame).solve()
            assert verdict.decision == expected == brute_force_first(task)
    assert staged >= 10


def test_a_conflict_free_search_builds_no_refutation_order(monkeypatch):
    built = []
    build = _Search._refutation_order
    monkeypatch.setattr(
        _Search, "_refutation_order", lambda self: built.append(self) or build(self)
    )
    tasks = [builtin(name, n, rounds) for name, n, rounds in BUILTIN_STATS]
    tasks += [_differential_case(seed)[0] for seed in range(90)]
    tasks += map(_single_valued_case, range(30))
    rng = random.Random(46)
    tasks += [_planted_task(rng, 2, 2)[0] for _ in range(10)]
    decided_without_conflict = 0
    for task in tasks:
        built.clear()
        stats = solve(task).stats
        # the first conflict above the root learns a nogood
        assert bool(built) == (stats.learned > 0)
        decided_without_conflict += stats.nodes > 0 and not built
    assert decided_without_conflict >= 10


def test_a_removal_leaves_the_variable_a_value(monkeypatch):
    # _Search._remove has no empty-domain branch: it relies on every
    # unassigned variable keeping two or more values
    remove = _Search._remove
    seen = []

    def checked(self, vid, choice, nogood):
        seen.append(vid)
        assert self.choice[vid] < 0 and bin(self.domain[vid]).count("1") >= 2
        return remove(self, vid, choice, nogood)

    monkeypatch.setattr(_Search, "_remove", checked)
    for seed in range(30):
        solve(_single_valued_case(seed))
    assert seen
    for seed in range(90):
        solve(_differential_case(seed)[0])
    solve(builtin("two_testset", 2, 2))
    assert len(seen) > 500


def test_learning_cuts_the_two_round_two_testset_search():
    # ten times fewer nodes than the 23,883 of chronological backtracking
    stats = solve(builtin("two_testset", 2, 2)).stats
    assert stats.nodes <= 2388
    assert stats.learned > 0 and stats.backtracks == stats.learned + 1


def test_two_round_conflict_core_is_minimal():
    task = builtin("two_testset", 2, 2)
    core = conflict_core(task)
    from epikit.solver import _Search

    frame = protocol_action_model(2, 2).frame
    assert len(core) == 71
    assert not _Search(task, frame, core).run()
    for drop in core:
        rest = [k for k in core if k != drop]
        assert _Search(task, frame, rest).run()


# SearchStats of the builtins, (nodes, backtracks, assignments, learned):
# a change to solve's search that moves a step moves one of these
BUILTIN_STATS = {
    ("testset", 1, 1): (0, 1, 3, 0),
    ("testset", 1, 2): (0, 1, 9, 0),
    ("testset", 2, 1): (0, 1, 4, 0),
    ("testset", 2, 2): (0, 1, 17, 0),
    ("testset", 3, 1): (0, 1, 5, 0),
    ("testset", 3, 2): (0, 1, 32, 0),
    ("two_testset", 2, 1): (0, 1, 8, 0),
    ("two_testset", 2, 2): (112, 31, 690, 30),
    ("snapshot", 2, 1): (0, 0, 12, 0),
    ("snapshot", 3, 1): (0, 0, 32, 0),
    ("snapshot", 4, 1): (0, 0, 80, 0),
}


@pytest.mark.parametrize("name, n, rounds", sorted(BUILTIN_STATS))
def test_builtin_search_stats_are_pinned(name, n, rounds):
    stats = solve(builtin(name, n, rounds)).stats
    got = (stats.nodes, stats.backtracks, stats.assignments, stats.learned)
    assert got == BUILTIN_STATS[name, n, rounds]


def _relaxed(task, keep):
    """The task in which each schedule off ``keep`` allows every
    combination of the agents' values, so that it constrains nothing.
    (Allowing every output tuple would not free it: the decisions would
    still have to form one of them.)"""
    domains = [task.output.values_for(a) for a in range(task.process_count)]
    tuples = list(task.output.tuples)
    tuples += [t for t in iproduct(*domains) if t not in tuples]
    every = tuple(range(len(tuples)))
    kept = set(keep)
    table = tuple(
        row if k in kept else every for k, row in enumerate(task.delta_table)
    )
    return InputlessTask(task.name, task.n, task.rounds, OutputFrame(tuple(tuples)), table)


def _trial_keeps(rng, frame):
    """Seeded schedule subsets, ascending: none, one, all, random ones,
    and ones with every member of some view class dropped."""
    count = frame.state_count
    every = range(count)
    keeps = [[], [rng.randrange(count)], list(every)]
    for _ in range(3):
        keeps.append(sorted(rng.sample(every, rng.randint(1, count))))
    for _ in range(3):
        a = rng.randrange(frame.agent_count)
        dropped = set(rng.choice(frame.classes_by_agent[a]))
        base = every if rng.random() < 0.5 else keeps[-1]
        keeps.append([k for k in base if k not in dropped])
    return keeps


def test_trials_search_the_restricted_problem():
    # a trial of conflict_core searches the kept rows over the frame
    # restricted to the kept schedules; it must agree with a full search
    # of the task relaxed off the kept set
    rng = random.Random(2020)
    tasks = [
        _differential_case(seed)[0]
        for seed in range(45)
        if DIFFERENTIAL_SHAPES[seed % len(DIFFERENTIAL_SHAPES)][1] <= 2
    ]
    tasks += [
        _threshold_task(rng, n, rounds, width, rng.uniform(0.5, 0.95))
        for n, rounds, width in [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 2, 2)] * 2
    ]
    verdicts = set()
    dropped_classes = 0
    for task in tasks:
        frame = protocol_action_model(task.n, task.rounds).frame
        for keep in _trial_keeps(rng, frame):
            got = _Search(task, frame, keep).run()
            assert got == solve(_relaxed(task, keep)).solvable, (task, keep)
            verdicts.add(got)
            dropped_classes += any(
                set(members).isdisjoint(keep)
                for classes in frame.classes_by_agent
                for members in classes
            )
    # both verdicts occur, and many trials leave some class out
    assert verdicts == {True, False}
    assert dropped_classes >= 50


# the conflict core of the three-process testset at two rounds: 15 of
# 5,625 schedules, larger than any other core tier-1 shrinks
TESTSET_3_2_CORE = (
    "2|3|0,1;2|0,3|1", "2|3|0,1;2|3|0,1", "2|3|0,1;2,3|0|1",
    "2|3|0,1;3|2|0,1", "2,3|1|0;2|0,1,3", "2,3|1|0;3|0,1,2",
    "2,3|1|0;0|1|2,3", "2,3|1|0;0,1|2|3", "2,3|1|0;1|0|2,3",
    "3|1,2|0;1|3|0,2", "3|1,2|0;1,3|2|0", "3|1,2|0;3|1|2|0",
    "3|2|0,1;0|1,2,3", "3|2|0,1;2|0,1,3", "3|2|0,1;3|0,1,2",
)


def test_three_process_two_round_conflict_core_is_minimal():
    task = builtin("testset", 3, 2)
    core = conflict_core(task)
    texts = schedules.schedule_context(3, 2).texts
    assert tuple(texts[k] for k in core) == TESTSET_3_2_CORE
    frame = protocol_action_model(3, 2).frame
    assert not _Search(task, frame, core).run()
    for drop in core:
        assert _Search(task, frame, [k for k in core if k != drop]).run()
