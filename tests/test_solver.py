"""Solvability search, certificates, and reports.

Unsolvability verdicts are cross-checked by brute-force enumeration of
every decision map (16 maps for two-process testset, 4096 for the
three-process task at one round), written against raw views without the
solver's data structures.
"""

from itertools import product as iproduct

import pytest

from epikit import simengine
from epikit.schedules import enum_schedules, view1
from epikit.solver import (
    DecisionMap,
    SolverError,
    conflict_core,
    decision_to_json,
    solve,
    solve_report,
    verify_certificate,
)
from epikit.tasks import builtin, make_task

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
        for c, members in enumerate(verdict.classes[a]):
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


def test_empty_delta_is_unsolvable():
    task = make_task("void", 1, 1, ((0, 0), (1, 1)), lambda s, out: False)
    verdict = solve(task)
    assert not verdict.solvable


def test_dimension_mismatch_rejected():
    task = builtin("two_testset", 2)
    with pytest.raises(SolverError):
        solve(task, 2, 2)


# ---------------------------------------------------------------------------
# certificates

def test_certificate_survives_verification():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    assert verify_certificate(task, 2, 1, verdict.decision)


def test_verification_runs_each_schedule_once(monkeypatch):
    runs = []

    def counting_run(sched, abstraction=None):
        runs.append(sched)
        return real_run(sched, abstraction)

    real_run = simengine.run
    monkeypatch.setattr(simengine, "run", counting_run)
    task = builtin("snapshot", 2)
    verdict = solve(task)
    assert verify_certificate(task, 2, 1, verdict.decision)
    assert runs == enum_schedules(2, 1) * 2  # once in solve, once here


def test_perturbed_certificate_fails():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    values = [list(per_agent) for per_agent in verdict.decision.values]
    values[0][0] = (1, 2)  # any different view leaves the functional relation
    broken = DecisionMap(tuple(tuple(v) for v in values))
    assert not verify_certificate(task, 2, 1, broken)


def test_constant_winner_map_fails_two_testset():
    task = builtin("two_testset", 2)
    all_ones = DecisionMap(tuple(tuple(1 for _ in range(4)) for _ in range(3)))
    assert not verify_certificate(task, 2, 1, all_ones)


def test_partial_certificate_rejected():
    task = builtin("snapshot", 2)
    stub = DecisionMap(((0,), (0,), (0,)))
    with pytest.raises(SolverError):
        verify_certificate(task, 2, 1, stub)


def test_certificate_json_lists_classes():
    task = builtin("snapshot", 2)
    verdict = solve(task)
    data = decision_to_json(task, verdict)
    assert data["task"] == "snapshot"
    assert len(data["decision"]) == 3
    assert len(data["classes"][0]) == 4


# ---------------------------------------------------------------------------
# full-information dominance

def test_abstracted_solution_transfers_to_full_information():
    # a task solvable under a collapsing abstraction stays solvable with
    # full information; the composed decision map certifies it
    task = make_task("always-one", 2, 1, ((1, 1, 1),), lambda s, out: True)
    constant = lambda rnd, state, snap: (0, 0)
    coarse = solve(task, abstraction=constant)
    assert coarse.solvable
    assert all(len(per_agent) == 1 for per_agent in coarse.decision.values)

    fine = solve(task)
    assert fine.solvable
    # compose: every full-information class inherits the coarse class value
    composed = DecisionMap(
        tuple(
            tuple(coarse.decision.value(a, 0) for _ in per_agent)
            for a, per_agent in enumerate(fine.decision.values)
        )
    )
    assert verify_certificate(task, 2, 1, composed)


def test_snapshot_solvable_under_view_preserving_abstraction():
    view_only = lambda rnd, state, snap: (
        tuple(j for j, _ in snap),
        tuple(j for j, _ in snap),
    )
    task = builtin("snapshot", 2)
    assert solve(task, abstraction=view_only).solvable
    assert solve(task).solvable


# ---------------------------------------------------------------------------
# reports

def test_testset_report_core_is_all_three_schedules():
    report = solve_report(builtin("testset", 1))
    assert report["solvable"] is False
    assert report["conflict_core"] == ["0,1", "0|1", "1|0"]
    assert report["states"] == 3
    assert report["class_counts"] == [2, 2]


def test_two_testset_report_shape():
    report = solve_report(builtin("two_testset", 2))
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
    from epikit.solver import _class_structure, _solve_restricted

    classes, per_schedule = _class_structure(task, None)
    assert not _solve_restricted(task, core, classes, per_schedule)
    for drop in core:
        rest = [k for k in core if k != drop]
        assert _solve_restricted(task, rest, classes, per_schedule)


def test_snapshot_report_zero_backtracks():
    report = solve_report(builtin("snapshot", 2))
    assert report["solvable"] is True
    assert report["search_backtracks"] == 0
