"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The last test runs every workload's op once per seed through the real
command line (about a minute).
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)  # one even, one odd: the mc claim is true on one, false on the other


@pytest.fixture(scope="module")
def sim():
    return gen.simulator_classes(gen.PLANTED_N, gen.PLANTED_ROUNDS)


def test_seeds_give_different_inputs(sim):
    scheds, classes = sim
    tasks = [gen.planted_task(s, classes) for s in SEEDS]
    queries = [gen.mc_query(s, scheds, classes) for s in SEEDS]
    assert tasks[0] != tasks[1]
    assert queries[0]["formula"] != queries[1]["formula"]
    assert [q["expect_true"] for q in queries] == [False, True]
    assert gen.planted_task(SEEDS[0], classes) == tasks[0]
    assert gen.mc_query(SEEDS[0], scheds, classes) == queries[0]


def test_planted_task_is_solvable_by_construction(sim):
    from epikit.solver import solve
    from epikit.tasks import task_from_json

    _, classes = sim
    verdict = solve(task_from_json(gen.planted_task(SEEDS[0], classes)))
    assert verdict.solvable


def test_checks_reject_wrong_outputs(tmp_path, sim):
    scheds, classes = sim
    mc = workloads.build_n3r2(1, tmp_path)[2]
    query = gen.mc_query(1, scheds, classes)
    wrong_witness = (query["witness"] + 1) % len(scheds)
    assert mc.check(0, b"true\n")
    assert mc.check(2, f"false\nwitness: state {wrong_witness} is q-related\n".encode())
    assert mc.check(2, f"false\nwitness: state {query['witness']} is s-related "
                       "and falsifies the body\n".encode()) is None

    task = gen.planted_task(1, classes)
    values = [[0] * (max(classes[a]) + 1) for a in range(len(classes))]
    members = [gen.class_members(classes[a]) for a in range(len(classes))]
    cert = {
        "classes": [[[scheds[k].text() for k in m] for m in members[a]]
                    for a in range(len(classes))],
        "decision": values,
    }
    # all-zero decisions give the tuple (0, 0, 0, 0) or one with a fixed 1,
    # which some rows forbid
    assert workloads._certificate_check(cert, task, scheds, classes)
    merged = cert["classes"][1][0] + cert["classes"][1][1]
    cert["classes"][1] = [merged] + cert["classes"][1][2:]
    cert["decision"][1] = cert["decision"][1][1:]
    assert "differ from the simulator" in workloads._certificate_check(
        cert, task, scheds, classes)


def test_true_mc_claim_fails_on_a_split_class():
    from epikit.kernel import new_frame
    from epikit.logic import KripkeModel, eval_formula, parse_formula
    from epikit.schedules import protocol_model

    scheds, classes = gen.simulator_classes(2, 1)
    index = {s.text(): k for k, s in enumerate(scheds)}
    for seed in range(0, 40, 2):  # even seeds, where the claim is true
        query = gen.mc_query(seed, scheds, classes)
        state, agent = index[query["state"]], query["agent"]
        if classes[agent].count(classes[agent][state]) > 1:
            break
    formula = parse_formula(query["formula"])
    model = protocol_model(2, 1)
    assert query["expect_true"] and eval_formula(model, state, formula)

    # the same model with `state` alone in its a-class
    frame = model.frame
    labels = [list(frame.partitions[a]) for a in range(frame.agent_count)]
    labels[agent][state] = "split"
    split = KripkeModel(new_frame(frame.state_count, frame.agent_count, labels),
                        model.ap, model.valuation)
    assert not eval_formula(split, state, formula)


def test_counts_are_compared_only_between_runs_of_the_same_code(tmp_path):
    package = tmp_path / "src" / "epikit"
    package.mkdir(parents=True)
    (package / "solver.py").write_text("NODES = 1\n")
    record = run.counts_record(tmp_path, "search-tt2", 1)
    faults: list[str] = []
    run.check_counts(record, [{"solver.search.nodes": 23883}], faults)
    assert record.is_file() and faults == []

    run.check_counts(record, [{"solver.search.nodes": 100}], faults)
    assert len(faults) == 1 and "differ from an earlier run" in faults[0]

    (package / "solver.py").write_text("NODES = 2\n")
    changed = run.counts_record(tmp_path, "search-tt2", 1)
    assert changed != record
    faults.clear()
    run.check_counts(changed, [{"solver.search.nodes": 100}], faults)
    assert faults == []


def test_probe_scales_a_command_by_its_repetitions_and_stops(tmp_path):
    import time

    probe = run.Probe(tmp_path)
    time.sleep(0.2)
    start = perf_counter()
    time.sleep(0.3)
    end = perf_counter()
    probe.stop()
    assert probe.proc.returncode is not None
    assert probe.reference_time(run.Timing(end + 1.0, end + 2.0, 1.0)) is None
    inside = [d for e, d in zip(probe.ends, probe.durations) if start <= e <= end]
    assert len(inside) >= run.MIN_PROBES
    assert probe.reference_time(run.Timing(start, end, 2.0)) == pytest.approx(
        2.0 * run.PROBE_REF_S / statistics.harmonic_mean(inside))


def test_core_check_rejects_non_minimal_core():
    from epikit.schedules import enum_schedules
    from epikit.tasks import builtin

    scheds = enum_schedules(2, 1)
    task = builtin("two_testset", 2, 1)
    assert workloads._core_check(scheds, task, (0, 2, 3, 5)) is None
    assert "not minimal" in workloads._core_check(scheds, task, (0, 1, 2, 3, 5))
    assert "solvable" in workloads._core_check(scheds, task, (0, 2, 3))


def test_self_times_subtract_direct_children():
    spans_ = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert spans.self_times(spans_) == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def test_tracer_sees_calls_between_modules_and_restores_originals():
    from epikit import cli, schedules, solver
    from epikit.tasks import builtin

    before = (solver.protocol_action_model, cli.solve, schedules.final_states)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.protocol_action_model is not before[0]
        solver.solve(builtin("two_testset", 2, 1))
    finally:
        tracer.uninstall()
    assert (solver.protocol_action_model, cli.solve, schedules.final_states) == before
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve", "schedules.protocol_action_model",
            "schedules.final_states", "kernel.new_frame"} <= names
    assert tracer.counters["solver.search.assignments"] == 8


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_check_passes_on_the_real_cli(tmp_path, workload, seed):
    steps = workloads.BUILDERS[workload](seed, tmp_path)
    runner = run.Runner(ROOT, tmp_path, perf_counter())
    _, error, _ = runner.op(steps)
    assert error is None
