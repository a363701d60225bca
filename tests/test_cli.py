"""Command-line behavior: verdicts, exit codes, exports, determinism."""

import hashlib
import json
import random
import subprocess
import sys
from itertools import product

import pytest

from epikit import cli, logic, schedules, solver, tasks
from epikit.cli import main
from epikit.logic import MAX_FORMULA_DEPTH, model_from_json
from epikit.tasks import make_task, task_from_json, task_to_json
from epikit.topology import complex_to_json, frame_to_complex

from test_logic import MALFORMED_MODELS
from test_tasks import MALFORMED_TASKS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli(*argv, timeout=10):
    return subprocess.run(
        [sys.executable, "-m", "epikit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# schedules

def test_schedules_three_processes(capsys):
    code, out, _ = run_cli(capsys, "schedules", "--n", "2", "--rounds", "1")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 13
    assert lines[0] == "0,1,2"


def test_schedules_single_process(capsys):
    code, out, _ = run_cli(capsys, "schedules", "--n", "0", "--rounds", "1")
    assert code == 0
    assert out.strip() == "0"


def test_schedules_two_rounds(capsys):
    code, out, _ = run_cli(capsys, "schedules", "--n", "1", "--rounds", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_schedules_cap_refused_with_estimate(capsys):
    code, out, err = run_cli(capsys, "schedules", "--n", "6")
    assert code == 1
    assert "47293" in err


def test_schedules_cap_override(capsys):
    code, out, _ = run_cli(capsys, "schedules", "--n", "6", "--max-n-override")
    assert code == 0
    assert len(out.strip().splitlines()) == 47293


def test_schedule_count_cap_and_its_override(capsys, monkeypatch):
    # two_testset at four rounds is under the default cap
    args = cli.build_parser().parse_args(["schedules", "--n", "2", "--rounds", "4"])
    assert cli._check_n(args) is None
    monkeypatch.setattr(cli, "MAX_SCHEDULES", 26)
    code, out, err = run_cli(capsys, "schedules", "--n", "1", "--rounds", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error: --n 1 --rounds 3 would enumerate 27 schedules, more than the "
        "default cap of 26. Pass --max-n-override to proceed.\n"
    )
    code, out, _ = run_cli(
        capsys, "schedules", "--n", "1", "--rounds", "3", "--max-n-override"
    )
    assert code == 0
    assert len(out.splitlines()) == 27


def test_cap_message_for_many_rounds_is_immediate():
    # 13**8 schedules do not fit in memory; the count is refused before
    # any of them is enumerated
    proc = _cli("check", "--n", "2", "--rounds", "8", "--task", "testset", timeout=5)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: --n 2 --rounds 8 would enumerate 815730721 schedules, more than "
        "the default cap of 1000000. Pass --max-n-override to proceed.\n"
    )


# ---------------------------------------------------------------------------
# run

def test_run_trace(capsys):
    code, out, _ = run_cli(capsys, "run", "--schedule", "0|1,2")
    assert code == 0
    assert "process 0 snapshot: 0=0" in out


def test_run_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--schedule", "0|1,2;0,1,2", "--json")
    data = json.loads(out)
    assert data["schedule"] == "0|1,2;0,1,2"
    assert len(data["snapshots"]) == 2


# both forms write every shared sub-state out in full, so their size is
# bounded before any text is built
@pytest.mark.parametrize("form, sched, size", [
    (["--json"], ";".join(["0"] * 1200), "the JSON of a 1200-round run would take 13913378466"),
    ([], ";".join(["0,1,2"] * 20), "the trace of a 20-round run would take 287659713793"),
], ids=["json", "text"])
def test_run_refuses_a_schedule_too_deep_to_print(form, sched, size):
    proc = _cli("run", "--schedule", sched, *form)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {size} bytes, more than the cap of 33554432\n"


def test_run_json_refuses_above_the_cap_before_building_text(capsys, monkeypatch):
    sched = ";".join(["0,1,2"] * 4)
    code, out, _ = run_cli(capsys, "run", "--schedule", sched, "--json")
    assert code == 0
    size = len(out)
    monkeypatch.setattr(cli, "MAX_RUN_JSON_BYTES", size)
    assert run_cli(capsys, "run", "--schedule", sched, "--json") == (0, out, "")

    def no_text(data):
        raise AssertionError("text built for a refused run")

    monkeypatch.setattr(cli, "MAX_RUN_JSON_BYTES", size - 1)
    monkeypatch.setattr(cli, "json_text", no_text)
    assert run_cli(capsys, "run", "--schedule", sched, "--json") == (
        1,
        "",
        f"error: the JSON of a 4-round run would take {size} bytes, "
        f"more than the cap of {size - 1}\n",
    )


def test_run_trace_refuses_above_the_cap_before_building_text(capsys, monkeypatch):
    from epikit import simengine

    sched = ";".join(["0,1,2"] * 4)
    code, out, _ = run_cli(capsys, "run", "--schedule", sched)
    assert code == 0
    size = len(out)
    monkeypatch.setattr(cli, "MAX_RUN_JSON_BYTES", size)
    assert run_cli(capsys, "run", "--schedule", sched) == (0, out, "")

    def no_text(record):
        raise AssertionError("text built for a refused run")

    monkeypatch.setattr(cli, "MAX_RUN_JSON_BYTES", size - 1)
    monkeypatch.setattr(simengine, "format_trace", no_text)
    assert run_cli(capsys, "run", "--schedule", sched) == (
        1,
        "",
        f"error: the trace of a 4-round run would take {size} bytes, "
        f"more than the cap of {size - 1}\n",
    )


def test_run_refuses_a_class_that_repeats_an_id():
    proc = _cli("run", "--schedule", "0|1,1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: concurrency class (1, 1) repeats an id\n"


def test_run_json_size_at_twelve_rounds_exceeds_the_default_cap():
    from epikit.schedules import parse_schedule
    from epikit.simengine import record_to_json, run

    data = record_to_json(run(parse_schedule(";".join(["0,1,2"] * 12))))
    assert cli.json_text_size(data) > cli.MAX_RUN_JSON_BYTES


# sha256 of `model protocol --n 3 --rounds 2`, the largest JSON export the
# benchmark writes
PROTOCOL_N3R2_SHA256 = "7cabf0d0974a059d85fb812e8835c3da9a98fdf099f308e0d1ab71ab9ede8712"


def test_json_writer_is_not_bound_by_the_recursion_limit():
    # a fresh process, since pytest's own frames would eat a limit set here
    code = (
        "import contextlib, hashlib, io, sys\n"
        "default = sys.getrecursionlimit()\n"
        "sys.setrecursionlimit(100)\n"
        "from epikit import cli\n"
        "def show(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(list(argv))\n"
        "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        "run = ('run', '--schedule', ';'.join(['0'] * 150), '--json')\n"
        "show(*run)\n"
        "show('model', 'protocol', '--n', '3', '--rounds', '2')\n"
        "sys.setrecursionlimit(default)\n"
        "show(*run)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.stderr == ""
    run_low, model_low, run_default = proc.stdout.splitlines()
    assert run_low == run_default and run_low.startswith("0 ")
    assert model_low == f"0 {PROTOCOL_N3R2_SHA256}"


def test_run_trace_prints_a_schedule_past_the_recursion_limit():
    proc = _cli("run", "--schedule", ";".join(["0"] * 1200), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "schedule " + ";".join(["0"] * 1200)
    assert lines[-1] == "final 0: " + "(0 saw {0:" * 1200 + "0" + "})" * 1200


# ---------------------------------------------------------------------------
# model checking

def test_mc_true_with_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "protocol", "--n", "2", "--rounds", "1",
        "--state", "0|1|2",
        "--formula", "K[0] (sched_0|1|2 | sched_0|1,2 | sched_0|2|1)",
    )
    assert code == 0
    assert out.strip() == "true"


def test_mc_false_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "protocol", "--n", "2", "--rounds", "1",
        "--state", "0|1|2",
        "--formula", "K[2] sched_0|1|2",
    )
    assert code == 2
    assert out.splitlines()[0] == "false"
    assert "witness" in out


def test_mc_tautology(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "input", "--n", "2", "--rounds", "1",
        "--state", "0",
        "--formula", "K[0] (id_0 | !id_0)",
    )
    assert code == 0
    assert out.strip() == "true"


def test_mc_parse_error(capsys):
    code, _, err = run_cli(
        capsys,
        "mc", "protocol", "--n", "2", "--rounds", "1",
        "--state", "0", "--formula", "(p &",
    )
    assert code == 1
    assert "parse error" in err


def test_mc_unknown_atom(capsys):
    code, _, err = run_cli(
        capsys,
        "mc", "protocol", "--n", "2", "--rounds", "1",
        "--state", "0", "--formula", "mystery",
    )
    assert code == 1
    assert "unknown atom" in err


def test_mc_formula_depth_bound(capsys):
    def mc(terms):
        return run_cli(
            capsys,
            "mc", "protocol", "--n", "1", "--rounds", "1",
            "--state", "0", "--formula", " | ".join(["id_0"] * terms),
        )

    code, out, _ = mc(MAX_FORMULA_DEPTH)
    assert code == 0
    assert out.strip() == "true"
    code, out, err = mc(2000)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "deeper than" in err


@pytest.mark.parametrize("kind", ["input", "protocol"])
def test_mc_schedule_text_names_a_state_of_schedule_indexed_models(kind):
    argv = ["mc", kind, "--n", "2", "--rounds", "2", "--formula", "sched_0|1,2;2|0,1"]
    by_text = _cli(*argv, "--state", "0|1,2 ; 2|0,1")
    # 0|1,2 is the block action at index 1 of 13, and 2|0,1 the one at 6
    by_index = _cli(*argv, "--state", str(1 * 13 + 6))
    assert (by_text.returncode, by_text.stdout, by_text.stderr) == (0, "true\n", "")
    assert (by_index.returncode, by_index.stdout, by_index.stderr) == (0, "true\n", "")


def test_mc_schedule_text_is_refused_on_the_output_model():
    # output state 1 is (schedule 0,1,2, tuple 1), not a state of 0|1,2
    argv = ["mc", "output", "--n", "2", "--task", "testset", "--formula", "sched_0|1,2"]
    proc = _cli(*argv, "--state", "0|1,2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: schedule text names a state of the input and protocol models only\n"
    )
    # index states behave as before
    proc = _cli(*argv, "--state", "1")
    assert (proc.returncode, proc.stdout.splitlines()[0]) == (2, "false")


def test_mc_schedule_text_is_refused_on_a_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, _, _ = run_cli(
        capsys, "export", "protocol-model", "--n", "1", "--json", str(path)
    )
    assert code == 0
    argv = ["mc", "--model-file", str(path), "--formula", "true"]
    proc = _cli(*argv, "--state", "0|1,2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: schedule text names a state of the input and protocol models only\n"
    )
    proc = _cli(*argv, "--state", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")


@pytest.mark.parametrize("argv, expected", [
    (["model", "protocol"], []),
    (["mc", "protocol", "--state", "0|1|2;0,1,2", "--formula", "K[0] id_0"], []),
    (["mc", "input", "--state", "0", "--formula", "true"], ["input_model"]),
    (["model", "output", "--task", "testset"], ["input_model", "product_update"]),
], ids=lambda value: " ".join(value[:2]) if value else "none")
def test_protocol_commands_build_no_input_model_or_product_update(
    capsys, monkeypatch, argv, expected
):
    # every module's binding is counted, so a new import cannot slip past
    calls = []
    for module in (logic, schedules, tasks, cli):
        for name in ("input_model", "product_update"):
            if hasattr(module, name):
                real = getattr(module, name)

                def counting(*args, real=real, name=name):
                    calls.append(name)
                    return real(*args)

                monkeypatch.setattr(module, name, counting)
    code, _, err = run_cli(capsys, *argv, "--n", "2", "--rounds", "2")
    assert (code, err) == (0, "")
    assert calls == expected


# ---------------------------------------------------------------------------
# check

def test_check_solvable_exit_zero(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        "check", "--n", "2", "--rounds", "1", "--task", "snapshot",
        "--certificate", str(cert),
    )
    assert code == 0
    assert out.strip() == "solvable"
    data = json.loads(cert.read_text())
    assert data["task"] == "snapshot"


def test_check_unsolvable_exit_two(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--n", "2", "--rounds", "1", "--task", "two-testset"
    )
    assert code == 2
    assert out.strip() == "unsolvable"


def test_check_report_json(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--n", "1", "--rounds", "1", "--task", "testset", "--report"
    )
    assert code == 2
    report = json.loads(out)
    assert report["conflict_core"] == ["0,1", "0|1", "1|0"]


def test_check_task_file(capsys, tmp_path):
    path = tmp_path / "task.json"
    code, _, _ = run_cli(
        capsys, "export", "task", "--n", "2", "--task", "snapshot",
        "--json", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "check", "--n", "2", "--rounds", "1", "--task-file", str(path)
    )
    assert code == 0
    assert out.strip() == "solvable"


@pytest.mark.parametrize("bad", [5, -1])
def test_check_task_file_rejects_bad_delta(capsys, tmp_path, bad):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({
        "n": 0, "N": 1, "tuples": [[0], [1]], "delta": [[0, bad]],
    }))
    code, out, err = run_cli(
        capsys, "check", "--n", "0", "--rounds", "1", "--task-file", str(path)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "delta row 0" in err


@pytest.mark.parametrize("row, value", [([1, 1], 1), ([0, 0], 0)])
def test_check_task_file_with_a_repeated_tuple_index(capsys, tmp_path, row, value):
    # a delta row names a set of tuples: [1, 1] allows tuple 1 alone
    path, cert = tmp_path / "task.json", tmp_path / "cert.json"
    data = {"n": 0, "N": 1, "tuples": [[0], [1]], "delta": [row]}
    path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "check", "--n", "0", "--rounds", "1", "--task-file", str(path),
        "--certificate", str(cert),
    )
    assert (code, out.strip(), err) == (0, "solvable", "")
    assert json.loads(cert.read_text())["decision"] == [[value]]
    copy = tmp_path / "copy.json"
    code, _, _ = run_cli(
        capsys, "export", "task", "--n", "0", "--task-file", str(path),
        "--json", str(copy),
    )
    assert code == 0
    assert json.loads(copy.read_text())["delta"] == [row]


@pytest.mark.parametrize("case", sorted(MALFORMED_TASKS))
def test_check_task_file_rejects_malformed_files(case, tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps(MALFORMED_TASKS[case]))
    n = "2" if case == "narrow tuples" else "0"
    proc = subprocess.run(
        [sys.executable, "-m", "epikit.cli", "check", "--n", n, "--task-file", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["check", "--n", "1", "--task-file"],
     ["mc", "--state", "0", "--formula", "true", "--model-file"]],
    ids=["check", "mc"],
)
def test_input_files_nested_too_deeply_are_refused(argv, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    proc = _cli(*argv, str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path} nests too deeply to read\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "header",
    [{"n": 3000, "N": 1}, {"n": 60, "N": 200}],
    ids=["3000 processes", "60 processes, 200 rounds"],
)
def test_check_task_file_refuses_an_oversized_header_at_once(header, tmp_path):
    # the schedule count of such a header is never built as an integer
    path = tmp_path / "task.json"
    path.write_text(json.dumps({**header, "tuples": [], "delta": []}))
    proc = subprocess.run(
        [sys.executable, "-m", "epikit.cli", "check", "--n", "2", "--task-file", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: delta table covers 0 schedules; n={header['n']} and "
        f"N={header['N']} have more\n"
    )


def test_cap_message_for_a_huge_n_is_immediate(capsys):
    code, _, err = run_cli(capsys, "check", "--n", "3000", "--task", "testset")
    assert code == 1
    assert f"enumerate more than {cli.ESTIMATE_LIMIT} schedules" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_mc_model_file_rejects_malformed_files(capsys, case, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[case]))
    code, out, err = run_cli(
        capsys, "mc", "--model-file", str(path), "--state", "0", "--formula", "true"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_check_report_on_a_task_without_tuples(capsys, tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"n": 0, "N": 1, "tuples": [], "delta": [[]]}))
    code, out, _ = run_cli(
        capsys, "check", "--n", "0", "--task-file", str(path), "--report"
    )
    assert code == 2
    assert json.loads(out)["conflict_core"] == ["0"]


@pytest.mark.parametrize("argv", [
    ["model", "output"],
    ["complex", "output"],
    ["export", "output-model", "--json"],
])
def test_output_objects_of_a_task_without_tuples_are_refused(argv, tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"n": 0, "N": 1, "tuples": [], "delta": [[]]}))
    export = tmp_path / "model.json"
    if argv[0] == "export":
        argv = argv + [str(export)]
    argv += ["--n", "0", "--task-file", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "epikit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: the task has no output tuples, so no output frame\n"
    assert not export.exists()


@pytest.fixture
def testset_file(tmp_path):
    """The builtin testset for two processes and one round, as a file."""
    path = tmp_path / "testset.json"
    proc = _cli("export", "task", "--n", "1", "--task", "testset", "--json", str(path))
    assert proc.returncode == 0
    return path


@pytest.mark.parametrize("size", [("1", "2"), ("2", "1")], ids=["rounds", "n"])
@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "--report"],
    ["model", "output"],
    ["mc", "output", "--state", "0", "--formula", "true"],
    ["export", "output-model", "--json"],
], ids=lambda argv: " ".join(argv))
def test_size_mismatched_task_file_is_refused(argv, size, testset_file, tmp_path):
    export = tmp_path / "out.json"
    if argv[0] == "export":
        argv = argv + [str(export)]
    n, rounds = size
    proc = _cli(*argv, "--n", n, "--rounds", rounds, "--task-file", str(testset_file))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: task 'testset' is tabulated for n=1, rounds=1\n"
    assert not export.exists()


def test_size_mismatched_task_file_for_objects_of_the_task_alone(testset_file, tmp_path):
    # the output complex and the task export read the task alone, so the
    # size options do not matter to them
    same = _cli("complex", "output", "--n", "1", "--task-file", str(testset_file))
    other = _cli(
        "complex", "output", "--n", "1", "--rounds", "2", "--task-file", str(testset_file)
    )
    assert (other.returncode, other.stdout, other.stderr) == (0, same.stdout, "")
    assert same.returncode == 0 and same.stdout.startswith("{")
    for what in ("task", "output-complex"):
        path = tmp_path / f"{what}.json"
        proc = _cli(
            "export", what, "--n", "2", "--rounds", "2",
            "--task-file", str(testset_file), "--json", str(path),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "task.json").read_text() == testset_file.read_text()
    assert json.loads((tmp_path / "output-complex.json").read_text()) == json.loads(
        same.stdout
    )


def test_check_deep_search_without_recursion(capsys, tmp_path):
    # every binary tuple at every schedule: 1,124 class variables, one
    # branching level each
    task = make_task(
        "anything", 3, 2, list(product((0, 1), repeat=4)), lambda s, out: True
    )
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task_to_json(task)))
    code, out, _ = run_cli(
        capsys, "check", "--n", "3", "--rounds", "2", "--task-file", str(path)
    )
    assert code == 0
    assert out == "solvable\n"


def test_check_many_rounds_without_recursion():
    # one schedule per round count at n=0, so only the nesting of the
    # local states grows: 1,200 rounds are past the recursion limit
    proc = _cli("check", "--n", "0", "--rounds", "1200", "--task", "testset",
                timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "solvable\n", "")


def test_check_report_solves_once(capsys, monkeypatch):
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    real_solve = solver.solve
    # the command imports solve from its module when it runs
    monkeypatch.setattr(solver, "solve", counting_solve)
    code, out, _ = run_cli(
        capsys, "check", "--n", "2", "--rounds", "1", "--task", "snapshot", "--report"
    )
    assert code == 0
    assert json.loads(out)["solvable"] is True
    assert len(calls) == 1


def test_check_requires_task(capsys):
    code, _, err = run_cli(capsys, "check", "--n", "2")
    assert code == 1
    assert "task" in err


# ---------------------------------------------------------------------------
# exports and round trips

def test_export_model_roundtrip(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, _, _ = run_cli(
        capsys, "export", "protocol-model", "--n", "2", "--json", str(path)
    )
    assert code == 0
    model = model_from_json(json.loads(path.read_text()))
    assert model.frame.state_count == 13


def test_export_complex_roundtrip(capsys, tmp_path):
    path = tmp_path / "complex.json"
    code, _, _ = run_cli(
        capsys, "export", "protocol-complex", "--n", "2", "--json", str(path)
    )
    assert code == 0
    data = json.loads(path.read_text())
    complex_, _ = frame_to_complex(schedules.protocol_model(2, 1).frame)
    assert data == complex_to_json(complex_)
    assert len(data["facets"]) == 13


def test_export_task_roundtrip(capsys, tmp_path):
    path = tmp_path / "task.json"
    run_cli(capsys, "export", "task", "--n", "2", "--task", "two-testset",
            "--json", str(path))
    task = task_from_json(json.loads(path.read_text()))
    assert len(task.output.tuples) == 6


def test_export_dot_output_complex(capsys, tmp_path):
    path = tmp_path / "out.dot"
    code, _, _ = run_cli(
        capsys, "export", "output-complex", "--n", "2", "--task", "two-testset",
        "--dot", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("graph complex {")
    assert text.count(" -- ") == 12  # hexagon: 6 edge + 6 vertex adjacencies


def test_export_needs_exactly_one_format(capsys, tmp_path):
    code, _, err = run_cli(capsys, "export", "schedules", "--n", "1")
    assert code == 1
    assert "exactly one" in err


@pytest.mark.parametrize(
    "what, message",
    [("schedules", "schedules export only as --json"),
     ("task", "tasks export only as --json")],
)
def test_export_json_only_objects_refuse_dot(capsys, tmp_path, what, message):
    path = tmp_path / "out.dot"
    code, out, err = run_cli(
        capsys, "export", what, "--n", "1", "--task", "testset", "--dot", str(path)
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not path.exists()


# sha256 of the exact bytes each export had before the DOT writers shared
# one walk over the related pairs; the writers must keep them
PINNED_EXPORTS = {
    "model protocol --n 2 --rounds 2 --dot":
        "b346f5ca1ccac09af2f64542f03ac347c5fd724efd37164061d6723469289d27",
    "complex protocol --n 2 --rounds 2 --dot":
        "f6b404dacec7766362e2034f3260db0186d9ce9dca497df5bca9151810cbd1ad",
    "complex protocol --n 2 --rounds 2":
        "649d318d90ee18c6da415c1fed87073aea77afd739b19ebf7272182815a7f38b",
}


@pytest.mark.parametrize("command", sorted(PINNED_EXPORTS))
def test_export_bytes_are_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_EXPORTS[command]


def test_exported_output_complex_dot_is_pinned(capsys, tmp_path):
    path = tmp_path / "ring.dot"
    code, _, err = run_cli(
        capsys, "export", "output-complex", "--n", "2", "--task", "two-testset",
        "--dot", str(path),
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0415fde5744caf6e6f893851bc808c08079a1d1e28682d7f8f2862b21783e7b4"
    )


# sha256 of `export task` files as they were when the winners builtins
# were tabulated from the full-information final states
PINNED_TASK_EXPORTS = {
    "--n 2 --rounds 4 --task two-testset":
        "14d9980a980668e7f9a3c5a030a44c57cee4b47f76a2396b782ae3da0fd26783",
    "--n 3 --rounds 2 --task testset":
        "fec6bd33442a1b1a78f55af2a96d111fff0038c6a2eeecc8f37ea14a7d2d585e",
}


@pytest.mark.parametrize("options", sorted(PINNED_TASK_EXPORTS))
def test_exported_task_bytes_are_pinned(capsys, tmp_path, options):
    path = tmp_path / "task.json"
    code, _, err = run_cli(capsys, "export", "task", *options.split(), "--json", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TASK_EXPORTS[options]


def test_exports_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    run_cli(capsys, "export", "protocol-model", "--n", "2", "--dot", str(a))
    run_cli(capsys, "export", "protocol-model", "--n", "2", "--dot", str(b))
    assert a.read_text() == b.read_text()


def test_model_stdout_matches_export(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "model", "input", "--n", "1")
    assert code == 0
    path = tmp_path / "m.json"
    run_cli(capsys, "export", "input-model", "--n", "1", "--json", str(path))
    assert json.loads(out) == json.loads(path.read_text())


# ---------------------------------------------------------------------------
# indented JSON

_TEXTS = ["", "p", "sched_0|1,2", 'quote " and \\ back', "tab\tline\nend\r",
          "\x00\x1f\x7f", "caf\u00e9", "\u2028\u2029", "\U0001f600 snow \u2603", "/"]


def _random_json(rng, depth):
    """A random value built from what ``json.dumps`` accepts, leaning on
    the nested lists and dicts of the exports."""
    kinds = ["int", "str", "bool", "none", "float"]
    if depth:
        kinds += ["list", "int_list", "str_list", "dict", "tuple", "empty"] * 2
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.choice([0, 1, -1, 7, 5625, -(2**70), 2**64])
    if kind == "str":
        return rng.choice(_TEXTS)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "float":
        return rng.choice([0.5, -2.0, 1e300, float("inf"), float("nan")])
    if kind == "int_list":
        return [rng.randrange(-3, 10**4) for _ in range(rng.randrange(1, 6))]
    if kind == "str_list":
        return [rng.choice(_TEXTS) for _ in range(rng.randrange(1, 5))]
    if kind == "empty":
        return rng.choice([[], {}, ()])
    size = rng.randrange(0, 5)
    if kind == "list":
        return [_random_json(rng, depth - 1) for _ in range(size)]
    if kind == "tuple":
        return tuple(_random_json(rng, depth - 1) for _ in range(size))
    # mostly string keys; now and then keys json.dumps converts
    keys = [rng.choice(_TEXTS) + str(k) for k in range(size)]
    if rng.random() < 0.2:
        keys.append(rng.choice([3, -1, True, None, 2.5]))
    return {key: _random_json(rng, depth - 1) for key in keys}


@pytest.mark.parametrize("seed", range(20))
def test_json_text_matches_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(25):
        data = _random_json(rng, 4)
        assert cli.json_text(data) == json.dumps(data, indent=2)


_JSON_EDGE_CASES = [
    [], {}, [[]], {"a": {}}, [[], [1, [2, []]], {}], {"k": [True, False, None, 1]},
    [1, True], ["a", 1], {"\u00e9\n": "\U0001f600"}, {1: [1], "1": [2]},
    # keys json.dumps converts, in dicts nested in one another
    {1: [1, 2], "a": {2.5: None}, None: {}, False: [[3], "x"]},
    {float("nan"): 1, float("inf"): [2], float("-inf"): (), -0.0: {"k": 1e300}},
    {True: {-(2**70): [{}]}, "1": [1, {None: [None]}], 2**64: "big"},
]


@pytest.mark.parametrize("data", _JSON_EDGE_CASES)
def test_json_text_matches_json_dumps_on_edge_cases(data):
    assert cli.json_text(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize("seed", range(20))
def test_json_text_size_is_the_length_of_the_text(seed):
    rng = random.Random(seed)
    for _ in range(25):
        data = _random_json(rng, 4)
        assert cli.json_text_size(data) == len(cli.json_text(data))


@pytest.mark.parametrize("data", [{(1, 2): 1}, {"a": [{b"k": 1}]}, {"a": 1, frozenset(): 2}])
def test_json_text_refuses_the_keys_json_dumps_refuses(data):
    with pytest.raises(TypeError) as expected:
        json.dumps(data, indent=2)
    for write in (cli.json_text, cli.json_text_size):
        with pytest.raises(TypeError) as raised:
            write(data)
        assert str(raised.value) == str(expected.value)


def test_json_text_of_a_dict_with_int_keys_is_not_bound_by_the_recursion_limit():
    # a fresh process, since pytest's own frames would eat a limit set here
    code = (
        "import json, sys\n"
        "sys.setrecursionlimit(100)\n"
        "from epikit import cli\n"
        "deep = []\n"
        "for _ in range(2000):\n"
        "    deep = [deep]\n"
        "try:\n"
        "    json.dumps({1: deep}, indent=2)\n"
        "except RecursionError:\n"
        "    print('recursed')\n"
        "text = cli.json_text({1: deep})\n"
        "print(text == cli.json_text({'1': deep}))\n"
        "print(cli.json_text_size({1: deep}) == cli.json_text_size({'1': deep}) == len(text))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.stderr == ""
    # before 3.13 the library takes its recursive pure-Python encoder for
    # any indent; 3.13's C encoder indents too, and recurses in C
    recursed = ["recursed"] if sys.version_info < (3, 13) else []
    assert proc.stdout.splitlines() == [*recursed, "True", "True"]


def test_json_text_size_counts_each_occurrence_of_a_shared_value():
    from epikit.schedules import parse_schedule
    from epikit.simengine import record_to_json, run

    shared = [[1, "a"], {"b": (2, 3)}]
    cases = [*_JSON_EDGE_CASES, [shared, {"x": shared, "y": [shared, shared]}]]
    for text in ["0|1,2;0,1,2", ";".join(["0,1,2"] * 3), ";".join(["0|1"] * 20)]:
        cases.append(record_to_json(run(parse_schedule(text))))
    for data in cases:
        assert cli.json_text_size(data) == len(cli.json_text(data)), data


def test_json_exports_are_those_of_json_dumps(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "check", "--n", "2", "--task", "snapshot",
                           "--certificate", str(cert))
    assert code == 0
    text = cert.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    for argv in (["model", "protocol", "--n", "2"],
                 ["complex", "protocol", "--n", "2"],
                 ["check", "--n", "1", "--task", "testset", "--report"],
                 ["run", "--schedule", "0|1,2;0,1,2", "--json"]):
        code, out, _ = run_cli(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


# ---------------------------------------------------------------------------
# entry point

_IMPORTS_AFTER = """
import contextlib, io, sys
from epikit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(" ".join(sorted(m for m in sys.modules if m.startswith("epikit"))))
"""
_MODELS = {"epikit", "epikit.cli", "epikit.record", "epikit.kernel", "epikit.logic",
           "epikit.schedules"}


@pytest.mark.parametrize("argv, modules", [
    (["--version"], {"epikit", "epikit.cli"}),
    (["model", "protocol", "--n", "2", "--rounds", "2"], _MODELS),
    (["mc", "protocol", "--state", "0|1|2", "--formula", "K[0] id_0"], _MODELS),
    (["check", "--n", "1", "--task", "testset"],
     _MODELS | {"epikit.tasks", "epikit.solver"}),
    # only a Solvable verdict runs the simulator, to verify its certificate
    (["check", "--n", "2", "--task", "snapshot"],
     _MODELS | {"epikit.simengine", "epikit.tasks", "epikit.solver"}),
], ids=["version", "model protocol", "mc protocol", "check", "check solvable"])
def test_each_command_imports_only_the_modules_it_runs(argv, modules):
    # a new process, so the modules this test process holds do not count
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AFTER, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == modules


def test_cli_solve_is_the_package_solve():
    import epikit

    assert cli.solve is epikit.solve is solver.solve
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name

def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "epikit.cli", "schedules", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0,1", "0|1", "1|0"]
