"""The benchmark's workloads: the CLI commands of one op and the check of
each command's exit code and output.

A workload is built from a seed into a list of ``Step``s; one op runs
every step once, in order.  Where a reference independent of the code
under test exists, the checks use it: view classes come from the memory
simulator, and a conflict core is checked by re-solving relaxed tasks.
Exports that are contracts (the canonical certificate, the bit-stable
model JSON) are checked against digests taken on the seed commit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

# sha256 of `model protocol --n 3 --rounds 2` stdout
PROTOCOL_N3R2_SHA256 = "7cabf0d0974a059d85fb812e8835c3da9a98fdf099f308e0d1ab71ab9ede8712"
# sha256 of the certificate file of `check --n 4 --task snapshot`
SNAPSHOT_N4_CERT_SHA256 = "bb28877fb836abd8488c1d0d0fb1196b6a39f9a863cafe738a66db4194bb1442"


@dataclass
class Step:
    """One CLI invocation.  ``check`` gets the exit code and stdout and
    returns an error message or None; ``outputs`` are files the step
    writes, removed before each run of it so a stale one cannot pass."""

    args: list[str]
    check: Callable[[int, bytes], str | None]
    outputs: tuple[Path, ...] = ()


def _expect(code: int, want_code: int, out: bytes, want_out: str) -> str | None:
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if out.decode() != want_out:
        return f"stdout {out[:200]!r}, expected {want_out!r}"
    return None


def _verdict(want_code: int, want_out: str):
    return lambda code, out: _expect(code, want_code, out, want_out)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


# ---------------------------------------------------------------------------
# search-tt2

def _core_check(scheds, task, core: tuple[int, ...]) -> str | None:
    """A conflict core is unsolvable when every other schedule allows any
    combination of decision values, and freeing any one more member makes
    it solvable.  (Allowing every output tuple would not free a schedule:
    the decisions would still have to form an output tuple.)"""
    from epikit.solver import solve
    from epikit.tasks import InputlessTask, OutputFrame

    domains = [task.output.values_for(a) for a in range(task.process_count)]
    tuples = list(task.output.tuples)
    tuples += [t for t in itertools.product(*domains) if t not in tuples]
    output = OutputFrame(tuple(tuples))
    every = tuple(range(len(tuples)))

    def relaxed(keep: set[int]) -> InputlessTask:
        table = tuple(
            row if k in keep else every for k, row in enumerate(task.delta_table)
        )
        return InputlessTask(task.name, task.n, task.rounds, output, table)

    if solve(relaxed(set(core))).solvable:
        return "conflict core is solvable"
    for member in core:
        if not solve(relaxed(set(core) - {member})).solvable:
            return f"conflict core is not minimal: {scheds[member].text()} is redundant"
    return None


def search_tt2(seed: int, work: Path) -> list[Step]:
    """The hard refutation, then a report with a conflict core at one round
    (the two-round core takes minutes).  The inputs are fixed builtins, so
    the seed does not change them."""
    from epikit.schedules import enum_schedules
    from epikit.tasks import builtin

    scheds = enum_schedules(2, 1)
    index = {s.text(): k for k, s in enumerate(scheds)}
    task = builtin("two_testset", 2, 1)
    verified: dict[tuple[int, ...], str | None] = {}

    def check_report(code: int, out: bytes) -> str | None:
        if code != 2:
            return f"exit code {code}, expected 2"
        report = json.loads(out)
        if report["solvable"] is not False or report["states"] != len(scheds):
            return "report does not say unsolvable over 13 schedules"
        core = tuple(index[text] for text in report["conflict_core"])
        if core not in verified:
            verified[core] = _core_check(scheds, task, core)
        return verified[core]

    return [
        Step(["check", "--n", "2", "--rounds", "2", "--task", "two-testset"],
             _verdict(2, "unsolvable\n")),
        Step(["check", "--n", "2", "--rounds", "1", "--task", "two-testset", "--report"],
             check_report),
    ]


# ---------------------------------------------------------------------------
# build-n3r2

def build_n3r2(seed: int, work: Path) -> list[Step]:
    """Tabulate and refute testset, export the protocol model, and check a
    seeded knowledge claim in it; each command builds its models anew."""
    scheds, classes = gen.simulator_classes(3, 2)
    query = gen.mc_query(seed, scheds, classes)

    def check_model(code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if _sha256(out) != PROTOCOL_N3R2_SHA256:
            return "protocol model JSON differs from the seed commit's export"
        return None

    def check_mc(code: int, out: bytes) -> str | None:
        if query["expect_true"]:
            return _expect(code, 0, out, "true\n")
        lines = out.decode().splitlines()
        if code != 2 or not lines or lines[0] != "false":
            return f"exit code {code} and stdout {out[:200]!r}, expected false"
        match = re.match(r"witness: state (\d+) is ", lines[1] if len(lines) > 1 else "")
        if not match or int(match.group(1)) != query["witness"]:
            return f"witness line {lines[1:]!r}, expected state {query['witness']}"
        return None

    return [
        Step(["check", "--n", "3", "--rounds", "2", "--task", "testset"],
             _verdict(2, "unsolvable\n")),
        Step(["model", "protocol", "--n", "3", "--rounds", "2"], check_model),
        Step(["mc", "protocol", "--n", "3", "--rounds", "2",
              "--state", query["state"], "--formula", query["formula"]], check_mc),
    ]


# ---------------------------------------------------------------------------
# certify

def _certificate_check(cert: dict, task: dict, scheds, classes) -> str | None:
    """Row by row: the certificate's classes are the simulator's, and the
    tuple it induces at every schedule is allowed by the task file."""
    index = {s.text(): k for k, s in enumerate(scheds)}
    tuples = [tuple(t) for t in task["tuples"]]
    value_of: list[list] = []
    for a, (members, values) in enumerate(zip(cert["classes"], cert["decision"])):
        if len(members) != len(values):
            return f"agent {a}: {len(values)} values for {len(members)} classes"
        row = [None] * len(scheds)
        seen_sim: set[int] = set()
        for cls_members, value in zip(members, values):
            ks = [index.get(text) for text in cls_members]
            if None in ks:
                return f"agent {a}: certificate names an unknown schedule"
            sim = {classes[a][k] for k in ks}
            if len(sim) != 1 or sim & seen_sim:
                return f"agent {a}: certificate classes differ from the simulator's"
            seen_sim |= sim
            for k in ks:
                row[k] = value
        if None in row or len(seen_sim) != max(classes[a]) + 1:
            return f"agent {a}: certificate classes do not cover every schedule"
        value_of.append(row)
    if len(value_of) != len(classes):
        return f"certificate covers {len(value_of)} agents, expected {len(classes)}"
    for k in range(len(scheds)):
        out = tuple(value_of[a][k] for a in range(len(classes)))
        if out not in tuples or tuples.index(out) not in task["delta"][k]:
            return f"schedule {scheds[k].text()}: tuple {out} is not allowed"
    return None


def certify(seed: int, work: Path) -> list[Step]:
    """Solve the seeded planted task and snapshot n=4, writing both
    certificates."""
    scheds, classes = gen.simulator_classes(gen.PLANTED_N, gen.PLANTED_ROUNDS)
    task = gen.planted_task(seed, classes)
    task_path = work / "planted.json"
    task_path.write_text(json.dumps(task))
    planted_cert = work / "planted-cert.json"
    snapshot_cert = work / "snapshot-cert.json"

    def check_planted(code: int, out: bytes) -> str | None:
        error = _expect(code, 0, out, "solvable\n")
        if error:
            return error
        data = _read(planted_cert)
        if data is None:
            return "no certificate written"
        return _certificate_check(json.loads(data), task, scheds, classes)

    def check_snapshot(code: int, out: bytes) -> str | None:
        error = _expect(code, 0, out, "solvable\n")
        if error:
            return error
        data = _read(snapshot_cert)
        if data is None or _sha256(data) != SNAPSHOT_N4_CERT_SHA256:
            return "snapshot certificate differs from the seed commit's"
        return None

    return [
        Step(["check", "--task-file", str(task_path), "--n", "3", "--rounds", "2",
              "--certificate", str(planted_cert)], check_planted, (planted_cert,)),
        Step(["check", "--n", "4", "--task", "snapshot",
              "--certificate", str(snapshot_cert)], check_snapshot, (snapshot_cert,)),
    ]


BUILDERS = {"search-tt2": search_tt2, "build-n3r2": build_n3r2, "certify": certify}
