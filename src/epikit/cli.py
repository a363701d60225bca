"""Command-line front end.

Exit codes are a stable scripting contract: 0 success (and Solvable, and
true model-checking verdicts), 2 Unsolvable (and false verdicts), 1 any
error, including argument errors.  All output is deterministic; canonical
orderings everywhere and no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .kernel import agent_name, frame_to_dot
from .logic import (
    FormulaParseError,
    Know,
    eval_formula,
    model_from_json,
    model_to_json,
    parse_formula,
)
from .schedules import (
    input_model,
    parse_schedule,
    protocol_model,
    schedule_context,
    schedule_count,
    schedule_to_json,
)
from .simengine import format_trace, record_to_json, run
from .solver import decision_to_json, solve, verdict_report
from .tasks import builtin, output_model, task_from_json, task_to_json
from .topology import complex_to_dot, complex_to_json, frame_to_complex

DEFAULT_MAX_N = 5
# more schedules than this are refused unless --max-n-override is given;
# two_testset at four rounds has 28,561
MAX_SCHEDULES = 10**6
# schedule counts above this are not worked out for the caps' messages
ESTIMATE_LIMIT = 10**18

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    Unsolvable, so route everything through exit code 1."""

    def error(self, message):
        raise CliError(message)


def _check_n(args) -> None:
    if args.n < 0:
        raise CliError("--n must be >= 0")
    if args.max_n_override:
        return
    count = schedule_count(args.n, args.rounds, ESTIMATE_LIMIT)
    estimate = f"more than {ESTIMATE_LIMIT}" if count is None else count
    if args.n > DEFAULT_MAX_N:
        raise CliError(
            f"--n {args.n} exceeds the default cap of {DEFAULT_MAX_N}; the "
            f"run would enumerate {estimate} schedules. Pass "
            "--max-n-override to proceed."
        )
    if count is None or count > MAX_SCHEDULES:
        raise CliError(
            f"--n {args.n} --rounds {args.rounds} would enumerate {estimate} "
            f"schedules, more than the default cap of {MAX_SCHEDULES}. Pass "
            "--max-n-override to proceed."
        )


def _load_task(args):
    if args.task_file:
        with open(args.task_file) as fh:
            return task_from_json(json.load(fh))
    if args.task:
        return builtin(args.task, args.n, args.rounds)
    raise CliError("supply --task or --task-file")


def _sized_task(args):
    """The task, which must be tabulated for --n and --rounds."""
    task = _load_task(args)
    if task.n != args.n or task.rounds != args.rounds:
        raise CliError(
            f"task {task.name!r} is tabulated for n={task.n}, rounds={task.rounds}"
        )
    return task


def _resolve_state(args) -> int:
    """A state is an index or, for the schedule-indexed input and protocol
    models built here, schedule text."""
    if args.state.isdigit():
        return int(args.state)
    if args.model_file or args.kind == "output":
        raise CliError("schedule text names a state of the input and protocol models only")
    texts = schedule_context(args.n, args.rounds).texts
    text = parse_schedule(args.state).text()
    if text in texts:
        return texts.index(text)
    raise CliError(f"schedule {args.state!r} is not a state of this model")


def _build_model(args):
    if args.kind == "input":
        return input_model(args.n, args.rounds)
    if args.kind == "protocol":
        return protocol_model(args.n, args.rounds)
    model, _ = output_model(_sized_task(args))
    return model


def _build_complex(args):
    if args.kind == "protocol":
        frame = schedule_context(args.n, args.rounds).frame
    else:
        frame = _load_task(args).output.frame
    complex_, _ = frame_to_complex(frame)
    return complex_


def _render(args, what: str, dot: bool) -> str:
    """An export object (``schedules``, ``task``, or ``<kind>-model`` and
    ``<kind>-complex``) as DOT or as indented JSON, newline-terminated."""
    if what == "schedules":
        if dot:
            raise CliError("schedules export only as --json")
        scheds = schedule_context(args.n, args.rounds).schedules
        data = [schedule_to_json(s) for s in scheds]
    elif what == "task":
        if dot:
            raise CliError("tasks export only as --json")
        data = task_to_json(_load_task(args))
    else:
        args.kind, obj = what.split("-")
        if obj == "model":
            model = _build_model(args)
            if dot:
                return frame_to_dot(model.frame)
            data = model_to_json(model)
        else:
            complex_ = _build_complex(args)
            if dot:
                return complex_to_dot(complex_)
            data = complex_to_json(complex_)
    return json_text(data) + "\n"


def json_text(data) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, in a fraction of
    the time: the library takes its pure-Python encoder for any indent.
    Lists of ints or strings are joined in one call; values of other
    kinds, and dicts with keys that are not strings, go to ``json.dumps``
    and have their lines indented to their depth (JSON text holds no
    raw newline inside a string)."""
    return _indented(data, "\n")


# the element types of the lists that _indented joins in one call
_INTS = {int}
_STRS = {str}


def _indented(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if (kind is list or kind is tuple) and obj:
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == _INTS:
            body = ("," + inner).join(map(int.__repr__, obj))
        elif kinds == _STRS:
            body = ("," + inner).join(map(encode_basestring_ascii, obj))
        else:
            body = ("," + inner).join([_indented(item, inner) for item in obj])
        return f"[{inner}{body}{newline}]"
    if kind is dict and obj and set(map(type, obj)) == _STRS:
        inner = newline + "  "
        body = ("," + inner).join([
            f"{encode_basestring_ascii(key)}: {_indented(value, inner)}"
            for key, value in obj.items()
        ])
        return f"{{{inner}{body}{newline}}}"
    return json.dumps(obj, indent=2).replace("\n", newline)


# ---------------------------------------------------------------------------
# subcommands

def cmd_schedules(args) -> int:
    _check_n(args)
    if args.json:
        sys.stdout.write(_render(args, "schedules", False))
    else:
        print("\n".join(schedule_context(args.n, args.rounds).texts))
    return EXIT_OK


def cmd_run(args) -> int:
    sched = parse_schedule(args.schedule)
    record = run(sched)
    if not args.json:
        sys.stdout.write(format_trace(record))
        return EXIT_OK
    # the JSON text is built whole, by recursion over the nested local
    # states, before any of it is written
    try:
        text = json_text(record_to_json(record)) + "\n"
    except RecursionError:
        raise CliError(
            f"the local states of a {sched.round_count}-round run nest too "
            "deeply to print"
        )
    sys.stdout.write(text)
    return EXIT_OK


def cmd_show(args) -> int:
    """``model`` and ``complex``: print the object of that kind."""
    _check_n(args)
    sys.stdout.write(_render(args, f"{args.kind}-{args.command}", args.dot))
    return EXIT_OK


def cmd_mc(args) -> int:
    _check_n(args)
    state = _resolve_state(args)
    if args.model_file:
        with open(args.model_file) as fh:
            model = model_from_json(json.load(fh))
    else:
        model = _build_model(args)
    if not 0 <= state < model.frame.state_count:
        raise CliError(f"state {state} out of range")
    try:
        formula = parse_formula(args.formula)
    except FormulaParseError as exc:
        raise CliError(f"formula parse error: {exc}")
    verdict = eval_formula(model, state, formula)
    print("true" if verdict else "false")
    if not verdict and isinstance(formula, Know):
        agent = formula.agent
        cls = model.frame.partitions[agent][state]
        for other in model.frame.classes_by_agent[agent][cls]:
            if not eval_formula(model, other, formula.sub):
                print(
                    f"witness: state {other} is {agent_name(agent)}-related "
                    "and falsifies the body"
                )
                break
    return EXIT_OK if verdict else EXIT_UNSOLVABLE


def cmd_check(args) -> int:
    _check_n(args)
    task = _sized_task(args)
    verdict = solve(task)
    if args.report:
        print(json_text(verdict_report(task, verdict)))
    else:
        print("solvable" if verdict.solvable else "unsolvable")
    if verdict.solvable and args.certificate:
        with open(args.certificate, "w") as fh:
            fh.write(json_text(decision_to_json(task, verdict)) + "\n")
    return EXIT_OK if verdict.solvable else EXIT_UNSOLVABLE


def cmd_export(args) -> int:
    _check_n(args)
    if bool(args.dot) == bool(args.json):
        raise CliError("choose exactly one of --dot PATH or --json PATH")
    text = _render(args, args.what, bool(args.dot))
    with open(args.dot or args.json, "w") as fh:
        fh.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

def _add_shared(parser, need_task=False):
    parser.add_argument("--n", type=int, default=2, help="largest process id (n+1 processes)")
    parser.add_argument("--rounds", type=int, default=1, help="number of rounds N")
    parser.add_argument("--max-n-override", action="store_true",
                        help="lift the default caps on --n and on the schedule count")
    if need_task:
        parser.add_argument("--task", choices=["testset", "two-testset", "two_testset", "snapshot"],
                            help="built-in task name")
        parser.add_argument("--task-file", help="JSON task description")


def build_parser() -> _Parser:
    parser = _Parser(prog="epikit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"epikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedules", help="list the canonical schedule enumeration")
    _add_shared(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schedules)

    p = sub.add_parser("run", help="simulate one schedule round by round")
    p.add_argument("--schedule", required=True, help="e.g. '0|1,2;0,1,2'")
    p.add_argument("--json", action="store_true", help="emit the run record as JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("model", help="print a built-in Kripke model")
    p.add_argument("kind", choices=["input", "protocol", "output"])
    _add_shared(p, need_task=True)
    p.add_argument("--dot", action="store_true", help="emit the frame as DOT")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("complex", help="print a dual chromatic complex")
    p.add_argument("kind", choices=["protocol", "output"])
    _add_shared(p, need_task=True)
    p.add_argument("--dot", action="store_true", help="emit facet adjacency as DOT")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("mc", help="evaluate a formula at a state")
    p.add_argument("kind", choices=["input", "protocol", "output"], nargs="?",
                   default="protocol")
    _add_shared(p, need_task=True)
    p.add_argument("--model-file", help="JSON model instead of a built-in")
    p.add_argument("--state", required=True,
                   help="state index or schedule text for schedule-indexed models")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("check", help="decide task solvability")
    _add_shared(p, need_task=True)
    p.add_argument("--certificate", help="write the decision map here when solvable")
    p.add_argument("--report", action="store_true", help="emit the full JSON report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="write an object to a file")
    p.add_argument("what", choices=[
        "schedules", "input-model", "protocol-model", "output-model",
        "protocol-complex", "output-complex", "task",
    ])
    _add_shared(p, need_task=True)
    p.add_argument("--dot", metavar="PATH", help="write DOT here")
    p.add_argument("--json", metavar="PATH", help="write JSON here")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
