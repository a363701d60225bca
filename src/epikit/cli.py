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
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__

# Only the standard library is imported up front.  Each command imports
# the epikit modules it runs where it runs them, so a process compiles no
# module its command does not use: --version loads none, model protocol
# and mc protocol load record, kernel, logic and schedules, and check
# everything but topology.

DEFAULT_MAX_N = 5
# more schedules than this are refused unless --max-n-override is given;
# two_testset at four rounds has 28,561
MAX_SCHEDULES = 10**6
# schedule counts above this are not worked out for the caps' messages
ESTIMATE_LIMIT = 10**18
# run refuses to print more bytes than this, as text or as --json; eight
# rounds of 0,1,2 take 18.8 MB as JSON, twelve take 43.8 MB as text
MAX_RUN_JSON_BYTES = 32 * 2**20

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2


def __getattr__(name: str):
    # ``cli.solve`` is still read as an attribute (perfbench's tracer test
    # compares it before and after tracing); it is the package's ``solve``
    if name == "solve":
        from . import solve

        return solve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    from .schedules import schedule_count

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


def _read_json(path: str, from_json):
    """``from_json`` of the JSON file at ``path``, refused if too deep."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise CliError(f"{path} nests too deeply to read")
    return from_json(data)


def _load_task(args):
    from .tasks import builtin, task_from_json

    if args.task_file:
        return _read_json(args.task_file, task_from_json)
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
    from .schedules import parse_schedule, schedule_context

    texts = schedule_context(args.n, args.rounds).texts
    text = parse_schedule(args.state).text()
    if text in texts:
        return texts.index(text)
    raise CliError(f"schedule {args.state!r} is not a state of this model")


def _build_model(args):
    if args.kind == "input":
        from .schedules import input_model

        return input_model(args.n, args.rounds)
    if args.kind == "protocol":
        from .schedules import protocol_model

        return protocol_model(args.n, args.rounds)
    from .tasks import output_model

    return output_model(_sized_task(args))[0]


def _build_complex(args):
    from .topology import frame_to_complex

    if args.kind == "protocol":
        from .schedules import schedule_context

        frame = schedule_context(args.n, args.rounds).frame
    else:
        frame = _load_task(args).output.frame
    return frame_to_complex(frame)[0]


def _render(args, what: str, dot: bool) -> str:
    """An export object (``schedules``, ``task``, or ``<kind>-model`` and
    ``<kind>-complex``) as DOT or as indented JSON, newline-terminated."""
    if what == "schedules":
        if dot:
            raise CliError("schedules export only as --json")
        from .schedules import schedule_context, schedule_to_json

        scheds = schedule_context(args.n, args.rounds).schedules
        data = [schedule_to_json(s) for s in scheds]
    elif what == "task":
        if dot:
            raise CliError("tasks export only as --json")
        from .tasks import task_to_json

        data = task_to_json(_load_task(args))
    else:
        args.kind, obj = what.split("-")
        if obj == "model":
            model = _build_model(args)
            if dot:
                from .kernel import frame_to_dot

                return frame_to_dot(model.frame)
            from .logic import model_to_json

            data = model_to_json(model)
        else:
            from .topology import complex_to_dot, complex_to_json

            complex_ = _build_complex(args)
            if dot:
                return complex_to_dot(complex_)
            data = complex_to_json(complex_)
    return json_text(data) + "\n"


def json_text(data) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, in a fraction of
    the time: before Python 3.13 the library takes its pure-Python
    encoder for any indent.
    Lists of ints or strings are joined in one call; other leaves and
    empty containers, which fit on one line, go to ``json.dumps``.  Open
    containers wait on an explicit stack, so no nesting meets the
    recursion limit."""
    out: list[str] = []
    # per open container: its (lead, value) pairs left, its values' layout, its close
    stack: list = []
    layouts = cache(_layout)  # one per depth: its containers share the strings
    obj, layout = data, layouts("\n")
    while True:
        kind = type(obj)
        if kind is str:
            out.append(encode_basestring_ascii(obj))
        elif kind is int:
            out.append(int.__repr__(obj))
        elif (kind is list or kind is tuple) and (kinds := set(map(type, obj))) in (_INTS, _STRS):
            _, _, sep, list_open, list_close, _, _ = layout
            show = int.__repr__ if kinds == _INTS else encode_basestring_ascii
            out.append(list_open + sep.join(map(show, obj)) + list_close)
        elif (container := _container(obj, layout)) is None:
            out.append(json.dumps(obj))
        else:
            leads, values, close = container
            stack.append((zip(leads, values), layouts(layout[1]), close))
        while stack and (member := next(stack[-1][0], None)) is None:
            out.append(stack.pop()[2])
        if not stack:
            return "".join(out)
        lead, obj = member
        out.append(lead)
        layout = stack[-1][1]


# the element types of the lists that json_text joins in one call
_INTS = {int}
_STRS = {str}


def _layout(newline: str) -> tuple[str, ...]:
    """``(newline, inner, sep, list open, list close, dict open, dict close)``:
    the text around a container at line break ``newline``, values at ``inner``."""
    inner = newline + "  "
    return newline, inner, "," + inner, "[" + inner, newline + "]", "{" + inner, newline + "}"


def _container(obj, layout: tuple[str, ...]):
    """``(leads, values, close)`` of a non-empty list, tuple or dict: its
    text is each value after its lead (the opening or the separator, then
    a dict's ``"key": ``), then ``close``.  None for a value written
    whole."""
    _, _, sep, list_open, list_close, dict_open, dict_close = layout
    if isinstance(obj, (list, tuple)) and obj:
        return [list_open] + [sep] * (len(obj) - 1), obj, list_close
    if isinstance(obj, dict) and obj:
        keys = [_key_text(key) for key in obj]
        return [dict_open + keys[0], *(sep + key for key in keys[1:])], obj.values(), dict_close
    return None


def _key_text(key) -> str:
    """A dict key and its ``": "`` as ``json.dumps`` writes them: an
    int, float, bool or None key as its JSON text, quoted."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):  # bool is an int
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return encode_basestring_ascii(key) + ": "


def json_text_size(data) -> int:
    """``len(json_text(data))``, worked out without building the text.
    Each distinct container's (length, newlines) at depth 0 is worked out
    once, by ``id``, in a loop over an explicit stack, and serves every
    place it occurs (one level deeper, its text gains two spaces after
    each newline): the time is linear in the distinct containers."""
    top = _layout("\n")
    sizes: dict[int, tuple[int, int]] = {}
    stack = [data]
    while stack:
        obj = stack.pop()
        # a value written whole is its text alone, as json.dumps writes it
        leads, values, close = _container(obj, top) or ([json.dumps(obj)], (), "")
        todo = [value for value in values if id(value) not in sizes]
        if todo:
            stack += [obj, *todo]  # come back once every item is sized
            continue
        text = "".join(leads) + close
        length, newlines = len(text), text.count("\n")
        for value in values:
            item_length, item_newlines = sizes[id(value)]
            length += item_length + 2 * item_newlines
            newlines += item_newlines
        sizes[id(obj)] = (length, newlines)
    return sizes[id(data)][0]


# ---------------------------------------------------------------------------
# subcommands

def cmd_schedules(args) -> int:
    _check_n(args)
    if args.json:
        sys.stdout.write(_render(args, "schedules", False))
    else:
        from .schedules import schedule_context

        print("\n".join(schedule_context(args.n, args.rounds).texts))
    return EXIT_OK


def cmd_run(args) -> int:
    from .schedules import parse_schedule
    from .simengine import _trace_size, format_trace, record_to_json, run

    sched = parse_schedule(args.schedule)
    record = run(sched)
    # the local states are shared, but both forms write each occurrence
    # out in full: the size is worked out before any output is built
    if args.json:
        what, data = "JSON", record_to_json(record)
        size = json_text_size(data) + 1
    else:
        what, size = "trace", _trace_size(record)
    if size > MAX_RUN_JSON_BYTES:
        raise CliError(
            f"the {what} of a {sched.round_count}-round run would take {size} "
            f"bytes, more than the cap of {MAX_RUN_JSON_BYTES}"
        )
    sys.stdout.write(json_text(data) + "\n" if args.json else format_trace(record))
    return EXIT_OK


def cmd_show(args) -> int:
    """``model`` and ``complex``: print the object of that kind."""
    _check_n(args)
    sys.stdout.write(_render(args, f"{args.kind}-{args.command}", args.dot))
    return EXIT_OK


def cmd_mc(args) -> int:
    from .kernel import agent_name
    from .logic import FormulaParseError, Know, eval_formula, model_from_json, parse_formula

    _check_n(args)
    state = _resolve_state(args)
    model = _read_json(args.model_file, model_from_json) if args.model_file else _build_model(args)
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
    from .solver import decision_to_json, solve, verdict_report

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
