"""Span wrappers around epikit's public functions, kept in memory.

Run as a script, this is the traced form of one CLI op:

    python perfbench/spans.py SPANS.json -- check --n 2 --task snapshot

It wraps every function in ``SPANS`` (and every ``from .module import
name`` alias of it in the other epikit modules, so calls between modules
are seen), calls ``epikit.cli.main`` with the remaining arguments, puts
the originals back, writes the spans to SPANS.json and exits with main's
return code.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import process_time

# span name (module.function) -> the per-layer metrics it reports; every
# name gets a span, and the layers are the modules
SPANS = {
    "cli.main": ("self_s",),
    "schedules.enum_schedules": ("calls",),
    "schedules.final_states": ("calls", "self_s"),
    "schedules.protocol_action_model": ("self_s",),
    "schedules.input_model": ("self_s",),
    "logic.product_update": ("calls", "self_s"),
    "logic.eval_formula": ("self_s",),
    "logic.is_model_morphism": ("self_s",),
    "tasks.make_task": ("self_s",),
    "tasks.task_from_json": ("self_s",),
    "tasks.output_model": ("self_s",),
    "solver.solve": ("calls", "self_s"),
    "solver.verify_certificate": ("self_s",),
    "solver.conflict_core": ("self_s",),
    "simengine.run": ("calls", "self_s"),
    "topology.frame_to_complex": ("self_s",),
    "topology.morphism_to_simplicial": ("self_s",),
    "kernel.new_frame": ("calls", "self_s"),
    "kernel.is_morphism": ("self_s",),
    "kernel.is_proper": ("self_s",),
}
# counters read off returned values
COUNTERS = [
    "solver.search.nodes",
    "solver.search.backtracks",
    "solver.search.assignments",
    "solver.conflict_core.size",
]


class Tracer:
    """Spans as [name, start, end, parent index] plus the search counters
    read off returned values.  Start and end are the process's CPU time, so
    a span does not count the time the probe (see ``run.py``) takes on the
    core it shares with the traced command."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observe(self, name: str, result) -> None:
        if name == "solver.solve":
            self._count("solver.search.nodes", result.stats.nodes)
            self._count("solver.search.backtracks", result.stats.backtracks)
            self._count("solver.search.assignments", result.stats.assignments)
        elif name == "solver.conflict_core":
            self._count("solver.conflict_core.size", len(result))

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {}
        originals = {}
        for name in SPANS:
            mod_name, fn_name = name.split(".")
            modules[mod_name] = importlib.import_module(f"epikit.{mod_name}")
            fn = getattr(modules[mod_name], fn_name)
            originals[id(fn)] = self.wrap(name, fn)
        for module in [importlib.import_module("epikit"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: call count and summed self time, where a span's self
    time is its duration minus the durations of its direct children (calls
    are synchronous, so children nest inside their parent)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time[i])
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        from epikit import cli

        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
