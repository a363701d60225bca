"""Epistemic-logic toolkit for iterated-snapshot distributed computing.

Builds the schedule and task action models of the iterated immediate
snapshot discipline, runs product updates and a formula checker over the
resulting Kripke models, converts proper frames to chromatic simplicial
complexes and back, and decides inputless-task solvability by exhaustive
decision-map search.

The public names are loaded lazily: ``import epikit`` imports no
submodule, and the first use of a name imports (and so compiles) only
the submodule that defines it and the ones that submodule imports.
Nothing is cached: a name always reads the submodule's current binding.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "ActionModel", "FrameMorphism", "KripkeFrame", "is_morphism",
        "is_proper", "new_frame", "product",
    ], "kernel"),
    **dict.fromkeys([
        "Atom", "And", "AfterAction", "FALSE", "Formula", "Implies", "Know",
        "KripkeModel", "Not", "Or", "TRUE",
        "compose_actions", "eval_formula", "knowledge_loss_check",
        "parse_formula", "product_update",
    ], "logic"),
    **dict.fromkeys([
        "BlockAction", "Schedule", "block_action", "enum_block_actions",
        "enum_schedules", "indist_1", "input_model", "parse_schedule",
        "protocol_action_model", "protocol_frame", "protocol_model",
        "schedule", "schedule_texts", "view1",
    ], "schedules"),
    **dict.fromkeys(["RunRecord", "oracle_indist", "run"], "simengine"),
    **dict.fromkeys([
        "DecisionMap", "Verdict", "solve", "verdict_report",
        "verify_certificate",
    ], "solver"),
    **dict.fromkeys([
        "InputlessTask", "OutputFrame", "builtin", "make_task",
        "output_model", "task_action_model",
    ], "tasks"),
    **dict.fromkeys([
        "ChromaticComplex", "SimplicialMap", "complex_to_frame", "frame_to_complex", "morphism_to_simplicial",
        "roundtrip_check",
    ], "topology"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
