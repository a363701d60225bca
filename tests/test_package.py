"""The package's public surface: one table from each name to the submodule
that defines it, loaded on first use."""

import importlib
import subprocess
import sys

import pytest

import epikit


def _in_a_new_process(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_export_table():
    assert epikit.__all__ == list(epikit._EXPORTS)
    assert len(set(epikit.__all__)) == len(epikit.__all__)


@pytest.mark.parametrize("name", sorted(epikit._EXPORTS))
def test_every_name_is_the_object_its_submodule_defines(name):
    module = importlib.import_module(f"epikit.{epikit._EXPORTS[name]}")
    assert getattr(epikit, name) is getattr(module, name)


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from epikit import *", namespace)
    for name in epikit.__all__:
        assert namespace[name] is getattr(epikit, name)
    assert set(epikit.__all__) <= set(dir(epikit))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        epikit.no_such_name
    with pytest.raises(ImportError):
        exec("from epikit import no_such_name", {})


def test_a_bare_import_loads_no_submodule():
    out = _in_a_new_process(
        "import sys, epikit\n"
        "names = dir(epikit)\n"
        "print(set(epikit.__all__) <= set(names), epikit.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('epikit')))\n"
    )
    assert out == "True 0.1.0\n['epikit']\n"


def test_a_name_loads_only_its_submodule_and_what_that_imports():
    for name, loaded in [
        ("parse_formula", "['epikit', 'epikit.kernel', 'epikit.logic', 'epikit.record']"),
        ("frame_to_complex", "['epikit', 'epikit.kernel', 'epikit.record', 'epikit.topology']"),
        ("ActionModel", "['epikit', 'epikit.kernel', 'epikit.record']"),
        # a decision reads frames alone: no formula code
        ("solve", "['epikit', 'epikit.kernel', 'epikit.record', 'epikit.schedules', "
                  "'epikit.solver', 'epikit.tasks']"),
    ]:
        out = _in_a_new_process(
            "import sys\n"
            f"from epikit import {name}\n"
            "print(sorted(m for m in sys.modules if m.startswith('epikit')))\n"
        )
        assert out == loaded + "\n", name


def test_a_name_reads_the_current_binding_of_its_submodule():
    # nothing is cached in the package: a patch read through it is gone
    # once the submodule's binding is restored
    out = _in_a_new_process(
        "import epikit\n"
        "from epikit import cli, solver\n"
        "original = solver.solve\n"
        "def patched(task):\n"
        "    return None\n"
        "solver.solve = patched\n"
        "print(epikit.solve is patched)\n"
        "solver.solve = original\n"
        "print(epikit.solve is solver.solve, cli.solve is solver.solve)\n"
    )
    assert out == "True\nTrue True\n"
