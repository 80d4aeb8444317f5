"""The package's public names: ``textpart.__all__`` lists exactly the public
names the package binds, each name is imported from its module on first
use, and the README's "Library entry points" import block runs as written.

The import checks run in a fresh interpreter, since this process has
already imported every module."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import textpart

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("cli", "corpus", "evaluate", "linalg", "model_select", "partition", "pddp", "report",
           "sgem", "sib", "textio")


def _fresh(code):
    """Run ``code`` in a new interpreter with this process's textpart importable."""
    src = str(Path(textpart.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr


def _loads_none_of(statement, prefixes):
    """A fresh ``statement`` leaves every module under ``prefixes`` unimported."""
    _fresh(f"import sys\n{statement}\n"
           f"loaded = sorted(m for m in sys.modules if m.startswith({prefixes!r}))\n"
           f"assert not loaded, loaded")


def test_every_name_in_all_resolves():
    assert [name for name in textpart.__all__ if not hasattr(textpart, name)] == []


def test_all_lists_every_public_name_the_package_binds():
    _fresh("import types\n"
           "import textpart\n"
           "namespace = {}\n"
           "exec('from textpart import *', namespace)\n"
           "bound = [name for name, value in vars(textpart).items()\n"
           "         if not name.startswith('_') and not isinstance(value, types.ModuleType)]\n"
           "assert sorted(bound) == sorted(textpart.__all__), bound")


def test_import_textpart_imports_no_submodule():
    _loads_none_of("import textpart", ("textpart.",))


@pytest.mark.parametrize("module", ["textpart.report", "textpart.textio"])
def test_reading_a_report_needs_no_numpy_or_scipy(module):
    _loads_none_of(f"import {module}", ("numpy", "scipy"))


@pytest.mark.parametrize("statement", ["from textpart import nmi",
                                       "from textpart.textio import read_labels"])
def test_scoring_a_report_needs_no_scipy(statement):
    _loads_none_of(statement, ("scipy",))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    """Each module imports alone and loads no scipy module: the code that
    uses scipy imports it."""
    _loads_none_of(f"import textpart.{module}", ("scipy",))


def test_each_public_name_is_the_object_its_module_defines():
    for name in textpart.__all__:
        module = importlib.import_module(f"textpart.{textpart._MODULE_OF[name]}")
        assert getattr(textpart, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name


def test_dir_lists_every_public_name_before_its_first_use():
    _fresh("import textpart\n"
           "missing = sorted(set(textpart.__all__) - set(dir(textpart)))\n"
           "assert not missing, missing")


def test_readme_library_entry_points_run_verbatim():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


# Step-level names that only the package's own stages call: each stays in its
# module, and the package does not list it.
STEP_NAMES = {
    "bic_score": "model_select", "bic_split_test": "model_select", "csv": "model_select",
    "csv_stop": "model_select", "param_count": "model_select", "select_leaf": "pddp",
    "split_cluster": "pddp", "centroid": "linalg", "principal_direction": "linalg",
    "DegenerateClusterError": "linalg", "SibState": "sib",
}


@pytest.mark.parametrize("name", sorted(STEP_NAMES))
def test_a_step_is_imported_from_its_module_not_the_package(name):
    module = importlib.import_module(f"textpart.{STEP_NAMES[name]}")
    assert getattr(module, name).__module__ == module.__name__
    assert name not in textpart.__all__
    with pytest.raises(ImportError):
        exec(f"from textpart import {name}", {})
