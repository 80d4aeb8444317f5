"""The package's public names: ``textpart.__all__`` lists exactly the public
names the package binds, and the README's "Library entry points" import
block runs as written."""

import re
import types
from pathlib import Path

import textpart

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_all_resolves():
    assert [name for name in textpart.__all__ if not hasattr(textpart, name)] == []


def test_all_lists_every_public_name_the_package_binds():
    bound = [name for name, value in vars(textpart).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(textpart.__all__) == sorted(bound)


def test_readme_library_entry_points_run_verbatim():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
