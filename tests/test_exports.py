"""The package's public names: every name in ``textpart.__all__`` resolves,
and the README's "Library entry points" import block runs as written."""

import re
from pathlib import Path

import textpart

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_all_resolves():
    assert [name for name in textpart.__all__ if not hasattr(textpart, name)] == []


def test_readme_library_entry_points_run_verbatim():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
