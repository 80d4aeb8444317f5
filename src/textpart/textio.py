"""UTF-8 text input shared by the corpus readers, the report reader and
``textpart eval``.

It imports only the standard library, so reading a report and its labels
needs neither numpy nor scipy.
"""

from __future__ import annotations

from pathlib import Path


def read_utf8(path: str | Path) -> str:
    """The text of ``path``; a ``ValueError`` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc


def read_labels(path: str | Path) -> list[str]:
    """One category string per line, aligned with the ``.docs`` file."""
    return [ln.strip() for ln in read_utf8(path).splitlines()]
