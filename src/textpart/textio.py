"""UTF-8 text input shared by the corpus readers and the report reader.

It imports only the standard library, so ``report`` depends on it without
depending on scipy.
"""

from __future__ import annotations

from pathlib import Path


def read_utf8(path: str | Path) -> str:
    """The text of ``path``; a ``ValueError`` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc
