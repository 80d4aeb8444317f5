"""UTF-8 text input shared by the corpus readers, the report reader and
``textpart eval``, the check that a value written as one line of such a
file holds no line break, and the search for a repeated doc id.

It imports only the standard library, so reading a report and its labels
needs neither numpy nor scipy.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from pathlib import Path


def read_utf8(path: str | Path) -> str:
    """The text of ``path`` without a leading byte-order mark; a
    ``ValueError`` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc


def read_labels(path: str | Path) -> list[str]:
    """One category string per line, aligned with the ``.docs`` file.

    The lines are those of ``str.splitlines``, as in the ``.mat`` grammar:
    a lone ``\\r``, a form feed, U+0085 or U+2028 ends a line as ``\\n``
    does.
    """
    return [ln.strip() for ln in read_utf8(path).splitlines()]


def check_lines(kind: str, values: Sequence[str]) -> None:
    """Raise ``ValueError`` at the first value that holds a line break.

    The matrix and report files are read as ``str.splitlines`` lines, so a
    value written on one line that holds any of its breaks (``\\r``, a form
    feed, U+0085, U+2028, ...) would read back as two.
    """
    # A break anywhere gives a second line; the "x" keeps a final one.
    if len(("".join(values) + "x").splitlines()) > 1:
        bad = next(v for v in values if len((v + "x").splitlines()) > 1)
        raise ValueError(f"{kind} {bad!r} holds a line break")


def first_repeat(values: Iterable[Hashable]) -> tuple[int, int] | None:
    """The position of the first value that repeats an earlier one and the
    position of that earlier one, or ``None`` if the values are distinct."""
    first: dict[Hashable, int] = {}
    for at, value in enumerate(values):
        if first.setdefault(value, at) != at:
            return at, first[value]
    return None
