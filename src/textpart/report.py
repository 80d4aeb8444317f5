"""Structured run reports: one named field per line, diff-friendly.

Layout (order is fixed so a report round-trips byte-identically):

    textpart-report 1
    algorithm <name>
    seed <int>
    param <name> <value>            (zero or more, insertion order)
    k_found <int>                   (distinct clusters in the assignment lines)
    time_seconds <float repr>
    tree <id> <parent|-> <depth> <n_members> <scatter repr>   (when PDDP ran)
    leaf_members <id> <doc_index>...                          (one per leaf)
    assignment <doc_id> <cluster>   (one per document)
    nmi <value .4f>                 (appended by `textpart eval`)

A ``tree`` line's scatter is ``ClusterStats.scatter`` of its node: the
mean Euclidean distance of the node's rows to their centroid, in the space
PDDP split (tf-idf rows, or the stored values under ``--weighting none``).

One parser, ``_parse``, reads this layout. ``read_report`` runs it on a
file's lines, and ``format_report`` runs it on the text it has just built
and compares what it reads back with the report, so the writer refuses
exactly the reports the reader would reject or read back as another.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice, zip_longest
from pathlib import Path

from .textio import first_repeat, read_utf8

FORMAT_HEADER = "textpart-report 1"
# The fields of one value each, and how to read it.
_SCALARS = {"algorithm": str, "seed": int, "time_seconds": float, "nmi": float}
_FIELDS = {*_SCALARS, "param", "k_found", "tree", "leaf_members", "assignment"}


@dataclass
class TreeRecord:
    node_id: int
    parent: int | None
    depth: int
    n_members: int
    scatter: float
    leaf_members: list[int] | None = None  # only for leaves


@dataclass
class RunReport:
    algorithm: str
    seed: int
    params: list[tuple[str, str]] = field(default_factory=list)
    time_seconds: float = 0.0
    tree: list[TreeRecord] | None = None
    assignments: list[tuple[str, int]] = field(default_factory=list)
    nmi: float | None = None

    @property
    def k_found(self) -> int:
        """The number of distinct clusters in ``assignments``."""
        return len({c for _, c in self.assignments})


def tree_records(tree) -> list[TreeRecord]:
    """Flatten a ClusterTree into report records (leaf members included)."""
    records = []
    for nd in tree.nodes:
        members = [int(i) for i in nd.stats.members] if nd.is_leaf else None
        records.append(
            TreeRecord(nd.node_id, nd.parent, nd.depth, nd.stats.size, nd.stats.scatter, members)
        )
    return records


def _report_lines(report: RunReport) -> Iterator[str]:
    """The lines of ``report`` in the fixed layout, without line ends."""
    yield FORMAT_HEADER
    yield f"algorithm {report.algorithm}"
    yield f"seed {report.seed}"
    for name, value in report.params:
        yield f"param {name} {value}"
    yield f"k_found {report.k_found}"
    yield f"time_seconds {report.time_seconds!r}"
    if report.tree is not None:
        for rec in report.tree:
            parent = "-" if rec.parent is None else str(rec.parent)
            yield f"tree {rec.node_id} {parent} {rec.depth} {rec.n_members} {rec.scatter!r}"
        for rec in report.tree:
            if rec.leaf_members is not None:
                yield "leaf_members " + " ".join(str(i) for i in [rec.node_id] + rec.leaf_members)
    for doc_id, cluster in report.assignments:
        yield f"assignment {doc_id} {cluster}"
    if report.nmi is not None:
        yield f"nmi {report.nmi:.4f}"


def _parse(lines: list[str]) -> RunReport:
    """The report whose text has ``lines``; ``ValueError`` names the line at
    fault.

    Besides an unknown field or a malformed value, the lines are rejected
    unless ``_report_lines`` of what they parse to gives them back (compared
    one at a time, so no second copy of the report is held), so a report
    missing a line, repeating one or holding a line no field keeps (such as
    ``leaf_members`` of a node with no ``tree`` line) cannot be read and
    written back changed. That comparison also rejects a ``k_found`` line
    that is not the number of distinct clusters in the assignment lines. A
    doc id assigned on two lines is rejected too, naming both lines.
    ``lines`` is emptied before the doc-id table is built, so the table adds
    nothing to the peak.
    """
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError("not a textpart report")
    report = RunReport(algorithm="", seed=0)
    tree: list[TreeRecord] = []
    leaf_members: dict[int, list[int]] = {}
    first = 0  # the number of the first assignment line
    for number, line in enumerate(islice(lines, 1, None), 2):
        key, _, rest = line.partition(" ")
        if key not in _FIELDS:
            raise ValueError(f"unknown report field {key!r} on line {number}")
        try:
            if key == "assignment":
                doc_id, _, cluster = rest.rpartition(" ")
                report.assignments.append((doc_id, int(cluster)))
                first = first or number
            elif key in _SCALARS:
                setattr(report, key, _SCALARS[key](rest))
            elif key == "param":
                name, _, value = rest.partition(" ")
                report.params.append((name, value))
            elif key == "tree":
                nid, parent, depth, n_members, scatter = rest.split()
                tree.append(TreeRecord(
                    int(nid), None if parent == "-" else int(parent),
                    int(depth), int(n_members), float(scatter),
                ))
            elif key == "leaf_members":
                vals = [int(v) for v in rest.split()]
                leaf_members[vals[0]] = vals[1:]
        except (ValueError, IndexError):
            raise ValueError(f"malformed {key} on line {number}: {line!r}") from None
    if tree:
        for rec in tree:
            rec.leaf_members = leaf_members.get(rec.node_id)
        report.tree = tree
    for number, (line, want) in enumerate(zip_longest(lines, _report_lines(report)), 1):
        if line != want:
            raise ValueError(f"not as textpart writes it: line {number} is {_shown(line)}, "
                             f"expected {_shown(want)}")
    lines.clear()
    repeat = first_repeat(doc_id for doc_id, _ in report.assignments)
    if repeat is not None:
        at, earlier = repeat
        raise ValueError(f"doc id {report.assignments[at][0]!r} on line {first + at} "
                         f"repeats line {first + earlier}")
    return report


def format_report(report: RunReport) -> str:
    """The report's text; ``ValueError`` if ``read_report`` would reject it,
    with the same message less the file name, or read it back as another
    report, naming the first ``algorithm``, ``param`` or ``assignment`` that
    would change."""
    text = "\n".join(_report_lines(report)) + "\n"
    back = _parse(text.splitlines())
    for kind, wanted, got in (("algorithm", [report.algorithm], [back.algorithm]),
                              ("param", report.params, back.params),
                              ("assignment", report.assignments, back.assignments)):
        changed = next(((w, g) for w, g in zip_longest(wanted, got) if w != g), None)
        if changed is not None:
            raise ValueError(f"{kind} {changed[0]!r} reads back as {changed[1]!r}")
    return text


def write_report(report: RunReport, path: str | Path) -> None:
    """Write ``format_report`` of the report, encoded before the file is
    opened, so a refused report (a surrogate too) leaves no file."""
    Path(path).write_bytes(format_report(report).encode("utf-8"))


def read_report(path: str | Path) -> RunReport:
    """Parse a report; ``ValueError`` names the file and the line at fault
    (see ``_parse``)."""
    lines = read_utf8(path).splitlines()
    try:
        return _parse(lines)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _shown(line: str | None) -> str:
    return "no line" if line is None else repr(line)
