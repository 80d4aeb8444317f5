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
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

from .textio import read_utf8

FORMAT_HEADER = "textpart-report 1"
_FIELDS = ("algorithm", "seed", "param", "k_found", "time_seconds", "tree", "leaf_members",
          "assignment", "nmi")


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


def _check_doc_ids(report: RunReport, n_lines: int) -> None:
    """Reject a doc id assigned twice, naming both lines of the report's
    ``n_lines`` (the assignment lines come last but for ``nmi``)."""
    first = n_lines - len(report.assignments) - (report.nmi is not None) + 1
    seen: dict[str, int] = {}
    for number, (doc_id, _) in enumerate(report.assignments, first):
        if seen.setdefault(doc_id, number) != number:
            raise ValueError(f"doc id {doc_id!r} on line {number} repeats line {seen[doc_id]}")


def format_report(report: RunReport) -> str:
    """The report's text; ``ValueError`` names a doc id assigned twice, as
    ``read_report`` would."""
    text = "\n".join(_report_lines(report)) + "\n"
    _check_doc_ids(report, text.count("\n"))
    return text


def write_report(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")


def read_report(path: str | Path) -> RunReport:
    """Parse a report; ``ValueError`` names the file and the line at fault.

    Besides an unknown field or a malformed value, the file is rejected
    unless ``format_report`` of what it parses to gives back its lines
    (compared one at a time, so no second copy of the report is held), so
    a report missing a line, repeating one or holding a line no field keeps
    (such as ``leaf_members`` of a node with no ``tree`` line) cannot be
    read and written back changed. That comparison also rejects a
    ``k_found`` line that is not the number of distinct clusters in the
    assignment lines. A doc id assigned on two lines is rejected too,
    naming both lines, as ``format_report`` refuses to write one.
    """
    lines = read_utf8(path).splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"{path}: not a textpart report")
    report = RunReport(algorithm="", seed=0)
    tree: list[TreeRecord] = []
    leaf_members: dict[int, list[int]] = {}
    for number, line in enumerate(lines[1:], 2):
        key, _, rest = line.partition(" ")
        if key not in _FIELDS:
            raise ValueError(f"{path}: unknown report field {key!r}")
        try:
            if key == "algorithm":
                report.algorithm = rest
            elif key == "seed":
                report.seed = int(rest)
            elif key == "param":
                name, _, value = rest.partition(" ")
                report.params.append((name, value))
            elif key == "time_seconds":
                report.time_seconds = float(rest)
            elif key == "tree":
                nid, parent, depth, n_members, scatter = rest.split()
                tree.append(TreeRecord(
                    int(nid), None if parent == "-" else int(parent),
                    int(depth), int(n_members), float(scatter),
                ))
            elif key == "leaf_members":
                vals = [int(v) for v in rest.split()]
                leaf_members[vals[0]] = vals[1:]
            elif key == "assignment":
                doc_id, _, cluster = rest.rpartition(" ")
                report.assignments.append((doc_id, int(cluster)))
            elif key == "nmi":
                report.nmi = float(rest)
        except (ValueError, IndexError):
            raise ValueError(f"{path}: malformed {key} on line {number}: {line!r}") from None
    if tree:
        for rec in tree:
            if rec.node_id in leaf_members:
                rec.leaf_members = leaf_members[rec.node_id]
        report.tree = tree
    for number, (line, want) in enumerate(zip_longest(lines, _report_lines(report)), 1):
        if line != want:
            raise ValueError(f"{path}: not as textpart writes it: line {number} is {_shown(line)}, "
                             f"expected {_shown(want)}")
    # Released first, the lines make room for the doc-id table, so it adds
    # nothing to the peak.
    n_lines = len(lines)
    del lines
    try:
        _check_doc_ids(report, n_lines)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return report


def _shown(line: str | None) -> str:
    return "no line" if line is None else repr(line)
