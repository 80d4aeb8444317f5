"""Structured run reports: one named field per line, diff-friendly.

Layout (order is fixed so a report round-trips byte-identically):

    textpart-report 1
    algorithm <name>
    seed <int>
    param <name> <value>            (zero or more, insertion order)
    k_found <int>
    time_seconds <float repr>
    tree <id> <parent|-> <depth> <n_members> <scatter repr>   (when PDDP ran)
    leaf_members <id> <doc_index>...                          (one per leaf)
    assignment <doc_id> <cluster>   (one per document)
    nmi <value .4f>                 (appended by `textpart eval`)
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    k_found: int = 0
    time_seconds: float = 0.0
    tree: list[TreeRecord] | None = None
    assignments: list[tuple[str, int]] = field(default_factory=list)
    nmi: float | None = None

    def validate(self) -> None:
        distinct = len({c for _, c in self.assignments})
        if distinct != self.k_found:
            raise ValueError(
                f"k_found={self.k_found} but assignments contain {distinct} distinct clusters"
            )


def tree_records(tree) -> list[TreeRecord]:
    """Flatten a ClusterTree into report records (leaf members included)."""
    records = []
    for nd in tree.nodes:
        members = [int(i) for i in nd.stats.members] if nd.is_leaf else None
        records.append(
            TreeRecord(nd.node_id, nd.parent, nd.depth, nd.stats.size, nd.stats.scatter, members)
        )
    return records


def format_report(report: RunReport) -> str:
    report.validate()
    lines = [FORMAT_HEADER, f"algorithm {report.algorithm}", f"seed {report.seed}"]
    lines.extend(f"param {name} {value}" for name, value in report.params)
    lines.append(f"k_found {report.k_found}")
    lines.append(f"time_seconds {report.time_seconds!r}")
    if report.tree is not None:
        for rec in report.tree:
            parent = "-" if rec.parent is None else str(rec.parent)
            lines.append(f"tree {rec.node_id} {parent} {rec.depth} {rec.n_members} {rec.scatter!r}")
        for rec in report.tree:
            if rec.leaf_members is not None:
                lines.append("leaf_members " + " ".join(str(i) for i in [rec.node_id] + rec.leaf_members))
    for doc_id, cluster in report.assignments:
        lines.append(f"assignment {doc_id} {cluster}")
    if report.nmi is not None:
        lines.append(f"nmi {report.nmi:.4f}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")


def read_report(path: str | Path) -> RunReport:
    lines = read_utf8(path).splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"{path}: not a textpart report")
    report = RunReport(algorithm="", seed=0)
    tree: list[TreeRecord] = []
    leaf_members: dict[int, list[int]] = {}
    saw_tree = False
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
            elif key == "k_found":
                report.k_found = int(rest)
            elif key == "time_seconds":
                report.time_seconds = float(rest)
            elif key == "tree":
                saw_tree = True
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
    if saw_tree:
        for rec in tree:
            if rec.node_id in leaf_members:
                rec.leaf_members = leaf_members[rec.node_id]
        report.tree = tree
    report.validate()
    return report
