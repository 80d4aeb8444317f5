"""Reduce the spans of a traced pass to per-layer metrics.

``LAYER_METRICS`` is the map from each per-layer metric to the end-to-end
metric it should move, the workloads where it should move it, and the
workloads where a change to that layer should show nothing. ``run.py``
prints it with every traced result, so a reader of a result knows what each
number is for.

Definitions:

* ``<span>.s`` is the summed duration of every span of that name;
  ``<span>.self_s`` subtracts the time covered by its direct child spans.
* ``ms_p50``/``ms_p95``/``us_p50``/``us_p99`` are percentiles of single
  span durations; 0 when the span never ran.
* ``pddp.split_accept_ratio`` is splits kept (inner nodes of the returned
  trees) over ``split_cluster`` calls; ``sib.change_ratio`` is
  ``draw_and_merge`` calls that returned True over all calls.
* ``linalg.principal_direction.resid_max`` is the largest
  ``||Cu - (u'Cu)u|| / max(1, u'Cu)`` over the returned directions.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

DIV = "divisive-20k"
SIB = "sib-3k"
ALL = (DIV, SIB)

# name: (end-to-end metric it should move, workloads where it should move
# it, workloads where a change to that layer should show nothing). Units and
# directions are in BENCHMARK.json.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {}


def _add(names: str, moves: str, on: tuple[str, ...], unchanged: tuple[str, ...]) -> None:
    for name in names.split():
        LAYER_METRICS[name] = (moves, on, unchanged)


_add("corpus.read_matrix.s corpus.read_matrix.mb_per_s corpus.tfidf_weight.s",
     "setup_s wall_s", ALL, ())
_add("corpus.word_conditionals.s", "setup_s wall_s", (SIB,), (DIV,))
_add("corpus.tokenize.s corpus.build_matrix.s corpus.write_matrix.s corpus.mat_bytes "
     "cli.ingest_s", "wall_s", (DIV,), (SIB,))
_add("linalg.principal_direction.calls linalg.principal_direction.s "
     "linalg.principal_direction.ms_p50 linalg.principal_direction.ms_p95 "
     "linalg.principal_direction.resid_max", "cluster_s", (DIV,), (SIB,))
_add("pddp.pddp_run.self_s pddp.split_cluster.calls pddp.split_cluster.self_s "
     "pddp.select_leaf.s pddp.split_accept_ratio", "cluster_s", (DIV,), (SIB,))
_add("model_select.bic_split_test.calls model_select.bic_split_test.self_s "
     "model_select.bic_split_test.accept_ratio model_select.bic_score.calls "
     "model_select.bic_score.s model_select.csv_stop.calls model_select.csv_stop.s",
     "cluster_s", (DIV,), (SIB,))
_add("model_select.k_error", "nmi", (DIV,), (SIB,))
_add("sgem.sgem_run.self_s sgem.iterations sgem.m_step.calls", "cluster_s nmi", (DIV,), (SIB,))
_add("sgem.m_step.ms_p50 sgem.e_step.ms_p50 sgem.complete_log_likelihood.ms_p50",
     "cluster_s", (DIV,), (SIB,))
_add("sib.sib_run.self_s sib.state_init.s", "cluster_s nmi", (SIB,), (DIV,))
_add("sib.steps sib.step_us_p50 sib.step_us_p99", "cluster_s", (SIB,), (DIV,))
_add("sib.change_ratio", "nmi", (SIB,), (DIV,))
_add("report.write_report.s report.bytes", "setup_s wall_s", ALL, ())
_add("report.read_report.s evaluate.nmi.s", "wall_s", (DIV,), (SIB,))
_add("cli.startup_s cli.run_clustering.self_s", "setup_s", ALL, ())
_add("trace.overhead_s", "none (traced minus untraced wall_s)", ALL, ())


class SpanCheckError(ValueError):
    """A command's span self times do not add up to its traced duration."""


def self_times(spans: list[list]) -> np.ndarray:
    """Duration of each span minus the part of its interval that its direct
    children cover; overlapping children are counted once, and a child's time
    outside its parent is not subtracted."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    own = np.array([s[2] - s[1] for s in spans])
    for parent, kids in children.items():
        end, hi = spans[parent][1], spans[parent][2]
        for a, b in sorted(kids):
            a, b = max(a, end), min(b, hi)
            if b > a:
                own[parent] -= b - a
                end = b
    return own


def check_self_times(spans: list[list], tol_s: float = 1e-6) -> None:
    """Raise ``SpanCheckError`` unless self times sum to the traced duration.

    The traced duration runs from the start of ``cli.startup`` (the parent's
    spawn time) to the end of ``cli.main``. Spans that overlap a sibling or
    leave their parent's interval make the sum exceed it; time outside both
    root spans makes it fall short.
    """
    roots = {s[0]: s for s in spans if s[3] < 0 and s[0].startswith("cli.")}
    if set(roots) != {"cli.startup", "cli.main"}:
        raise SpanCheckError(f"expected cli.startup and cli.main root spans, got {sorted(roots)}")
    duration = roots["cli.main"][2] - roots["cli.startup"][1]
    total = float(self_times(spans).sum())
    if abs(total - duration) > tol_s:
        raise SpanCheckError(f"self times sum to {total!r}s, traced duration is {duration!r}s")
    if any(s[2] < s[1] for s in spans):
        raise SpanCheckError("a span ends before it starts")


def _pct(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def reduce_spans(commands: list[list[list]]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics over the spans of every command of one traced pass,
    and the number of spans of each name (the sample count of each percentile)."""
    dur: dict[str, list[float]] = defaultdict(list)
    own: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for spans in commands:
        for s, self_s in zip(spans, self_times(spans)):
            dur[s[0]].append(s[2] - s[1])
            own[s[0]] += float(self_s)
            if s[4] is not None:
                info[s[0]].append(s[4])

    def total(name):
        return float(sum(dur[name]))

    def ratio(a, b):
        return a / b if b else 0.0

    pd, split = "linalg.principal_direction", "pddp.split_cluster"
    steps = dur["sib.draw_and_merge"]
    out = {
        "corpus.read_matrix.s": total("corpus.read_matrix"),
        "corpus.read_matrix.mb_per_s": ratio(sum(info["corpus.read_matrix"]) / 1e6,
                                             total("corpus.read_matrix")),
        "corpus.tfidf_weight.s": total("corpus.tfidf_weight"),
        "corpus.word_conditionals.s": total("corpus.word_conditionals"),
        "corpus.tokenize.s": total("corpus.tokenize"),
        "corpus.build_matrix.s": total("corpus.build_matrix"),
        "corpus.write_matrix.s": total("corpus.write_matrix"),
        "corpus.mat_bytes": float(sum(info["corpus.write_matrix"])),
        f"{pd}.calls": float(len(dur[pd])),
        f"{pd}.s": total(pd),
        f"{pd}.ms_p50": _pct(dur[pd], 50, 1e3),
        f"{pd}.ms_p95": _pct(dur[pd], 95, 1e3),
        f"{pd}.resid_max": float(max(info[pd], default=0.0)),
        "pddp.pddp_run.self_s": own["pddp.pddp_run"],
        f"{split}.calls": float(len(dur[split])),
        f"{split}.self_s": own[split],
        "pddp.select_leaf.s": total("pddp.select_leaf"),
        "pddp.split_accept_ratio": ratio(sum(info["pddp.pddp_run"]), len(dur[split])),
        "model_select.bic_split_test.calls": float(len(dur["model_select.bic_split_test"])),
        "model_select.bic_split_test.self_s": own["model_select.bic_split_test"],
        "model_select.bic_split_test.accept_ratio": ratio(
            sum(info["model_select.bic_split_test"]), len(dur["model_select.bic_split_test"])),
        "model_select.bic_score.calls": float(len(dur["model_select.bic_score"])),
        "model_select.bic_score.s": total("model_select.bic_score"),
        "model_select.csv_stop.calls": float(len(dur["model_select.csv_stop"])),
        "model_select.csv_stop.s": total("model_select.csv_stop"),
        "sgem.sgem_run.self_s": own["sgem.sgem_run"],
        "sgem.iterations": float(sum(info["sgem.sgem_run"])),
        "sgem.m_step.calls": float(len(dur["sgem.m_step"])),
        "sgem.m_step.ms_p50": _pct(dur["sgem.m_step"], 50, 1e3),
        "sgem.e_step.ms_p50": _pct(dur["sgem.e_step"], 50, 1e3),
        "sgem.complete_log_likelihood.ms_p50": _pct(dur["sgem.complete_log_likelihood"], 50, 1e3),
        "sib.sib_run.self_s": own["sib.sib_run"],
        "sib.state_init.s": total("sib.state_init"),
        "sib.steps": float(len(steps)),
        "sib.change_ratio": ratio(sum(info["sib.draw_and_merge"]), len(steps)),
        "sib.step_us_p50": _pct(steps, 50, 1e6),
        "sib.step_us_p99": _pct(steps, 99, 1e6),
        "report.write_report.s": total("report.write_report"),
        "report.read_report.s": total("report.read_report"),
        "report.bytes": float(sum(info["report.write_report"])),
        "evaluate.nmi.s": total("evaluate.nmi"),
        "cli.startup_s": total("cli.startup"),
        "cli.run_clustering.self_s": own["cli.run_clustering"],
    }
    return out, {name: len(v) for name, v in sorted(dur.items())}
