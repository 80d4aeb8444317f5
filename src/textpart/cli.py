"""Batch command line: ingest corpora, run clustering, evaluate results.

Subcommands:

    textpart ingest INPUT --output PREFIX [--stop-words FILE] [--min-count N]
    textpart cluster PREFIX --algo A --stop S [--k K] [--delta D]
                     [--restarts R] [--maxl L] [--eps E] [--seed S]
                     [--weighting tfidf|none] [--output REPORT]
    textpart eval REPORT LABELS

All numeric output uses the ``.`` decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import report as report_mod
from .corpus import (
    TermDocMatrix,
    build_matrix,
    read_corpus_dir,
    read_corpus_lines,
    read_matrix,
    read_stop_words,
    tfidf_weight,
    tokenize,
    word_conditionals,
    write_matrix,
)
from .evaluate import nmi
from .linalg import ConvergenceError
from .pddp import STOP_RULES, pddp_run
from .sgem import sgem_run
from .sib import sib_run
from .textio import read_labels

# The flags each pipeline reads beyond --stop, --k, --seed and --weighting,
# in the order its report writes them as `param` lines.
PIPELINE_PARAMS = {"pddp": (), "pddp+sgem": ("delta",), "sib": ("restarts", "maxl", "eps"),
                   "pddp+sib": ("maxl", "eps")}
ALGOS = tuple(PIPELINE_PARAMS)
# The least value of each integer flag with a lower bound only; a subcommand
# without the flag skips its check.
_INT_FLAG_LEAST = {"min_count": 1, "restarts": 1, "maxl": 1, "seed": 0}


def _subset_docs(m: TermDocMatrix, keep_ids: set[str]) -> TermDocMatrix:
    mask = np.array([d in keep_ids for d in m.doc_ids])
    kept = tuple(d for d in m.doc_ids if d in keep_ids)
    return TermDocMatrix(m.matrix[mask], m.vocab, kept)


def run_clustering(
    tdm: TermDocMatrix,
    algo: str,
    stop: str,
    k: int | None = None,
    delta: float | None = None,
    restarts: int = 10,
    maxl: int = 50,
    eps: float = 0.0,
    seed: int = 0,
    weighting: str = "tfidf",
) -> report_mod.RunReport:
    """Run one clustering configuration and assemble its report.

    Every pipeline builds a PDDP tree (``sib`` under ``stop="fixed"`` does
    not) and may refine its leaves: ``pddp+sgem`` by sGEM, ``pddp+sib`` by
    one sIB sweep from the leaves, ``sib`` by sIB from random restarts with
    K = ``k`` or the leaf count.

    Each copy of the rows is held only while a stage reads it. ``tdm`` is
    released once ``tfidf_weight`` and, on the sIB paths,
    ``word_conditionals`` have read it; only its doc ids are kept for the
    report. The weighted rows are released before ``sib_run``, which reads
    the word conditionals alone. A caller that keeps its own reference to
    ``tdm`` keeps the raw counts alive, and nothing else changes.

    The reported wall-clock time covers the clustering phase only (not
    matrix loading or weighting transforms).
    """
    if weighting not in ("tfidf", "none"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if algo not in PIPELINE_PARAMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if stop not in STOP_RULES:
        raise ValueError(f"unknown stopping rule {stop!r}")
    if weighting == "tfidf":
        weighted, dropped = tfidf_weight(tdm)
        for d in dropped:
            print(f"dropped document with no informative terms: {d}", file=sys.stderr)
    else:
        weighted, dropped = tdm, []
    if weighted.n_docs < 2:
        raise ValueError("fewer than 2 documents remain after weighting")

    joint = None
    if algo in ("sib", "pddp+sib"):
        joint = word_conditionals(_subset_docs(tdm, set(weighted.doc_ids)) if dropped else tdm)
    doc_ids, matrix = weighted.doc_ids, weighted.matrix
    del tdm, weighted

    started = time.perf_counter()
    tree, part = None, None
    if algo != "sib" or stop != "fixed":
        tree = pddp_run(matrix, stop=stop, k=k, seed=seed)
        part = tree.partition()
    if algo == "pddp+sgem":
        part = sgem_run(part, matrix, delta=delta)[0]
    elif joint is not None:
        del matrix
        init = part.labels if algo == "pddp+sib" else None
        part = sib_run(joint, k if part is None else part.k, n_restarts=restarts,
                       max_loops=maxl, eps=eps, seed=seed, init=init)
    elapsed = time.perf_counter() - started
    if tree is not None and tree.warning:
        print("warning: leaves exhausted before the stopping rule fired", file=sys.stderr)

    params = [("stop", stop), ("weighting", weighting)]
    if stop == "fixed" or algo == "sib":
        params.append(("k", str(k if stop == "fixed" else part.k)))
    flags = {"delta": "auto" if delta is None else repr(delta), "restarts": str(restarts),
             "maxl": str(maxl), "eps": repr(eps)}
    params.extend((name, flags[name]) for name in PIPELINE_PARAMS[algo])
    rep = report_mod.RunReport(
        algorithm=algo,
        seed=seed,
        params=params,
        time_seconds=elapsed,
        tree=report_mod.tree_records(tree) if tree is not None else None,
        assignments=[(doc_id, int(c)) for doc_id, c in zip(doc_ids, part.labels)],
    )
    return rep


def _cmd_ingest(args: argparse.Namespace) -> int:
    stop_words = read_stop_words(args.stop_words) if args.stop_words else frozenset()
    path = Path(args.input)
    if path.is_dir():
        texts, doc_ids = read_corpus_dir(path)
    else:
        texts, doc_ids = read_corpus_lines(path)
    # A generator: build_matrix keeps term ids, so only one document's
    # tokens are alive at a time.
    docs = (tokenize(t, stop_words) for t in texts)
    tdm, dropped = build_matrix(docs, min_count=args.min_count, doc_ids=doc_ids)
    for d in dropped:
        print(f"dropped empty document: {d}", file=sys.stderr)
    write_matrix(tdm, args.output)
    print(f"{tdm.n_docs} {tdm.n_terms} {tdm.nnz}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    # No frame here holds the raw counts, so run_clustering can release them.
    rep = run_clustering(
        read_matrix(args.prefix),
        algo=args.algo,
        stop=args.stop,
        k=args.k,
        delta=args.delta,
        restarts=args.restarts,
        maxl=args.maxl,
        eps=args.eps,
        seed=args.seed,
        weighting=args.weighting,
    )
    out = args.output if args.output else args.prefix + ".report"
    report_mod.write_report(rep, out)
    print(f"wrote {out} k_found={rep.k_found}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    rep = report_mod.read_report(args.report)
    labels = read_labels(args.labels)
    if len(labels) != len(rep.assignments):
        raise ValueError(
            f"label count {len(labels)} does not match assignment count {len(rep.assignments)}"
        )
    clusters = [c for _, c in rep.assignments]
    value = nmi(np.asarray(clusters), np.asarray(labels))
    print(f"{value:.4f}")
    rep.nmi = value
    report_mod.write_report(rep, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textpart", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_ing = sub.add_parser("ingest", help="tokenize a corpus and write the sparse matrix files")
    p_ing.add_argument("input", help="directory of .txt files, or one document per line")
    p_ing.add_argument("--output", required=True, help="output file prefix")
    p_ing.add_argument("--stop-words", help="file with one stop word per line")
    p_ing.add_argument("--min-count", type=int, default=2,
                       help="minimum corpus-wide term count (default 2)")
    p_ing.set_defaults(func=_cmd_ingest, parser=p_ing)

    p_clu = sub.add_parser("cluster", help="run a clustering pipeline and write a report")
    p_clu.add_argument("prefix", help="matrix file prefix written by ingest")
    p_clu.add_argument("--algo", required=True, choices=ALGOS)
    p_clu.add_argument("--stop", required=True, choices=STOP_RULES)
    p_clu.add_argument("--k", type=int)
    p_clu.add_argument("--delta", type=float, help="sGEM convergence threshold")
    p_clu.add_argument("--restarts", type=int, default=10)
    p_clu.add_argument("--maxl", type=int, default=50)
    p_clu.add_argument("--eps", type=float, default=0.0)
    p_clu.add_argument("--seed", type=int, default=0)
    p_clu.add_argument("--weighting", choices=("tfidf", "none"), default="tfidf",
                       help="'none' clusters the stored values as-is (synthetic vectors)")
    p_clu.add_argument("--output", help="report path (default: <prefix>.report)")
    p_clu.set_defaults(func=_cmd_cluster, parser=p_clu)

    p_eval = sub.add_parser("eval", help="score a report against gold labels")
    p_eval.add_argument("report")
    p_eval.add_argument("labels", help="one category per document, .docs order")
    p_eval.set_defaults(func=_cmd_eval, parser=p_eval)
    return parser


def _validate_cluster_flags(args: argparse.Namespace) -> None:
    if args.stop == "fixed" and (args.k is None or args.k < 1):
        args.parser.error("--stop fixed requires --k >= 1")
    if args.stop != "fixed" and args.k is not None:
        args.parser.error("--k is only valid with --stop fixed")
    if not 0.0 <= args.eps < 1.0:
        args.parser.error("--eps must be in [0, 1)")
    if args.delta is not None and not 0.0 <= args.delta < np.inf:
        args.parser.error("--delta must be finite and >= 0")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A flag error prints the usage of the subcommand that owns the flag.
    for name, least in _INT_FLAG_LEAST.items():
        if getattr(args, name, least) < least:
            args.parser.error(f"--{name.replace('_', '-')} must be >= {least}")
    if args.command == "cluster":
        _validate_cluster_flags(args)
    try:
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"textpart: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
