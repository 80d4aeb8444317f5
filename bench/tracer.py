"""Run one ``textpart`` CLI command with timing wrappers around each layer.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python3 bench/tracer.py SPANS_JSON T_SPAWN -- <textpart cli arguments>

``T_SPAWN`` is the ``time.monotonic()`` reading the parent took just before
it started this process; the span ``cli.startup`` runs from there to the
call of ``textpart.cli.main``. On Linux ``time.monotonic`` reads
``CLOCK_MONOTONIC``, which all processes share.

Each wrapper replaces a name where its caller looks it up (a module global
or a class attribute), so the program itself is unchanged. A span is
``[name, start, end, parent_index, info]``; spans stay in memory and are
written to ``SPANS_JSON`` when the command ends. ``info`` holds a value the
reduction needs (a file size, a return flag, an iteration count, an
eigen-residual). Work done to compute it runs inside a ``trace.hook`` span
so that it is not charged to any layer's self time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

clock = time.monotonic


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock() if start is None else start, None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str | None = None, info=None, result_info: bool = False):
        """Replace ``owner.attr`` by a timed wrapper.

        ``result_info`` stores ``bool(result)`` in the span (cheap, no hook
        span); ``info(args, kwargs, result)`` computes a value inside a
        ``trace.hook`` span after the call's own span has closed.
        """
        fn = getattr(owner, attr)
        if name is None:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans = self.spans
        stack = self._stack

        # open/close inlined: this runs once per sIB draw/merge step
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if result_info:
                spans[idx][4] = bool(result)
            elif info is not None:
                hook = self.open("trace.hook")
                try:
                    spans[idx][4] = info(args, kwargs, result)
                finally:
                    self.close(hook)
            return result

        setattr(owner, attr, traced)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _eigen_residual(args, kwargs, u) -> float:
    """||C u - (u'C u) u|| / max(1, u'C u) for the covariance C of ``rows``."""
    rows = args[0]
    n = rows.shape[0]
    w = np.asarray(rows.mean(axis=0)).ravel()
    cu = np.asarray(rows.T @ np.asarray(rows @ u).ravel()).ravel() / n - w * float(w @ u)
    lam = float(u @ cu)
    return float(np.linalg.norm(cu - lam * u)) / max(1.0, lam)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the ``textpart`` package."""
    from textpart import cli, model_select, pddp, report, sgem, sib

    for attr in ("build_matrix", "tokenize", "tfidf_weight", "word_conditionals",
                 "pddp_run", "sgem_run", "sib_run", "nmi", "run_clustering"):
        info = None
        if attr == "pddp_run":
            info = lambda a, k, tree: sum(1 for nd in tree.nodes if nd.left is not None)  # noqa: E731
        elif attr == "sgem_run":
            info = lambda a, k, res: len(res[2])  # noqa: E731
        tracer.wrap(cli, attr, info=info)
    tracer.wrap(cli, "read_matrix", info=lambda a, k, r: _file_bytes(f"{a[0]}.mat"))
    tracer.wrap(cli, "write_matrix", info=lambda a, k, r: _file_bytes(f"{a[1]}.mat"))
    tracer.wrap(pddp, "split_cluster")
    tracer.wrap(pddp, "select_leaf")
    tracer.wrap(pddp, "principal_direction", info=_eigen_residual)
    tracer.wrap(model_select, "bic_split_test", result_info=True)
    tracer.wrap(model_select, "bic_score")
    tracer.wrap(model_select, "csv_stop")
    for attr in ("m_step", "e_step", "complete_log_likelihood"):
        tracer.wrap(sgem, attr)
    tracer.wrap(report, "write_report", info=lambda a, k, r: _file_bytes(a[1]))
    tracer.wrap(report, "read_report")
    tracer.wrap(sib.SibState, "__init__", name="sib.state_init")
    tracer.wrap(sib.SibState, "draw_and_merge", name="sib.draw_and_merge", result_info=True)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, t_spawn, cli_args = argv[0], float(argv[1]), argv[3:]
    tracer = Tracer()
    startup = tracer.open("cli.startup", start=t_spawn)
    install(tracer)
    from textpart import cli

    tracer.close(startup)
    # cli.main starts where cli.startup ends, so no instant falls between them
    root = tracer.open("cli.main", start=tracer.spans[startup][2])
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
