"""CLI fuzz property: no NaN or inf reaches a report, and no run escapes `main`.

Small `.mat`/`.vocab`/`.docs` files are drawn with stored zeros, all-zero
rows, repeated rows and values at both ends of float64, on both sides of
PDDP's magnitude bound (about 5.8e76 per stored value). Each matrix is
clustered with every `--algo`, `--stop` and `--weighting`; every report
that is written is then scored by `eval`.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from textpart.cli import ALGOS, main
from textpart.pddp import STOP_RULES
from textpart.report import read_report

VALUES = (0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 3.0, 1e76, 1e78, 1e154, 1.7e308)
DROPPED = "dropped document with no informative terms: "


@st.composite
def matrices(draw):
    """(doc ids, n_terms, entries): rows drawn from a small pool, so that
    repeated rows are common; a cell is absent or holds one of ``VALUES``."""
    n_docs = draw(st.integers(1, 11))
    n_terms = draw(st.integers(1, 5))
    cell = st.none() | st.sampled_from(VALUES)
    pool = draw(st.lists(st.lists(cell, min_size=n_terms, max_size=n_terms), min_size=1, max_size=4))
    rows = [draw(st.sampled_from(pool)) for _ in range(n_docs)]
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v is not None]
    return [f"d{i}" for i in range(n_docs)], n_terms, draw(st.permutations(entries))


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``; an exception or a
    ``RuntimeWarning`` escapes and fails the property."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, err.getvalue()


def _finite_tokens(text: str) -> bool:
    for token in text.split():
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices(), st.data())
def test_cli_exits_cleanly_and_reports_only_finite_values(matrix, data):
    doc_ids, n_terms, entries = matrix
    k = data.draw(st.integers(1, len(doc_ids) + 1), label="k")
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(doc_ids), max_size=len(doc_ids)),
                       label="labels")
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "m"
        Path(f"{prefix}.mat").write_text(
            f"{len(doc_ids)} {n_terms} {len(entries)}\n"
            + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries), encoding="utf-8")
        Path(f"{prefix}.vocab").write_text("".join(f"t{j}\n" for j in range(n_terms)),
                                           encoding="utf-8")
        Path(f"{prefix}.docs").write_text("".join(f"{d}\n" for d in doc_ids), encoding="utf-8")
        report = Path(tmp) / "m.report"
        for algo in ALGOS:
            for stop in STOP_RULES:
                for weighting in ("tfidf", "none"):
                    argv = ["cluster", str(prefix), "--algo", algo, "--stop", stop,
                            "--weighting", weighting, "--output", str(report)]
                    if stop == "fixed":
                        argv += ["--k", str(k)]
                    code, err = _run(argv)
                    assert code in (0, 1, 2), (argv, code, err)
                    if code != 0:
                        continue
                    dropped = {line[len(DROPPED):] for line in err.splitlines()
                               if line.startswith(DROPPED)}
                    kept = [i for i, d in enumerate(doc_ids) if d not in dropped]
                    assert _finite_tokens(report.read_text(encoding="utf-8")), argv
                    rep = read_report(report)
                    assert [d for d, _ in rep.assignments] == [doc_ids[i] for i in kept], argv
                    labels_path = Path(tmp) / "labels"
                    labels_path.write_text("".join(f"c{labels[i]}\n" for i in kept),
                                           encoding="utf-8")
                    code, err = _run(["eval", str(report), str(labels_path)])
                    assert code in (0, 1), (argv, code, err)
                    report.unlink()
