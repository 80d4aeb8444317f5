"""`eval` fuzz properties over edited reports and labels files.

Reports come from `cluster` runs on a small matrix. One edit (delete,
duplicate, swap or change a line, trailing spaces, `\\r\\n` line ends) must
leave `eval` exiting 0 or 1 with no escaping exception, and a report it
accepts is written back with its lines unchanged and one `nmi` line set.
A labels file's byte-order mark, line ends and padding change no score.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from textpart.cli import main

# Ten documents in three groups over four terms, clustered without weighting.
ROWS = ([1.0, 0.0, 0.0, 2.0], [1.0, 0.1, 0.0, 2.0], [0.9, 0.0, 0.1, 2.0],
        [0.0, 1.0, 0.0, 0.5], [0.1, 1.0, 0.0, 0.5], [0.0, 0.9, 0.1, 0.5], [0.0, 1.1, 0.0, 0.4],
        [0.0, 0.0, 1.0, 1.0], [0.1, 0.0, 1.0, 1.0], [0.0, 0.1, 0.9, 1.1])
RUNS = (["--algo", "pddp", "--stop", "fixed", "--k", "3"],
        ["--algo", "pddp+sgem", "--stop", "bic"],
        ["--algo", "sib", "--stop", "fixed", "--k", "2", "--restarts", "2"])
LABELS = [f"c{i * 3 // len(ROWS)}" for i in range(len(ROWS))]


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)``; an exception escapes and fails
    the property."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@functools.cache
def _reports() -> tuple[str, ...]:
    """The text of each ``RUNS`` report, as `cluster` writes it."""
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "m"
        entries = [(i, j, v) for i, row in enumerate(ROWS) for j, v in enumerate(row) if v]
        Path(f"{prefix}.mat").write_text(
            f"{len(ROWS)} 4 {len(entries)}\n" + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries),
            encoding="utf-8")
        Path(f"{prefix}.vocab").write_text("t0\nt1\nt2\nt3\n", encoding="utf-8")
        Path(f"{prefix}.docs").write_text("".join(f"d{i}\n" for i in range(len(ROWS))),
                                          encoding="utf-8")
        for flags in RUNS:
            report = Path(tmp) / "m.report"
            assert _run(["cluster", str(prefix), "--weighting", "none", "--seed", "0",
                         "--output", str(report), *flags])[0] == 0
            texts.append(report.read_text(encoding="utf-8"))
    return tuple(texts)


@st.composite
def edited_reports(draw) -> str:
    """A `cluster` report with one edit."""
    lines = draw(st.sampled_from(_reports())).splitlines()
    i = draw(st.integers(0, len(lines) - 1), label="line")
    edit = draw(st.sampled_from(["delete", "duplicate", "swap", "change", "pad", "crlf"]))
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = draw(st.integers(0, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "change":
        pos = draw(st.integers(0, len(lines[i])), label="position")
        char = draw(st.sampled_from("0179-.e x\t"), label="character")
        lines[i] = lines[i][:pos] + char + lines[i][pos + 1:]
    elif edit == "pad":
        lines[i] += draw(st.sampled_from([" ", "  ", "\t"]))
    return "".join(ln + ("\r\n" if edit == "crlf" else "\n") for ln in lines)


@settings(max_examples=150, deadline=None)
@given(edited_reports())
def test_eval_keeps_or_rejects_an_edited_report_whole(text):
    with tempfile.TemporaryDirectory() as tmp:
        report, labels = Path(tmp) / "r.report", Path(tmp) / "labels"
        report.write_bytes(text.encode("utf-8"))
        labels.write_text("".join(f"{c}\n" for c in LABELS), encoding="utf-8")
        code, out = _run(["eval", str(report), str(labels)])
        assert code in (0, 1)
        after = report.read_bytes().decode("utf-8")
        if code == 1:
            assert after == text
            return
        kept = [ln for ln in text.splitlines() if not ln.startswith("nmi ")]
        assert after.splitlines() == kept + [f"nmi {out.strip()}"]


def _labels_text(labels: list[str], end: str, bom: bool, pad: str) -> str:
    return ("\ufeff" if bom else "") + "".join(f"{pad}{c}{pad}{end}" for c in labels)


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(st.sampled_from(["a", "b", "c", "Ab", "é"]), min_size=len(ROWS),
                       max_size=len(ROWS)),
       report=st.sampled_from(range(len(RUNS))),
       end=st.sampled_from(["\n", "\r\n", "\u2028"]), bom=st.booleans(),
       pad=st.sampled_from(["", " ", "\t", " \t "]))
def test_eval_scores_a_labels_file_as_its_plain_form(labels, report, end, bom, pad):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.report"
        path.write_text(_reports()[report], encoding="utf-8")
        scores = []
        for text in (_labels_text(labels, "\n", False, ""), _labels_text(labels, end, bom, pad)):
            (Path(tmp) / "labels").write_bytes(text.encode("utf-8"))
            code, out = _run(["eval", str(path), str(Path(tmp) / "labels")])
            assert code == 0
            scores.append(out)
        assert scores[0] == scores[1]
