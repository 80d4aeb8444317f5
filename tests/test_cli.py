import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from datagen import corpus_texts, dense_matrix, five_clusters, multinomial_corpus, near_tied_cloud
import textpart
from textpart import cli, linalg
from textpart.cli import ALGOS, main, run_clustering
from textpart.corpus import read_corpus_dir, read_corpus_lines, read_stop_words, tokenize, write_matrix
from textpart.report import format_report, read_report

DOC_A = "the quick brown fox jumps over the lazy dog the fox"
DOC_B = "the dog sleeps while the brown fox runs the fox hunts"
DOC_C = "a cat naps and a cat purrs while the dog naps"


def _make_corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "b.txt").write_text(DOC_B, encoding="utf-8")
    (d / "a.txt").write_text(DOC_A, encoding="utf-8")
    (d / "c.txt").write_text(DOC_C, encoding="utf-8")
    return d


def test_ingest_directory_lexicographic_docs(tmp_path, capsys):
    d = _make_corpus_dir(tmp_path)
    prefix = tmp_path / "out"
    assert main(["ingest", str(d), "--output", str(prefix), "--min-count", "2"]) == 0
    out = capsys.readouterr().out.strip().split()
    assert len(out) == 3 and all(int(v) >= 0 for v in out)
    docs = (tmp_path / "out.docs").read_text().splitlines()
    assert docs == ["a.txt", "b.txt", "c.txt"]


def test_ingest_stop_words(tmp_path):
    d = _make_corpus_dir(tmp_path)
    sw = tmp_path / "stop.txt"
    sw.write_text("the\na\nand\nwhile\nover\n", encoding="utf-8")
    prefix = tmp_path / "out"
    assert main(["ingest", str(d), "--output", str(prefix), "--stop-words", str(sw),
                 "--min-count", "1"]) == 0
    vocab = (tmp_path / "out.vocab").read_text().split()
    assert "the" not in vocab and "fox" in vocab


def _ingest_with_stop_words(tmp_path, stop_text):
    src = tmp_path / "lines.txt"
    src.write_text("The cat sat\nthe dog ran\nThe cat ran\n", encoding="utf-8")
    sw = tmp_path / "stop.txt"
    sw.write_text(stop_text, encoding="utf-8")
    prefix = tmp_path / "out"
    assert main(["ingest", str(src), "--output", str(prefix), "--stop-words", str(sw),
                 "--min-count", "1"]) == 0
    return (tmp_path / "out.vocab").read_text(encoding="utf-8").split()


def test_ingest_capitalised_stop_words_match(tmp_path):
    assert _ingest_with_stop_words(tmp_path, "The\nCat\n") == ["dog", "ran", "sat"]


def test_ingest_stop_words_file_that_starts_with_a_byte_order_mark(tmp_path):
    assert _ingest_with_stop_words(tmp_path, "\ufeffthe\ncat\n") == ["dog", "ran", "sat"]


def test_ingest_unique_terms_corpus_errors(tmp_path, capsys):
    d = tmp_path / "uniq"
    d.mkdir()
    (d / "x.txt").write_text("alpha beta", encoding="utf-8")
    (d / "y.txt").write_text("gamma delta", encoding="utf-8")
    code = main(["ingest", str(d), "--output", str(tmp_path / "o"), "--min-count", "2"])
    assert code == 1
    assert "empty corpus after pruning" in capsys.readouterr().err


def test_ingest_line_file_reports_dropped(tmp_path, capsys):
    lines = []
    for i in range(100):
        lines.append("" if i % 20 == 0 else f"word{i % 7} word{i % 7} filler common words")
    src = tmp_path / "docs.txt"
    src.write_text("\n".join(lines), encoding="utf-8")
    prefix = tmp_path / "lf"
    assert main(["ingest", str(src), "--output", str(prefix), "--min-count", "2"]) == 0
    captured = capsys.readouterr()
    n_docs = int(captured.out.split()[0])
    assert n_docs == 95  # 5 blank lines dropped
    assert captured.err.count("dropped empty document") == 5
    docs = (tmp_path / "lf.docs").read_text().splitlines()
    assert "1" not in docs and "2" in docs  # 1-based line numbers, line 1 blank


@pytest.mark.parametrize("layout", ["directory", "lines"])
def test_ingest_writes_what_the_list_oracle_writes(tmp_path, capsys, layout):
    stop_words = None
    if layout == "directory":
        src = _make_corpus_dir(tmp_path)
        (src / "d.txt").write_text("The while, and a: THE", encoding="utf-8")
        (src / "e.txt").write_text("Ärger über Öl; über ärger, ÖL fox", encoding="utf-8")
        stop_words = tmp_path / "stop.txt"
        stop_words.write_text("the\na\nand\nwhile\n", encoding="utf-8")
        texts, doc_ids = read_corpus_dir(src)
    else:
        lines = corpus_texts(multinomial_corpus(0, n_docs=300, vocab_size=80)[0])
        lines[0] = lines[150] = ""
        lines[7] = "hapax legomenon"
        src = tmp_path / "docs.txt"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        texts, doc_ids = read_corpus_lines(src)
    stop = read_stop_words(stop_words) if stop_words else frozenset()
    expected, dropped = oracles.build_matrix_lists([tokenize(t, stop) for t in texts], doc_ids=doc_ids)
    assert len(dropped) >= 1
    write_matrix(expected, tmp_path / "oracle")
    capsys.readouterr()
    argv = ["ingest", str(src), "--output", str(tmp_path / "out")]
    assert main(argv + (["--stop-words", str(stop_words)] if stop_words else [])) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{expected.n_docs} {expected.n_terms} {expected.nnz}\n"
    assert captured.err == "".join(f"dropped empty document: {d}\n" for d in dropped)
    for ext in (".mat", ".vocab", ".docs"):
        assert (tmp_path / f"out{ext}").read_bytes() == (tmp_path / f"oracle{ext}").read_bytes()


def test_ingest_missing_input(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope"), "--output", str(tmp_path / "o")]) == 1


def _ingested_prefix(tmp_path):
    lines = []
    rng = np.random.default_rng(0)
    words_a = ["kernel", "driver", "memory", "compile", "thread"]
    words_b = ["pitch", "goal", "league", "season", "coach"]
    for i in range(40):
        pool = words_a if i % 2 == 0 else words_b
        lines.append(" ".join(rng.choice(pool, size=12).tolist()))
    src = tmp_path / "mini.txt"
    src.write_text("\n".join(lines), encoding="utf-8")
    prefix = tmp_path / "mini"
    assert main(["ingest", str(src), "--output", str(prefix)]) == 0
    return str(prefix)


def test_ingest_splits_lines_as_cluster_reads_them(tmp_path, capsys):
    """A file name holding a ``str.splitlines`` break would be a doc id that
    the ``.docs`` file splits in two, so ``ingest`` names it, exits 1 and
    writes nothing. A lines file splits at U+2028 as at a newline, so three
    newline-ended lines with U+2028 inside the first are four documents."""
    for i, name in enumerate(["e\rf.txt", "e\u2028f.txt"]):
        d = tmp_path / f"corpus{i}"
        d.mkdir()
        for doc_name, text in zip(["a.txt", "b c.txt", "d.txt", name], [DOC_A, DOC_B, DOC_C, DOC_A]):
            (d / doc_name).write_text(text, encoding="utf-8")
        assert main(["ingest", str(d), "--output", str(tmp_path / f"out{i}")]) == 1
        assert capsys.readouterr().err == f"textpart: error: doc id {name!r} holds a line break\n"
        assert not list(tmp_path.glob(f"out{i}.*"))
    src = tmp_path / "lines.txt"
    src.write_text(f"{DOC_A}\u2028{DOC_B}\n{DOC_C}\n{DOC_A}\n", encoding="utf-8")
    prefix = tmp_path / "lines"
    assert main(["ingest", str(src), "--output", str(prefix)]) == 0
    assert (tmp_path / "lines.docs").read_text(encoding="utf-8") == "1\n2\n3\n4\n"
    assert main(["cluster", str(prefix), "--algo", "pddp", "--stop", "fixed", "--k", "2"]) == 0


def test_ingest_names_a_file_name_that_is_not_utf8_and_writes_nothing(tmp_path, capsys):
    """The doc id of such a file could not be written to ``.docs``; it is
    named before any file is read or written."""
    d = _make_corpus_dir(tmp_path)
    name = os.fsdecode(b"c\xff.txt")
    try:
        (d / name).write_text(DOC_A, encoding="utf-8")
    except (OSError, UnicodeEncodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    assert main(["ingest", str(d), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"textpart: error: {d}: file name {name!r} is not valid UTF-8\n"
    assert not list(tmp_path.glob("out.*"))


def test_cluster_pddp_fixed_k_report_structure(tmp_path):
    prefix = _ingested_prefix(tmp_path)
    out = tmp_path / "run.report"
    assert main(["cluster", prefix, "--algo", "pddp", "--stop", "fixed", "--k", "4",
                 "--output", str(out)]) == 0
    rep = read_report(out)
    assert rep.k_found == 4
    assert rep.algorithm == "pddp"
    internals = [t for t in rep.tree if t.leaf_members is None]
    leaves = [t for t in rep.tree if t.leaf_members is not None]
    assert len(internals) == 3 and len(leaves) == 4
    assert len(rep.assignments) == 40


def test_cluster_report_reparses_losslessly(tmp_path):
    prefix = _ingested_prefix(tmp_path)
    out = tmp_path / "run.report"
    assert main(["cluster", prefix, "--algo", "pddp+sgem", "--stop", "fixed", "--k", "2",
                 "--output", str(out)]) == 0
    from textpart.report import write_report

    first = out.read_bytes()
    write_report(read_report(out), out)
    assert out.read_bytes() == first


def _assignment_section(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("assignment ")]


@pytest.mark.parametrize("algo", ["pddp", "pddp+sgem", "sib", "pddp+sib"])
def test_cluster_deterministic_per_seed(tmp_path, algo):
    prefix = _ingested_prefix(tmp_path)
    a, b = tmp_path / "a.report", tmp_path / "b.report"
    argv = ["cluster", prefix, "--algo", algo, "--stop", "fixed", "--k", "2",
            "--seed", "3", "--restarts", "3", "--maxl", "10"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert _assignment_section(a) == _assignment_section(b)


def test_cluster_sib_with_bic_uses_pddp_prepass(tmp_path):
    prefix = _ingested_prefix(tmp_path)
    out = tmp_path / "sibbic.report"
    assert main(["cluster", prefix, "--algo", "sib", "--stop", "bic",
                 "--restarts", "2", "--output", str(out)]) == 0
    rep = read_report(out)
    assert rep.tree is not None  # the pre-pass tree is dumped
    assert ("k", str(rep.k_found)) in rep.params  # k taken from the pre-pass


def test_cluster_synthetic_refinement_beats_raw_pddp(tmp_path, capsys):
    X, labels = five_clusters(0)
    tdm = dense_matrix(X, shift=20.0)  # matrix format wants nonnegative values
    prefix = tmp_path / "pts"
    write_matrix(tdm, prefix)
    lab = tmp_path / "labels.txt"
    lab.write_text("".join(f"c{v}\n" for v in labels), encoding="utf-8")

    scores = {}
    for algo in ("pddp", "pddp+sgem"):
        out = tmp_path / f"{algo}.report"
        assert main(["cluster", str(prefix), "--algo", algo, "--stop", "fixed",
                     "--k", "5", "--seed", "0", "--weighting", "none",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", str(out), str(lab)]) == 0
        scores[algo] = float(capsys.readouterr().out.strip())
    assert scores["pddp+sgem"] > scores["pddp"]


def test_eval_identity_prints_one(tmp_path, capsys):
    prefix = _ingested_prefix(tmp_path)
    out = tmp_path / "id.report"
    assert main(["cluster", prefix, "--algo", "pddp", "--stop", "fixed", "--k", "2",
                 "--output", str(out)]) == 0
    rep = read_report(out)
    lab = tmp_path / "labels.txt"
    lab.write_text("".join(f"g{c}\n" for _, c in rep.assignments), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", str(out), str(lab)]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"
    assert read_report(out).nmi == pytest.approx(1.0)


def test_eval_single_cluster_prints_zero(tmp_path, capsys):
    prefix = _ingested_prefix(tmp_path)
    out = tmp_path / "one.report"
    assert main(["cluster", prefix, "--algo", "pddp", "--stop", "fixed", "--k", "1",
                 "--output", str(out)]) == 0
    rep = read_report(out)
    lab = tmp_path / "labels.txt"
    lab.write_text("".join("g1\n" if i % 2 else "g0\n" for i in range(len(rep.assignments))),
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", str(out), str(lab)]) == 0
    assert capsys.readouterr().out.strip() == "0.0000"


def test_eval_hand_case_prints_zero(tmp_path, capsys):
    from textpart.report import RunReport, write_report

    rep = RunReport(algorithm="sib", seed=0, params=[("stop", "fixed"), ("k", "2")],
                    time_seconds=0.0, assignments=[("1", 1), ("2", 2), ("3", 1), ("4", 2)])
    out = tmp_path / "hand.report"
    write_report(rep, out)
    lab = tmp_path / "labels.txt"
    lab.write_text("A\nA\nB\nB\n", encoding="utf-8")
    assert main(["eval", str(out), str(lab)]) == 0
    assert capsys.readouterr().out.strip() == "0.0000"


def test_eval_length_mismatch_fails(tmp_path, capsys):
    prefix = _ingested_prefix(tmp_path)
    out = tmp_path / "mm.report"
    assert main(["cluster", prefix, "--algo", "pddp", "--stop", "fixed", "--k", "2",
                 "--output", str(out)]) == 0
    lab = tmp_path / "labels.txt"
    lab.write_text("a\nb\n", encoding="utf-8")
    assert main(["eval", str(out), str(lab)]) == 1
    assert "does not match" in capsys.readouterr().err


def _report_and_labels(tmp_path):
    """A two-cluster pddp report of the mini corpus and a labels file for it."""
    out = tmp_path / "run.report"
    assert main(["cluster", _ingested_prefix(tmp_path), "--algo", "pddp", "--stop", "fixed",
                 "--k", "2", "--output", str(out)]) == 0
    lab = tmp_path / "labels.txt"
    lab.write_text("".join(f"g{i % 2}\n" for i in range(40)), encoding="utf-8")
    return out, lab


def test_eval_twice_keeps_one_nmi_line(tmp_path):
    out, lab = _report_and_labels(tmp_path)
    before = out.read_bytes().splitlines()
    assert main(["eval", str(out), str(lab)]) == 0
    assert main(["eval", str(out), str(lab)]) == 0
    after = out.read_bytes().splitlines()
    assert [ln for ln in after if ln.startswith(b"nmi ")] == [after[-1]]
    assert after[:-1] == before


@pytest.mark.parametrize("key, bad", [
    ("leaf_members", "leaf_members"),
    ("seed", "seed zero"),
    ("tree", "tree 0 - 0"),
])
def test_eval_names_a_malformed_report_field(tmp_path, capsys, key, bad):
    out, lab = _report_and_labels(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    number = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
    lines[number] = bad
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", str(out), str(lab)]) == 1
    err = capsys.readouterr().err
    assert err == f"textpart: error: {out}: malformed {key} on line {number + 1}: {bad!r}\n"


@pytest.mark.parametrize("key", ["algorithm", "seed", "time_seconds"])
def test_eval_rejects_a_report_missing_a_line(tmp_path, capsys, key):
    """Written back, the report would hold an `algorithm `, `seed 0` or
    `time_seconds 0.0` line that no run wrote."""
    out, lab = _report_and_labels(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    number = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
    edited = "\n".join(lines[:number] + lines[number + 1:]) + "\n"
    out.write_text(edited, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", str(out), str(lab)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"textpart: error: {out}: not as textpart writes it: line {number + 1} is ")
    assert out.read_text(encoding="utf-8") == edited


def test_eval_rejects_leaf_members_of_a_node_with_no_tree_line(tmp_path, capsys):
    """Written back, the report would lose the `leaf_members` line."""
    out, lab = _report_and_labels(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    number = next(i for i, ln in enumerate(lines) if ln.startswith("leaf_members "))
    lines.insert(number, "leaf_members 99 0")
    edited = "\n".join(lines) + "\n"
    out.write_text(edited, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", str(out), str(lab)]) == 1
    assert capsys.readouterr().err == (
        f"textpart: error: {out}: not as textpart writes it: line {number + 1} is "
        f"'leaf_members 99 0', expected {lines[number + 1]!r}\n")
    assert out.read_text(encoding="utf-8") == edited


def _hand_report(tmp_path):
    """A four-document report: documents 1 and 2 in one cluster, 3 and 4 in the other."""
    from textpart.report import RunReport, write_report

    out = tmp_path / "hand.report"
    write_report(RunReport(algorithm="sib", seed=0, params=[("stop", "fixed"), ("k", "2")],
                           assignments=[("1", 0), ("2", 0), ("3", 1), ("4", 1)]), out)
    return out


def test_eval_rejects_a_report_that_assigns_a_doc_id_twice(tmp_path, capsys):
    out = tmp_path / "twice.report"
    edited = ("textpart-report 1\nalgorithm sib\nseed 0\nparam stop fixed\nparam k 2\nk_found 2\n"
              "time_seconds 0.0\nassignment a 0\nassignment b 1\nassignment b 1\n")
    out.write_text(edited, encoding="utf-8")
    lab = tmp_path / "labels.txt"
    lab.write_text("x\ny\ny\n", encoding="utf-8")
    assert main(["eval", str(out), str(lab)]) == 1
    assert capsys.readouterr().err == (
        f"textpart: error: {out}: doc id 'b' on line 10 repeats line 9\n")
    assert out.read_text(encoding="utf-8") == edited


@pytest.mark.parametrize("k_found", ["3", "x"])
def test_eval_rejects_a_k_found_line_the_assignments_do_not_give(tmp_path, capsys, k_found):
    out = tmp_path / "k.report"
    edited = ("textpart-report 1\nalgorithm sib\nseed 0\nparam stop fixed\nparam k 2\n"
              f"k_found {k_found}\ntime_seconds 0.0\nassignment a 0\nassignment b 1\nassignment c 1\n")
    out.write_text(edited, encoding="utf-8")
    lab = tmp_path / "labels.txt"
    lab.write_text("x\ny\ny\n", encoding="utf-8")
    assert main(["eval", str(out), str(lab)]) == 1
    assert capsys.readouterr().err == (
        f"textpart: error: {out}: not as textpart writes it: line 6 is 'k_found {k_found}', "
        "expected 'k_found 2'\n")
    assert out.read_text(encoding="utf-8") == edited


def test_eval_reads_a_labels_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    out = _hand_report(tmp_path)
    lab = tmp_path / "labels.txt"
    lab.write_text("\ufeffx\nx\ny\ny\n", encoding="utf-8")
    assert main(["eval", str(out), str(lab)]) == 0
    assert capsys.readouterr().out == "1.0000\n"


@pytest.mark.parametrize("argv", [
    ["cluster", "p", "--algo", "pddp", "--stop", "fixed"],           # fixed needs k
    ["cluster", "p", "--algo", "sib", "--stop", "fixed"],            # sib fixed needs k
    ["cluster", "p", "--algo", "pddp", "--stop", "csv", "--k", "3"],  # k only with fixed
    ["cluster", "p", "--algo", "pddp", "--stop", "fixed", "--k", "2", "--eps", "1.5"],
    ["cluster", "p", "--algo", "nosuch", "--stop", "fixed", "--k", "2"],
    ["ingest", "in.txt", "--output", "p", "--min-count", "0"],
    ["cluster", "p", "--algo", "pddp", "--stop", "fixed", "--k", "2", "--seed", "-1"],
])
def test_invalid_flag_combinations_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["cluster", "p", "--algo", "pddp", "--stop", "fixed", "--k", "2", "--seed", "-1"],
    ["ingest", "in.txt", "--output", "p", "--min-count", "0"],
])
def test_flag_bound_error_prints_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: textpart {argv[0]} ")


@pytest.mark.parametrize("bad", ["labels", "report", "stop-words", "corpus-lines", "corpus-dir"])
def test_cli_names_a_text_input_that_is_not_utf8(tmp_path, capsys, bad):
    from textpart.report import RunReport, write_report

    corpus = _make_corpus_dir(tmp_path)
    lines = tmp_path / "docs.txt"
    lines.write_text(f"{DOC_A}\n{DOC_B}\n", encoding="utf-8")
    stop_words = tmp_path / "stop.txt"
    stop_words.write_text("the\n", encoding="utf-8")
    labels = tmp_path / "labels.txt"
    labels.write_text("A\nB\n", encoding="utf-8")
    report = tmp_path / "run.report"
    rep = RunReport(algorithm="pddp", seed=0, params=[("stop", "fixed"), ("k", "2")],
                    time_seconds=0.0, assignments=[("1", 0), ("2", 1)])
    write_report(rep, report)
    path = {"labels": labels, "report": report, "stop-words": stop_words, "corpus-lines": lines,
            "corpus-dir": corpus / "b.txt"}[bad]
    path.write_bytes(b"\xff" + path.read_bytes())
    if bad in ("labels", "report"):
        argv = ["eval", str(report), str(labels)]
    else:
        argv = ["ingest", str(lines if bad == "corpus-lines" else corpus),
                "--output", str(tmp_path / "out"), "--stop-words", str(stop_words)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"textpart: error: {path}: not valid UTF-8 (")
    assert "Traceback" not in err


def _run_python(*args):
    """Run the interpreter on ``args`` with this process's textpart importable."""
    src = str(Path(textpart.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point_subprocess(tmp_path):
    d = _make_corpus_dir(tmp_path)
    prefix = tmp_path / "sp"
    run = _run_python("-m", "textpart.cli", "ingest", str(d),
                      "--output", str(prefix), "--min-count", "1")
    assert run.returncode == 0
    assert len(run.stdout.split()) == 3


def test_cli_import_leaves_out_sparse_linalg():
    # scipy.sparse.linalg costs ~50 ms and ~8 MB per process; no command needs it
    run = _run_python("-c", "import sys, textpart.cli; "
                            "assert 'scipy.sparse.linalg' not in sys.modules")
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
def test_cluster_rejects_non_finite_matrix_value(tmp_path, capsys, value):
    prefix = tmp_path / "bad"
    (tmp_path / "bad.mat").write_text(f"3 2 3\n0 0 1.0\n1 1 {value}\n2 0 2.0\n",
                                      encoding="utf-8")
    (tmp_path / "bad.vocab").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "bad.docs").write_text("x\ny\nz\n", encoding="utf-8")
    out = tmp_path / "bad.report"
    for algo in ("pddp", "sib"):
        capsys.readouterr()
        assert main(["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "2",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("textpart: error: ") and "bad.mat" in err
        assert "Traceback" not in err
        assert not out.exists()


def _write_large_matrix(tmp_path, d0, d1):
    """A 4 x 3 matrix whose documents d0 and d1 hold one entry each, given
    as ``"column value"``; d2 and d3 hold small counts."""
    (tmp_path / "big.mat").write_text(f"4 3 6\n0 {d0}\n1 {d1}\n2 0 1.0\n2 2 1.0\n"
                                      "3 1 2.0\n3 2 1.0\n", encoding="utf-8")
    (tmp_path / "big.vocab").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "big.docs").write_text("d0\nd1\nd2\nd3\n", encoding="utf-8")
    return tmp_path / "big"


def _write_beyond_square_matrix(tmp_path):
    """d0 and d1 hold 1e308 and 1e200: finite values whose squares, weighted
    or not, exceed the largest float64."""
    return _write_large_matrix(tmp_path, "0 1e308", "1 1e200")


@pytest.mark.parametrize("weighting, named", [("tfidf", "document 'd0'"), ("none", "document at row 0")])
@pytest.mark.parametrize("algo", ["pddp", "pddp+sgem"])
def test_cluster_rejects_a_squared_norm_beyond_float64(tmp_path, capsys, weighting, named, algo):
    """Exit 1 before any clustering, naming the first such document; no
    numpy warning is raised on the way (tier-1 makes it an error)."""
    prefix = _write_beyond_square_matrix(tmp_path)
    out = tmp_path / "big.report"
    assert main(["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "3",
                 "--weighting", weighting, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"textpart: error: {named}: ") and "norm overflows float64" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["pddp", "pddp+sgem", "pddp+sib", "sib"])
def test_cluster_splits_rows_just_under_the_magnitude_bound(tmp_path, capsys, algo):
    """1e76 squares to 1e152, under the bound: every pipeline runs without a
    numpy warning (tier-1 makes it an error) and prints nothing on stderr."""
    prefix = _write_large_matrix(tmp_path, "0 1e76", "0 1e76")
    out = tmp_path / "big.report"
    for stop in (["--stop", "fixed", "--k", "3"], ["--stop", "bic"]):
        assert main(["cluster", str(prefix), "--algo", algo, *stop, "--weighting", "none",
                     "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["1e78", "1.2e154"])
@pytest.mark.parametrize("algo", ["pddp", "pddp+sgem", "pddp+sib"])
def test_cluster_rejects_rows_beyond_the_magnitude_bound(tmp_path, capsys, value, algo):
    """Finite squared norms that the eigen-solve would overflow exit 1 before
    any split, naming the row, with no numpy warning on the way."""
    prefix = _write_large_matrix(tmp_path, f"0 {value}", f"0 {value}")
    out = tmp_path / "big.report"
    assert main(["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "3",
                 "--weighting", "none", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("textpart: error: document at row 0: its squared norm ")
    assert err.rstrip().endswith("is above 3.35e+153, the largest PDDP can split without overflow")
    assert not out.exists()


def test_sib_without_weighting_never_squares_a_row(tmp_path):
    prefix = _write_beyond_square_matrix(tmp_path)
    out = tmp_path / "big.report"
    assert main(["cluster", str(prefix), "--algo", "sib", "--stop", "fixed", "--k", "3",
                 "--weighting", "none", "--output", str(out)]) == 0
    assert read_report(out).k_found == 3


@pytest.mark.parametrize("algo", ["sib", "pddp+sib"])
def test_cluster_names_an_empty_document_without_weighting(tmp_path, capsys, algo):
    """d2 stores only a zero, so its counts sum to 0 and it has no word
    conditionals; the error names it by id."""
    (tmp_path / "e.mat").write_text("3 2 3\n0 0 1.0\n1 1 2.0\n2 1 0.0\n", encoding="utf-8")
    (tmp_path / "e.vocab").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "e.docs").write_text("d0\nd1\nd2\n", encoding="utf-8")
    prefix, out = tmp_path / "e", tmp_path / "e.report"
    assert main(["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "2",
                 "--weighting", "none", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "textpart: error: empty document 'd2': its counts sum to 0\n"
    assert not out.exists()


def test_cluster_malformed_matrix_line_exits_1(tmp_path, capsys):
    prefix = tmp_path / "bad"
    (tmp_path / "bad.mat").write_text("3 2 3\n0 0 1.0\n1 1\n2 0 2.0\n", encoding="utf-8")
    (tmp_path / "bad.vocab").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "bad.docs").write_text("x\ny\nz\n", encoding="utf-8")
    out = tmp_path / "bad.report"
    assert main(["cluster", str(prefix), "--algo", "pddp", "--stop", "fixed", "--k", "2",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("textpart: error: ") and "bad.mat" in err and "line 3" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mat, where", [
    ("a 2 1\n0 0 1.0\n", "malformed header on line 1: 'a 2 1'"),
    ("-1 2 0\n", "malformed header on line 1: '-1 2 0'"),
    ("3 99999999999999999999 1\n0 0 1.0\n", "malformed header on line 1"),
    ("3 2 1\n99999999999999999999 0 1.0\n", "malformed entry on line 2"),
    ("100000000000 2 0\n", "header shape 100000000000 x 2 disagrees with 3 doc ids and 2 terms"),
], ids=["header-not-integer", "header-negative", "header-beyond-int64", "index-beyond-int64",
        "header-beyond-docs-file"])
def test_cluster_matrix_file_faults_exit_1(tmp_path, capsys, mat, where):
    prefix = tmp_path / "bad"
    (tmp_path / "bad.mat").write_text(mat, encoding="utf-8")
    (tmp_path / "bad.vocab").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "bad.docs").write_text("x\ny\nz\n", encoding="utf-8")
    assert main(["cluster", str(prefix), "--algo", "pddp", "--stop", "fixed", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"textpart: error: {tmp_path / 'bad.mat'}: {where}")
    assert "Traceback" not in err


@pytest.mark.parametrize("suffix", ["mat", "vocab", "docs"])
def test_cluster_names_a_matrix_file_that_is_not_utf8(tmp_path, capsys, suffix):
    files = {"mat": b"3 2 1\n0 0 1.0\n", "vocab": b"a\nb\n", "docs": b"x\ny\nz\n"}
    files[suffix] = files[suffix].replace(b"\n", b"\xff\n", 1)
    for name, data in files.items():
        (tmp_path / f"bad.{name}").write_bytes(data)
    assert main(["cluster", str(tmp_path / "bad"), "--algo", "pddp", "--stop", "fixed", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"textpart: error: {tmp_path / f'bad.{suffix}'}: not valid UTF-8 (")
    assert "Traceback" not in err


@pytest.mark.parametrize("algo", ["pddp", "pddp+sgem", "pddp+sib"])
def test_cluster_rejects_a_repeated_doc_id(tmp_path, capsys, algo):
    # tf-idf drops document 0 (its one term is in every document), so
    # selecting the kept rows by id would keep both rows named x
    (tmp_path / "dup.mat").write_text("3 3 5\n0 0 1.0\n1 0 1.0\n1 1 1.0\n2 0 1.0\n2 2 1.0\n",
                                      encoding="utf-8")
    (tmp_path / "dup.vocab").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "dup.docs").write_text("x\nx\ny\n", encoding="utf-8")
    out = tmp_path / "dup.report"
    assert main(["cluster", str(tmp_path / "dup"), "--algo", algo, "--stop", "fixed", "--k", "2",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"textpart: error: {tmp_path / 'dup.docs'}: doc id 'x' on line 2 repeats line 1")
    assert not out.exists()


@pytest.mark.parametrize("algo", ["pddp", "pddp+sib"])
def test_run_clustering_rejects_a_repeated_doc_id(algo):
    # the corpus of test_cluster_rejects_a_repeated_doc_id, built in memory
    rows = sp.csr_array(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="doc id 'x' repeats an earlier document"):
        run_clustering(textpart.TermDocMatrix(rows, ("a", "b", "c"), ("x", "x", "y")),
                       algo, "fixed", k=2)


@pytest.mark.parametrize("algo", ALGOS)
def test_cluster_k_beyond_the_document_count_exits_1(tmp_path, capsys, algo):
    prefix = tmp_path / "small"
    write_matrix(multinomial_corpus(0, n_docs=40, vocab_size=30)[0], prefix)
    out = tmp_path / "small.report"
    assert main(["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "41",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "textpart: error: k must be an integer in [1, 40], got 41\n"
    assert not out.exists()


@pytest.mark.parametrize("algo, k_found", [("pddp", 3), ("pddp+sgem", 3), ("pddp+sib", 3),
                                           ("sib", 4)])
def test_cluster_fixed_k_beyond_the_distinct_documents(tmp_path, capsys, algo, k_found):
    """Rows a, a, b, b, a+b are three distinct documents, so PDDP runs out of
    splittable leaves at 3 under --k 4: exit 0 with a warning, `param k 4`
    and `k_found 3`. sib keeps exactly K clusters."""
    (tmp_path / "ex.mat").write_text("5 2 6\n0 0 1.0\n1 0 1.0\n2 1 1.0\n3 1 1.0\n4 0 1.0\n"
                                     "4 1 1.0\n", encoding="utf-8")
    (tmp_path / "ex.vocab").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "ex.docs").write_text("d0\nd1\nd2\nd3\nd4\n", encoding="utf-8")
    out = tmp_path / "ex.report"
    assert main(["cluster", str(tmp_path / "ex"), "--algo", algo, "--weighting", "none",
                 "--stop", "fixed", "--k", "4", "--output", str(out)]) == 0
    warned = "warning: leaves exhausted before the stopping rule fired\n" in capsys.readouterr().err
    assert warned == (algo != "sib")
    rep = read_report(out)
    assert ("k", "4") in rep.params
    assert rep.k_found == k_found


def test_eval_after_tfidf_drops_documents_takes_labels_of_the_kept_ones(tmp_path, capsys):
    """tf-idf drops d0 and d3, which hold only the term in every document.
    The report assigns d1 and d2 alone, so eval takes their labels, in
    .docs order; the four-line labels file does not match."""
    (tmp_path / "dr.mat").write_text("4 3 6\n0 0 1.0\n1 0 1.0\n1 1 2.0\n2 0 1.0\n2 2 3.0\n"
                                     "3 0 2.0\n", encoding="utf-8")
    (tmp_path / "dr.vocab").write_text("u\nv\nw\n", encoding="utf-8")
    (tmp_path / "dr.docs").write_text("d0\nd1\nd2\nd3\n", encoding="utf-8")
    out = tmp_path / "dr.report"
    assert main(["cluster", str(tmp_path / "dr"), "--algo", "pddp", "--stop", "fixed",
                 "--k", "2", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert ("dropped document with no informative terms: d0\n"
            "dropped document with no informative terms: d3\n") in err
    assert [d for d, _ in read_report(out).assignments] == ["d1", "d2"]
    full, kept = tmp_path / "full.labels", tmp_path / "kept.labels"
    full.write_text("A\nB\nC\nA\n", encoding="utf-8")
    kept.write_text("B\nC\n", encoding="utf-8")
    assert main(["eval", str(out), str(full)]) == 1
    assert "label count 4 does not match assignment count 2" in capsys.readouterr().err
    assert main(["eval", str(out), str(kept)]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"


def test_cluster_unconverged_eigen_solve_exits_1(tmp_path, capsys, monkeypatch):
    X = near_tied_cloud(0)
    prefix = tmp_path / "tied"
    write_matrix(dense_matrix(X, shift=-X.min()), prefix)
    out = tmp_path / "tied.report"
    monkeypatch.setattr(linalg, "_MAX_RESTARTS", 1)
    assert main(["cluster", str(prefix), "--algo", "pddp", "--stop", "fixed", "--k", "2",
                 "--weighting", "none", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("textpart: error: ") and "did not converge" in err
    assert not out.exists()


# --- one clustering flow, checked against the per-algorithm branches ---------

def _pipeline_corpus(seed):
    """A small topic corpus plus one term in every document; document 5
    holds only that term, so tf-idf weighting drops it."""
    m = multinomial_corpus(seed, n_docs=120, vocab_size=60)[0]
    rows = np.hstack([m.matrix.toarray(), np.ones((m.n_docs, 1))])
    rows[5, :-1] = 0.0
    return textpart.TermDocMatrix(sp.csr_array(rows), m.vocab + ("wcommon",), m.doc_ids)


@pytest.mark.parametrize("corpus_seed", [0, 1])
@pytest.mark.parametrize("delta", [None, 0.5])
@pytest.mark.parametrize("weighting", ["tfidf", "none"])
@pytest.mark.parametrize("stop", ["fixed", "csv", "bic"])
@pytest.mark.parametrize("algo", ALGOS)
def test_run_clustering_matches_per_algorithm_branches(capsys, algo, stop, weighting, delta,
                                                       corpus_seed):
    tdm = _pipeline_corpus(corpus_seed)
    kwargs = dict(k=4 if stop == "fixed" else None, delta=delta, restarts=2, maxl=5,
                  eps=0.01, seed=3, weighting=weighting)
    outputs = []
    for run in (oracles.run_clustering_branches, run_clustering):
        rep = run(tdm, algo, stop, **kwargs)
        rep.time_seconds = 0.0
        outputs.append((format_report(rep), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    if weighting == "tfidf":
        assert "dropped document with no informative terms: 5\n" in outputs[1][1].err


def test_run_clustering_sib_fixed_without_k_is_a_value_error():
    with pytest.raises(ValueError, match="k must be an integer"):
        run_clustering(_pipeline_corpus(0), "sib", "fixed", k=None)


def test_run_clustering_pddp_sib_rejects_zero_restarts():
    with pytest.raises(ValueError, match="n_restarts"):
        run_clustering(_pipeline_corpus(0), "pddp+sib", "fixed", k=3, restarts=0)


@pytest.mark.parametrize("algo, stop, message", [("nope", "fixed", "unknown algorithm 'nope'"),
                                                 ("sib", "nope", "unknown stopping rule 'nope'")])
def test_run_clustering_rejects_a_bad_algo_or_stop_before_weighting(monkeypatch, capsys, algo, stop,
                                                                    message):
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "tfidf_weight", counted(cli.tfidf_weight))
    monkeypatch.setattr(cli, "word_conditionals", counted(cli.word_conditionals))
    with pytest.raises(ValueError, match=message):
        run_clustering(_pipeline_corpus(0), algo, stop, k=2)
    assert calls == []
    assert capsys.readouterr().err == ""



@pytest.mark.parametrize("algo, weighting, stage", [
    ("sib", "tfidf", "sib_run"), ("pddp+sib", "tfidf", "sib_run"),
    ("sib", "none", "sib_run"), ("pddp+sib", "none", "sib_run"),
    ("pddp+sgem", "tfidf", "sgem_run"),
])
def test_cluster_releases_the_rows_before_the_refinement(tmp_path, monkeypatch, algo, weighting,
                                                        stage):
    """``read_matrix``'s result is dead, matrix included, when sGEM or sIB is
    entered, and on the sIB paths so is ``tfidf_weight``'s. Document 5 of
    the corpus is dropped by tf-idf, so the kept rows are a subset."""
    prefix = tmp_path / "small"
    write_matrix(_pipeline_corpus(0), prefix)
    refs = {}

    def keeps_refs(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            tdm = out[0] if name == "weighted" else out
            refs[name] = (weakref.ref(tdm), weakref.ref(tdm.matrix))
            return out
        return wrapped

    alive = {}

    def records_liveness(fn):
        def wrapped(*args, **kwargs):
            alive.update({name: [r() is not None for r in pair] for name, pair in refs.items()})
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "read_matrix", keeps_refs("raw", cli.read_matrix))
    monkeypatch.setattr(cli, "tfidf_weight", keeps_refs("weighted", cli.tfidf_weight))
    monkeypatch.setattr(cli, stage, records_liveness(getattr(cli, stage)))
    argv = ["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "4",
            "--restarts", "2", "--maxl", "3", "--weighting", weighting,
            "--output", str(tmp_path / "small.report")]
    assert main(argv) == 0
    assert alive["raw"] == [False, False]
    if weighting == "tfidf":
        # sGEM reads the weighted rows, so only their TermDocMatrix is gone
        assert alive["weighted"] == [False, stage == "sgem_run"]

@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5"])
def test_cluster_rejects_non_finite_or_negative_delta(capsys, value):
    with pytest.raises(SystemExit) as err:
        main(["cluster", "p", "--algo", "pddp+sgem", "--stop", "fixed", "--k", "2",
              f"--delta={value}"])
    assert err.value.code == 2
    assert "--delta must be finite and >= 0" in capsys.readouterr().err


# Stage spans the benchmark's tracer must find inside ``cli.run_clustering``:
# its per-layer metrics read as zero for a stage that is called past it.
_STAGES = ("corpus.tfidf_weight", "corpus.word_conditionals", "pddp.pddp_run",
           "sgem.sgem_run", "sib.sib_run")


@pytest.mark.parametrize("algo, stop, expected", [
    ("pddp", "fixed", {"corpus.tfidf_weight", "pddp.pddp_run"}),
    ("pddp+sgem", "fixed", {"corpus.tfidf_weight", "pddp.pddp_run", "sgem.sgem_run"}),
    ("sib", "fixed", {"corpus.tfidf_weight", "corpus.word_conditionals", "sib.sib_run"}),
    ("sib", "csv", {"corpus.tfidf_weight", "corpus.word_conditionals", "pddp.pddp_run",
                    "sib.sib_run"}),
    ("pddp+sib", "fixed", {"corpus.tfidf_weight", "corpus.word_conditionals", "pddp.pddp_run",
                           "sib.sib_run"}),
])
def test_bench_tracer_sees_each_stage_of_the_pipeline(tmp_path, algo, stop, expected):
    prefix = tmp_path / "small"
    write_matrix(multinomial_corpus(0, n_docs=80, vocab_size=40)[0], prefix)
    spans_path = tmp_path / "spans.json"
    argv = ["cluster", str(prefix), "--algo", algo, "--stop", stop, "--restarts", "2",
            "--maxl", "3"] + (["--k", "3"] if stop == "fixed" else [])
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    run = _run_python(str(tracer), str(spans_path), repr(time.monotonic()), "--", *argv)
    assert run.returncode == 0, run.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    (root,) = [i for i, s in enumerate(spans) if s[0] == "cli.run_clustering"]

    def inside_root(i):
        while i != -1 and i != root:
            i = spans[i][3]
        return i == root

    found = {s[0] for i, s in enumerate(spans) if s[0] in _STAGES and inside_root(i)}
    assert found == expected
    assert all(inside_root(i) for i, s in enumerate(spans) if s[0] in _STAGES)
