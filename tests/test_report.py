import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from textpart.report import RunReport, TreeRecord, format_report, read_report, write_report


def _sample_report():
    return RunReport(
        algorithm="pddp+sgem",
        seed=7,
        params=[("stop", "fixed"), ("k", "3"), ("delta", "auto")],
        time_seconds=0.12345678901234,
        tree=[
            TreeRecord(0, None, 0, 6, 2.5),
            TreeRecord(1, 0, 1, 4, 1.25, leaf_members=[0, 1, 2, 3]),
            TreeRecord(2, 0, 1, 2, 0.0, leaf_members=[4, 5]),
        ],
        assignments=[("a.txt", 0), ("b.txt", 1), ("c.txt", 2),
                     ("d.txt", 0), ("e.txt", 1), ("f.txt", 2)],
    )


def test_report_round_trips_byte_identically(tmp_path):
    path = tmp_path / "run.report"
    write_report(_sample_report(), path)
    first = path.read_bytes()
    write_report(read_report(path), path)
    assert path.read_bytes() == first


def test_report_round_trip_preserves_fields(tmp_path):
    rep = _sample_report()
    path = tmp_path / "run.report"
    write_report(rep, path)
    back = read_report(path)
    assert back.algorithm == rep.algorithm
    assert back.seed == rep.seed
    assert back.params == rep.params
    assert back.k_found == rep.k_found
    assert back.time_seconds == rep.time_seconds
    assert back.assignments == rep.assignments
    assert [t.node_id for t in back.tree] == [0, 1, 2]
    assert back.tree[1].leaf_members == [0, 1, 2, 3]
    assert back.tree[0].leaf_members is None


def test_report_nmi_round_trip(tmp_path):
    rep = _sample_report()
    rep.nmi = 0.95321
    path = tmp_path / "run.report"
    write_report(rep, path)
    first = path.read_bytes()
    back = read_report(path)
    assert back.nmi == pytest.approx(0.9532)
    write_report(back, path)
    assert path.read_bytes() == first


def test_k_found_follows_the_assignments_and_cannot_be_set():
    rep = _sample_report()
    assert rep.k_found == 3
    rep.assignments.append(("g.txt", 7))
    assert rep.k_found == 4
    assert "k_found 4" in format_report(rep).splitlines()
    with pytest.raises(AttributeError):
        rep.k_found = 5
    with pytest.raises(TypeError):
        RunReport(algorithm="sib", seed=0, k_found=3)


def test_write_report_refuses_a_doc_id_assigned_twice(tmp_path):
    rep = RunReport(algorithm="sib", seed=0, params=[("stop", "fixed"), ("k", "2")],
                    assignments=[("a", 0), ("b", 1), ("b", 1)])
    path = tmp_path / "twice.report"
    with pytest.raises(ValueError) as err:
        write_report(rep, path)
    assert str(err.value) == "doc id 'b' on line 10 repeats line 9"
    assert not path.exists()


def test_report_without_tree(tmp_path):
    rep = RunReport(
        algorithm="sib", seed=0,
        params=[("stop", "fixed"), ("k", "2")],
        time_seconds=1.0,
        assignments=[("1", 0), ("2", 1)],
    )
    path = tmp_path / "t.report"
    write_report(rep, path)
    back = read_report(path)
    assert back.tree is None
    assert back.nmi is None


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "x.report"
    write_report(_sample_report(), path)
    path.write_text(path.read_text() + "mystery 1\n")
    with pytest.raises(ValueError, match="unknown report field"):
        read_report(path)


def test_doc_ids_with_spaces_round_trip(tmp_path):
    rep = RunReport(
        algorithm="pddp", seed=0, params=[("stop", "fixed"), ("k", "2")],
        time_seconds=0.5,
        assignments=[("my doc.txt", 0), ("other doc.txt", 1)],
    )
    path = tmp_path / "s.report"
    write_report(rep, path)
    assert read_report(path).assignments == rep.assignments


# Report text holds one field per line, so strings may not contain a line
# break (control characters, U+2028, U+2029) or a surrogate.
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12)
_FLOATS = st.floats(allow_nan=False)


@st.composite
def _reports(draw):
    assignments = draw(st.lists(st.tuples(_TEXT, st.integers(-3, 40)), max_size=15))
    tree = None
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8, unique=True))
        tree = [TreeRecord(node_id, draw(st.none() | st.integers(0, 10 ** 6)), draw(st.integers(0, 50)),
                           draw(st.integers(0, 10 ** 6)), draw(_FLOATS),
                           draw(st.none() | st.lists(st.integers(-5, 10 ** 6), max_size=6)))
                for node_id in ids]
    return RunReport(
        algorithm=draw(_TEXT),
        seed=draw(st.integers()),
        params=draw(st.lists(st.tuples(_TEXT.filter(lambda t: " " not in t), _TEXT), max_size=5)),
        time_seconds=draw(_FLOATS),
        tree=tree,
        assignments=assignments,
        nmi=draw(st.none() | st.integers(0, 10 ** 4).map(lambda n: n / 10 ** 4)),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(report=_reports())
def test_format_read_report_round_trips_losslessly(tmp_path, report):
    ids = [doc_id for doc_id, _ in report.assignments]
    repeat = next((j for j, doc_id in enumerate(ids) if doc_id in ids[:j]), None)
    if repeat is not None:
        # a doc id assigned twice is refused, naming both lines
        first = len(format_report(replace(report, assignments=[], nmi=None)).splitlines()) + 1
        with pytest.raises(ValueError) as err:
            format_report(report)
        assert str(err.value) == (f"doc id {ids[repeat]!r} on line {first + repeat} "
                                  f"repeats line {first + ids.index(ids[repeat])}")
        return
    text = format_report(report)
    path = Path(tempfile.mkdtemp(dir=tmp_path)) / "r.report"
    path.write_text(text, encoding="utf-8")
    back = read_report(path)
    assert back == report
    assert format_report(back) == text
