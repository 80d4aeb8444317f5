import math

import numpy as np
import pytest

from textpart.corpus import (
    EmptyCorpusError,
    build_matrix,
    read_matrix,
    tfidf_weight,
    tokenize,
    word_conditionals,
    write_matrix,
)


# --- tokenize -------------------------------------------------------------

def test_tokenize_removes_stop_words():
    assert tokenize("The cat sat", {"the"}) == ["cat", "sat"]


def test_tokenize_empty_text():
    assert tokenize("") == []


def test_tokenize_lowercases():
    assert tokenize("Cat cat CAT") == ["cat", "cat", "cat"]


def test_tokenize_splits_on_non_alphabetic():
    assert tokenize("re-run x2 foo_bar") == ["re", "run", "x", "foo", "bar"]


def test_tokenize_unicode_letters():
    assert tokenize("Ärger über Öl") == ["ärger", "über", "öl"]


# --- build_matrix ----------------------------------------------------------

def test_build_matrix_prunes_by_corpus_total():
    docs = [["a", "b"], ["a"], ["a"]]
    tdm, dropped = build_matrix(docs, min_count=2)
    assert tdm.vocab == ("a",)
    assert dropped == []
    assert tdm.matrix.toarray().tolist() == [[1.0], [1.0], [1.0]]


def test_build_matrix_min_count_one_keeps_everything():
    docs = [["b", "a"], ["c"]]
    tdm, _ = build_matrix(docs, min_count=1)
    assert tdm.vocab == ("a", "b", "c")  # lexicographic


def test_build_matrix_all_pruned_is_an_error():
    with pytest.raises(EmptyCorpusError, match="empty corpus after pruning"):
        build_matrix([["b"]], min_count=2)


def test_build_matrix_reports_dropped_docs():
    docs = [["a", "a"], ["b"], ["a"]]
    tdm, dropped = build_matrix(docs, min_count=2, doc_ids=["d0", "d1", "d2"])
    assert dropped == ["d1"]
    assert tdm.doc_ids == ("d0", "d2")


def test_build_matrix_counts_are_term_frequencies():
    tdm, _ = build_matrix([["a", "a", "b", "a"]], min_count=1)
    assert tdm.matrix.toarray().tolist() == [[3.0, 1.0]]


# --- tfidf_weight ----------------------------------------------------------

def test_tfidf_scalar_value():
    # tf=3, n=8, df=2 -> 3 * ln(4) before normalization
    docs = [["x", "x", "x"], ["x"]] + [["y"]] * 6
    tdm, _ = build_matrix(docs, min_count=1)
    weighted, dropped = tfidf_weight(tdm)
    assert dropped == []
    j = weighted.vocab.index("x")
    raw_weight = 3 * math.log(8 / 2)
    assert raw_weight == pytest.approx(4.1588830833596715)
    # row 0 holds only x (y has df=6): weight normalizes to 1
    row0 = weighted.matrix[[0]].toarray().ravel()
    assert row0[j] == pytest.approx(1.0)


def test_tfidf_345_normalization():
    # weights (3, 4) -> (0.6, 0.8); build df so idf ratios give 3:4 exactly is
    # fiddly, so check the normalization rule directly on a crafted matrix.
    import scipy.sparse as sp

    from textpart.corpus import TermDocMatrix

    raw = TermDocMatrix(
        sp.csr_array(np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0]])),
        ("a", "b"),
        ("0", "1", "2"),
    )
    # df = (2, 2), n = 3: idf identical for both terms, so row 0 keeps the 3:4
    # ratio and must normalize to (0.6, 0.8)
    weighted, _ = tfidf_weight(raw)
    assert weighted.matrix[[0]].toarray().ravel() == pytest.approx([0.6, 0.8])


def test_tfidf_df_equals_n_drops_document():
    tdm, _ = build_matrix([["a"]], min_count=1, doc_ids=["only"])
    weighted, dropped = tfidf_weight(tdm)
    assert dropped == ["only"]
    assert weighted.n_docs == 0


def test_tfidf_ubiquitous_term_vanishes_from_rows():
    docs = [["a", "b"], ["a", "c"], ["a", "b"]]
    tdm, _ = build_matrix(docs, min_count=1)
    weighted, dropped = tfidf_weight(tdm)
    assert dropped == []
    dense = weighted.matrix.toarray()
    assert np.all(dense[:, weighted.vocab.index("a")] == 0.0)
    # vocabulary indices are unchanged
    assert weighted.vocab == tdm.vocab


def test_tfidf_rows_have_unit_norm():
    rng = np.random.default_rng(5)
    docs = [
        [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(3, 40)))]
        for _ in range(50)
    ]
    tdm, _ = build_matrix(docs, min_count=1)
    weighted, dropped = tfidf_weight(tdm)
    norms = np.sqrt(np.asarray(weighted.matrix.multiply(weighted.matrix).sum(axis=1)).ravel())
    assert np.abs(norms - 1.0).max() < 1e-9


def test_pipeline_is_deterministic():
    docs = [["b", "a", "a"], ["c", "b"], ["a", "c", "c"]]
    a, _ = build_matrix(docs, min_count=1)
    b, _ = build_matrix(docs, min_count=1)
    wa, _ = tfidf_weight(a)
    wb, _ = tfidf_weight(b)
    assert np.array_equal(wa.matrix.data, wb.matrix.data)
    assert np.array_equal(wa.matrix.indices, wb.matrix.indices)
    assert np.array_equal(wa.matrix.indptr, wb.matrix.indptr)


def test_pruning_monotonicity():
    rng = np.random.default_rng(11)
    docs = [
        [f"t{rng.integers(0, 15)}" for _ in range(int(rng.integers(1, 12)))]
        for _ in range(30)
    ]
    vocabs = []
    for mc in (1, 2, 3, 5):
        try:
            tdm, _ = build_matrix(docs, min_count=mc)
            vocabs.append(set(tdm.vocab))
        except EmptyCorpusError:
            vocabs.append(set())
    for small, big in zip(vocabs[1:], vocabs):
        assert small <= big


# --- word_conditionals -----------------------------------------------------

def test_word_conditionals_symmetric_row():
    tdm, _ = build_matrix([["y1", "y1", "y2", "y2"]], min_count=1)
    joint = word_conditionals(tdm)
    assert joint.py_given_x.toarray().tolist() == [[0.5, 0.5]]


def test_word_conditionals_uniform_prior():
    tdm, _ = build_matrix([["a"], ["a"], ["a"], ["a"]], min_count=1)
    joint = word_conditionals(tdm)
    assert joint.px.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_word_conditionals_hand_normalization():
    tdm, _ = build_matrix([["y1", "y2", "y2", "y2"]], min_count=1)
    joint = word_conditionals(tdm)
    assert joint.py_given_x.toarray().tolist() == [[0.25, 0.75]]


def test_word_conditionals_rejects_empty_row():
    import scipy.sparse as sp

    from textpart.corpus import TermDocMatrix

    tdm = TermDocMatrix(sp.csr_array(np.array([[1.0], [0.0]])), ("a",), ("0", "1"))
    with pytest.raises(ValueError, match="empty document"):
        word_conditionals(tdm)


def test_joint_invariants_on_random_corpus():
    rng = np.random.default_rng(3)
    docs = [
        [f"t{rng.integers(0, 20)}" for _ in range(int(rng.integers(1, 25)))]
        for _ in range(40)
    ]
    tdm, _ = build_matrix(docs, min_count=1)
    joint = word_conditionals(tdm)
    joint.validate()
    sums = np.asarray(joint.py_given_x.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 1e-9
    assert abs(joint.px.sum() - 1.0) < 1e-12


# --- matrix file round trip --------------------------------------------------

def test_matrix_file_round_trip(tmp_path):
    docs = [["a", "b", "b"], ["a"], ["b", "c", "c"]]
    tdm, _ = build_matrix(docs, min_count=1, doc_ids=["x.txt", "y.txt", "z.txt"])
    prefix = tmp_path / "corpus"
    write_matrix(tdm, prefix)
    back = read_matrix(prefix)
    assert back.vocab == tdm.vocab
    assert back.doc_ids == tdm.doc_ids
    assert np.array_equal(back.matrix.toarray(), tdm.matrix.toarray())


def test_matrix_file_header_mismatch(tmp_path):
    p = tmp_path / "bad"
    (tmp_path / "bad.mat").write_text("2 2 3\n0 0 1.0\n", encoding="utf-8")
    (tmp_path / "bad.vocab").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "bad.docs").write_text("0\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 3 entries"):
        read_matrix(p)


def _write_mat(tmp_path, body: str, n_docs: int = 3, n_terms: int = 2):
    lines = body.strip().splitlines()
    (tmp_path / "bad.mat").write_text(f"{n_docs} {n_terms} {len(lines)}\n" + "\n".join(lines) + "\n",
                                      encoding="utf-8")
    (tmp_path / "bad.vocab").write_text("".join(f"w{j}\n" for j in range(n_terms)), encoding="utf-8")
    (tmp_path / "bad.docs").write_text("".join(f"d{i}\n" for i in range(n_docs)), encoding="utf-8")
    return tmp_path / "bad"


@pytest.mark.parametrize("body, message", [
    ("0 0 1.0\n1 1 2.0\n0 0 3.0", r"bad\.mat: duplicate \(doc, term\) entry"),
    ("0 0 1.0\n3 1 2.0", r"bad\.mat: entry index out of range"),
    ("0 0 1.0\n1 2 2.0", r"bad\.mat: entry index out of range"),
    ("0 -1 1.0\n1 1 2.0", r"bad\.mat: entry index out of range"),
    ("0 0 1.0\n1 1\n2 0 1.0", r"bad\.mat: malformed entry on line 3: '1 1'"),
    ("0 0 1.0\n1 x 2.0", r"bad\.mat: malformed entry on line 3: '1 x 2.0'"),
    ("0 0 1.0\n1.5 1 2.0", r"bad\.mat: malformed entry on line 3"),
    ("0 0 one", r"bad\.mat: malformed entry on line 2"),
])
def test_read_matrix_rejects_bad_entries(tmp_path, body, message):
    with pytest.raises(ValueError, match=message):
        read_matrix(_write_mat(tmp_path, body))
