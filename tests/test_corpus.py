import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from datagen import corpus_texts, multinomial_corpus
from textpart import corpus as corpus_mod
from textpart.corpus import (
    EmptyCorpusError,
    TermDocMatrix,
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


def _build_outcome(build, docs, min_count, doc_ids):
    """What a matrix builder makes of a corpus: the exception type and
    message, or the matrix bits (dtypes included), vocabulary, doc ids,
    dropped ids and the bytes ``write_matrix`` writes."""
    try:
        tdm, dropped = build(docs, min_count=min_count, doc_ids=doc_ids)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc).__name__, str(exc)
    m = tdm.matrix
    with tempfile.TemporaryDirectory() as tmp:
        write_matrix(tdm, Path(tmp) / "m")
        files = [(Path(tmp) / f"m{ext}").read_bytes() for ext in (".mat", ".vocab", ".docs")]
    return (m.shape, tdm.vocab, tdm.doc_ids, dropped, files,
            *((a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data)))


def test_build_matrix_rejects_a_repeated_doc_id():
    with pytest.raises(ValueError, match="doc id 'x' repeats an earlier document"):
        build_matrix([["a"], ["a", "b"], ["b"]], min_count=1, doc_ids=["x", "y", "x"])


def test_build_matrix_rejects_a_repeated_id_of_a_dropped_document():
    # 'z' is pruned, so the first 'x' names a dropped document and the second a kept one
    with pytest.raises(ValueError, match="doc id 'x' repeats an earlier document"):
        build_matrix([["z"], ["a"], ["a"]], min_count=2, doc_ids=["x", "x", "y"])


# Every str.splitlines boundary; each would split a .docs or .vocab line in two.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS)
def test_doc_ids_and_terms_that_hold_a_line_break_are_rejected(brk):
    bad = f"e{brk}f"
    with pytest.raises(ValueError, match=f"^doc id {re.escape(repr(bad))} holds a line break$"):
        build_matrix([["a"], ["a"]], min_count=1, doc_ids=["x", bad])
    with pytest.raises(ValueError, match=f"^term {re.escape(repr(bad))} holds a line break$"):
        build_matrix([["a", bad], ["a", bad]], min_count=1)
    with pytest.raises(ValueError, match="holds a line break"):
        TermDocMatrix(_six_by_four(), ("a", "b", "c", "d"), ("d0", "d1", "d2", "d3", "d4", bad))
    # a final break is a break too, and a pruned term is never written
    with pytest.raises(ValueError, match="holds a line break"):
        build_matrix([["a"], ["a"]], min_count=1, doc_ids=["x", f"y{brk}"])
    tdm, _ = build_matrix([["a", bad], ["a"]], min_count=2, doc_ids=["", "y z"])
    assert tdm.vocab == ("a",) and tdm.doc_ids == ("", "y z")


def _six_by_four():
    return sp.csr_array(np.arange(24, dtype=np.float64).reshape(6, 4))


@pytest.mark.parametrize("n_ids", [5, 7])
def test_term_doc_matrix_rejects_doc_ids_that_do_not_fit_the_rows(n_ids):
    ids = tuple(f"d{i}" for i in range(n_ids))
    with pytest.raises(ValueError, match=rf"^{n_ids} doc ids and 4 terms do not fit a 6 x 4 matrix$"):
        TermDocMatrix(_six_by_four(), ("a", "b", "c", "d"), ids)


def test_term_doc_matrix_rejects_a_vocab_that_does_not_fit_the_columns():
    ids = tuple(f"d{i}" for i in range(6))
    with pytest.raises(ValueError, match=r"^6 doc ids and 2 terms do not fit a 6 x 4 matrix$"):
        TermDocMatrix(_six_by_four(), ("a", "b"), ids)


def test_build_matrix_reads_one_shot_generators():
    docs = [["b", "a", "b"], [], ["c", "a"], ["c"]]
    once = (iter(doc) for doc in docs)
    assert _build_outcome(build_matrix, once, 2, None) == _build_outcome(oracles.build_matrix_lists, docs, 2, None)
    assert next(once, None) is None


@pytest.mark.parametrize("docs, min_count, doc_ids, error", [
    ([["a"]], 0, None, "ValueError"),
    ([["a"], ["a"]], 1, ["x"], "ValueError"),
    ([["a"]], 1, ["x", "y"], "ValueError"),
    ([["b"], ["c"]], 2, ["x"], "ValueError"),
    ([["a"], ["b"]], 2, None, "EmptyCorpusError"),
    ([["a", "a"]], 3, ["x"], "EmptyCorpusError"),
    ([[], []], 1, None, "EmptyCorpusError"),
    ([], 1, None, "EmptyCorpusError"),
])
def test_build_matrix_fails_like_the_list_oracle(docs, min_count, doc_ids, error):
    expected = _build_outcome(oracles.build_matrix_lists, docs, min_count, doc_ids)
    assert expected[0] == error
    assert _build_outcome(build_matrix, iter(docs), min_count, doc_ids) == expected


# Letters of several scripts, including case pairs whose lowercase differs
# in form or length; digits of several scripts, "_", punctuation and spaces
# separate tokens.
_LETTERS = "abzAZÄäßẞİıΣσςЖжαΩこカ漢ǅŉﬁ"
_BREAKS = " \t\n_-.,;:!?'\"()0123456789\u0663\u096a\u00a0\u3000\u0301"


@st.composite
def _raw_corpora(draw):
    words = draw(st.lists(st.text(_LETTERS, min_size=1, max_size=3), min_size=1, max_size=8))
    piece = st.one_of(st.sampled_from(words), st.text(_BREAKS, min_size=1, max_size=2))
    texts = draw(st.lists(st.lists(piece, max_size=12).map("".join), max_size=12))
    stop_words = draw(st.sets(st.sampled_from([w.lower() for w in words] + ["a", "ß"]), max_size=3))
    return texts, frozenset(stop_words)


@settings(max_examples=300, deadline=None)
@given(corpus=_raw_corpora(), min_count=st.integers(1, 4), named=st.booleans())
def test_build_matrix_matches_list_oracle_on_random_text(corpus, min_count, named):
    texts, stop_words = corpus
    doc_ids = [f"doc {i}.txt" for i in range(len(texts))] if named else None
    expected = _build_outcome(oracles.build_matrix_lists, [tokenize(t, stop_words) for t in texts],
                              min_count, doc_ids)
    lazy = (tokenize(t, stop_words) for t in texts)
    assert _build_outcome(build_matrix, lazy, min_count, doc_ids) == expected


def test_build_matrix_peak_memory_is_a_third_of_the_list_oracle():
    """The token strings of one document at a time and one int per token,
    against every token string plus three Python lists per entry."""
    texts = corpus_texts(multinomial_corpus(0, n_docs=4000, vocab_size=1000)[0])
    peaks = []
    for build, docs in [(build_matrix, lambda: (tokenize(t) for t in texts)),
                        (oracles.build_matrix_lists, lambda: [tokenize(t) for t in texts])]:
        tracemalloc.start()
        try:
            tdm, _ = build(docs())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert tdm.matrix.shape == (4000, 1000)
    assert 3 * peaks[0] <= peaks[1], f"peak {peaks[0]} bytes against the oracle's {peaks[1]}"


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


def test_tfidf_weight_rejects_a_squared_norm_beyond_float64():
    """Documents d0 and d1 hold counts whose tf-idf weights square past the
    largest float64; the first of them is named, before any row is dropped."""
    counts = np.array([[1e308, 0.0, 0.0], [0.0, 1e200, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
    tdm = TermDocMatrix(sp.csr_array(counts), ("a", "b", "c"), ("d0", "d1", "d2", "d3"))
    with pytest.raises(ValueError, match=r"^document 'd0': squared tf-idf norm overflows float64$"):
        tfidf_weight(tdm)


def _same_csr(a, b) -> bool:
    """Same shape, and the same bytes and dtypes in all three CSR arrays."""
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))


@st.composite
def _count_matrices(draw):
    """A canonical CSR matrix of nonnegative values with stored zeros,
    values whose squares underflow, empty rows (in some cases the first and
    the last) or a term that every document holds, and int32 or int64
    index arrays."""
    n_docs, n_terms = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    value = st.sampled_from([0.0, 1e-200]) | st.integers(1, 4).map(float) | st.floats(1e-30, 1e30)
    rows = [sorted(draw(st.sets(st.integers(0, n_terms - 1)))) for _ in range(n_docs)]
    shape = draw(st.sampled_from(["random", "empty-ends", "common-term"]))
    if shape == "empty-ends":
        rows[0] = rows[-1] = []
    if shape == "common-term":
        rows = [sorted(set(row) | {0}) for row in rows]
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    indices = np.array([j for row in rows for j in row], dtype=dtype)
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(dtype)
    data = np.array(draw(st.lists(value, min_size=indices.size, max_size=indices.size)), dtype=float)
    if shape == "common-term":
        data[indptr[:-1]] += 1.0  # every document holds term 0
    matrix = sp.csr_array((data, indices, indptr), shape=(n_docs, n_terms))
    return TermDocMatrix(matrix, tuple(f"t{j}" for j in range(n_terms)),
                         tuple(f"d{i}" for i in range(n_docs)))


@settings(max_examples=300, deadline=None)
@given(tdm=_count_matrices())
def test_weighting_matches_the_multiply_oracles_bitwise(tdm):
    weighted, dropped = tfidf_weight(tdm)
    expected, expected_dropped = oracles.tfidf_weight_multiply(tdm)
    assert _same_csr(weighted.matrix, expected.matrix)
    assert (weighted.doc_ids, dropped) == (expected.doc_ids, expected_dropped)
    try:
        expected = oracles.word_conditionals_multiply(tdm)
    except ValueError as exc:  # an empty document
        with pytest.raises(ValueError, match=str(exc)):
            word_conditionals(tdm)
        return
    joint = word_conditionals(tdm)
    assert _same_csr(joint.py_given_x, expected.py_given_x)
    assert joint.px.tobytes() == expected.px.tobytes()
    assert _same_csr(joint.joint_rows(), oracles.joint_rows_multiply(expected))


def test_weighting_an_unsorted_matrix_weights_its_canonical_form():
    """Document d0 holds term 2 twice, out of column order. Its weights are
    those of the summed, sorted matrix, and the input's arrays stay as they
    were, though a result on shared index arrays is sorted in place."""
    messy = sp.csr_array((np.array([1.0, 2.0, 1.0, 3.0, 1.0, 1.0]), np.array([2, 0, 2, 1, 0, 1]),
                          np.array([0, 3, 5, 6])), shape=(3, 3))
    before = [a.copy() for a in (messy.data, messy.indices, messy.indptr)]
    canonical = messy.copy()
    canonical.sum_duplicates()
    vocab, doc_ids = ("a", "b", "c"), ("d0", "d1", "d2")
    weighted = tfidf_weight(TermDocMatrix(messy, vocab, doc_ids))[0].matrix
    assert _same_csr(weighted, tfidf_weight(TermDocMatrix(canonical, vocab, doc_ids))[0].matrix)
    joint = word_conditionals(TermDocMatrix(messy, vocab, doc_ids))
    joint.joint_rows().sort_indices()
    assert joint.py_given_x.has_canonical_format
    assert all(np.array_equal(a, b) for a, b in zip((messy.data, messy.indices, messy.indptr), before))


def test_tfidf_weight_peak_memory_is_two_thirds_of_the_multiply_oracle(tmp_path):
    """The weights on the input's index arrays, against scipy's products,
    the COO round trips and the copies of the oracle; on the matrix as
    ``textpart cluster`` reads it."""
    write_matrix(multinomial_corpus(0, n_docs=4000, vocab_size=1000)[0], tmp_path / "m")
    tdm = read_matrix(tmp_path / "m")
    peaks = []
    for weight in (tfidf_weight, oracles.tfidf_weight_multiply):
        tracemalloc.start()
        try:
            weight(tdm)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 3 * peaks[0] <= 2 * peaks[1], f"peak {peaks[0]} bytes against the oracle's {peaks[1]}"


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


@pytest.mark.parametrize("row, total", [([1.7e308, 1.7e308], "inf"), ([5e-324, 0.0], "4.94066e-324")])
def test_word_conditionals_names_a_count_sum_beyond_float64(row, total):
    """No RuntimeWarning on the way (tier-1 makes it an error)."""
    import scipy.sparse as sp

    from textpart.corpus import TermDocMatrix

    tdm = TermDocMatrix(sp.csr_array(np.array([[1.0, 2.0], row])), ("a", "b"), ("d0", "d1"))
    with pytest.raises(ValueError) as err:
        word_conditionals(tdm)
    assert str(err.value) == (f"document 'd1': its counts sum to {total}, "
                              "too small or too large to normalise in float64")


@pytest.mark.parametrize("row", [[-1.0, 5.0], [-3.0, 2.0], [math.nan, 1.0], [-math.inf, 1.0]])
def test_word_conditionals_refuses_a_count_that_is_negative_or_not_a_number(row):
    """Before the sum: a row [-1, 5] would give p(y|x) = [-0.25, 1.25], and a
    row summing to -1 would be reported as empty."""
    from textpart.corpus import TermDocMatrix

    tdm = TermDocMatrix(sp.csr_array(np.array([[1.0, 2.0], row, [-1.0, 1.0]])), ("a", "b"),
                        ("d0", "d1", "d2"))
    with pytest.raises(ValueError) as err:
        word_conditionals(tdm)
    assert str(err.value) == "document 'd1' holds a count that is negative or not a number"


def test_joint_invariants_on_random_corpus():
    rng = np.random.default_rng(3)
    docs = [
        [f"t{rng.integers(0, 20)}" for _ in range(int(rng.integers(1, 25)))]
        for _ in range(40)
    ]
    tdm, _ = build_matrix(docs, min_count=1)
    joint = word_conditionals(tdm)
    sums = np.asarray(joint.py_given_x.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 1e-9
    assert abs(joint.px.sum() - 1.0) < 1e-12
    assert np.allclose(joint.px, joint.px[0])


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


@pytest.mark.parametrize("docs, message", [
    ("x\nx\ny\n", "doc id 'x' on line 2 repeats line 1"),
    ("x\ny\nx\n", "doc id 'x' on line 3 repeats line 1"),
    ("x\ny\ny\n", "doc id 'y' on line 3 repeats line 2"),
], ids=["x-x-y", "x-y-x", "x-y-y"])
def test_read_matrix_rejects_a_repeated_doc_id(tmp_path, docs, message):
    prefix = _write_mat(tmp_path, "0 0 1.0\n1 1 2.0")
    (tmp_path / "bad.docs").write_text(docs, encoding="utf-8")
    assert _assert_same_as_line_reader(prefix) == ("ValueError", f"{prefix}.docs: {message}")


# --- matrix file parsing against the line-by-line reader ---------------------

def _outcome(read, prefix):
    """What a matrix reader makes of a file: the exception type and message,
    or the matrix bits (dtypes included), vocabulary and doc ids."""
    try:
        tdm = read(prefix)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc).__name__, str(exc)
    m = tdm.matrix
    return (m.shape, tdm.vocab, tdm.doc_ids,
            *((a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data)))


def _write_raw(tmp_path, mat: bytes, n_docs: int = 3, n_terms: int = 2):
    (tmp_path / "raw.mat").write_bytes(mat)
    (tmp_path / "raw.vocab").write_text("".join(f"w{j}\n" for j in range(n_terms)), encoding="utf-8")
    (tmp_path / "raw.docs").write_text("".join(f"d{i}\n" for i in range(n_docs)), encoding="utf-8")
    return tmp_path / "raw"


def _assert_same_as_line_reader(prefix):
    expected = _outcome(oracles.read_matrix_lines, prefix)
    assert _outcome(read_matrix, prefix) == expected
    return expected


def _corpus(name):
    if name == "c9-shape":
        return multinomial_corpus(1)[0]
    if name == "nnz-0":
        return TermDocMatrix(sp.csr_array((3, 2)), ("a", "b"), ("x", "y", "z"))
    tdm, _ = multinomial_corpus(0, n_docs=600, vocab_size=200)
    if name == "tfidf":
        return tfidf_weight(tdm)[0]
    rows = tdm.matrix.toarray()
    rows[[0, 17, 599]] = 0.0  # empty rows, first and last included
    return TermDocMatrix(sp.csr_array(rows), tdm.vocab, tdm.doc_ids)


@pytest.mark.parametrize("name", ["c9-shape", "empty-rows", "tfidf", "nnz-0"])
def test_read_matrix_matches_line_reader_on_corpora(tmp_path, name):
    tdm = _corpus(name)
    write_matrix(tdm, tmp_path / "m")
    shape, vocab, doc_ids, *arrays = _assert_same_as_line_reader(tmp_path / "m")
    assert (shape, vocab, doc_ids) == (tdm.matrix.shape, tdm.vocab, tdm.doc_ids)
    assert [np.frombuffer(b, dtype=d).tolist() for d, b in arrays] == [
        tdm.matrix.indptr.tolist(), tdm.matrix.indices.tolist(), tdm.matrix.data.tolist()]


def test_read_matrix_parses_written_files_without_the_line_reader(tmp_path, monkeypatch):
    tdm, _ = multinomial_corpus(2)
    write_matrix(tdm, tmp_path / "m")
    monkeypatch.setattr(corpus_mod, "_parse_by_line", None)
    assert np.array_equal(read_matrix(tmp_path / "m").matrix.toarray(), tdm.matrix.toarray())


_MAT_CASES = {
    "plain": b"3 2 2\n0 0 1.0\n1 1 2.0\n",
    "blank-line-mid-body": b"3 2 2\n0 0 1.0\n\n1 1 2.0\n",
    "blank-line-counted": b"3 2 3\n0 0 1.0\n\n1 1 2.0\n",
    "whitespace-only-line": b"3 2 2\n0 0 1.0\n \t \n",
    "trailing-blank-lines": b"3 2 1\n0 0 1.0\n\n\n",
    "crlf": b"3 2 2\r\n0 0 1.0\r\n1 1 2.0\r\n",
    "lone-cr": b"3 2 2\r0 0 1.0\r1 1 2.0\r",
    "lone-cr-in-line": b"3 2 2\n0 0\r1.0\n1 1 2.0\n",
    "form-feed-in-line": b"3 2 2\n0 0\x0c1.0\n1 1 2.0\n",
    "form-feed-counted": b"3 2 3\n0 0\x0c1.0\n1 1 2.0\n",
    "form-feed-at-end": b"3 2 1\n0 0 1.0\x0c",
    "form-feed-in-header": b"3 2 1\x0c\n0 0 1.0\n",
    "next-line-char": "3 2 2\n0 0 1.0\x85\n1 1 2.0\n".encode(),
    "line-separator": "3 2 2\n0 0\u20281.0\n1 1 2.0\n".encode(),
    "group-separator": b"3 2 2\n0 0\x1d1.0\n1 1 2.0\n",
    "no-final-newline": b"3 2 2\n0 0 1.0\n1 1 2.0",
    "tabs-and-trailing-spaces": b"3 2 2\n0\t0 \t1.0  \n 1  1 2.0\t\n",
    "plus-index": b"3 2 1\n+1 0 1.0\n",
    "float-index-1e0": b"3 2 1\n1e0 0 1.0\n",
    "underscore-index": b"3 2 1\n0_1 0 1.0\n",
    "underscore-value": b"3 2 1\n0 0 1_0.5\n",
    "non-ascii-digit-index": "3 2 1\n\u0661 0 1.0\n".encode(),
    "nan-value": b"3 2 2\n0 0 1.0\n1 1 nan\n",
    "inf-value": b"3 2 2\n0 0 inf\n1 1 2.0\n",
    "infinity-value": b"3 2 2\n0 0 1.0\n1 1 -Infinity\n",
    "explicit-zero": b"3 2 2\n0 0 0.0\n1 1 2.0\n",
    "negative-zero": b"3 2 1\n0 0 -0.0\n",
    "negative-value": b"3 2 1\n0 0 -1.0\n",
    "17-digit-value": b"3 2 2\n0 0 0.30000000000000004\n1 1 5e-324\n",
    "hash-field": b"3 2 1\n0 0 #\n",
    "hash-fourth-field": b"3 2 1\n0 0 1.0 # note\n",
    "four-fields": b"3 2 1\n0 0 1.0 2.0\n",
    "two-fields": b"3 2 2\n0 0 1.0\n1 1\n",
    "nul-in-value": b"3 2 1\n0 0 1\x00\n",
    "index-beyond-int64": b"3 2 1\n99999999999999999999 0 1.0\n",
    "index-int64-min": b"3 2 1\n-9223372036854775808 0 1.0\n",
    "n-terms-beyond-int64": b"3 99999999999999999999 1\n0 0 1.0\n",
    "n-terms-beyond-int64-duplicate": b"3 99999999999999999999 2\n0 0 1.0\n0 0 2.0\n",
    "unsorted-rows": b"3 2 3\n2 1 1.0\n0 0 2.0\n1 1 3.0\n",
    "unsorted-columns": b"3 2 2\n0 1 1.0\n0 0 2.0\n",
    "duplicate-adjacent": b"3 2 2\n0 0 1.0\n0 0 2.0\n",
    "duplicate-unsorted": b"3 2 3\n1 1 1.0\n0 0 2.0\n1 1 3.0\n",
    "out-of-range-row": b"3 2 1\n3 0 1.0\n",
    "negative-column": b"3 2 1\n0 -1 1.0\n",
    "empty-file": b"",
    "newline-only": b"\n",
    "header-two-fields": b"3 2\n",
    "header-not-integers": b"a b c\n",
    "header-first-field-not-integer": b"a 2 1\n0 0 1.0\n",
    "header-int64-max-plus-one": b"9223372036854775808 2 0\n",
    "header-int64-max": b"9223372036854775807 2 0\n",
    "header-beyond-docs-file": b"100000000000 2 0\n",
    "header-beyond-vocab-file": b"3 3 1\n0 0 1.0\n",
    "header-bom": b"\xef\xbb\xbf3 2 1\n0 0 1.0\n",
    "nnz-0": b"3 2 0\n",
    "nnz-0-negative-dims": b"-1 2 0\n",
    "nnz-negative": b"3 2 -1\n",
    "nnz-beyond-file-size": b"3 2 1000\n0 0 1.0\n",
    "too-many-lines": b"3 2 1\n0 0 1.0\n1 1 2.0\n",
    "invalid-utf8": b"3 2 1\n0 0 1.0\xff\n",
}


@pytest.mark.parametrize("mat", list(_MAT_CASES.values()), ids=list(_MAT_CASES))
def test_read_matrix_matches_line_reader_on_edge_cases(tmp_path, mat):
    _assert_same_as_line_reader(_write_raw(tmp_path, mat))


# What each header, overflow or value fault of ``_MAT_CASES`` raises: a
# ValueError that names the file and, where there is one, the line.
_FAULTS = {
    "header-two-fields": "malformed header on line 1: '3 2'",
    "header-not-integers": "malformed header on line 1: 'a b c'",
    "header-first-field-not-integer": "malformed header on line 1: 'a 2 1'",
    "header-bom": r"malformed header on line 1: '\ufeff3 2 1'",  # repr escapes the BOM
    "nnz-0-negative-dims": "malformed header on line 1: '-1 2 0'",
    "nnz-negative": "malformed header on line 1: '3 2 -1'",
    "n-terms-beyond-int64": "malformed header on line 1: '3 99999999999999999999 1'",
    "n-terms-beyond-int64-duplicate": "malformed header on line 1: '3 99999999999999999999 2'",
    "header-int64-max-plus-one": "malformed header on line 1: '9223372036854775808 2 0'",
    "index-beyond-int64": "malformed entry on line 2: '99999999999999999999 0 1.0'",
    "header-int64-max": "header shape 9223372036854775807 x 2 disagrees with 3 doc ids and 2 terms",
    "header-beyond-docs-file": "header shape 100000000000 x 2 disagrees with 3 doc ids and 2 terms",
    "header-beyond-vocab-file": "header shape 3 x 3 disagrees with 3 doc ids and 2 terms",
    "invalid-utf8": "not valid UTF-8 ('utf-8' codec can't decode byte 0xff in position 13",
    "negative-value": "negative value on line 2",
}


@pytest.mark.parametrize("name", list(_FAULTS))
def test_read_matrix_faults_are_value_errors_naming_the_file(tmp_path, name):
    prefix = _write_raw(tmp_path, _MAT_CASES[name])
    with pytest.raises(ValueError) as info:
        read_matrix(prefix)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{prefix}.mat: {_FAULTS[name]}")


_SEPARATORS = [chr(c) for c in range(0x3001) if chr(c).isspace()] + ["\u200b", "\u180e", "\x00", ","]


@pytest.mark.parametrize("sep", _SEPARATORS, ids=[f"U+{ord(s):04X}" for s in _SEPARATORS])
def test_read_matrix_splits_fields_like_str_split(tmp_path, sep):
    mat = f"3 2 2\n0{sep}0 1.0\n1 1{sep}2.0\n".encode()
    _assert_same_as_line_reader(_write_raw(tmp_path, mat))


@pytest.mark.parametrize("line, defect, message", [
    (4001, None, "malformed entry on line 4001: ''"),
    (2500, b" x", "malformed entry on line 2500: '2498 6 1.5 x'"),
    (3999, b"\x0c", "expected 4000 entries, found 4001"),
    # Only ``float`` reads "1.5_0", so line 2000's chunk is parsed line by
    # line and accepted; the fault on line 3500 is met in a later chunk.
    pytest.param((2000, 3500), (b"_0", b" x"), "malformed entry on line 3500: '3498 5 1.5 x'",
                 id="per-line-chunk-then-fault"),
])
def test_read_matrix_matches_line_reader_past_the_first_chunk(tmp_path, line, defect, message):
    body = [b"%d %d 1.5" % (i, i % 7) for i in range(4000)]
    lines, defects = (line, defect) if isinstance(line, tuple) else ((line,), (defect,))
    for n, d in zip(lines, defects):
        body[n - 2] = b"" if d is None else body[n - 2] + d
    mat = b"4000 7 4000\n" + b"\n".join(body) + b"\n"
    _, text = _assert_same_as_line_reader(_write_raw(tmp_path, mat, n_docs=4000, n_terms=7))
    assert message in text


def test_read_matrix_peak_memory_stays_near_file_size(tmp_path):
    tdm, _ = multinomial_corpus(0, n_docs=4000, vocab_size=1000)
    write_matrix(tdm, tmp_path / "m")
    size = (tmp_path / "m.mat").stat().st_size
    assert 90_000 <= tdm.nnz <= 110_000
    tracemalloc.start()
    try:
        read_matrix(tmp_path / "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * size, f"peak {peak / size:.1f}x the {size}-byte file"


# --- property tests ----------------------------------------------------------

_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1e308, allow_subnormal=True),
    st.sampled_from([0.1 + 0.2, 1 / 3, 2 ** -1074, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@st.composite
def _term_doc_matrices(draw):
    n_docs = draw(st.integers(0, 12))
    n_terms = draw(st.integers(1, 9))
    cells = draw(st.lists(st.booleans(), min_size=n_docs * n_terms, max_size=n_docs * n_terms))
    rows, cols = np.divmod(np.flatnonzero(np.array(cells, dtype=bool)), n_terms)
    vals = draw(st.lists(_VALUES, min_size=rows.size, max_size=rows.size))
    matrix = sp.csr_array((np.array(vals, dtype=np.float64), (rows, cols)), shape=(n_docs, n_terms))
    vocab = tuple(f"t{j}" for j in range(n_terms))
    return TermDocMatrix(matrix, vocab, tuple(f"doc {i}.txt" for i in range(n_docs)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tdm=_term_doc_matrices())
def test_write_read_matrix_round_trips_bitwise(tmp_path, tdm):
    prefix = Path(tempfile.mkdtemp(dir=tmp_path)) / "m"
    write_matrix(tdm, prefix)
    assert Path(f"{prefix}.mat").read_text(encoding="utf-8") == oracles.mat_text_by_entry(tdm)
    back = read_matrix(prefix)
    assert (back.vocab, back.doc_ids, back.matrix.shape) == (tdm.vocab, tdm.doc_ids, tdm.matrix.shape)
    assert np.array_equal(back.matrix.indptr, tdm.matrix.indptr)
    assert np.array_equal(back.matrix.indices, tdm.matrix.indices)
    assert back.matrix.data.tobytes() == tdm.matrix.data.tobytes()
    _assert_same_as_line_reader(prefix)


# Mostly well-formed entries, with now and then a token, separator or line
# end that one of the two readers might treat differently.
_INDICES = st.sampled_from(["0", "1", "2"] * 6 + ["+1", "-1", "00", "0_1", "1e0", "1.0", "\u0661",
                                                   "99999999999999999999"])
_VALUES_TEXT = st.sampled_from(["1.0", "2.5", "0.1", "3"] * 4 + ["0.0", "-0.0", "5e-324", "1_0.5",
                                                                  "nan", "inf", "#", "x", "\u0661"])
_GAPS = st.sampled_from([" "] * 12 + ["  ", "\t", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000"])
_ENDS = st.sampled_from(["\n"] * 12 + ["\r\n", "\r", "\x0b", "\n\n", " \n"])


@st.composite
def _mat_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fields = [draw(_INDICES), draw(_INDICES), draw(_VALUES_TEXT)]
        fields = draw(st.sampled_from([fields] * 8 + [fields[:2], fields + ["1"], []]))
        lines.append(draw(_GAPS).join(fields) + draw(_ENDS))
    body = "".join(lines)
    if draw(st.booleans()):
        body = body.rstrip("\n")
    nnz = len(body.splitlines()) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    return f"3 3 {nnz}\n" + body


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mat_texts(), chunk=st.sampled_from([1, 7, 1 << 13]))
def test_read_matrix_matches_line_reader_on_random_text(tmp_path, text, chunk):
    prefix = _write_raw(Path(tempfile.mkdtemp(dir=tmp_path)), text.encode("utf-8"), n_docs=3, n_terms=3)
    with mock.patch.object(corpus_mod, "_CHUNK_CHARS", chunk):
        _assert_same_as_line_reader(prefix)
