"""Corpus ingestion: raw text to weighted sparse term-document matrices.

The pipeline is tokenize -> build_matrix (raw counts, low-frequency terms
pruned) -> either tfidf_weight (L2-normalized tf-idf rows, consumed by the
geometric algorithms) or word_conditionals (per-document word distributions
with a uniform document prior, consumed by the information-bottleneck
algorithm).

Weighting is arithmetic on the CSR ``data`` array. ``_scaled`` multiplies
each stored value by a per-row or per-column factor and returns a matrix
on the input's own ``indices`` and ``indptr``, so a weighted matrix may
share those arrays with the counts it came from. ``df`` is a ``bincount``
over the columns of the positive stored values. Each value is the product
that scipy's broadcasting ``multiply`` makes, and the row norms are
``linalg.row_sq_norms``, so the weights keep their bits without the
products' COO round trips. Only ``tfidf_weight`` copies the index arrays,
and only when it must leave out zero weights or dropped rows. Input with
unsorted or repeated entries is first made canonical (``_canonical``).

File formats handled here:

* corpus input: a directory of UTF-8 ``.txt`` files (one document each,
  doc_id = filename, which must be valid UTF-8 and hold no line break) or
  a single UTF-8 file with one document per ``str.splitlines`` line
  (doc_id = 1-based line number);
* stop-word list: one term per line;
* sparse matrix: first line ``n_docs n_terms nnz``, then one
  ``doc_index term_index value`` line per entry (0-based, whitespace-separated),
  with companion ``.vocab`` (one term per line) and ``.docs`` (one doc_id
  per line) files. ``read_matrix`` reads the ``.mat`` file in one pass of
  chunks: ``np.loadtxt`` parses each chunk, and only a chunk it declines is
  parsed line by line with ``str.split``, ``int`` and ``float``, so the
  accepted files, the faults and the matrix bits are those of a plain
  line-by-line reader.

The labels file that ``textpart eval`` scores against is read by
``textio.read_labels``, which needs no numpy or scipy. ``scipy.sparse`` is
imported where a CSR array is built (``build_matrix``, ``_scaled``,
``_entries_to_csr``), so importing this module loads numpy alone.
"""

from __future__ import annotations

import os
import re
import warnings
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .linalg import row_sq_norms
from .textio import check_lines, first_repeat, read_utf8

_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


class EmptyCorpusError(ValueError):
    """Every document was eliminated by pruning or weighting."""


def _check_unique(doc_ids: Sequence[str]) -> None:
    """Raise ``ValueError`` at the first doc id that repeats an earlier one."""
    repeat = first_repeat(doc_ids)
    if repeat is not None:
        raise ValueError(f"doc id {doc_ids[repeat[0]]!r} repeats an earlier document")


@dataclass(frozen=True)
class TermDocMatrix:
    """Sparse n_docs x n_terms matrix with its vocabulary and doc ids.

    ``matrix`` holds nonnegative values: raw term counts after
    ``build_matrix``, L2-normalized tf-idf weights after ``tfidf_weight``.
    There is one doc id per row and one vocabulary term per column, and
    doc ids are unique, since reports and ``textpart eval`` identify
    documents by id; a count that does not fit the shape, a repeated id,
    or an id or term that holds a line break (``write_matrix`` writes each
    on one line) raises ``ValueError``.
    """

    matrix: sp.csr_array
    vocab: tuple[str, ...]
    doc_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if (len(self.doc_ids), len(self.vocab)) != self.matrix.shape:
            raise ValueError(f"{len(self.doc_ids)} doc ids and {len(self.vocab)} terms do not fit "
                             f"a {self.n_docs} x {self.n_terms} matrix")
        check_lines("doc id", self.doc_ids)
        _check_unique(self.doc_ids)
        check_lines("term", self.vocab)

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)


@dataclass(frozen=True)
class JointDistribution:
    """Normalized p(document, word) with a uniform document prior.

    ``py_given_x`` rows are the word conditionals of each document and sum
    to 1; ``px`` is flat at 1/n_docs so document length cannot bias the
    clustering.
    """

    px: np.ndarray
    py_given_x: sp.csr_array

    @property
    def n_docs(self) -> int:
        return self.py_given_x.shape[0]

    @property
    def n_terms(self) -> int:
        return self.py_given_x.shape[1]

    def joint_rows(self) -> sp.csr_array:
        """Rows of p(x, y) = p(x) p(y|x)."""
        return _scaled(self.py_given_x, self.px, axis=0)

    def py(self) -> np.ndarray:
        """Word marginal p(y) = sum_x p(x) p(y|x), dense."""
        return np.asarray(self.py_given_x.T @ self.px).ravel()


def tokenize(raw_text: str, stop_words: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Lowercase a text and split it into alphabetic tokens.

    Tokens are maximal runs of Unicode letters; digits, underscores and
    punctuation separate tokens. Stop words are removed after lowercasing,
    so ``stop_words`` must be lowercase (``read_stop_words`` lowercases
    them). Deterministic; empty input yields an empty list.
    """
    return [t for t in _TOKEN_RE.findall(raw_text.lower()) if t not in stop_words]


def build_matrix(
    docs: Iterable[Iterable[str]],
    min_count: int = 2,
    doc_ids: Sequence[str] | None = None,
) -> tuple[TermDocMatrix, list[str]]:
    """Count terms and prune the vocabulary by total corpus frequency.

    ``docs`` is read once, so it may be a generator (one document's tokens
    alive at a time): each token is replaced by an integer id as it is read,
    and only the ids are kept. Terms whose corpus-wide count is below
    ``min_count`` are removed; the surviving vocabulary is sorted
    lexicographically so term indices are stable across runs. Documents left
    with no terms are dropped; their ids are returned as the second element.

    Raises ``ValueError`` if ``doc_ids`` does not give one id per document,
    repeats an id or holds a line break (``str.splitlines``), as does a
    kept term that holds one, and ``EmptyCorpusError`` if pruning
    eliminates every document.
    """
    import scipy.sparse as sp

    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    term_ids: dict[str, int] = {}
    intern = term_ids.setdefault
    tokens = array("i")  # every document's term ids, one document after another
    lengths = array("q")  # tokens per document
    for doc in docs:
        start = len(tokens)
        tokens.extend([intern(t, len(term_ids)) for t in doc])
        lengths.append(len(tokens) - start)
    n_docs = len(lengths)
    if doc_ids is None:
        doc_ids = [str(i) for i in range(n_docs)]
    if len(doc_ids) != n_docs:
        raise ValueError("doc_ids length does not match docs")
    check_lines("doc id", doc_ids)
    _check_unique(doc_ids)

    ids = np.frombuffer(tokens, dtype=np.intc)
    totals = np.bincount(ids, minlength=len(term_ids)).tolist()
    vocab = sorted(t for t, c in zip(term_ids, totals) if c >= min_count)
    n_terms = len(vocab)
    rank = np.full(len(term_ids), -1, dtype=np.intc)  # term id -> vocab index; -1 if pruned
    rank[[term_ids[t] for t in vocab]] = np.arange(n_terms)
    cols = rank[ids]
    del ids, tokens  # each per-token array is freed once used, to keep the peak low
    kept = cols >= 0
    # One row-major (doc, term) key per surviving token; sorted, the repeats
    # of an entry are adjacent, and each run's length is the entry's count.
    keys = np.repeat(np.arange(n_docs, dtype=np.int64) * n_terms, np.frombuffer(lengths, np.int64))[kept]
    keys += cols[kept]
    del cols, kept
    keys.sort()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    data = np.diff(starts, append=keys.size).astype(np.float64)
    keys = keys[starts]
    del starts
    # Row ends of every document; a document with an empty row is dropped.
    ends = np.searchsorted(keys, np.arange(1, n_docs + 1, dtype=np.int64) * n_terms)
    nonempty = np.diff(ends, prepend=0) > 0
    if not nonempty.any():
        raise EmptyCorpusError("empty corpus after pruning")

    indptr = np.concatenate((np.zeros(1, np.int64), ends[nonempty]))
    indices = np.remainder(keys, n_terms, out=keys)
    matrix = sp.csr_array((data, indices, indptr), shape=(indptr.size - 1, n_terms))
    kept_ids = tuple(doc_ids[i] for i in np.flatnonzero(nonempty).tolist())
    dropped = [doc_ids[i] for i in np.flatnonzero(~nonempty).tolist()]
    return TermDocMatrix(matrix, tuple(vocab), kept_ids), dropped


def _canonical(matrix: sp.csr_array) -> sp.csr_array:
    """``matrix`` itself when each row's columns are sorted and distinct,
    else a copy with repeated entries summed and the columns sorted."""
    return matrix if matrix.has_canonical_format else matrix.tocoo().tocsr()


def _scaled(matrix: sp.csr_array, factor: np.ndarray, axis: int) -> sp.csr_array:
    """``matrix`` with each stored value times ``factor`` at its row
    (``axis=0``) or its column (``axis=1``).

    The result shares the index arrays of ``_canonical(matrix)``; only its
    values are new. Stored zeros stay stored, and each product is the one
    scipy's broadcasting ``multiply`` makes, without its COO round trip.
    """
    import scipy.sparse as sp

    matrix = _canonical(matrix)
    scale = np.repeat(factor, np.diff(matrix.indptr)) if axis == 0 else factor[matrix.indices]
    scale *= matrix.data
    return sp.csr_array((scale, matrix.indices, matrix.indptr), shape=matrix.shape)


def tfidf_weight(m: TermDocMatrix) -> tuple[TermDocMatrix, list[str]]:
    """Replace raw counts by L2-normalized tf-idf weights.

    Each entry becomes ``tf * log(n / df)`` (natural log), where ``df`` is
    the number of documents containing the term; afterwards every row is
    scaled to unit L2 norm. Terms present in all documents get weight 0 and
    vanish from the rows (the vocabulary keeps its indices). Documents
    whose every term had df = n end up empty and are dropped; their ids are
    returned as the second element. A document whose squared tf-idf norm
    overflows float64 raises ``ValueError`` naming the first one.
    """
    if m.n_docs < 1:
        raise ValueError("tfidf_weight needs at least one document")
    counts = _canonical(m.matrix)
    df = np.bincount(counts.indices[counts.data > 0], minlength=m.n_terms)
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(m.n_docs / np.maximum(df, 1)), 0.0)
    with np.errstate(over="ignore"):
        weighted = _scaled(counts, idf, axis=1)
        sq_norms = row_sq_norms(weighted)
    finite = np.isfinite(sq_norms)
    if not finite.all():
        raise ValueError(f"document {m.doc_ids[finite.argmin()]!r}: squared tf-idf norm overflows float64")
    keep = sq_norms > 0
    dropped = [m.doc_ids[i] for i in np.flatnonzero(~keep)]
    if not keep.all() or np.count_nonzero(weighted.data) < weighted.nnz:
        weighted = weighted[keep]  # a copy, since the index arrays are the input's
        weighted.eliminate_zeros()
    weighted = _scaled(weighted, 1.0 / np.sqrt(sq_norms[keep]), axis=0)
    kept_ids = tuple(d for d, k in zip(m.doc_ids, keep) if k)
    return TermDocMatrix(weighted, m.vocab, kept_ids), dropped


def word_conditionals(m: TermDocMatrix) -> JointDistribution:
    """Normalize raw counts into p(y|x) rows with uniform p(x) = 1/n.

    ``p(y|x)`` is the count of word y in document x times the reciprocal of
    the document's total count. A document that stores a negative or NaN
    count, whose counts sum to 0, or whose total or its reciprocal
    overflows float64 (a sum below about 5.6e-309, or an infinite count),
    raises ``ValueError`` naming the first such document.
    """
    not_counts = ~(m.matrix.data >= 0)
    if not_counts.any():
        row = np.searchsorted(m.matrix.indptr, not_counts.argmax(), side="right") - 1
        raise ValueError(f"document {m.doc_ids[row]!r} holds a count that is negative or not a number")
    with np.errstate(over="ignore", divide="ignore"):
        totals = np.asarray(m.matrix.sum(axis=1)).ravel()
        scale = 1.0 / totals
    bad = ~((0 < scale) & (scale < np.inf))
    if bad.any():
        row = bad.argmax()
        if totals[row] <= 0:
            raise ValueError(f"empty document {m.doc_ids[row]!r}: its counts sum to {totals[row]:g}")
        raise ValueError(f"document {m.doc_ids[row]!r}: its counts sum to {totals[row]:g}, "
                         "too small or too large to normalise in float64")
    return JointDistribution(np.full(m.n_docs, 1.0 / m.n_docs), _scaled(m.matrix, scale, axis=0))


# ---------------------------------------------------------------------------
# file I/O


def read_stop_words(path: str | Path) -> frozenset[str]:
    """One term per line, lowercased as ``tokenize`` lowercases text; blank
    lines ignored."""
    lines = read_utf8(path).splitlines()
    return frozenset(t.strip().lower() for t in lines if t.strip())


def read_corpus_dir(path: str | Path) -> tuple[list[str], list[str]]:
    """All ``*.txt`` files of a directory, one document each, sorted by name.

    A file name is a doc id, which ``write_matrix`` writes as UTF-8, so a
    name that does not encode as UTF-8 raises ``ValueError`` before any
    file is read.
    """
    files = sorted(p for p in Path(path).iterdir() if p.suffix == ".txt" and p.is_file())
    if not files:
        raise EmptyCorpusError(f"no .txt files in {path}")
    for p in files:
        try:
            p.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: file name {p.name!r} is not valid UTF-8") from None
    return [read_utf8(p) for p in files], [p.name for p in files]


def read_corpus_lines(path: str | Path) -> tuple[list[str], list[str]]:
    """One document per line; doc ids are 1-based line numbers.

    The lines are those of ``str.splitlines``, as in the ``.mat`` grammar:
    a lone ``\\r``, a form feed, U+0085 or U+2028 ends a line as ``\\n``
    does, so a 3-line file with U+2028 inside its first line holds 4
    documents.
    """
    lines = read_utf8(path).splitlines()
    return lines, [str(i + 1) for i in range(len(lines))]


# Entries ``write_matrix`` formats per write.
_WRITE_BLOCK = 1 << 16


def write_matrix(m: TermDocMatrix, prefix: str | Path) -> None:
    """Write ``<prefix>.mat``, ``<prefix>.vocab`` and ``<prefix>.docs``.

    Entries are written in stored (row-major) order, each value as the
    ``repr`` of its float, which parses back to the same bits. They are
    formatted ``_WRITE_BLOCK`` at a time, so the Python objects of only one
    block are alive at once.
    """
    prefix = Path(prefix)
    x = m.matrix
    rows = np.repeat(np.arange(m.n_docs), np.diff(x.indptr))
    values = x.data.astype(np.float64, copy=False)
    with open(f"{prefix}.mat", "w", encoding="utf-8") as fh:
        fh.write(f"{m.n_docs} {m.n_terms} {m.nnz}\n")
        for b in range(0, rows.size, _WRITE_BLOCK):
            block = slice(b, b + _WRITE_BLOCK)
            triples = zip(rows[block].tolist(), x.indices[block].tolist(), values[block].tolist())
            fh.write("".join(f"{i} {j} {v!r}\n" for i, j, v in triples))
    Path(str(prefix) + ".vocab").write_text(
        "".join(t + "\n" for t in m.vocab), encoding="utf-8"
    )
    Path(str(prefix) + ".docs").write_text(
        "".join(d + "\n" for d in m.doc_ids), encoding="utf-8"
    )


def read_matrix(prefix: str | Path) -> TermDocMatrix:
    """Read the three files written by ``write_matrix``.

    ``_read_entries`` parses the ``.mat`` file. Every check on its entries is
    made here, in this order, and raises a ``ValueError`` that names the
    ``.mat`` file: a value that is not finite, then one below zero (each
    with its line; ``-0.0`` is accepted), an index out of range, a header
    shape other than the ``.docs``/``.vocab`` lengths, and a repeated
    (doc, term) pair. A ``.vocab`` or ``.docs`` file that is not valid UTF-8
    raises one that names that file. So does a doc id that repeats an
    earlier line of ``.docs``, checked after the header shape, since reports
    and ``textpart eval`` identify documents by id.
    """
    prefix = Path(prefix)
    mat = Path(f"{prefix}.mat")
    n_docs, n_terms, rows, cols, vals = _read_entries(mat)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{mat}: non-finite value on line {bad[0] + 2}")
    bad = np.flatnonzero(vals < 0)
    if bad.size:
        raise ValueError(f"{mat}: negative value on line {bad[0] + 2}")
    if vals.size:
        if rows.min() < 0 or rows.max() >= n_docs or cols.min() < 0 or cols.max() >= n_terms:
            raise ValueError(f"{mat}: entry index out of range")
    vocab = read_utf8(f"{prefix}.vocab").splitlines()
    docs = f"{prefix}.docs"
    doc_ids = read_utf8(docs).splitlines()
    # Checked before the CSR index array of n_docs + 1 entries is allocated.
    if (n_docs, n_terms) != (len(doc_ids), len(vocab)):
        raise ValueError(f"{mat}: header shape {n_docs} x {n_terms} disagrees with "
                         f"{len(doc_ids)} doc ids and {len(vocab)} terms")
    repeat = first_repeat(doc_ids)
    if repeat is not None:
        at, earlier = repeat
        raise ValueError(f"{docs}: doc id {doc_ids[at]!r} on line {at + 1} "
                         f"repeats line {earlier + 1}")
    matrix = _entries_to_csr(rows, cols, vals, (n_docs, n_terms), mat)
    return TermDocMatrix(matrix, tuple(vocab), tuple(doc_ids))


# One entry line of a ``.mat`` file: doc index, term index, value.
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# Characters per ``np.loadtxt`` call: enough to amortise the call, few enough
# that one chunk's line strings stay small next to the entry arrays.
_CHUNK_CHARS = 1 << 13
_INT64_MAX = int(np.iinfo(np.int64).max)


def _header(line: str, mat: Path) -> tuple[int, int, int]:
    """``n_docs n_terms nnz`` from the first line of a ``.mat`` file."""
    try:
        counts = tuple(int(x) for x in line.split())
    except ValueError:
        counts = ()
    if len(counts) != 3 or not all(0 <= c <= _INT64_MAX for c in counts):
        raise ValueError(f"{mat}: malformed header on line 1: {line!r} "
                         f"(expected n_docs n_terms nnz, integers in 0..{_INT64_MAX})")
    return counts


def _line_chunks(fh):
    """The lines of ``fh`` from its position on, one list per chunk of about
    ``_CHUNK_CHARS`` characters. Each chunk is completed to the next
    ``"\\n"``, so its lines are the ones ``str.splitlines`` gives the whole
    text: CRLF, a lone CR, a form feed and the other line breaks included."""
    while chunk := fh.read(_CHUNK_CHARS):
        yield (chunk + fh.readline()).splitlines()


def _read_entries(mat: Path) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Header and entry arrays of a ``.mat`` file, read in one pass of chunks.

    The first line is the header; the entry lines go to ``_parse_chunk`` a
    chunk at a time. Faults raise a ``ValueError`` naming the file, in the
    order a reader of the whole text meets them: a file that is not UTF-8,
    a malformed header, an entry count other than the header's ``nnz``,
    then the first malformed line. So a malformed line is only noted until
    every line is counted, and the file is decoded whole, for the UTF-8
    check, only on the way to raising.
    """
    try:
        # np.loadtxt warns of a chunk with no data and, before numpy 2, parses
        # "1.0" as an integer with only a warning: as errors, both make
        # _parse_chunk decline the chunk. The per-line parse warns of nothing.
        with open(mat, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            chunks = _line_chunks(fh)
            lines = next(chunks, [])
            if not lines:
                raise ValueError(f"{mat} is empty")
            n_docs, n_terms, nnz = _header(lines.pop(0), mat)
            # A file of N bytes holds at most N lines, so a larger nnz is a
            # count fault: nothing is allocated and the lines are only counted.
            cap = nnz if nnz <= os.fstat(fh.fileno()).st_size else 0
            rows, cols, vals = np.empty(cap, np.int64), np.empty(cap, np.int64), np.empty(cap)
            done, fault = 0, None
            for lines in chain([lines], chunks):
                end = done + len(lines)
                if fault is None and end <= cap:
                    fault = _parse_chunk(lines, rows[done:end], cols[done:end], vals[done:end], done + 2)
                done = end
        if done != nnz:
            raise ValueError(f"{mat}: expected {nnz} entries, found {done}")
        if fault is not None:
            raise ValueError(f"{mat}: {fault}")
    except ValueError:  # UnicodeDecodeError is one
        read_utf8(mat)  # a file that is not UTF-8 reports that before any other fault
        raise
    return n_docs, n_terms, rows, cols, vals


def _parse_chunk(lines: list[str], rows, cols, vals, line_no: int) -> str | None:
    """Parse entry ``lines``, the first of them line ``line_no`` of the file,
    into the arrays ``rows``, ``cols`` and ``vals`` of their length.

    ``np.loadtxt`` splits fields at the same whitespace as ``str.split``,
    and every number it parses, ``int`` and ``float`` parse to the same
    value. The chunk goes to ``_parse_by_line`` where the two could
    disagree: a blank line (``np.loadtxt`` skips it), a field ``np.loadtxt``
    rejects (``1_0`` or a non-ASCII digit, which ``int`` accepts, or an index
    beyond int64) and any warning it gives, which the caller makes an
    error. Returns the fault of the first malformed line, or None.
    """
    try:
        table = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
    except (ValueError, Warning):
        table = None
    if table is None or table.size != len(lines):
        return _parse_by_line(lines, rows, cols, vals, line_no)
    rows[:], cols[:], vals[:] = table["i"], table["j"], table["v"]
    return None


def _parse_by_line(lines: list[str], rows, cols, vals, line_no: int) -> str | None:
    """``_parse_chunk`` one line at a time, by ``str.split``, ``int`` and ``float``."""
    try:
        for p, line in enumerate(lines):
            i_s, j_s, v_s = line.split()
            rows[p], cols[p], vals[p] = int(i_s), int(j_s), float(v_s)
    except (ValueError, OverflowError) as exc:  # OverflowError: an index beyond int64
        return f"malformed entry on line {line_no + p}: {line!r} ({exc})"
    return None


def _entries_to_csr(rows, cols, vals, shape: tuple[int, int], mat: Path) -> sp.csr_array:
    """The CSR matrix of in-range entries; rejects a repeated (doc, term) pair.

    Entries not in strictly row-major order (``write_matrix`` writes them
    so) are put in that order by a ``lexsort``; then neighbouring pairs are
    compared, never combined into one key, so no product can overflow. The
    row-major ``cols`` and ``vals`` are the CSR indices and data.
    """
    import scipy.sparse as sp

    r0, r1, c0, c1 = rows[:-1], rows[1:], cols[:-1], cols[1:]
    if not np.all((r0 < r1) | ((r0 == r1) & (c0 < c1))):
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise ValueError(f"{mat}: duplicate (doc, term) entry")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_array((vals, cols, indptr), shape=shape)
