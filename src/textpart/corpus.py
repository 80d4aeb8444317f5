"""Corpus ingestion: raw text to weighted sparse term-document matrices.

The pipeline is tokenize -> build_matrix (raw counts, low-frequency terms
pruned) -> either tfidf_weight (L2-normalized tf-idf rows, consumed by the
geometric algorithms) or word_conditionals (per-document word distributions
with a uniform document prior, consumed by the information-bottleneck
algorithm).

File formats handled here:

* corpus input: a directory of UTF-8 ``.txt`` files (one document each,
  doc_id = filename) or a single UTF-8 file with one document per line
  (doc_id = 1-based line number);
* stop-word list: one term per line;
* sparse matrix: first line ``n_docs n_terms nnz``, then one
  ``doc_index term_index value`` line per entry (0-based, space-separated),
  with companion ``.vocab`` (one term per line) and ``.docs`` (one doc_id
  per line) files;
* labels: one category string per document, same order as ``.docs``.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


class EmptyCorpusError(ValueError):
    """Every document was eliminated by pruning or weighting."""


@dataclass(frozen=True)
class TermDocMatrix:
    """Sparse n_docs x n_terms matrix with its vocabulary and doc ids.

    ``matrix`` holds nonnegative values: raw term counts after
    ``build_matrix``, L2-normalized tf-idf weights after ``tfidf_weight``.
    """

    matrix: sp.csr_array
    vocab: tuple[str, ...]
    doc_ids: tuple[str, ...]

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def entries(self) -> Iterable[tuple[int, int, float]]:
        """Yield (doc_index, term_index, value) triples in row-major order."""
        m = self.matrix
        for i in range(m.shape[0]):
            for p in range(m.indptr[i], m.indptr[i + 1]):
                yield i, int(m.indices[p]), float(m.data[p])

    def validate(self) -> None:
        m = self.matrix
        if m.shape != (len(self.doc_ids), len(self.vocab)):
            raise ValueError("matrix shape disagrees with vocab/doc_ids")
        if m.nnz and m.data.min() < 0:
            raise ValueError("negative entry in term-document matrix")


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
        scaled = self.py_given_x.multiply(self.px[:, None])
        return sp.csr_array(scaled)

    def py(self) -> np.ndarray:
        """Word marginal p(y) = sum_x p(x) p(y|x), dense."""
        return np.asarray(self.py_given_x.T @ self.px).ravel()

    def validate(self) -> None:
        n = self.n_docs
        if abs(float(self.px.sum()) - 1.0) > 1e-12:
            raise ValueError("document prior does not sum to 1")
        if n and not np.allclose(self.px, self.px[0]):
            raise ValueError("document prior is not uniform")
        sums = np.asarray(self.py_given_x.sum(axis=1)).ravel()
        if n and np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError("a word-conditional row does not sum to 1")


def tokenize(raw_text: str, stop_words: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Lowercase a text and split it into alphabetic tokens.

    Tokens are maximal runs of Unicode letters; digits, underscores and
    punctuation separate tokens. Stop words are removed after lowercasing.
    Deterministic; empty input yields an empty list.
    """
    return [t for t in _TOKEN_RE.findall(raw_text.lower()) if t not in stop_words]


def build_matrix(
    docs: Sequence[Sequence[str]],
    min_count: int = 2,
    doc_ids: Sequence[str] | None = None,
) -> tuple[TermDocMatrix, list[str]]:
    """Count terms and prune the vocabulary by total corpus frequency.

    Terms whose corpus-wide count is below ``min_count`` are removed; the
    surviving vocabulary is sorted lexicographically so term indices are
    stable across runs. Documents left with no terms are dropped; their ids
    are returned as the second element.

    Raises ``EmptyCorpusError`` if pruning eliminates every document.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if doc_ids is None:
        doc_ids = [str(i) for i in range(len(docs))]
    if len(doc_ids) != len(docs):
        raise ValueError("doc_ids length does not match docs")

    totals: Counter[str] = Counter()
    for doc in docs:
        totals.update(doc)
    vocab = sorted(t for t, c in totals.items() if c >= min_count)
    index = {t: i for i, t in enumerate(vocab)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    kept_ids: list[str] = []
    dropped: list[str] = []
    for doc, doc_id in zip(docs, doc_ids):
        counts = Counter(t for t in doc if t in index)
        if not counts:
            dropped.append(doc_id)
            continue
        i = len(kept_ids)
        kept_ids.append(doc_id)
        for term, c in sorted(counts.items()):
            rows.append(i)
            cols.append(index[term])
            vals.append(float(c))
    if not kept_ids:
        raise EmptyCorpusError("empty corpus after pruning")

    matrix = sp.csr_array(
        (vals, (rows, cols)), shape=(len(kept_ids), len(vocab)), dtype=np.float64
    )
    matrix.sort_indices()
    return TermDocMatrix(matrix, tuple(vocab), tuple(kept_ids)), dropped


def tfidf_weight(m: TermDocMatrix) -> tuple[TermDocMatrix, list[str]]:
    """Replace raw counts by L2-normalized tf-idf weights.

    Each entry becomes ``tf * log(n / df)`` (natural log), where ``df`` is
    the number of documents containing the term; afterwards every row is
    scaled to unit L2 norm. Terms present in all documents get weight 0 and
    vanish from the rows (the vocabulary keeps its indices). Documents
    whose every term had df = n end up empty and are dropped; their ids are
    returned as the second element.
    """
    counts = m.matrix
    n = m.n_docs
    if n < 1:
        raise ValueError("tfidf_weight needs at least one document")
    df = np.asarray((counts > 0).sum(axis=0)).ravel()
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(n / np.maximum(df, 1)), 0.0)

    weighted = sp.csr_array(counts.multiply(idf[None, :]))
    weighted.eliminate_zeros()

    row_norms = np.sqrt(np.asarray(weighted.multiply(weighted).sum(axis=1)).ravel())
    keep = row_norms > 0
    dropped = [m.doc_ids[i] for i in np.nonzero(~keep)[0]]
    weighted = weighted[keep]
    inv = 1.0 / row_norms[keep]
    weighted = sp.csr_array(weighted.multiply(inv[:, None]))
    weighted.sort_indices()
    kept_ids = tuple(d for d, k in zip(m.doc_ids, keep) if k)
    return TermDocMatrix(weighted, m.vocab, kept_ids), dropped


def word_conditionals(m: TermDocMatrix) -> JointDistribution:
    """Normalize raw counts into p(y|x) rows with uniform p(x) = 1/n.

    ``p(y|x)`` is the count of word y in document x divided by the
    document's total count. Raises if any document has zero total count.
    """
    counts = m.matrix
    totals = np.asarray(counts.sum(axis=1)).ravel()
    if np.any(totals <= 0):
        raise ValueError("empty document")
    cond = sp.csr_array(counts.multiply(1.0 / totals[:, None]))
    cond.sort_indices()
    px = np.full(m.n_docs, 1.0 / m.n_docs)
    return JointDistribution(px, cond)


# ---------------------------------------------------------------------------
# file I/O


def read_stop_words(path: str | Path) -> frozenset[str]:
    """One term per line; blank lines ignored."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return frozenset(t.strip() for t in lines if t.strip())


def read_corpus_dir(path: str | Path) -> tuple[list[str], list[str]]:
    """All ``*.txt`` files of a directory, one document each, sorted by name."""
    files = sorted(p for p in Path(path).iterdir() if p.suffix == ".txt" and p.is_file())
    if not files:
        raise EmptyCorpusError(f"no .txt files in {path}")
    return [p.read_text(encoding="utf-8") for p in files], [p.name for p in files]


def read_corpus_lines(path: str | Path) -> tuple[list[str], list[str]]:
    """One document per line; doc ids are 1-based line numbers."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines, [str(i + 1) for i in range(len(lines))]


def read_labels(path: str | Path) -> list[str]:
    """One category string per line, aligned with the ``.docs`` file."""
    return [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]


def write_matrix(m: TermDocMatrix, prefix: str | Path) -> None:
    """Write ``<prefix>.mat``, ``<prefix>.vocab`` and ``<prefix>.docs``."""
    prefix = Path(prefix)
    lines = [f"{m.n_docs} {m.n_terms} {m.nnz}"]
    lines.extend(f"{i} {j} {v!r}" for i, j, v in m.entries())
    Path(str(prefix) + ".mat").write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path(str(prefix) + ".vocab").write_text(
        "".join(t + "\n" for t in m.vocab), encoding="utf-8"
    )
    Path(str(prefix) + ".docs").write_text(
        "".join(d + "\n" for d in m.doc_ids), encoding="utf-8"
    )


def read_matrix(prefix: str | Path) -> TermDocMatrix:
    """Read the three files written by ``write_matrix``."""
    prefix = Path(prefix)
    text = Path(str(prefix) + ".mat").read_text(encoding="utf-8").splitlines()
    if not text:
        raise ValueError(f"{prefix}.mat is empty")
    header = text[0].split()
    if len(header) != 3:
        raise ValueError(f"{prefix}.mat: malformed header {text[0]!r}")
    n_docs, n_terms, nnz = (int(x) for x in header)
    if len(text) - 1 != nnz:
        raise ValueError(f"{prefix}.mat: expected {nnz} entries, found {len(text) - 1}")
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    try:
        for p, line in enumerate(text[1:]):
            i_s, j_s, v_s = line.split()
            rows[p], cols[p], vals[p] = int(i_s), int(j_s), float(v_s)
    except ValueError as exc:
        raise ValueError(f"{prefix}.mat: malformed entry on line {p + 2}: {line!r} ({exc})") from exc
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{prefix}.mat: non-finite value on line {bad[0] + 2}")
    if nnz:
        if rows.min() < 0 or rows.max() >= n_docs or cols.min() < 0 or cols.max() >= n_terms:
            raise ValueError(f"{prefix}.mat: entry index out of range")
        if len(set(zip(rows.tolist(), cols.tolist()))) != nnz:
            raise ValueError(f"{prefix}.mat: duplicate (doc, term) entry")
    matrix = sp.csr_array((vals, (rows, cols)), shape=(n_docs, n_terms), dtype=np.float64)
    matrix.sort_indices()
    vocab = Path(str(prefix) + ".vocab").read_text(encoding="utf-8").splitlines()
    doc_ids = Path(str(prefix) + ".docs").read_text(encoding="utf-8").splitlines()
    tdm = TermDocMatrix(matrix, tuple(vocab), tuple(doc_ids))
    tdm.validate()
    return tdm
