"""Seeded inputs for the CLI benchmark.

Every corpus comes from ``tests/datagen.multinomial_corpus`` (imported, not
copied), so the benchmark measures the same kind of topic corpus the
acceptance tests validate. The program only ever sees the files written here.

The topic model of each corpus is fixed: it is the one ``multinomial_corpus``
draws for seed 0 (the seed the acceptance tests start from). The benchmark
seed picks which documents make up the corpus: a seeded sample, without
replacement, of the corpus size out of a pool 1.25 times as large. Drawing
a new topic model per seed made the work of the data-dependent stopping
rules vary twofold between seeds (the CSV rule stopped at 188-350 leaves on
the C9 shape, BIC at 21-34 on 20k documents); with the model fixed it
stays within about 10% (214-232 and 26-31 leaves over seeds 1-6).

Corpora:

* ``c20k``: 20,000 documents, 8 topics, 2,000 terms. Written as a matrix
  (``.mat``/``.vocab``/``.docs``) and as raw text, one document per line.
* ``c9``: the acceptance-test C9 corpus shape (2,000 documents, 8 topics,
  300 terms), written as a matrix.
* ``s3k``: 3,000 documents, 20 topics, 1,000 terms, written as a matrix.

Raw text uses letter-only term names of equal length, because ``tokenize``
splits on digits (``w0001`` would collapse to ``w``). Equal-length names
also sort in index order, so ``ingest --min-count 2`` of the text rebuilds
the generated matrix exactly when every term occurs at least twice.

``run.py`` runs this file as its own process for each corpus, so the
memory the generator uses never counts toward a benchmarked command's peak
RSS (on Linux a child's ``ru_maxrss`` starts at its parent's RSS):

    python3 bench/gen.py --seed 0 --corpus c9 --out work/c9

prints the corpus shape and file sizes as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

REPO = Path(__file__).resolve().parent.parent
for _p in (REPO / "src", REPO / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from datagen import multinomial_corpus  # noqa: E402
from textpart.corpus import TermDocMatrix, write_matrix  # noqa: E402

TOPIC_SEED = 0
POOL = 1.25

CORPORA = {
    "c20k": dict(n_docs=20000, n_topics=8, vocab_size=2000),
    "c9": dict(n_docs=2000, n_topics=8, vocab_size=300),
    "s3k": dict(n_docs=3000, n_topics=20, vocab_size=1000),
}


def term_names(n: int) -> list[str]:
    """``n`` distinct lowercase letter-only names of equal length, in sort order."""
    width = 1
    while 26 ** width < n:
        width += 1
    letters = string.ascii_lowercase
    names = []
    for j in range(n):
        digits = []
        for _ in range(width):
            j, r = divmod(j, 26)
            digits.append(letters[r])
        names.append("t" + "".join(reversed(digits)))
    return names


def write_text(matrix, path: Path) -> None:
    """One line per document: each term name repeated by its count."""
    names = term_names(matrix.shape[1])
    m = matrix.tocsr()
    lines = []
    for i in range(m.shape[0]):
        lo, hi = m.indptr[i], m.indptr[i + 1]
        words = []
        for j, c in zip(m.indices[lo:hi], m.data[lo:hi]):
            words.extend([names[j]] * int(c))
        lines.append(" ".join(words))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_corpus(corpus: str, seed: int) -> tuple[TermDocMatrix, np.ndarray]:
    """``seed``'s sample of documents from the fixed-topic pool of ``corpus``."""
    shape = CORPORA[corpus]
    n = shape["n_docs"]
    pool, labels = multinomial_corpus(TOPIC_SEED, **{**shape, "n_docs": int(POOL * n)})
    keep = np.sort(np.random.default_rng(seed).choice(pool.n_docs, size=n, replace=False))
    doc_ids = tuple(str(i) for i in range(n))
    return TermDocMatrix(sp.csr_array(pool.matrix[keep]), pool.vocab, doc_ids), labels[keep]


def generate(corpus: str, seed: int, out: Path, text: bool = False) -> dict:
    """Write ``<out>.mat/.vocab/.docs/.labels`` (and ``<out>.txt`` if ``text``).

    Returns the input's shape and the size of each file written.
    """
    tdm, labels = sample_corpus(corpus, seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(tdm, out)
    label_path = Path(f"{out}.labels")
    label_path.write_text("".join(f"topic{int(t)}\n" for t in labels), encoding="utf-8")
    suffixes = [".mat", ".vocab", ".docs", ".labels"]
    if text:
        write_text(tdm.matrix, Path(f"{out}.txt"))
        suffixes.append(".txt")
    return {
        "corpus": corpus,
        "n_docs": tdm.n_docs,
        "n_terms": tdm.n_terms,
        "nnz": tdm.nnz,
        "n_topics": CORPORA[corpus]["n_topics"],
        "bytes": {s[1:]: Path(f"{out}{s}").stat().st_size for s in suffixes},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--corpus", choices=sorted(CORPORA), required=True)
    ap.add_argument("--out", required=True, help="output file prefix")
    ap.add_argument("--text", action="store_true", help="also write the raw text")
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.corpus, args.seed, Path(args.out), args.text)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
