"""The partition does not depend on document or vocabulary order.

``tests/oracles.py`` mirrors the program's summation order, so it cannot
see an order dependence that a change of work order would add. Here PDDP
(``fixed``, ``csv`` and ``bic``) and sGEM from the fixed leaves must give
the same partition, up to relabelling, after a seeded row permutation is
undone, and after a seeded column permutation. sIB visits documents in a
seeded permutation of row indices, so reordering rows changes its path by
design; it is checked for column order only, and there its labels must be
identical.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import corpus_texts, five_clusters, multinomial_corpus, two_gaussians
from textpart import pddp_run, sgem_run, sib_run, tfidf_weight, word_conditionals
from textpart.cli import main
from textpart.corpus import TermDocMatrix
from textpart.report import read_report

SEEDS = (0, 1, 2)
CASES = ("fixed", "csv", "bic", "sgem")


def _canonical(labels):
    """Labels renumbered by first appearance: equal exactly when the two
    partitions are equal up to relabelling."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _cluster(matrix, case, k=8):
    """PDDP's leaves under the ``case`` rule, or sGEM's refinement of the
    ``fixed`` leaves."""
    if case == "sgem":
        return sgem_run(pddp_run(matrix, stop="fixed", k=k).partition(), matrix)[0].labels
    return pddp_run(matrix, stop=case, k=k if case == "fixed" else None).partition().labels


@functools.lru_cache(maxsize=None)
def _corpus(seed):
    return multinomial_corpus(seed)[0]


@functools.lru_cache(maxsize=None)
def _weighted(seed):
    return tfidf_weight(_corpus(seed))[0].matrix


@functools.lru_cache(maxsize=None)
def _labels(seed, case):
    return _canonical(_cluster(_weighted(seed), case))


def _permutation(seed, n):
    return np.random.default_rng([17, seed]).permutation(n)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_row_order_does_not_change_the_partition(seed, case):
    matrix = _weighted(seed)
    perm = _permutation(seed, matrix.shape[0])
    labels = np.empty(matrix.shape[0], dtype=np.int64)
    labels[perm] = _cluster(matrix[perm], case)  # permuted row i is row perm[i]
    assert np.array_equal(_canonical(labels), _labels(seed, case))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_column_order_does_not_change_the_partition(seed, case):
    matrix = _weighted(seed)
    permuted = matrix[:, _permutation(seed, matrix.shape[1])]
    permuted.sort_indices()
    assert np.array_equal(_canonical(_cluster(permuted, case)), _labels(seed, case))


@pytest.mark.parametrize("seed", SEEDS)
def test_column_order_does_not_change_the_sib_labels(seed):
    tdm = _corpus(seed)
    perm = _permutation(seed, tdm.n_terms)
    matrix = tdm.matrix[:, perm]
    matrix.sort_indices()
    permuted = TermDocMatrix(matrix, tuple(tdm.vocab[j] for j in perm), tdm.doc_ids)
    run = functools.partial(sib_run, k=8, n_restarts=2, max_loops=5, seed=seed)
    assert np.array_equal(run(word_conditionals(permuted)).labels,
                          run(word_conditionals(tdm)).labels)


def _cluster_lines(tmp_path, name, lines):
    """Ingest one document per line, run ``pddp+sgem --stop bic``, and map
    each doc id (its line number) to its cluster."""
    src = tmp_path / f"{name}.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    prefix = str(tmp_path / name)
    assert main(["ingest", str(src), "--output", prefix]) == 0
    assert main(["cluster", prefix, "--algo", "pddp+sgem", "--stop", "bic"]) == 0
    return dict(read_report(prefix + ".report").assignments)


def test_ingest_of_shuffled_lines_gives_the_same_partition(tmp_path):
    lines = corpus_texts(multinomial_corpus(0, n_docs=400, vocab_size=120)[0])
    perm = _permutation(0, len(lines))
    by_id = _cluster_lines(tmp_path, "ordered", lines)
    shuffled = _cluster_lines(tmp_path, "shuffled", [lines[i] for i in perm])
    # shuffled line j + 1 is ordered line perm[j] + 1
    undone = {str(perm[int(d) - 1] + 1): c for d, c in shuffled.items()}
    ids = sorted(by_id, key=int)
    assert sorted(undone, key=int) == ids
    assert len(set(by_id.values())) > 1
    assert np.array_equal(_canonical([undone[d] for d in ids]), _canonical([by_id[d] for d in ids]))


@settings(max_examples=10, deadline=None)
@given(data=st.sampled_from([(two_gaussians, 2), (five_clusters, 5)]), seed=st.integers(0, 2**16),
       perm_seed=st.integers(0, 2**16))
def test_point_order_does_not_change_the_partition(data, seed, perm_seed):
    """Rows and the two coordinates permuted at once."""
    make, k = data
    X = make(seed)[0]
    rng = np.random.default_rng(perm_seed)
    perm = rng.permutation(X.shape[0])
    permuted = X[perm][:, rng.permutation(2)]
    for case in ("fixed", "sgem"):
        labels = np.empty(X.shape[0], dtype=np.int64)
        labels[perm] = _cluster(permuted, case, k)
        assert np.array_equal(_canonical(labels), _canonical(_cluster(X, case, k))), case
