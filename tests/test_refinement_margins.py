"""Which documents refinement moves: the abstract's mechanism, per document.

PDDP errs where clusters are not well separated, and reallocation repairs
it. A document's margin is its smallest distance to a PDDP hyperplane on
its path from the root, |u . (d - w)| at each split divided by the median
of that distance over the split node. A document is moved when its refined
label differs from its PDDP leaf. Ranked by margin into fifths, the moved
share falls from the nearest fifth to the farthest, for sGEM and for one
sIB sweep from the leaves; on well-separated topics the farthest fifth
moves nothing. Only these orderings are pinned, no rate.
"""

import numpy as np
import pytest

from datagen import multinomial_corpus
from textpart import pddp, pddp_run, sgem_run, sib_run, tfidf_weight, word_conditionals


def _leaves_and_margins(monkeypatch, matrix):
    """PDDP's ``fixed`` k-8 leaves, and each document's margin."""
    margins = np.full(matrix.shape[0], np.inf)
    split_cluster = pddp.split_cluster

    def recording(stats, rows, seed=0):
        left, right, u = split_cluster(stats, rows, seed)
        members = stats.members
        dist = np.abs(np.asarray(rows[members] @ u).ravel() - float(stats.centroid @ u))
        margins[members] = np.minimum(margins[members], dist / np.median(dist))
        return left, right, u

    monkeypatch.setattr(pddp, "split_cluster", recording)
    leaves = pddp_run(matrix, stop="fixed", k=8, seed=0).partition()
    return leaves, margins


def _moved_by_fifth(leaves, refined, margins):
    fifths = np.array_split(np.argsort(margins, kind="stable"), 5)
    moved = refined.labels != leaves.labels
    return [float(moved[docs].mean()) for docs in fifths]


@pytest.mark.parametrize("background", [0.35, 0.75])
def test_refinement_moves_the_documents_nearest_a_hyperplane(monkeypatch, background):
    tdm, _ = multinomial_corpus(0, background=background)
    matrix = tfidf_weight(tdm)[0].matrix
    assert matrix.shape[0] == tdm.n_docs  # no document dropped, so rows align
    leaves, margins = _leaves_and_margins(monkeypatch, matrix)
    assert np.isfinite(margins).all()
    refined = {
        "sgem": sgem_run(leaves, matrix)[0],
        "sib": sib_run(word_conditionals(tdm), leaves.k, max_loops=50, seed=0,
                       init=leaves.labels),
    }
    for name, part in refined.items():
        rates = _moved_by_fifth(leaves, part, margins)
        assert all(a > b for a, b in zip(rates, rates[1:])), (name, rates)
        if background == 0.35:
            assert rates[-1] == 0.0, (name, rates)
