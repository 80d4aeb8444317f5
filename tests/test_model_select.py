import math

import numpy as np
import pytest
import scipy.sparse as sp

from datagen import multinomial_corpus, two_gaussians
from textpart import model_select
from textpart.corpus import tfidf_weight
from textpart.linalg import ClusterStats, cluster_sums, row_sq_norms
from textpart.model_select import (
    bic_from_residuals,
    bic_score,
    bic_split_test,
    csv,
    csv_stop,
    param_count,
)
from textpart.partition import Partition
from textpart.pddp import pddp_run
from textpart.sgem import SIGMA2_FLOOR, complete_log_likelihood, m_step


def test_param_count_examples():
    assert param_count(3, 5) == 18
    assert param_count(1, 1) == 2
    assert param_count(25, 59965) == 1_499_150


def test_param_count_monotone_grid():
    for k in range(1, 10):
        for d in range(1, 10):
            assert param_count(k + 1, d) > param_count(k, d)
            assert param_count(k, d + 1) > param_count(k, d)


def test_param_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        param_count(0, 3)


def test_bic_prefers_true_structure_on_two_clouds():
    X, labels = two_gaussians(0, n=60)
    one = bic_score(Partition(np.zeros(60, dtype=int), 1), X)
    two = bic_score(Partition(labels, 2), X)
    # the all-singleton partition collapses the shared variance; its singular
    # fit is scored -inf, so the overfit extreme can never win
    singletons = bic_score(Partition(np.arange(60), 60), X)
    assert two > one
    assert two > singletons
    assert singletons == -np.inf


def test_bic_score_is_deterministic():
    X, labels = two_gaussians(1, n=40)
    part = Partition(labels, 2)
    assert bic_score(part, X) == bic_score(part, X)


def test_bic_score_rejects_empty_cluster():
    X, _ = two_gaussians(1, n=10)
    with pytest.raises(ValueError):
        bic_score(Partition(np.zeros(10, dtype=int), 2), X)


def _split_inputs(X, left_mask):
    """bic_split_test arguments for splitting the only leaf of ``X``."""
    members = np.arange(len(X))
    parent = ClusterStats.from_rows(X, members)
    left = ClusterStats.from_rows(X, members[left_mask])
    right = ClusterStats.from_rows(X, members[~left_mask])
    return [], [], parent, left, right


def test_bic_split_test_accepts_separated_halves():
    X, labels = two_gaussians(2, n=80)
    assert bic_split_test(*_split_inputs(X, labels == 0))


def test_bic_split_test_rejects_single_tight_gaussian():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 2))
    mask = X[:, 0] <= np.median(X[:, 0])
    assert not bic_split_test(*_split_inputs(X, mask))


def test_bic_split_test_equal_scores_reject(monkeypatch):
    X, labels = two_gaussians(3, n=40)
    monkeypatch.setattr(model_select, "bic_from_residuals", lambda *a, **k: -10.0)
    assert not bic_split_test(*_split_inputs(X, labels == 0))


def _random_tree(rng, sparse, floor):
    """Random rows, a random leaf partition, and a bipartition of one leaf.

    With ``floor`` every leaf but the split one holds copies of a single
    row, and the split one copies of two rows that the candidate split
    separates: after the split every cluster is a point and the shared
    variance hits its floor.
    """
    n, d = int(rng.integers(12, 60)), int(rng.integers(1, 6))
    k = int(rng.integers(1, 5))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    j = int(rng.integers(0, k))
    members = np.flatnonzero(labels == j)
    if floor:
        second = (labels == j) & (rng.random(n) < 0.5)
        X = rng.normal(size=(k + 1, d))[np.where(second, k, labels)]
        mask = second[members]
    else:
        # each leaf is two blobs; the candidate split may follow them
        blob = 2 * labels + rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, d)) + 4.0 * rng.normal(size=(2 * k, d))[blob]
        if sparse:
            X = np.abs(X) * (rng.random((n, d)) > 0.3)
        kind = rng.integers(0, 3)
        if kind == 0:
            mask = blob[members] % 2 == 0
        elif kind == 1:
            mask = rng.random(members.size) < 0.5
        else:
            proj = X[members] @ rng.normal(size=d)  # a hyperplane split
            mask = proj <= np.median(proj)
    if mask.all() or not mask.any():
        return None
    M = sp.csr_array(X) if sparse else X
    return M, labels, k, j, members, members[mask], members[~mask]


def _close(a, b):
    if a == -np.inf or b == -np.inf:
        return a == b
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def test_bic_split_test_matches_full_partition_scores():
    rng = np.random.default_rng(20)
    decisions, trees, floors = [], 0, 0
    while trees < 60:
        sparse, floor = trees % 2 == 1, trees % 10 == 0
        made = _random_tree(rng, sparse, floor)
        if made is None:
            continue
        M, labels, k, j, members, left, right = made
        trees += 1
        d = M.shape[1]
        stats = [ClusterStats.from_rows(M, np.flatnonzero(labels == c)) for c in range(k)]
        others = [s for c, s in enumerate(stats) if c != j]
        children = [ClusterStats.from_rows(M, side) for side in (left, right)]
        got = bic_split_test([s.size for s in others], [s.sse for s in others],
                             stats[j], *children)

        sub = M[members]
        local_labels = np.isin(members, right).astype(np.int64)
        local_before = bic_score(Partition(np.zeros(members.size, dtype=np.int64), 1), sub)
        local_after = bic_score(Partition(local_labels, 2), sub)
        after_labels = labels.copy()
        after_labels[right] = k
        before, after = Partition(labels, k), Partition(after_labels, k + 1)
        global_before, global_after = bic_score(before, M), bic_score(after, M)
        want = (local_after > local_before
                and global_after > global_before)
        assert got == want
        decisions.append(got)

        # the residual-only global scores the split test compares
        res_before = bic_from_residuals([s.size for s in stats], [s.sse for s in stats], d)
        res_after = bic_from_residuals([s.size for s in others + children],
                                       [s.sse for s in others + children], d)
        assert _close(res_before, global_before)
        assert _close(res_after, global_after)
        floors += global_after == -np.inf

        # bic_score against the sGEM complete-data log-likelihood of its M-step
        for part in (before, after):
            sums, sq_norms = cluster_sums(M, part.labels, part.k)[0], row_sq_norms(M)
            model = m_step(part, M, sums=sums, sq_norms=sq_norms)
            if model.sigma2 <= SIGMA2_FLOOR:
                assert bic_score(part, M) == -np.inf
                continue
            ref = (complete_log_likelihood(model, part, sums=sums, sq_norms=sq_norms)
                   - param_count(part.k, d) / 2.0 * math.log(M.shape[0]))
            assert _close(bic_score(part, M), ref)
    assert floors >= 1
    assert any(decisions) and not all(decisions)


def test_csv_of_symmetric_leaf_pair():
    X = np.array([[0.0], [0.0], [2.0], [2.0]])
    tree = pddp_run(X, stop="fixed", k=2, seed=0)
    assert csv(tree.leaves()) == pytest.approx(1.0)


def test_csv_stop_two_tight_far_leaves():
    X = np.vstack([
        np.random.default_rng(0).normal(scale=0.01, size=(20, 2)),
        np.random.default_rng(1).normal(scale=0.01, size=(20, 2)) + [50.0, 0.0],
    ])
    tree = pddp_run(X, stop="fixed", k=2, seed=0)
    assert csv_stop(tree.leaves())


def test_csv_stop_false_for_single_leaf():
    X = np.random.default_rng(2).normal(size=(10, 2))
    tree = pddp_run(X, stop="fixed", k=1, seed=0)
    assert not csv_stop(tree.leaves())


@pytest.mark.parametrize("seed, n_leaves", [(0, 222), (1, 284), (2, 339)])
def test_csv_on_c9_overshoots_with_scatter_as_the_mean_distance(seed, n_leaves):
    """Characterises the CSV rule on the 8-topic C9 corpora: with scatter the
    mean Euclidean distance to the centroid, the rule fires only at hundreds
    of leaves. Every node's scatter and sse are those definitions, computed
    densely; a one-document leaf keeps the rounding of the norm expansion
    (its sse is a few ulps of its unit row's squared norm, not 0)."""
    tdm, _ = multinomial_corpus(seed)
    matrix = tfidf_weight(tdm)[0].matrix
    tree = pddp_run(matrix, stop="csv", seed=0)
    leaves = tree.leaves()
    assert (len(leaves), tree.warning) == (n_leaves, False)
    assert csv(leaves) > max(leaf.stats.scatter for leaf in leaves)
    if seed != 0:
        return
    for node in tree.nodes:
        rows = matrix[node.stats.members].toarray()
        dist = np.linalg.norm(rows - rows.mean(axis=0), axis=1)
        if node.stats.size == 1:
            assert node.stats.sse <= 4 * np.finfo(float).eps
            assert node.stats.scatter == math.sqrt(node.stats.sse)
            continue
        assert node.stats.scatter == pytest.approx(dist.mean(), rel=1e-9)
        assert node.stats.sse == pytest.approx((dist ** 2).sum(), rel=1e-9)


def test_csv_stop_flips_at_most_once_on_two_clouds():
    for seed in range(3):
        X, _ = two_gaussians(seed, n=300)
        # same seed means each fixed-k tree is a prefix of the next, so the
        # flag sequence replays one growing run
        flags = [csv_stop(pddp_run(X, stop="fixed", k=k, seed=seed).leaves()) for k in range(2, 9)]
        flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert flips <= 1
