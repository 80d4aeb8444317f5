import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import five_clusters, multinomial_corpus, two_gaussians
from oracles import pddp_run_recompute, top_eigvec_dense
from textpart import nmi, pddp
from textpart.corpus import tfidf_weight
from textpart.linalg import ClusterStats, DegenerateClusterError
from textpart.pddp import TreeNode, pddp_run, select_leaf, split_cluster


def test_split_cluster_one_dimensional_projection_signs():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    left, right, u = split_cluster(ClusterStats.from_rows(X, np.arange(6)), X, seed=0)
    assert sorted(left.tolist()) == [0, 1, 2]
    assert sorted(right.tolist()) == [3, 4, 5]
    assert u == pytest.approx([1.0])


def test_split_cluster_sends_a_zero_projection_left():
    # the middle row is the centroid, so its projection is exactly 0
    X = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    left, right, _ = split_cluster(ClusterStats.from_rows(X, np.arange(3)), X, seed=0)
    assert left.tolist() == [0, 1]
    assert right.tolist() == [2]


def test_split_cluster_two_points():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    left, right, _ = split_cluster(ClusterStats.from_rows(X, np.array([0, 1])), X, seed=0)
    assert left.size == 1 and right.size == 1


def test_split_cluster_separates_two_gaussians():
    X, labels = two_gaussians(0)
    left, right, _ = split_cluster(ClusterStats.from_rows(X, np.arange(len(X))), X, seed=0)
    pred = np.zeros(len(X), dtype=int)
    pred[right] = 1
    assert nmi(pred, labels) >= 0.95


def test_split_cluster_degenerate():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DegenerateClusterError):
        split_cluster(ClusterStats.from_rows(X, np.arange(3)), X, seed=0)


def test_split_cluster_needs_two_members():
    with pytest.raises(ValueError):
        split_cluster(ClusterStats.from_rows(np.array([[1.0]]), np.array([0])), np.array([[1.0]]), seed=0)


def _leaf(node_id, members, scatter):
    stats = ClusterStats(np.asarray(members), np.zeros(1), scatter, 0.0, 0.0)
    return TreeNode(node_id, None, 0, stats)


def test_select_leaf_max_scatter():
    leaves = [_leaf(0, [0, 1], 0.5), _leaf(1, [2, 3], 2.0)]
    assert select_leaf(leaves) is leaves[1]


def test_select_leaf_single_root():
    leaves = [_leaf(0, [0, 1], 0.0)]
    assert select_leaf(leaves) is leaves[0]


def test_select_leaf_tie_breaks_to_smaller_id():
    leaves = [_leaf(0, [0, 1], 1.0), _leaf(1, [2, 3], 1.0)]
    assert select_leaf(leaves) is leaves[0]


def test_select_leaf_skips_singletons_and_finals():
    done = _leaf(0, [0, 1], 5.0)
    done.final = True
    leaves = [done, _leaf(1, [2], 9.0), _leaf(2, [3, 4], 1.0)]
    assert select_leaf(leaves) is leaves[2]


def test_select_leaf_exhausted():
    assert select_leaf([_leaf(0, [0], 0.0)]) is None


def test_pddp_fixed_k_structure():
    X, _ = two_gaussians(1, n=200)
    tree = pddp_run(X, stop="fixed", k=4, seed=1)
    leaves = tree.leaves()
    assert len(leaves) == 4
    assert sum(1 for nd in tree.nodes if not nd.is_leaf) == 3
    assert not tree.warning


def test_pddp_run_splits_the_first_of_two_tied_leaves():
    # the root's children have exactly equal scatter; the tie goes to the
    # smaller node id, so the run's leaf list must stay in node-id order
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    tree = pddp_run(X, stop="fixed", k=3, seed=0)
    assert tree.nodes[1].stats.scatter == tree.nodes[2].stats.scatter
    assert not tree.nodes[1].is_leaf and tree.nodes[2].is_leaf


def test_pddp_k1_is_root_only():
    X, _ = two_gaussians(2, n=50)
    tree = pddp_run(X, stop="fixed", k=1, seed=0)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].is_leaf


def test_pddp_needs_two_documents():
    with pytest.raises(ValueError):
        pddp_run(np.array([[1.0, 2.0]]), stop="fixed", k=1)


@pytest.mark.parametrize("k", [None, 0, 51, 2.0])
def test_pddp_fixed_rejects_k_that_is_not_an_integer_in_range(k):
    X, _ = two_gaussians(2, n=50)
    with pytest.raises(ValueError, match=r"k must be an integer in \[1, 50\]"):
        pddp_run(X, stop="fixed", k=k, seed=0)


def test_pddp_leaves_partition_documents():
    X, _ = five_clusters(3)
    tree = pddp_run(X, stop="fixed", k=7, seed=3)
    seen = np.concatenate([leaf.stats.members for leaf in tree.leaves()])
    assert sorted(seen.tolist()) == list(range(len(X)))
    part = tree.partition()
    assert part.n_docs == len(X)
    assert part.k == 7
    assert np.all(part.sizes() >= 1)


def test_pddp_children_partition_parent():
    X, _ = five_clusters(0)
    tree = pddp_run(X, stop="fixed", k=5, seed=0)
    for nd in tree.nodes:
        if nd.is_leaf:
            continue
        got = np.concatenate([tree.nodes[nd.left].stats.members, tree.nodes[nd.right].stats.members])
        assert sorted(got.tolist()) == sorted(nd.stats.members.tolist())


def test_pddp_selection_order_is_repeated_max_extraction():
    X, _ = five_clusters(2)
    tree = pddp_run(X, stop="fixed", k=6, seed=2)
    # replay: walk internal nodes in creation (left-child id) order and check
    # each had the largest scatter among the leaves present at that point
    internals = sorted(
        (nd for nd in tree.nodes if not nd.is_leaf), key=lambda nd: nd.left
    )
    current = {0}
    for nd in internals:
        candidates = [
            tree.nodes[i] for i in current if tree.nodes[i].stats.size >= 2
        ]
        best = max(candidates, key=lambda c: (c.stats.scatter, -c.node_id))
        assert best.node_id == nd.node_id
        current.remove(nd.node_id)
        current.add(nd.left)
        current.add(nd.right)


def test_pddp_first_split_cuts_straddling_cluster():
    X, labels = five_clusters(0)
    tree = pddp_run(X, stop="fixed", k=2, seed=0)
    # the central cluster (label 4) ends up divided across both sides
    part = tree.partition()
    central = part.labels[labels == 4]
    assert len(set(central.tolist())) == 2
    assert nmi(part, labels) < 0.7


def test_pddp_marks_degenerate_leaves_final_and_warns():
    # four identical points cannot be split beyond... anywhere: requesting
    # k=3 exhausts the splittable leaves and raises the warning flag
    X = np.array([[1.0, 1.0]] * 4 + [[5.0, 5.0]] * 4)
    tree = pddp_run(X, stop="fixed", k=3, seed=0)
    assert tree.warning
    assert len(tree.leaves()) == 2  # the two identical blobs


def test_pddp_deterministic_per_seed():
    X, _ = five_clusters(4)
    a = pddp_run(X, stop="fixed", k=5, seed=9)
    b = pddp_run(X, stop="fixed", k=5, seed=9)
    assert np.array_equal(a.partition().labels, b.partition().labels)


def test_pddp_csv_stop_on_well_separated_clouds():
    X, labels = two_gaussians(3, n=400)
    tree = pddp_run(X, stop="csv", seed=3)
    assert not tree.warning
    assert len(tree.leaves()) == 2
    assert nmi(tree.partition(), labels) >= 0.95


def test_pddp_bic_stop_finds_two_clouds():
    X, labels = two_gaussians(4, n=400)
    tree = pddp_run(X, stop="bic", seed=4)
    assert len(tree.leaves()) == 2
    assert nmi(tree.partition(), labels) >= 0.95


def _oracle_direction(rows, seed, **stats):
    """Dense-eigh direction, signed like the solver: positive on the first
    column any row uses. The node statistics PDDP passes are not needed."""
    u = top_eigvec_dense(rows)
    first = np.flatnonzero(np.asarray(abs(rows).sum(axis=0)).ravel())[0]
    return u if u[first] > 0 else -u


@pytest.mark.parametrize("stop", ["fixed", "bic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pddp_partition_matches_dense_eigen_oracle(monkeypatch, seed, stop):
    tdm, _ = multinomial_corpus(seed)
    matrix = tfidf_weight(tdm)[0].matrix
    k = 8 if stop == "fixed" else None
    solved = pddp_run(matrix, stop=stop, k=k, seed=seed).partition().labels
    monkeypatch.setattr(pddp, "principal_direction", _oracle_direction)
    oracle = pddp_run(matrix, stop=stop, k=k, seed=seed).partition().labels
    assert solved.tobytes() == oracle.tobytes()


# --- node statistics computed once: same tree, bit for bit -------------------

def _assert_same_tree(tree, oracle):
    assert tree.warning == oracle.warning
    assert len(tree.nodes) == len(oracle.nodes)
    for a, b in zip(tree.nodes, oracle.nodes):
        assert (a.node_id, a.parent, a.depth, a.left, a.right, a.final) == \
            (b.node_id, b.parent, b.depth, b.left, b.right, b.final)
        assert a.stats.members.tobytes() == b.stats.members.tobytes()
        assert a.stats.centroid.tobytes() == b.stats.centroid.tobytes()
        assert (a.stats.scatter, a.stats.sse) == (b.stats.scatter, b.stats.sse)


@pytest.mark.parametrize("stop", ["fixed", "csv", "bic"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pddp_run_matches_recompute_oracle_on_tfidf(seed, stop):
    tdm, _ = multinomial_corpus(seed)
    matrix = tfidf_weight(tdm)[0].matrix
    k = 12 if stop == "fixed" else None
    tree = pddp_run(matrix, stop=stop, k=k, seed=seed)
    _assert_same_tree(tree, pddp_run_recompute(matrix, stop=stop, k=k, seed=seed))
    assert len(tree.nodes) > 1


@pytest.mark.parametrize("stop", ["fixed", "csv", "bic"])
@pytest.mark.parametrize("data", ["five_clusters", "two_gaussians"])
def test_pddp_run_matches_recompute_oracle_on_dense_points(data, stop):
    X, _ = five_clusters(1) if data == "five_clusters" else two_gaussians(1, n=400)
    k = 7 if stop == "fixed" else None
    tree = pddp_run(X, stop=stop, k=k, seed=1)
    _assert_same_tree(tree, pddp_run_recompute(X, stop=stop, k=k, seed=1))
    assert len(tree.nodes) > 1


@st.composite
def _point_sets(draw):
    """Small point sets with repeated rows (so some leaves cannot split),
    dense or CSR."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 5))
    pool = draw(st.integers(1, n))
    base = np.array(draw(st.lists(st.integers(-3, 3), min_size=pool * d, max_size=pool * d)),
                    dtype=float).reshape(pool, d)
    X = base[np.array(draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n)))]
    return sp.csr_array(X) if draw(st.booleans()) else X


@settings(max_examples=150, deadline=None)
@given(X=_point_sets(), stop=st.sampled_from(["fixed", "csv", "bic"]), k=st.integers(1, 8),
       seed=st.integers(0, 3))
def test_pddp_leaves_partition_the_rows(X, stop, k, seed):
    n = X.shape[0]
    if stop == "fixed" and k > n:
        with pytest.raises(ValueError, match=rf"k must be an integer in \[1, {n}\], got {k}"):
            pddp_run(X, stop=stop, k=k, seed=seed)
        return
    tree = pddp_run(X, stop=stop, k=k if stop == "fixed" else None, seed=seed)
    members = np.concatenate([leaf.stats.members for leaf in tree.leaves()])
    assert np.array_equal(np.sort(members), np.arange(n))
    part = tree.partition()
    assert part.k == len(tree.leaves()) and part.n_docs == n
    assert int(part.sizes().sum()) == n and np.unique(part.labels).size == part.k
    if stop == "fixed":
        assert part.k <= k and (part.k == k or tree.warning)
