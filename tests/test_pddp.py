import numpy as np
import pytest

from datagen import five_clusters, two_gaussians
from textpart import nmi
from textpart.linalg import ClusterStats, DegenerateClusterError
from textpart.pddp import (
    ClusterTree,
    NoSplittableLeafError,
    TreeNode,
    pddp_run,
    select_leaf,
    split_cluster,
)


def test_split_cluster_one_dimensional_projection_signs():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    left, right, u = split_cluster(np.arange(6), X, seed=0)
    assert sorted(left.tolist()) == [0, 1, 2]
    assert sorted(right.tolist()) == [3, 4, 5]
    assert u == pytest.approx([1.0])


def test_split_cluster_two_points():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    left, right, _ = split_cluster(np.array([0, 1]), X, seed=0)
    assert left.size == 1 and right.size == 1


def test_split_cluster_separates_two_gaussians():
    X, labels = two_gaussians(0)
    left, right, _ = split_cluster(np.arange(len(X)), X, seed=0)
    pred = np.zeros(len(X), dtype=int)
    pred[right] = 1
    assert nmi(pred, labels) >= 0.95


def test_split_cluster_degenerate():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DegenerateClusterError):
        split_cluster(np.arange(3), X, seed=0)


def test_split_cluster_needs_two_members():
    with pytest.raises(ValueError):
        split_cluster(np.array([0]), np.array([[1.0]]), seed=0)


def _leaf(node_id, members, scatter):
    stats = ClusterStats(np.asarray(members), np.zeros(1), scatter, 0.0)
    return TreeNode(node_id, None, 0, stats)


def test_select_leaf_max_scatter():
    tree = ClusterTree(nodes=[_leaf(0, [0, 1], 0.5), _leaf(1, [2, 3], 2.0)])
    assert select_leaf(tree) == 1


def test_select_leaf_single_root():
    tree = ClusterTree(nodes=[_leaf(0, [0, 1], 0.0)])
    assert select_leaf(tree) == 0


def test_select_leaf_tie_breaks_to_smaller_id():
    tree = ClusterTree(nodes=[_leaf(0, [0, 1], 1.0), _leaf(1, [2, 3], 1.0)])
    assert select_leaf(tree) == 0


def test_select_leaf_skips_singletons_and_finals():
    done = _leaf(0, [0, 1], 5.0)
    done.final = True
    tree = ClusterTree(nodes=[done, _leaf(1, [2], 9.0), _leaf(2, [3, 4], 1.0)])
    assert select_leaf(tree) == 2


def test_select_leaf_exhausted():
    tree = ClusterTree(nodes=[_leaf(0, [0], 0.0)])
    with pytest.raises(NoSplittableLeafError, match="exhausted"):
        select_leaf(tree)


def test_pddp_fixed_k_structure():
    X, _ = two_gaussians(1, n=200)
    tree = pddp_run(X, stop="fixed", k=4, seed=1)
    leaves = tree.leaves()
    assert len(leaves) == 4
    assert sum(1 for nd in tree.nodes if not nd.is_leaf) == 3
    assert not tree.warning


def test_pddp_k1_is_root_only():
    X, _ = two_gaussians(2, n=50)
    tree = pddp_run(X, stop="fixed", k=1, seed=0)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].is_leaf


def test_pddp_needs_two_documents():
    with pytest.raises(ValueError):
        pddp_run(np.array([[1.0, 2.0]]), stop="fixed", k=1)


def test_pddp_leaves_partition_documents():
    X, _ = five_clusters(3)
    tree = pddp_run(X, stop="fixed", k=7, seed=3)
    seen = np.concatenate([leaf.members for leaf in tree.leaves()])
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
        got = np.concatenate([tree.nodes[nd.left].members, tree.nodes[nd.right].members])
        assert sorted(got.tolist()) == sorted(nd.members.tolist())


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
            tree.nodes[i] for i in current if tree.nodes[i].members.size >= 2
        ]
        best = max(candidates, key=lambda c: (c.scatter, -c.node_id))
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
    assert tree.n_leaves == 2  # the two identical blobs


def test_pddp_deterministic_per_seed():
    X, _ = five_clusters(4)
    a = pddp_run(X, stop="fixed", k=5, seed=9)
    b = pddp_run(X, stop="fixed", k=5, seed=9)
    assert np.array_equal(a.partition().labels, b.partition().labels)


def test_pddp_csv_stop_on_well_separated_clouds():
    X, labels = two_gaussians(3, n=400)
    tree = pddp_run(X, stop="csv", seed=3)
    assert not tree.warning
    assert tree.n_leaves == 2
    assert nmi(tree.partition(), labels) >= 0.95


def test_pddp_bic_stop_finds_two_clouds():
    X, labels = two_gaussians(4, n=400)
    tree = pddp_run(X, stop="bic", seed=4)
    assert tree.n_leaves == 2
    assert nmi(tree.partition(), labels) >= 0.95
