"""Divisive partitioning by linear hyperplanes normal to the principal direction.

Starting from one cluster holding every document, the algorithm repeatedly
picks the unsplit leaf with the largest scatter value and bisects it with
the hyperplane normal to the leaf's principal direction, passing through
its centroid: documents project onto the direction and go left when the
centered projection is <= 0, right otherwise. The run ends when the
configured stopping rule fires (fixed leaf count, centroid-scatter-value
threshold, or the local+global BIC split test), yielding a binary tree
whose leaves form the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model_select
from .linalg import ClusterStats, DegenerateClusterError, centroid, principal_direction, row_sq_norms
from .partition import Partition

STOP_RULES = ("fixed", "csv", "bic")


@dataclass
class TreeNode:
    node_id: int
    parent: int | None
    depth: int
    stats: ClusterStats
    left: int | None = None
    right: int | None = None
    final: bool = False  # marked unsplittable / split rejected

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class ClusterTree:
    """Binary split tree; the leaves partition the document index set."""

    nodes: list[TreeNode] = field(default_factory=list)
    warning: bool = False  # leaves ran out before the stopping rule fired

    def leaves(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.is_leaf]

    def partition(self) -> Partition:
        """Leaves numbered in creation (node id) order."""
        leaves = self.leaves()
        n = sum(leaf.stats.size for leaf in leaves)
        labels = np.empty(n, dtype=np.int64)
        for j, leaf in enumerate(leaves):
            labels[leaf.stats.members] = j
        return Partition(labels, len(leaves))


def split_cluster(members, matrix, seed=0, *, center: np.ndarray | None = None,
                  sq_norms: np.ndarray | None = None,
                  sse: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect a cluster with the hyperplane normal to its principal direction.

    Document i goes left when u . (d_i - w) <= 0 (w = cluster centroid),
    right otherwise. Raises ``DegenerateClusterError`` when all rows
    coincide; a split with an empty side is impossible while the variance
    along u is positive and is reported as an internal error.

    A caller that holds the cluster's ``ClusterStats`` passes its
    ``center`` (the centroid) and ``sse``, and ``sq_norms``
    (``row_sq_norms(matrix)``); each is computed when omitted.
    """
    members = np.asarray(members, dtype=np.intp)
    if members.size < 2:
        raise ValueError("cannot split a cluster with fewer than 2 members")
    rows = matrix[members]
    w = centroid(rows) if center is None else center
    rn = None if sq_norms is None else sq_norms[members]
    u = principal_direction(rows, seed, center=w, sq_norms=rn, sse=sse)
    proj = np.asarray(rows @ u).ravel() - float(w @ u)
    left = members[proj <= 0]
    right = members[proj > 0]
    if left.size == 0 or right.size == 0:
        raise RuntimeError("internal error: hyperplane split produced an empty side")
    return left, right, u


def select_leaf(leaves: list[TreeNode]) -> TreeNode | None:
    """The splittable leaf with maximum scatter, ties to the first; ``None``
    when every leaf is final or has fewer than two members."""
    best: TreeNode | None = None
    for nd in leaves:
        if not nd.final and nd.stats.size >= 2 and (
                best is None or nd.stats.scatter > best.stats.scatter):
            best = nd
    return best


def pddp_run(matrix, stop: str = "fixed", k: int | None = None, seed: int = 0) -> ClusterTree:
    """Recursively bisect the document set until the stopping rule fires.

    ``stop`` selects the rule: ``"fixed"`` stops at ``k`` leaves; ``"csv"``
    stops once the scatter of the leaf centroids exceeds the largest leaf
    scatter; ``"bic"`` accepts a split only when both the local and the
    global BIC improve, and stops when no acceptable split remains.

    Leaf selection and every stopping rule read one list of the current
    leaves, kept in node-id order as the tree grows. Unsplittable leaves
    (identical rows) are marked final and skipped. If the leaves run out
    before a fixed/CSV rule fires, the tree is returned with ``warning`` set.
    """
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("pddp_run needs at least 2 documents")
    if stop not in STOP_RULES:
        raise ValueError(f"unknown stopping rule {stop!r}")
    if stop == "fixed":
        if k is None or k < 1:
            raise ValueError("fixed stopping needs k >= 1")
    rng = np.random.default_rng(seed)

    root_stats = ClusterStats.from_rows(matrix, np.arange(n, dtype=np.intp))
    tree = ClusterTree([TreeNode(0, None, 0, root_stats)])
    # A split takes its node's centroid and sse from the node's ClusterStats
    # and its rows' norms from this array, and re-slices the rows. The array
    # is made after the root's stats: made first, it sat above their
    # transient copies on the heap and kept them resident (+2-3 MB peak RSS
    # on a 20k x 2k tf-idf matrix).
    sq_norms = row_sq_norms(matrix)

    # The current leaves in node-id order: a split removes its node and
    # appends its two children, which take the next two ids.
    leaves = tree.nodes[:]
    while True:
        if stop == "fixed" and len(leaves) >= k:
            break
        if stop == "csv" and model_select.csv_stop(leaves):
            break
        node = select_leaf(leaves)
        if node is None:
            if stop in ("fixed", "csv"):
                tree.warning = True  # rule never fired
            break
        try:
            left, right, _ = split_cluster(node.stats.members, matrix, rng, center=node.stats.centroid,
                                           sq_norms=sq_norms, sse=node.stats.sse)
        except DegenerateClusterError:
            node.final = True
            continue
        children = [ClusterStats.from_rows(matrix, side, sq_norms=sq_norms) for side in (left, right)]
        others = [leaf for leaf in leaves if leaf is not node]
        if stop == "bic" and not model_select.bic_split_test(
                [leaf.stats.size for leaf in others], [leaf.stats.sse for leaf in others],
                node.stats, *children):
            node.final = True
            continue
        for stats in children:
            tree.nodes.append(TreeNode(len(tree.nodes), node.node_id, node.depth + 1, stats))
            others.append(tree.nodes[-1])
        leaves = others
        node.left, node.right = len(tree.nodes) - 2, len(tree.nodes) - 1
    return tree
