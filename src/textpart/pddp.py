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


class NoSplittableLeafError(LookupError):
    """Every leaf is final or has fewer than two members."""


@dataclass
class TreeNode:
    node_id: int
    parent: int | None
    depth: int
    stats: ClusterStats
    direction: np.ndarray | None = None
    left: int | None = None
    right: int | None = None
    final: bool = False  # marked unsplittable / split rejected

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def members(self) -> np.ndarray:
        return self.stats.members

    @property
    def scatter(self) -> float:
        return self.stats.scatter


@dataclass
class ClusterTree:
    """Binary split tree; the leaves partition the document index set."""

    nodes: list[TreeNode] = field(default_factory=list)
    warning: bool = False  # leaves ran out before the stopping rule fired

    def leaves(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.is_leaf]

    @property
    def n_leaves(self) -> int:
        return sum(1 for nd in self.nodes if nd.is_leaf)

    def partition(self) -> Partition:
        """Leaves numbered in creation (node id) order."""
        leaves = self.leaves()
        n = sum(leaf.members.size for leaf in leaves)
        labels = np.empty(n, dtype=np.int64)
        for j, leaf in enumerate(leaves):
            labels[leaf.members] = j
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


def select_leaf(tree: ClusterTree) -> int:
    """Id of the splittable leaf with maximum scatter; ties take the smallest id."""
    best: TreeNode | None = None
    for nd in tree.nodes:
        if not nd.is_leaf or nd.final or nd.members.size < 2:
            continue
        if best is None or nd.scatter > best.scatter:
            best = nd
    if best is None:
        raise NoSplittableLeafError("exhausted")
    return best.node_id


def pddp_run(matrix, stop: str = "fixed", k: int | None = None, seed: int = 0) -> ClusterTree:
    """Recursively bisect the document set until the stopping rule fires.

    ``stop`` selects the rule: ``"fixed"`` stops at ``k`` leaves; ``"csv"``
    stops once the scatter of the leaf centroids exceeds the largest leaf
    scatter; ``"bic"`` accepts a split only when both the local and the
    global BIC improve, and stops when no acceptable split remains.

    Unsplittable leaves (identical rows) are marked final and skipped. If
    the leaves run out before a fixed/CSV rule fires, the tree is returned
    with ``warning`` set.
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

    tree = ClusterTree()
    root_stats = ClusterStats.from_rows(matrix, np.arange(n, dtype=np.intp))
    tree.nodes.append(TreeNode(0, None, 0, root_stats))
    # A split takes its node's centroid and sse from the node's ClusterStats
    # and its rows' norms from this array, and re-slices the rows. The array
    # is made after the root's stats: made first, it sat above their
    # transient copies on the heap and kept them resident (+2-3 MB peak RSS
    # on a 20k x 2k tf-idf matrix).
    sq_norms = row_sq_norms(matrix)

    while True:
        if stop == "fixed" and tree.n_leaves >= k:
            break
        if stop == "csv" and tree.n_leaves >= 2 and model_select.csv_stop(tree):
            break
        try:
            nid = select_leaf(tree)
        except NoSplittableLeafError:
            if stop in ("fixed", "csv"):
                tree.warning = True  # rule never fired
            break
        node = tree.nodes[nid]
        try:
            left, right, u = split_cluster(node.members, matrix, rng, center=node.stats.centroid,
                                           sq_norms=sq_norms, sse=node.stats.sse)
        except DegenerateClusterError:
            node.final = True
            continue
        children = [ClusterStats.from_rows(matrix, side, sq_norms=sq_norms) for side in (left, right)]
        if stop == "bic":
            others = [leaf.stats for leaf in tree.leaves() if leaf.node_id != nid]
            if not model_select.bic_split_test(
                    [s.size for s in others], [s.sse for s in others], node.stats, *children):
                node.final = True
                continue
        node.direction = u
        for stats in children:
            tree.nodes.append(TreeNode(len(tree.nodes), nid, node.depth + 1, stats))
        node.left = tree.nodes[-2].node_id
        node.right = tree.nodes[-1].node_id
    return tree
