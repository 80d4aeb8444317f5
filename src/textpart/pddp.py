"""Divisive partitioning by linear hyperplanes normal to the principal direction.

Starting from one cluster holding every document, the algorithm repeatedly
picks the unsplit leaf with the largest scatter and bisects it with the
hyperplane normal to the leaf's principal direction, passing through its
centroid: documents project onto the direction and go left when the
centered projection is <= 0, right otherwise. The run ends when the
configured stopping rule fires (fixed leaf count, centroid-scatter-value
threshold, or the local+global BIC split test), yielding a binary tree
whose leaves form the partition.

A leaf's scatter is ``ClusterStats.scatter``, the mean Euclidean distance
of its rows to their centroid. Boley (Principal Direction Divisive
Partitioning, Data Mining and Knowledge Discovery 2(4), 1998) picks the
leaf with the largest scatter value ||A - w e^T||_F^2 instead, which is
``ClusterStats.sse``. Selection and the CSV rule on ``sse`` were measured
and not taken: on the ``bench/gen.py`` c9 corpus (seeds 0, 7 and 19) the
CSV run then stops at 65-66 leaves instead of 216-226, but two clean
Gaussian clouds split into 7 leaves instead of 2, and selection on
``sse`` alone grows 513-620 leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model_select
from .linalg import ClusterStats, DegenerateClusterError, member_rows, principal_direction, row_sq_norms
from .partition import Partition

STOP_RULES = ("fixed", "csv", "bic")

# The largest squared row norm R^2 that PDDP accepts. The eigen-solve takes
# numpy's unscaled norm of covariance images, whose squares reach
# (4 R^2)^2; the sse sums (below 4 n R^2) and the squared distances (below
# 2 R^2) stay far under float64's range at this bound.
_MAX_SQ_NORM = float(np.sqrt(np.finfo(float).max)) / 4.0


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


def split_cluster(stats: ClusterStats, matrix, seed=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect a cluster with the hyperplane normal to its principal direction.

    ``stats`` is the cluster's ``ClusterStats`` over the rows of ``matrix``;
    the split reads nothing else about the cluster. Document i goes left
    when u . (d_i - w) <= 0, with w the centroid, right otherwise. Raises
    ``ValueError`` for fewer than 2 members and ``DegenerateClusterError``
    when all rows coincide; a split with an empty side is impossible while
    the variance along u is positive and is reported as an internal error.
    """
    members = stats.members
    rows = member_rows(matrix, members)
    u = principal_direction(rows, seed, stats=stats)
    proj = np.asarray(rows @ u).ravel() - float(stats.centroid @ u)
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

    ``stop`` selects the rule: ``"fixed"`` stops at ``k`` leaves, where ``k``
    is an integer in [1, n] (ValueError otherwise); ``"csv"`` stops once the
    scatter of the leaf centroids exceeds the largest leaf scatter; ``"bic"``
    accepts a split only when both the local and the global BIC improve, and
    stops when no acceptable split remains.

    Leaf selection and every stopping rule read one list of the current
    leaves, kept in node-id order as the tree grows. Unsplittable leaves
    (identical rows) are marked final and skipped. If the leaves run out
    before a fixed/CSV rule fires, the tree is returned with ``warning`` set.
    A row whose squared norm exceeds sqrt(float64 max) / 4, about 3.4e153
    (one stored value of about 5.8e76), raises ``ValueError`` naming the
    first such row before the first split, since the eigen-solve would
    overflow on it.
    """
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("pddp_run needs at least 2 documents")
    if stop not in STOP_RULES:
        raise ValueError(f"unknown stopping rule {stop!r}")
    if stop == "fixed" and (not isinstance(k, (int, np.integer)) or not 1 <= k <= n):
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
    rng = np.random.default_rng(seed)

    # Past the bound check only ClusterStats.from_rows reads these norms; a
    # split reads its node's stats and re-slices the rows.
    with np.errstate(over="ignore"):
        sq_norms = row_sq_norms(matrix)
    beyond = ~(sq_norms <= _MAX_SQ_NORM)
    if beyond.any():
        row = beyond.argmax()
        if not np.isfinite(sq_norms[row]):
            raise ValueError(f"document at row {row}: its squared norm overflows float64")
        raise ValueError(f"document at row {row}: its squared norm {sq_norms[row]:.3g} is above "
                         f"{_MAX_SQ_NORM:.3g}, the largest PDDP can split without overflow")
    root_stats = ClusterStats.from_rows(matrix, np.arange(n, dtype=np.intp), sq_norms=sq_norms)
    tree = ClusterTree([TreeNode(0, None, 0, root_stats)])

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
            left, right, _ = split_cluster(node.stats, matrix, rng)
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
