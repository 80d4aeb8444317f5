"""Estimating the number of clusters: BIC scores, split tests, and the CSV rule.

The BIC of a partition is the complete-data log-likelihood of the spherical
Gaussian mixture fitted to it, minus the Schwarz penalty
(param_count / 2) * log n with natural logs; larger is better. The free
parameters are k - 1 component probabilities, k * d centroid coordinates
and one shared variance. Because the variance is shared, the score depends
only on the cluster sizes and per-cluster residuals (squared distances to
the centroid), so a split test works from leaf sizes and residuals alone:
splitting a leaf swaps its residual for its children's, and the matrix is
never touched. Scores are plain floats.

The centroid scatter value (CSV) treats the current leaf centroids as data
vectors and takes their scatter, read from ``ClusterStats`` like every leaf
scatter; a divisive run stops once the CSV exceeds the largest scatter of
any single leaf, a dynamic threshold that needs no preset cluster count.
Scatter here is ``ClusterStats.scatter``, the mean Euclidean distance of
the vectors to their mean, not Boley's squared "scatter value" (``sse``;
``pddp`` says why).
"""

from __future__ import annotations

import math

import numpy as np

from . import sgem
from .linalg import ClusterStats, cluster_sums, row_sq_norms
from .partition import Partition


def param_count(k: int, d: int) -> int:
    """Free parameters of a k-component spherical mixture in d dimensions."""
    if k < 1 or d < 1:
        raise ValueError("param_count needs k >= 1 and d >= 1")
    return (k - 1) + k * d + 1


def bic_from_residuals(sizes, sse, d: int) -> float:
    """BIC of a partition of d-dimensional rows from its cluster sizes and
    per-cluster residuals (sums of squared distances to the centroid).

    The fitted model puts P(c_j) = n_j / n and the shared variance at
    s2 = sum(sse) / (n d), so the complete-data log-likelihood is

        sum_j n_j log(n_j / n) - (n d / 2) log(2 pi s2) - sum(sse) / (2 s2),

    and the score is that minus (param_count(k, d) / 2) log n.

    A fit whose variance collapses to ``SIGMA2_FLOOR`` (every cluster holds
    identical rows, e.g. all-singleton partitions) is a singular
    maximum-likelihood solution whose density blows up; it is scored -inf
    so model selection can never prefer it.
    """
    sizes = np.asarray(sizes, dtype=float)
    n = int(sizes.sum())
    k = sizes.size
    residual = float(np.sum(sse))
    sigma2 = max(residual / (n * d), sgem.SIGMA2_FLOOR)
    if sigma2 <= sgem.SIGMA2_FLOOR:
        return -np.inf
    prior_term = float((sizes * np.log(sizes / n)).sum())
    loglik = prior_term - n * (d / 2.0) * math.log(2.0 * math.pi * sigma2) - residual / (2.0 * sigma2)
    return loglik - (param_count(k, d) / 2.0) * math.log(n)


def bic_score(partition: Partition, matrix) -> float:
    """Fit the spherical model to a partition of the matrix rows and score it
    with ``bic_from_residuals``; the residuals come from ``cluster_sums``."""
    if np.any(partition.sizes() == 0):
        raise ValueError("bic_score requires nonempty clusters")
    labels = partition.labels
    sums, counts = cluster_sums(matrix, labels, partition.k)
    # sum_{i in j} ||d_i - m_j||^2 = sum_{i in j} ||d_i||^2 - ||s_j||^2 / n_j
    within = np.bincount(labels, weights=row_sq_norms(matrix), minlength=partition.k)
    sse = np.maximum(within - np.einsum("ij,ij->i", sums, sums) / counts, 0.0)
    return bic_from_residuals(counts, sse, matrix.shape[1])


def bic_split_test(sizes, sse, parent: ClusterStats, left: ClusterStats,
                   right: ClusterStats) -> bool:
    """Accept a candidate split only if local AND global BIC strictly improve.

    ``sizes`` and ``sse`` hold the size and residual of every leaf other
    than ``parent``. Local: the parent's rows scored as one cluster versus
    as the two children. Global: the leaf partition with the parent versus
    with the two children in its place. Equal scores reject.
    """
    d = parent.centroid.size
    child_sizes, child_sse = [left.size, right.size], [left.sse, right.sse]
    local_before = bic_from_residuals([parent.size], [parent.sse], d)
    local_after = bic_from_residuals(child_sizes, child_sse, d)
    if not local_after > local_before:
        return False
    global_before = bic_from_residuals(np.append(sizes, parent.size), np.append(sse, parent.sse), d)
    global_after = bic_from_residuals(np.append(sizes, child_sizes), np.append(sse, child_sse), d)
    return global_after > global_before


def csv(leaves) -> float:
    """Scatter of the leaf centroids treated as data vectors."""
    centers = np.stack([leaf.stats.centroid for leaf in leaves])
    return ClusterStats.from_rows(centers, np.arange(len(leaves))).scatter


def csv_stop(leaves) -> bool:
    """True once the CSV of the leaves (``tree.leaves()``) exceeds their
    maximum scatter; never at one leaf."""
    return len(leaves) >= 2 and csv(leaves) > max(leaf.stats.scatter for leaf in leaves)
