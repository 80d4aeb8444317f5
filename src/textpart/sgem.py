"""Hard-assignment EM for a mixture of spherical Gaussians.

Every component is an isotropic Gaussian sharing one variance sigma^2, so a
document's posterior score reduces to log P(c_j) - ||d_i - m_j||^2 / (2 s2)
plus a term common to all components. The E-step assigns each document to
its best component; the M-step refits

    P(c_j) = n_j / n
    m_j    = mean of the rows assigned to j
    s2     = (1/(n d)) sum_i ||d_i - m_{z_i}||^2

and the loop ascends the complete-data log-likelihood until its increase
falls below a threshold. Used to refine an initial partition (typically
divisive-partitioning leaves) by reallocating cluster membership.

This is the classification EM of Celeux & Govaert (1992), whose M-step
needs only the sufficient statistics (n_j, sum of rows, sum of ||d_i||^2)
of each cluster. ``sgem_run`` computes each statistic once:

- the row norms once per run;
- the cluster sums once per iteration, for the new assignment, shared by
  its log-likelihood and the next M-step.

The step functions take these statistics as required keyword arguments
and never compute one they are handed; ``sgem_run`` is the entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import cluster_sums, row_sq_norms, sq_distances
from .partition import Partition

# Keeps scores finite when a cluster collapses onto its centroid.
SIGMA2_FLOOR = 1e-12
# The most iterations ``sgem_run`` takes.
MAX_ITER = 100


@dataclass
class SGemModel:
    """Mixture parameters: component priors, centroids, shared variance."""

    priors: np.ndarray
    centroids: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        self.priors = np.asarray(self.priors, dtype=float)
        self.centroids = np.atleast_2d(np.asarray(self.centroids, dtype=float))
        if self.priors.shape[0] != self.centroids.shape[0]:
            raise ValueError("priors and centroids disagree on k")

    @property
    def k(self) -> int:
        return int(self.priors.shape[0])


def _repair_empty_clusters(
    labels: np.ndarray, sums: np.ndarray, counts: np.ndarray, matrix, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move the document farthest from its own centroid into each empty cluster.

    ``sums`` and ``counts`` are the cluster sums and sizes of ``labels``.
    The donor cluster must keep at least one member. Ties break toward the
    smallest document index. Returns the (copied) labels with their cluster
    sums and sizes, recomputed by one ``cluster_sums`` after each move.
    """
    k = counts.shape[0]
    while np.any(counts == 0):
        empty = int(np.nonzero(counts == 0)[0][0])
        centroids = np.zeros_like(sums)
        nonzero = counts > 0
        centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
        d2 = sq_distances(matrix, centroids, sq_norms=sq_norms)
        own = d2[np.arange(labels.size), labels]
        own[counts[labels] < 2] = -np.inf
        if not np.isfinite(own.max()):
            raise ValueError("cannot repair empty cluster: no donor with >= 2 members")
        mover = int(np.argmax(own))
        labels = labels.copy()
        labels[mover] = empty
        sums, counts = cluster_sums(matrix, labels, k)
    return labels, sums, counts


def m_step(assign: Partition, matrix, *, sums: np.ndarray, sq_norms: np.ndarray) -> SGemModel:
    """Refit priors, centroids and the shared variance to a hard assignment.

    ``sums`` must be the cluster sums of ``assign``,
    ``cluster_sums(matrix, assign.labels, assign.k)[0]``, and ``sq_norms``
    must be ``row_sq_norms(matrix)``. Empty clusters are repaired first by
    re-seeding each with the document farthest from its current centroid
    (donor keeps >= 1 member); the input assignment is not mutated, and
    the sums are recomputed for the repaired labels.
    """
    n, d = matrix.shape
    if assign.n_docs != n:
        raise ValueError("assignment length does not match matrix")
    k = assign.k
    labels = assign.labels
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        labels, sums, counts = _repair_empty_clusters(labels, sums, counts, matrix, sq_norms)

    centroids = sums / counts[:, None]
    # sum_i ||d_i - m_{z_i}||^2 = sum_i ||d_i||^2 - sum_j n_j ||m_j||^2
    residual = float(sq_norms.sum() - (counts * np.einsum("ij,ij->i", centroids, centroids)).sum())
    sigma2 = max(residual / (n * d), SIGMA2_FLOOR)
    return SGemModel(counts / n, centroids, sigma2)


def e_step(model: SGemModel, matrix, *, sq_norms: np.ndarray) -> Partition:
    """Assign each document to the maximum-posterior component.

    Score: log P(c_j) - ||d_i - m_j||^2 / (2 s2); the shared
    -(d/2) log(2 pi s2) term cancels in the argmax. Components with zero
    prior never win; ties go to the smallest component index.
    ``sq_norms`` must be ``row_sq_norms(matrix)``.
    """
    if not np.any(model.priors > 0):
        raise ValueError("invalid model: all component priors are zero")
    with np.errstate(divide="ignore"):
        log_priors = np.where(model.priors > 0, np.log(model.priors), -np.inf)
    scores = sq_distances(matrix, model.centroids, sq_norms=sq_norms)
    scores /= 2.0 * model.sigma2
    np.subtract(log_priors[None, :], scores, out=scores)
    return Partition(np.argmax(scores, axis=1), model.k)


def complete_log_likelihood(model: SGemModel, assign: Partition, *, sums: np.ndarray,
                            sq_norms: np.ndarray) -> float:
    """log L_c = sum_i [log P(c_{z_i}) - (d/2) log(2 pi s2) - ||d_i - m_{z_i}||^2/(2 s2)].

    For a matrix of d columns, ``sums`` must be
    ``cluster_sums(matrix, assign.labels, model.k)[0]`` and ``sq_norms``
    must be ``row_sq_norms(matrix)``; n is ``assign.n_docs``.
    """
    n, d = assign.n_docs, sums.shape[1]
    labels = assign.labels
    counts = np.bincount(labels, minlength=model.k)
    # per-cluster residual sum: sum_{i in j} ||d_i||^2 - 2 m_j . s_j + n_j ||m_j||^2
    rn_per = np.bincount(labels, weights=sq_norms, minlength=model.k)
    cross = np.einsum("ij,ij->i", model.centroids, sums)
    cnorm = np.einsum("ij,ij->i", model.centroids, model.centroids)
    residual = float(np.maximum(rn_per - 2.0 * cross + counts * cnorm, 0.0).sum())
    occupied = counts > 0
    if np.any(model.priors[occupied] <= 0):
        prior_term = -np.inf  # a document sits in a zero-probability component
    else:
        prior_term = float((counts[occupied] * np.log(model.priors[occupied])).sum())
    return prior_term - n * (d / 2.0) * np.log(2.0 * np.pi * model.sigma2) - residual / (2.0 * model.sigma2)


def sgem_run(
    init: Partition,
    matrix,
    delta: float | None = None,
) -> tuple[Partition, SGemModel, list[float]]:
    """Alternate M-step / E-step from an initial partition until converged.

    One iteration refits the model to the current assignment and then
    reassigns every document; the cluster sums of the new assignment serve
    both its log-likelihood and the next refit. Stops when the assignment
    reaches a fixed point, when the complete-data log-likelihood increases
    by less than ``delta`` (default ``1e-6 * n_docs``), or after ``MAX_ITER``
    (100) iterations. ``delta`` must be finite and >= 0.
    Returns the final partition, the last fitted model, and the
    log-likelihood trace (one value per iteration).
    """
    n = matrix.shape[0]
    if init.n_docs != n:
        raise ValueError("initial partition length does not match matrix")
    sums, counts = cluster_sums(matrix, init.labels, init.k)
    if np.any(counts == 0):
        raise ValueError("initial partition has an empty cluster")
    if delta is None:
        delta = 1e-6 * n
    elif not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")

    sq_norms = row_sq_norms(matrix)
    z = init
    trace: list[float] = []
    model: SGemModel | None = None
    for _ in range(MAX_ITER):
        model = m_step(z, matrix, sums=sums, sq_norms=sq_norms)
        z_new = e_step(model, matrix, sq_norms=sq_norms)
        sums = cluster_sums(matrix, z_new.labels, init.k)[0]
        trace.append(complete_log_likelihood(model, z_new, sums=sums, sq_norms=sq_norms))
        fixed_point = bool(np.array_equal(z_new.labels, z.labels))
        z = z_new
        if fixed_point:
            break
        if len(trace) >= 2 and trace[-1] - trace[-2] < delta:
            break
    assert model is not None
    return z, model, trace
