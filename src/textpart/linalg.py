"""Row-set arithmetic shared by the clustering algorithms.

A document collection is an ``(n_rows, n_dims)`` matrix, either a dense
``numpy.ndarray`` or a ``scipy.sparse`` CSR array; single vectors are 1-D
float arrays. The covariance of a row set is never materialized: the
principal direction is extracted with matrix-free power iteration so that
high-dimensional sparse term matrices stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Clusters whose RMS radius is below 1e-7 of the largest row norm are
# indistinguishable from a point at float64 precision.
_DEGENERATE_REL_TOL = 1e-14


class DegenerateClusterError(ValueError):
    """All rows of the cluster coincide; it has no principal direction."""


def row_sq_norms(rows) -> np.ndarray:
    """Squared L2 norm of every row, shape (n_rows,)."""
    if sp.issparse(rows):
        return np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
    rows = np.asarray(rows, dtype=float)
    return np.einsum("ij,ij->i", rows, rows)


def centroid(rows) -> np.ndarray:
    """Coordinate-wise arithmetic mean of a nonempty row set."""
    if rows.shape[0] == 0:
        raise ValueError("centroid of an empty cluster")
    if sp.issparse(rows):
        return np.asarray(rows.mean(axis=0)).ravel()
    return np.asarray(rows, dtype=float).mean(axis=0)


def sq_distances(rows, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row to every center.

    Returns an (n_rows, n_centers) dense array. Uses the expansion
    ||d - m||^2 = ||d||^2 - 2 d.m + ||m||^2 so CSR rows are never
    densified; tiny negative values from cancellation are clipped to 0.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    rn = row_sq_norms(rows)
    cn = np.einsum("ij,ij->i", centers, centers)
    cross = np.asarray(rows @ centers.T)
    d2 = rn[:, None] - 2.0 * cross + cn[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def scatter_value(rows, center: np.ndarray) -> float:
    """Average Euclidean distance of a nonempty row set to ``center``."""
    if rows.shape[0] == 0:
        raise ValueError("scatter of an empty cluster")
    return float(np.sqrt(sq_distances(rows, center)[:, 0]).mean())


def cluster_sums(matrix, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster row sums (k, d) and occupancy counts (k,).

    One sparse indicator matmul: row j of the (k, n) indicator selects the
    rows labelled j, so dense and CSR inputs are summed without slicing.
    Empty clusters get zero sums.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    indicator = sp.csr_array((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    sums = indicator @ matrix
    sums = sums.toarray() if sp.issparse(sums) else np.asarray(sums, dtype=float)
    return sums, np.bincount(labels, minlength=k)


@dataclass
class ClusterStats:
    """Summary of one cluster: member row indices, centroid, scatter, and
    ``sse``, the sum of squared distances of the members to the centroid."""

    members: np.ndarray
    centroid: np.ndarray
    scatter: float
    sse: float

    @classmethod
    def from_rows(cls, matrix, members) -> "ClusterStats":
        members = np.asarray(members, dtype=np.intp)
        rows = matrix[members]
        c = centroid(rows)
        d2 = sq_distances(rows, c)[:, 0]
        return cls(members, c, float(np.sqrt(d2).mean()), float(d2.sum()))

    @property
    def size(self) -> int:
        return int(self.members.shape[0])


def total_scatter_sq(rows, center: np.ndarray) -> float:
    """Sum of squared distances to ``center`` (the covariance trace times n)."""
    return float(sq_distances(rows, center)[:, 0].sum())


def principal_direction(rows, seed=0, tol: float = 1e-10,
                        max_iter: int = 1000) -> np.ndarray:
    """Unit leading eigenvector of the covariance of a row set.

    Power iteration on the matrix-free operator
    ``v -> (1/n) M^T (M v) - w (w . v)`` where ``M`` stacks the rows and
    ``w`` is their mean; the covariance itself is never formed. The start
    vector is drawn uniformly from the seeded generator and re-drawn if an
    iterate collapses. Iteration stops once successive unit iterates
    satisfy ``1 - |v_new . v| < tol`` or after ``max_iter`` rounds. The
    sign is fixed so the first nonzero coordinate is positive.

    ``seed`` may be an int or a ``numpy.random.Generator``.

    Raises ``DegenerateClusterError`` when all rows coincide (zero
    covariance), which callers treat as "this cluster cannot be split".
    """
    n, dim = rows.shape
    if n < 2:
        raise ValueError("principal direction needs at least 2 rows")
    w = centroid(rows)
    norms = row_sq_norms(rows)
    scale = float(norms.max()) if norms.size else 0.0
    total = total_scatter_sq(rows, w)
    if total <= _DEGENERATE_REL_TOL * n * max(scale, 1e-300):
        raise DegenerateClusterError("degenerate cluster: all rows identical")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    trace = total / n  # = tr(C), an upper bound scale for eigenvalues

    def apply_cov(v: np.ndarray) -> np.ndarray:
        mv = np.asarray(rows @ v).ravel()
        out = np.asarray(rows.T @ mv).ravel() / n
        out -= w * float(w @ v)
        return out

    def draw_start() -> np.ndarray:
        v = rng.uniform(-1.0, 1.0, size=dim)
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else draw_start()

    v = draw_start()
    redraws = 0
    it = 0
    while it < max_iter:
        cv = apply_cov(v)
        nrm = float(np.linalg.norm(cv))
        if nrm <= 1e-14 * trace:
            # start landed (numerically) in the null space; try again
            redraws += 1
            if redraws > 50:
                raise DegenerateClusterError("degenerate cluster: covariance is null")
            v = draw_start()
            continue
        # Rayleigh quotient and eigen-residual of the pre-update iterate; the
        # plateau test alone can stop with residuals far above the promised
        # ||Cu - lambda u|| bound when the spectral gap is moderate.
        lam = float(v @ cv)
        resid = float(np.linalg.norm(cv - lam * v))
        nv = cv / nrm
        plateau = 1.0 - abs(float(nv @ v)) < tol
        v = nv
        it += 1
        if plateau and resid <= 1e-8 * max(1.0, abs(lam)):
            break

    nz = np.nonzero(v)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return v
