"""Row-set arithmetic shared by the clustering algorithms.

A document collection is an ``(n_rows, n_dims)`` matrix, either a dense
``numpy.ndarray`` or a ``scipy.sparse`` CSR array; single vectors are 1-D
float arrays. The covariance of a row set is never materialized: the
principal direction is extracted by a matrix-free restarted Lanczos
(Krylov Rayleigh-Ritz) solve so that high-dimensional sparse term matrices
stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Clusters whose RMS radius is below 1e-7 of the largest row norm are
# indistinguishable from a point at float64 precision.
_DEGENERATE_REL_TOL = 1e-14

# Lanczos basis size per cycle and the number of cycles before the
# principal-direction solve gives up.
_KRYLOV_DIM = 24
_MAX_RESTARTS = 50


class DegenerateClusterError(ValueError):
    """All rows of the cluster coincide; it has no principal direction."""


class ConvergenceError(ArithmeticError):
    """An iterative solve did not meet its accuracy bound within its budget."""


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


def principal_direction(rows, seed=0) -> np.ndarray:
    """Unit leading eigenvector of the covariance of a row set.

    Restarted Lanczos: the covariance ``C`` is applied matrix-free as
    ``v -> (1/n) M^T (M v) - w (w . v)``, where ``M`` stacks the rows and
    ``w`` is their mean, and is never formed. Each cycle grows a fully
    re-orthogonalised Krylov basis of up to ``_KRYLOV_DIM`` vectors, takes
    the top eigenpair ``(lam, u)`` of ``C`` projected onto it (Rayleigh-Ritz)
    and restarts from ``u`` until ``||C u - lam u|| <= 1e-8 max(1, |lam|)``.
    The result is the power step ``C u / ||C u||``, which lies in the range
    of ``C``: coordinates no row varies in are exactly zero. The sign is
    fixed so the first nonzero coordinate is positive.

    ``seed`` may be an int or a ``numpy.random.Generator``; the start vector
    is drawn uniformly from it and re-drawn while it lies (numerically) in
    the null space of ``C``.

    Raises ``DegenerateClusterError`` when all rows coincide (zero
    covariance), which callers treat as "this cluster cannot be split", and
    ``ConvergenceError`` when the residual bound is not met within
    ``_MAX_RESTARTS`` cycles.
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
    rows_t = rows.T.tocsr() if sp.issparse(rows) else rows.T

    def apply_cov(v: np.ndarray) -> np.ndarray:
        return rows_t @ (rows @ v) / n - w * (w @ v)

    for _ in range(51):  # one draw, then up to 50 redraws
        v = rng.uniform(-1.0, 1.0, size=dim)
        v /= np.linalg.norm(v)
        cv = apply_cov(v)
        if np.linalg.norm(cv) > 1e-14 * trace:  # else v lies in the null space of C
            break
    else:
        raise DegenerateClusterError("degenerate cluster: covariance is null")

    basis, images = np.empty((2, min(_KRYLOV_DIM, dim), dim))  # images[j] = C basis[j]
    basis[0], images[0] = v, cv
    for _ in range(_MAX_RESTARTS):
        k = 1
        while k < len(basis):
            q = basis[:k]
            r = images[k - 1] - (q @ images[k - 1]) @ q
            r -= (q @ r) @ q  # second Gram-Schmidt pass keeps the basis orthonormal
            nr = np.linalg.norm(r)
            if nr <= 1e-12 * trace:
                break  # the basis spans an invariant subspace
            basis[k] = r / nr
            images[k] = apply_cov(basis[k])
            k += 1
        evals, evecs = np.linalg.eigh(basis[:k] @ images[:k].T)
        u, cu = evecs[:, -1] @ basis[:k], evecs[:, -1] @ images[:k]
        if np.linalg.norm(cu - evals[-1] * u) <= 1e-8 * max(1.0, abs(evals[-1])):
            break
        basis[0], images[0] = u / np.linalg.norm(u), cu / np.linalg.norm(u)
    else:
        raise ConvergenceError(f"principal direction did not converge in {_MAX_RESTARTS} restarts")

    u = cu / np.linalg.norm(cu)
    nz = np.nonzero(u)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
    return u
