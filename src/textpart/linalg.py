"""Row-set arithmetic shared by the clustering algorithms.

A document collection is an ``(n_rows, n_dims)`` matrix, either a dense
``numpy.ndarray`` or a ``scipy.sparse`` CSR array; single vectors are 1-D
float arrays. ``scipy.sparse`` is imported inside the functions that test
or build sparse arrays, so importing this module loads numpy alone. The
covariance of a row set is never materialized: the principal direction is
extracted by a matrix-free restarted Lanczos (Krylov Rayleigh-Ritz) solve
so that high-dimensional sparse term matrices stay sparse.

Cluster statistics have one source each: ``ClusterStats.from_rows`` gives
one row set's members, centroid, scatter, residual and largest squared row
norm, and ``cluster_sums`` gives the row sums and sizes of every cluster of
a partition at once. ``principal_direction`` takes its row set's
``ClusterStats`` as a required argument and computes none of them.

A centroid is computed one way: a row sum over the row count. ``centroid``
sums CSR rows in the order ``cluster_sums`` does, so on CSR rows (every
matrix the CLI clusters) a PDDP leaf's centroid and the one sGEM's M-step
fits to that leaf's members, ``cluster_sums`` row over count, are equal
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Squared L2 norm of every row, shape (n_rows,).

    Sparse rows: the squares of the stored values, on the input's own index
    arrays, are summed by scipy's ``sum(axis=1)``, which is
    ``np.add.reduceat`` over the stored order of each non-empty row. That is
    the sum ``rows.multiply(rows).sum(axis=1)`` makes, bit for bit, without
    the product's room for nnz(A) + nnz(B) entries. The product is still
    taken for input that is not canonical (unsorted or repeated entries) or
    holds a zero square (a stored zero, or an underflow): it sums repeated
    entries, orders each such row its own way and stores no zero, and a
    zero square would regroup ``reduceat``'s pairwise sum. Sorting such
    input first would change the bits, so it is not done.
    """
    import scipy.sparse as sp

    if not sp.issparse(rows):
        rows = np.asarray(rows, dtype=float)
        return np.einsum("ij,ij->i", rows, rows)
    rows = sp.csr_array(rows)
    squares = rows.data * rows.data
    if not (rows.has_canonical_format and squares.all()):
        return np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
    squared = sp.csr_array((squares, rows.indices, rows.indptr), shape=rows.shape)
    return np.asarray(squared.sum(axis=1)).ravel()


def centroid(rows) -> np.ndarray:
    """Coordinate-wise arithmetic mean of a nonempty row set: the row sum
    over the row count, the rule of sGEM's M-step.

    For CSR rows scipy's ``sum(axis=0)`` is ``ones @ rows``, which adds each
    column's stored values in row order from 0.0, as ``cluster_sums`` does,
    so the centroid has the bits of ``cluster_sums(rows, zeros, 1)[0][0] / n``.
    Dense rows are summed by numpy, which adds a C-ordered array of two or
    more columns row by row too; it sums a single column, or a
    Fortran-ordered array, pairwise. Integer rows are summed as integers,
    then divided.
    """
    if rows.shape[0] == 0:
        raise ValueError("centroid of an empty cluster")
    return np.asarray(rows.sum(axis=0), dtype=float).ravel() / rows.shape[0]


def sq_distances(rows, centers: np.ndarray, *, sq_norms: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row to every center.

    Returns an (n_rows, n_centers) dense array. Uses the expansion
    ||d - m||^2 = ||d||^2 - 2 d.m + ||m||^2 so CSR rows are never
    densified; tiny negative values from cancellation are clipped to 0.
    ``sq_norms`` must be ``row_sq_norms(rows)``; every caller already
    holds it. The arithmetic runs in place in the product
    ``rows @ centers.T``, which is returned.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    cn = np.einsum("ij,ij->i", centers, centers)
    d2 = np.asarray(rows @ centers.T)
    d2 *= 2.0
    np.subtract(sq_norms[:, None], d2, out=d2)
    d2 += cn
    np.maximum(d2, 0.0, out=d2)
    return d2


def cluster_sums(matrix, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster row sums (k, d) and occupancy counts (k,).

    The rows, as CSR (dense rows are converted, which leaves out their
    zeros), are summed by one ``np.bincount`` over the stored entries,
    keyed by ``label * d + column``. It adds each key's weights in storage
    order, and CSR stores rows in ascending order, so every sum adds its
    rows in ascending row order starting from 0.0: the order of the
    per-cluster loop in ``tests/oracles.py``, hence the same bits. Empty
    clusters get zero sums.
    """
    import scipy.sparse as sp

    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=k)
    matrix = sp.csr_array(matrix)
    d = matrix.shape[1]
    keys = np.repeat(labels * d, np.diff(matrix.indptr))
    keys += matrix.indices
    sums = np.bincount(keys, weights=matrix.data, minlength=k * d).reshape(k, d)
    return sums, counts


def member_rows(matrix, members: np.ndarray):
    """The rows ``members`` of ``matrix``: the matrix itself, not a gathered
    copy, when they are every row in order (the PDDP root)."""
    if members.size == matrix.shape[0] and np.array_equal(members, np.arange(members.size)):
        return matrix
    return matrix[members]


@dataclass
class ClusterStats:
    """Summary of one cluster: member row indices, centroid, scatter, sse
    and the largest squared row norm.

    ``scatter`` is the mean Euclidean distance of the member rows d_i to
    the centroid w, (1/n) sum_i ||d_i - w||. PDDP's leaf selection, the CSV
    rule and the report's ``tree`` lines read it. ``sse`` is the sum of
    squared distances, sum_i ||d_i - w||^2 = ||A - w e^T||_F^2, which the
    BIC split test reads. Boley's "scatter value" is ``sse`` (see ``pddp``).
    ``max_sq_norm`` is max_i ||d_i||^2, the scale of the eigen-solve's
    check that the rows do not all coincide. A PDDP split
    (``split_cluster``, then ``principal_direction``) reads every input it
    needs from the stats of the cluster it bisects, so they always describe
    one row set. ``centroid`` is ``linalg.centroid`` of the member rows,
    their sum over their count; for CSR rows it has the bits of the
    centroid sGEM's ``m_step`` fits to the same members.
    """

    members: np.ndarray
    centroid: np.ndarray
    scatter: float
    sse: float
    max_sq_norm: float

    @classmethod
    def from_rows(cls, matrix, members, *, sq_norms: np.ndarray | None = None) -> "ClusterStats":
        """Stats of the rows ``members`` of ``matrix``; ``sq_norms``, if
        given, must be ``row_sq_norms(matrix)``."""
        members = np.asarray(members, dtype=np.intp)
        rows = member_rows(matrix, members)
        c = centroid(rows)
        rn = row_sq_norms(rows) if sq_norms is None else sq_norms[members]
        d2 = sq_distances(rows, c, sq_norms=rn)[:, 0]
        return cls(members, c, float(np.sqrt(d2).mean()), float(d2.sum()), float(rn.max()))

    @property
    def size(self) -> int:
        return int(self.members.shape[0])


def _constant_columns(rows, rows_t) -> np.ndarray:
    """Boolean mask of the columns that take one value over all rows.

    ``rows_t`` is the transpose of ``rows`` (CSR when ``rows`` is sparse).
    A sparse column is constant when it stores an entry in every row and
    those entries agree, or when every value it stores is zero.
    """
    import scipy.sparse as sp

    if not sp.issparse(rows):
        return np.ptp(rows, axis=0) == 0
    stored = np.diff(rows_t.indptr)
    constant = stored == 0
    used = np.flatnonzero(stored)
    if used.size:
        starts = rows_t.indptr[used]
        hi = np.maximum.reduceat(rows_t.data, starts)
        lo = np.minimum.reduceat(rows_t.data, starts)
        constant[used] = (hi == lo) & ((stored[used] == rows.shape[0]) | (hi == 0))
    return constant


def principal_direction(rows, seed=0, *, stats: ClusterStats) -> np.ndarray:
    """Unit leading eigenvector of the covariance of a row set.

    Restarted Lanczos: the covariance ``C`` is applied matrix-free as
    ``v -> (1/n) M^T (M v) - w (w . v)``, where ``M`` stacks the rows and
    ``w`` is their mean, and is never formed. Each cycle grows a fully
    re-orthogonalised Krylov basis of up to ``_KRYLOV_DIM`` vectors, takes
    the top eigenpair ``(lam, u)`` of ``C`` projected onto it (Rayleigh-Ritz)
    and restarts from ``u`` until ``||C u - lam u|| <= 1e-8 max(1, |lam|)``.
    The result is the power step ``C u / ||C u||``, which lies in the range
    of ``C``. Coordinates of columns that are constant over the rows are
    then set to exactly zero: their variance is zero, so only rounding
    noise (~1e-16) sits there. The sign is fixed so the first nonzero
    coordinate is positive, which makes it a property of the data rather
    than of the seed or the storage format.

    ``seed`` may be an int or a ``numpy.random.Generator``; the start vector
    is drawn uniformly from it and re-drawn while it lies (numerically) in
    the null space of ``C``.

    ``stats`` is the row set's ``ClusterStats``: ``w`` is its centroid, its
    ``sse`` is the covariance trace times n and its ``max_sq_norm`` scales
    the check that the rows do not all coincide. The solve computes none of
    these itself; ``split_cluster`` passes the stats of the node it bisects.

    Raises ``DegenerateClusterError`` when all rows coincide (zero
    covariance), which callers treat as "this cluster cannot be split", and
    ``ConvergenceError`` when the residual bound is not met within
    ``_MAX_RESTARTS`` cycles.
    """
    import scipy.sparse as sp

    n, dim = rows.shape
    if n < 2:
        raise ValueError("principal direction needs at least 2 rows")
    w, total = stats.centroid, stats.sse
    if total <= _DEGENERATE_REL_TOL * n * max(stats.max_sq_norm, 1e-300):
        raise DegenerateClusterError("degenerate cluster: all rows identical")

    rng = np.random.default_rng(seed)
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
    u[_constant_columns(rows, rows_t)] = 0.0
    nz = np.nonzero(u)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
    return u
