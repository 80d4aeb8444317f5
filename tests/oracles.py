"""Independent reference implementations used to check the library.

Everything here is deliberately brute force: dense covariance
eigendecompositions, exhaustive bipartition enumeration, and from-scratch
statistic recomputation. None of it shares code with the package paths it
verifies.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def dense_covariance(rows) -> np.ndarray:
    X = rows.toarray() if sp.issparse(rows) else np.asarray(rows, dtype=float)
    w = X.mean(axis=0)
    Xc = X - w
    return Xc.T @ Xc / X.shape[0]


def top_eigvec_dense(rows) -> np.ndarray:
    """Leading eigenvector from numpy's full symmetric eigendecomposition."""
    evals, evecs = np.linalg.eigh(dense_covariance(rows))
    return evecs[:, -1]


def information_of_assignment(joint, assignment: np.ndarray, k: int) -> float:
    """I(T;Y) of a hard assignment, computed densely from the definition."""
    cond = joint.py_given_x.toarray()
    px = joint.px
    py = (px[:, None] * cond).sum(axis=0)
    total = 0.0
    for j in range(k):
        members = np.nonzero(assignment == j)[0]
        if members.size == 0:
            continue
        pt = float(px[members].sum())
        pyt = (px[members, None] * cond[members]).sum(axis=0) / pt
        mask = pyt > 0
        total += pt * float(np.sum(pyt[mask] * np.log(pyt[mask] / py[mask])))
    return total


def best_bipartition_information(joint) -> float:
    """Maximum I(T;Y) over all 2^(n-1) - 1 bipartitions (doc 0 pinned left)."""
    n = joint.n_docs
    best = -np.inf
    for mask in range(1, 2 ** (n - 1)):
        assignment = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.int64)
        best = max(best, information_of_assignment(joint, assignment, 2))
    return best


def cluster_stats_from_scratch(joint, assignment: np.ndarray, k: int):
    """(pt, word_mass) recomputed directly from the joint rows."""
    cond = joint.py_given_x.toarray()
    px = joint.px
    pt = np.zeros(k)
    mass = np.zeros((k, joint.n_terms))
    for i, j in enumerate(assignment):
        pt[j] += px[i]
        mass[j] += px[i] * cond[i]
    return pt, mass


def cluster_sums_loop(matrix, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster row sums (k, d) and counts (k,), one fancy-indexed slice per cluster."""
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, matrix.shape[1]))
    for j in range(k):
        idx = np.nonzero(labels == j)[0]
        if idx.size:
            sums[j] = np.asarray(matrix[idx].sum(axis=0)).ravel()
    return sums, counts


def sgem_run_recompute(init, matrix, delta: float | None = None, max_iter: int = 100):
    """sGEM with every step computing its own statistics (no sharing).

    A copy of the loop before the statistics were shared: each iteration
    recomputes the row norms in the M-step, the E-step and the
    log-likelihood, and the cluster sums in both the M-step and the
    log-likelihood. It uses the package's ``cluster_sums`` and
    ``row_sq_norms`` (checked on their own elsewhere) so that its results
    can be compared bit for bit. Returns ``(labels, centroids, sigma2,
    trace)``.
    """
    from textpart.linalg import cluster_sums, row_sq_norms
    from textpart.sgem import SIGMA2_FLOOR

    n, d = matrix.shape
    k = init.k

    def sq_dist(centers):
        cross = np.asarray(matrix @ centers.T)
        d2 = row_sq_norms(matrix)[:, None] - 2.0 * cross + np.einsum("ij,ij->i", centers, centers)[None, :]
        return np.maximum(d2, 0.0)

    def repair(labels, counts):
        while np.any(counts == 0):
            empty = int(np.nonzero(counts == 0)[0][0])
            sums, _ = cluster_sums(matrix, labels, k)
            centroids = np.zeros_like(sums)
            nonzero = counts > 0
            centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
            own = sq_dist(centroids)[np.arange(n), labels]
            own[counts[labels] < 2] = -np.inf
            if not np.isfinite(own.max()):
                raise ValueError("cannot repair empty cluster: no donor with >= 2 members")
            mover = int(np.argmax(own))
            labels, counts = labels.copy(), counts.copy()
            counts[labels[mover]] -= 1
            labels[mover] = empty
            counts[empty] += 1
        return labels

    def m_step(labels):
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            labels = repair(labels, counts)
        sums, counts = cluster_sums(matrix, labels, k)
        centroids = sums / counts[:, None]
        residual = float(row_sq_norms(matrix).sum() - (counts * np.einsum("ij,ij->i", centroids, centroids)).sum())
        return counts / n, centroids, max(residual / (n * d), SIGMA2_FLOOR)

    def e_step(priors, centroids, sigma2):
        with np.errstate(divide="ignore"):
            log_priors = np.where(priors > 0, np.log(priors), -np.inf)
        return np.argmax(log_priors[None, :] - sq_dist(centroids) / (2.0 * sigma2), axis=1)

    def log_likelihood(priors, centroids, sigma2, labels):
        sums, counts = cluster_sums(matrix, labels, k)
        rn_per = np.bincount(labels, weights=row_sq_norms(matrix), minlength=k)
        cross = np.einsum("ij,ij->i", centroids, sums)
        cnorm = np.einsum("ij,ij->i", centroids, centroids)
        residual = float(np.maximum(rn_per - 2.0 * cross + counts * cnorm, 0.0).sum())
        occupied = counts > 0
        if np.any(priors[occupied] <= 0):
            prior_term = -np.inf
        else:
            prior_term = float((counts[occupied] * np.log(priors[occupied])).sum())
        return prior_term - n * (d / 2.0) * np.log(2.0 * np.pi * sigma2) - residual / (2.0 * sigma2)

    if delta is None:
        delta = 1e-6 * n
    z = init.labels
    trace: list[float] = []
    for _ in range(max_iter):
        priors, centroids, sigma2 = m_step(z)
        z_new = e_step(priors, centroids, sigma2)
        trace.append(log_likelihood(priors, centroids, sigma2, z_new))
        fixed_point = bool(np.array_equal(z_new, z))
        z = z_new
        if fixed_point:
            break
        if len(trace) >= 2 and trace[-1] - trace[-2] < delta:
            break
    return z, centroids, sigma2, trace


def read_matrix_lines(prefix):
    """``read_matrix`` as it was before the vectorised parse: one Python
    ``split``/``int``/``float`` per line, and a set of every (doc, term)
    pair for the duplicate check.

    Since then every header fault (a field that is not an integer in
    0..2**63 - 1, or a shape other than the ``.docs``/``.vocab`` lengths)
    and an entry index beyond int64 raise a ``ValueError`` naming the file;
    they used to escape as an unnamed ``ValueError``, an ``OverflowError``
    or a ``MemoryError``."""
    from pathlib import Path

    from textpart.corpus import TermDocMatrix

    prefix = Path(prefix)
    text = Path(str(prefix) + ".mat").read_text(encoding="utf-8").splitlines()
    if not text:
        raise ValueError(f"{prefix}.mat is empty")
    try:
        header = [int(x) for x in text[0].split()]
    except ValueError:
        header = []
    if len(header) != 3 or not all(0 <= x < 2 ** 63 for x in header):
        raise ValueError(f"{prefix}.mat: malformed header on line 1: {text[0]!r} "
                         f"(expected n_docs n_terms nnz, integers in 0..{2 ** 63 - 1})")
    n_docs, n_terms, nnz = header
    if len(text) - 1 != nnz:
        raise ValueError(f"{prefix}.mat: expected {nnz} entries, found {len(text) - 1}")
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    try:
        for p, line in enumerate(text[1:]):
            i_s, j_s, v_s = line.split()
            rows[p], cols[p], vals[p] = int(i_s), int(j_s), float(v_s)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{prefix}.mat: malformed entry on line {p + 2}: {line!r} ({exc})") from exc
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{prefix}.mat: non-finite value on line {bad[0] + 2}")
    if nnz:
        if rows.min() < 0 or rows.max() >= n_docs or cols.min() < 0 or cols.max() >= n_terms:
            raise ValueError(f"{prefix}.mat: entry index out of range")
    vocab = Path(str(prefix) + ".vocab").read_text(encoding="utf-8").splitlines()
    doc_ids = Path(str(prefix) + ".docs").read_text(encoding="utf-8").splitlines()
    if n_docs != len(doc_ids) or n_terms != len(vocab):
        raise ValueError(f"{prefix}.mat: header shape {n_docs} x {n_terms} disagrees with "
                         f"{len(doc_ids)} doc ids and {len(vocab)} terms")
    if nnz and len(set(zip(rows.tolist(), cols.tolist()))) != nnz:
        raise ValueError(f"{prefix}.mat: duplicate (doc, term) entry")
    matrix = sp.csr_array((vals, (rows, cols)), shape=(n_docs, n_terms), dtype=np.float64)
    matrix.sort_indices()
    tdm = TermDocMatrix(matrix, tuple(vocab), tuple(doc_ids))
    tdm.validate()
    return tdm


def mat_text_by_entry(m) -> str:
    """``.mat`` text as ``write_matrix`` formatted it before, one entry at a
    time through ``int``/``float`` of each stored index and value."""
    x = m.matrix
    lines = [f"{m.n_docs} {m.n_terms} {m.nnz}"]
    for i in range(x.shape[0]):
        for p in range(x.indptr[i], x.indptr[i + 1]):
            lines.append(f"{i} {int(x.indices[p])} {float(x.data[p])!r}")
    return "\n".join(lines) + "\n"


def build_matrix_lists(docs, min_count: int = 2, doc_ids=None):
    """``build_matrix`` as it was before token interning: a ``Counter`` of
    term strings per document and three per-entry Python lists."""
    from collections import Counter

    from textpart.corpus import EmptyCorpusError, TermDocMatrix

    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if doc_ids is None:
        doc_ids = [str(i) for i in range(len(docs))]
    if len(doc_ids) != len(docs):
        raise ValueError("doc_ids length does not match docs")

    totals: Counter[str] = Counter()
    for doc in docs:
        totals.update(doc)
    vocab = sorted(t for t, c in totals.items() if c >= min_count)
    index = {t: i for i, t in enumerate(vocab)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    kept_ids: list[str] = []
    dropped: list[str] = []
    for doc, doc_id in zip(docs, doc_ids):
        counts = Counter(t for t in doc if t in index)
        if not counts:
            dropped.append(doc_id)
            continue
        i = len(kept_ids)
        kept_ids.append(doc_id)
        for term, c in sorted(counts.items()):
            rows.append(i)
            cols.append(index[term])
            vals.append(float(c))
    if not kept_ids:
        raise EmptyCorpusError("empty corpus after pruning")

    matrix = sp.csr_array(
        (vals, (rows, cols)), shape=(len(kept_ids), len(vocab)), dtype=np.float64
    )
    matrix.sort_indices()
    return TermDocMatrix(matrix, tuple(vocab), tuple(kept_ids)), dropped
