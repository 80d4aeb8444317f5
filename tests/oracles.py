"""Reference implementations used to check the library.

Two kinds of code live here. The definitional references are brute force:
dense covariance eigendecompositions, exhaustive bipartition enumeration,
from-scratch statistic recomputation, I(T; Y) of an assignment, and the
KL and JS divergences and merge cost d(x, t) from the conditionals. None
of these shares code with the package paths it verifies.

The rest are kept copies of code the package replaced (for example
``pddp_run_recompute``, ``sib_run_sequential``, ``run_clustering_branches``
and ``sib_run_branches``). They reuse package stages on purpose:
``pddp_run``, ``sgem_run``, ``SibState``, ``cluster_sums``, the tree types
and the corpus types, each checked on its own elsewhere. So only the
replaced step or flow is under test, and its output can be compared with
the package's bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import xlogy

from textpart.linalg import cluster_sums
from textpart.partition import Partition


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


def information_xy(joint) -> float:
    """I(X; Y) of the joint: the information of the all-singletons assignment,
    the ceiling for any partition's I(T; Y)."""
    n = joint.n_docs
    return information_of_assignment(joint, np.arange(n), n)


def best_bipartition_information(joint) -> float:
    """Maximum I(T;Y) over all 2^(n-1) - 1 bipartitions (doc 0 pinned left)."""
    n = joint.n_docs
    best = -np.inf
    for mask in range(1, 2 ** (n - 1)):
        assignment = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.int64)
        best = max(best, information_of_assignment(joint, assignment, 2))
    return best


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence sum_y p log(p/q), natural log, 0 log 0 = 0.

    Requires supp(p) a subset of supp(q); raises ValueError otherwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValueError("KL divergence undefined: supp(p) not within supp(q)")
    pm = p[mask]
    return float(np.sum(pm * (np.log(pm) - np.log(q[mask]))))


def js_divergence(p: np.ndarray, q: np.ndarray, pi1: float, pi2: float) -> float:
    """Weighted Jensen-Shannon divergence pi1 KL(p||m) + pi2 KL(q||m), m = pi1 p + pi2 q."""
    if pi1 < 0 or pi2 < 0 or abs(pi1 + pi2 - 1.0) > 1e-12:
        raise ValueError("JS weights must be nonnegative and sum to 1")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mix = pi1 * p + pi2 * q
    out = 0.0
    if pi1 > 0:
        out += pi1 * kl_divergence(p, mix)
    if pi2 > 0:
        out += pi2 * kl_divergence(q, mix)
    return out


def merge_cost(px: float, py_x: np.ndarray, pt: float, py_t: np.ndarray) -> float:
    """Information lost by absorbing singleton x into cluster t.

    d(x, t) = (p(x) + p(t)) * JS(p(y|x), p(y|t)) with JS weights
    p(x)/(p(x)+p(t)) and p(t)/(p(x)+p(t)). An empty target (p(t) = 0)
    costs nothing.
    """
    if pt == 0.0:
        return 0.0
    total = px + pt
    return total * js_divergence(py_x, py_t, px / total, pt / total)


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
    """Per-cluster row sums (k, d) and counts (k,), one fancy-indexed slice per
    cluster. Dense rows are added one at a time in ascending order: numpy's
    ``sum(axis=0)`` adds a single column pairwise, in another order."""
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, matrix.shape[1]))
    for j in range(k):
        idx = np.nonzero(labels == j)[0]
        if not idx.size:
            continue
        rows = matrix[idx]
        if sp.issparse(rows):
            sums[j] = np.asarray(rows.sum(axis=0)).ravel()
        else:
            for row in rows:
                sums[j] += row
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
    or a ``MemoryError``. A file that is not valid UTF-8 raises a
    ``ValueError`` naming it; it used to escape as a bare
    ``UnicodeDecodeError``. A negative value raises a ``ValueError`` naming
    the file and its line, checked right after the non-finite values; it
    used to be checked last, by a ``TermDocMatrix`` method whose message
    named no file. A doc id that repeats an earlier line of ``.docs``
    raises a ``ValueError`` naming that file and both lines, checked after
    the header shape; it used to be accepted."""
    from pathlib import Path

    from textpart.corpus import TermDocMatrix

    def read_text(path):
        try:
            return Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc

    prefix = Path(prefix)
    text = read_text(f"{prefix}.mat").splitlines()
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
    bad = np.flatnonzero(vals < 0)
    if bad.size:
        raise ValueError(f"{prefix}.mat: negative value on line {bad[0] + 2}")
    if nnz:
        if rows.min() < 0 or rows.max() >= n_docs or cols.min() < 0 or cols.max() >= n_terms:
            raise ValueError(f"{prefix}.mat: entry index out of range")
    vocab = read_text(f"{prefix}.vocab").splitlines()
    doc_ids = read_text(f"{prefix}.docs").splitlines()
    if n_docs != len(doc_ids) or n_terms != len(vocab):
        raise ValueError(f"{prefix}.mat: header shape {n_docs} x {n_terms} disagrees with "
                         f"{len(doc_ids)} doc ids and {len(vocab)} terms")
    for line, doc_id in enumerate(doc_ids, 1):
        first = doc_ids.index(doc_id) + 1
        if first != line:
            raise ValueError(f"{prefix}.docs: doc id {doc_id!r} on line {line} repeats line {first}")
    if nnz and len(set(zip(rows.tolist(), cols.tolist()))) != nnz:
        raise ValueError(f"{prefix}.mat: duplicate (doc, term) entry")
    matrix = sp.csr_array((vals, (rows, cols)), shape=(n_docs, n_terms), dtype=np.float64)
    matrix.sort_indices()
    return TermDocMatrix(matrix, tuple(vocab), tuple(doc_ids))


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


# The four functions below are the weighting and norm code as it was before
# it worked on the CSR arrays: each product goes through scipy's broadcasting
# ``multiply``, and ``tfidf_weight`` copies the matrix for ``counts > 0``,
# ``eliminate_zeros`` and the kept rows. Their bodies are copied verbatim;
# only the names differ.


def row_sq_norms_multiply(rows) -> np.ndarray:
    """Squared L2 norm of every row, shape (n_rows,)."""
    if sp.issparse(rows):
        return np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
    rows = np.asarray(rows, dtype=float)
    return np.einsum("ij,ij->i", rows, rows)


def tfidf_weight_multiply(m):
    """Replace raw counts by L2-normalized tf-idf weights."""
    from textpart.corpus import TermDocMatrix

    counts = m.matrix
    n = m.n_docs
    if n < 1:
        raise ValueError("tfidf_weight needs at least one document")
    df = np.asarray((counts > 0).sum(axis=0)).ravel()
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(n / np.maximum(df, 1)), 0.0)

    weighted = sp.csr_array(counts.multiply(idf[None, :]))
    weighted.eliminate_zeros()

    row_norms = np.sqrt(row_sq_norms_multiply(weighted))
    keep = row_norms > 0
    dropped = [m.doc_ids[i] for i in np.nonzero(~keep)[0]]
    weighted = weighted[keep]
    inv = 1.0 / row_norms[keep]
    weighted = sp.csr_array(weighted.multiply(inv[:, None]))
    weighted.sort_indices()
    kept_ids = tuple(d for d, k in zip(m.doc_ids, keep) if k)
    return TermDocMatrix(weighted, m.vocab, kept_ids), dropped


def word_conditionals_multiply(m):
    """Normalize raw counts into p(y|x) rows with uniform p(x) = 1/n."""
    from textpart.corpus import JointDistribution

    counts = m.matrix
    totals = np.asarray(counts.sum(axis=1)).ravel()
    if np.any(totals <= 0):
        raise ValueError("empty document")
    cond = sp.csr_array(counts.multiply(1.0 / totals[:, None]))
    cond.sort_indices()
    px = np.full(m.n_docs, 1.0 / m.n_docs)
    return JointDistribution(px, cond)


def joint_rows_multiply(joint) -> sp.csr_array:
    """Rows of p(x, y) = p(x) p(y|x)."""
    scaled = joint.py_given_x.multiply(joint.px[:, None])
    return sp.csr_array(scaled)


def pddp_run_recompute(matrix, stop: str = "fixed", k: int | None = None, seed: int = 0):
    """PDDP with every split computing its own statistics (no sharing).

    A copy of ``pddp_run`` before the node statistics were shared: each
    split re-slices its node's rows and computes their centroid three times
    (node stats, split, eigen-solve), their row norms twice and their
    residual twice. The eigen-solve is the Lanczos loop of that version,
    copied verbatim. It uses the package's tree types, row primitives,
    ``select_leaf`` and stopping rules (checked on their own elsewhere), so
    its tree can be compared with ``pddp_run``'s node for node, bit for bit.
    Before each split it derives the leaves afresh with ``tree.leaves()``,
    so that comparison also checks the leaf list ``pddp_run`` keeps as the
    tree grows against a scan of every node.
    """
    from textpart import model_select
    from textpart.linalg import (
        _DEGENERATE_REL_TOL,
        _KRYLOV_DIM,
        _MAX_RESTARTS,
        ClusterStats,
        ConvergenceError,
        DegenerateClusterError,
        _constant_columns,
        centroid,
        row_sq_norms,
        sq_distances,
    )
    from textpart.pddp import ClusterTree, TreeNode, select_leaf

    def stats_from_rows(members):
        members = np.asarray(members, dtype=np.intp)
        rows = matrix[members]
        c = centroid(rows)
        d2 = sq_distances(rows, c, sq_norms=row_sq_norms(rows))[:, 0]
        return ClusterStats(members, c, float(np.sqrt(d2).mean()), float(d2.sum()),
                            float(row_sq_norms(rows).max()))

    def total_scatter_sq(rows, center):
        return float(sq_distances(rows, center, sq_norms=row_sq_norms(rows))[:, 0].sum())

    def principal_direction(rows, seed=0):
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
        u[_constant_columns(rows, rows_t)] = 0.0
        nz = np.nonzero(u)[0]
        if nz.size and u[nz[0]] < 0:
            u = -u
        return u

    def split_cluster(members, seed=0):
        members = np.asarray(members, dtype=np.intp)
        if members.size < 2:
            raise ValueError("cannot split a cluster with fewer than 2 members")
        rows = matrix[members]
        w = centroid(rows)
        u = principal_direction(rows, seed)
        proj = np.asarray(rows @ u).ravel() - float(w @ u)
        left = members[proj <= 0]
        right = members[proj > 0]
        if left.size == 0 or right.size == 0:
            raise RuntimeError("internal error: hyperplane split produced an empty side")
        return left, right, u

    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    tree = ClusterTree()
    tree.nodes.append(TreeNode(0, None, 0, stats_from_rows(np.arange(n, dtype=np.intp))))
    while True:
        leaves = tree.leaves()
        if stop == "fixed" and len(leaves) >= k:
            break
        if stop == "csv" and model_select.csv_stop(leaves):
            break
        node = select_leaf(leaves)
        if node is None:
            if stop in ("fixed", "csv"):
                tree.warning = True  # rule never fired
            break
        nid = node.node_id
        try:
            left, right, _ = split_cluster(node.stats.members, rng)
        except DegenerateClusterError:
            node.final = True
            continue
        children = [stats_from_rows(side) for side in (left, right)]
        if stop == "bic":
            others = [leaf.stats for leaf in leaves if leaf.node_id != nid]
            if not model_select.bic_split_test(
                    [s.size for s in others], [s.sse for s in others], node.stats, *children):
                node.final = True
                continue
        for stats in children:
            tree.nodes.append(TreeNode(len(tree.nodes), nid, node.depth + 1, stats))
        node.left = tree.nodes[-2].node_id
        node.right = tree.nodes[-1].node_id
    return tree


# The two functions below are the pipeline flow as it was written before
# ``run_clustering`` and ``sib_run`` became one flow each: one branch per
# algorithm, and a separate ``init`` path in sIB. Their bodies are copied
# verbatim; only the names and the imports differ, and sIB's winner is
# returned as a ``Partition`` of its labels, as ``sib_run`` returns it. The
# package's stages (``pddp_run``, ``sgem_run``, ``SibState``) are checked on
# their own elsewhere, so reports and partitions can be compared bit for bit.


def sib_run_branches(
    joint: JointDistribution,
    k: int,
    n_restarts: int = 10,
    max_loops: int = 50,
    eps: float = 0.0,
    seed: int = 0,
    init: np.ndarray | None = None,
) -> Partition:
    """Cluster the joint's documents into exactly ``k`` clusters.

    Runs ``n_restarts`` independent sweeps from random partitions (each
    restart owns a sub-seed derived from ``seed``) and keeps the partition
    with the largest I(T; Y); ties go to the lowest restart index. A sweep
    visits the documents in a fresh seeded permutation per loop and stops
    after a loop with at most ``eps * n`` changes (``eps = 0``: a loop with
    no change) or after ``max_loops`` loops.

    When ``init`` is given (refinement mode) a single sweep is run from
    that assignment instead of random restarts.
    """
    from textpart.sib import _run_single, random_assignment

    n = joint.n_docs
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    if max_loops < 1:
        raise ValueError("max_loops must be >= 1")

    if init is not None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        assignment, _ = _run_single(joint, k, np.asarray(init, dtype=np.int64), max_loops, eps, rng)
        return Partition(assignment, k)

    results = []
    for sub_seed in np.random.SeedSequence(seed).spawn(n_restarts):
        rng = np.random.default_rng(sub_seed)
        start = random_assignment(n, k, rng)
        results.append(_run_single(joint, k, start, max_loops, eps, rng))

    best = 0
    for i in range(1, n_restarts):
        if results[i][1] > results[best][1]:
            best = i
    return Partition(results[best][0], k)


def run_clustering_branches(
    tdm: TermDocMatrix,
    algo: str,
    stop: str,
    k: int | None = None,
    delta: float | None = None,
    restarts: int = 10,
    maxl: int = 50,
    eps: float = 0.0,
    seed: int = 0,
    weighting: str = "tfidf",
) -> report_mod.RunReport:
    """Run one clustering configuration and assemble its report.

    The reported wall-clock time covers the clustering phase only (not
    matrix loading or weighting transforms).
    """
    import sys
    import time

    from textpart import report as report_mod
    from textpart.cli import _subset_docs
    from textpart.corpus import tfidf_weight, word_conditionals
    from textpart.partition import Partition
    from textpart.pddp import pddp_run
    from textpart.sgem import sgem_run

    sib_run = sib_run_branches

    if weighting == "tfidf":
        weighted, dropped = tfidf_weight(tdm)
        if dropped:
            for d in dropped:
                print(f"dropped document with no informative terms: {d}", file=sys.stderr)
            tdm = _subset_docs(tdm, set(weighted.doc_ids))
    elif weighting == "none":
        weighted = tdm
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighted.n_docs < 2:
        raise ValueError("fewer than 2 documents remain after weighting")

    matrix = weighted.matrix
    needs_joint = algo in ("sib", "pddp+sib")
    joint = word_conditionals(tdm) if needs_joint else None

    params: list[tuple[str, str]] = [("stop", stop), ("weighting", weighting)]
    tree = None
    started = time.perf_counter()

    if algo == "pddp":
        tree = pddp_run(matrix, stop=stop, k=k, seed=seed)
        part = tree.partition()
        if stop == "fixed":
            params.append(("k", str(k)))
    elif algo == "pddp+sgem":
        tree = pddp_run(matrix, stop=stop, k=k, seed=seed)
        part, _, _ = sgem_run(tree.partition(), matrix, delta=delta)
        if stop == "fixed":
            params.append(("k", str(k)))
        params.append(("delta", repr(delta) if delta is not None else "auto"))
    elif algo == "sib":
        if stop == "fixed":
            k_run = k
        else:
            tree = pddp_run(matrix, stop=stop, seed=seed)
            k_run = len(tree.leaves())
        ib = sib_run(joint, k_run, n_restarts=restarts, max_loops=maxl, eps=eps, seed=seed)
        part = Partition(ib.labels, k_run)
        params.extend([("k", str(k_run)), ("restarts", str(restarts)),
                       ("maxl", str(maxl)), ("eps", repr(eps))])
    elif algo == "pddp+sib":
        tree = pddp_run(matrix, stop=stop, k=k, seed=seed)
        init = tree.partition()
        ib = sib_run(joint, init.k, max_loops=maxl, eps=eps, seed=seed, init=init.labels)
        part = Partition(ib.labels, init.k)
        if stop == "fixed":
            params.append(("k", str(k)))
        params.extend([("maxl", str(maxl)), ("eps", repr(eps))])
    else:
        raise ValueError(f"unknown algorithm {algo!r}")

    elapsed = time.perf_counter() - started
    if tree is not None and tree.warning:
        print("warning: leaves exhausted before the stopping rule fired", file=sys.stderr)

    labels = part.labels
    rep = report_mod.RunReport(
        algorithm=algo,
        seed=seed,
        params=params,
        time_seconds=elapsed,
        tree=report_mod.tree_records(tree) if tree is not None else None,
        assignments=[(doc_id, int(c)) for doc_id, c in zip(tdm.doc_ids, labels)],
    )
    return rep


# The sIB step as it was before the cluster word mass's xlogy was cached:
# the document is drawn out of its cluster in place, ``merge_costs_from``
# scores the mutated state, and the pre-draw values are restored when the
# document stays. The class body is copied verbatim; only its name differs,
# and it has no ``to_partition``, as ``SibState`` has none.
# ``sib_run_sequential`` is ``sib_run`` driving this state.


class SibStateSequential:
    """Incrementally maintained statistics of one K-cluster partition.

    Holds, per cluster: the prior mass ``pt``, the word mass rows
    ``word_mass`` (= sum of joint rows of the members) and the member
    counts. ``draw_and_merge`` performs one sequential step; drawing a
    document that is alone in its cluster is skipped so the partition
    keeps exactly K clusters at all times.
    """

    def __init__(self, joint: JointDistribution, assignment: np.ndarray, k: int):
        n = joint.n_docs
        assignment = Partition(assignment, k).labels  # raises on a label outside [0, k)
        if assignment.shape != (n,):
            raise ValueError("assignment length does not match joint")
        if np.any(np.bincount(assignment, minlength=k) == 0):
            raise ValueError("initial partition has an empty cluster")
        self.k = k
        self.assignment = assignment.copy()
        self.px = joint.px.copy()

        rows = joint.joint_rows()
        rows.sort_indices()
        self._indptr = rows.indptr
        self._indices = rows.indices
        self._data = rows.data
        # per-document cached sum_y a log a over the document's support
        cum = np.concatenate([[0.0], np.cumsum(xlogy(self._data, self._data))])
        self._doc_entropy_term = cum[self._indptr[1:]] - cum[self._indptr[:-1]]

        self.pt = np.bincount(assignment, weights=self.px, minlength=k)
        self.word_mass, self.sizes = cluster_sums(rows, assignment, k)

        py = joint.py()
        self._neg_h_y = float(xlogy(py, py).sum())

    def _doc_row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._indptr[x], self._indptr[x + 1]
        return self._indices[lo:hi], self._data[lo:hi]

    def merge_costs_from(self, x: int) -> np.ndarray:
        """Cost vector d(x, t) for all clusters, with x already drawn out."""
        cols, avals = self._doc_row(x)
        px = self.px[x]
        b = self.word_mass[:, cols]
        ab = b + avals[None, :]
        support_terms = (xlogy(b, b) - xlogy(ab, ab)).sum(axis=1)
        pt = self.pt
        total = pt + px
        return (
            self._doc_entropy_term[x]
            - xlogy(px, px)
            + support_terms
            - xlogy(pt, pt)
            + xlogy(total, total)
        )

    def draw_and_merge(self, x: int) -> bool:
        """Draw document x out and re-merge it into the cheapest cluster.

        Returns True when the document changed cluster. Skips (and returns
        False) when x is its cluster's only member. A document that returns
        to its own cluster leaves ``pt`` and ``word_mass`` bitwise as they
        were: the pre-draw values are restored, since adding the document
        back to the reduced cluster need not give the same bits.
        """
        t_old = int(self.assignment[x])
        if self.sizes[t_old] == 1:
            return False
        cols, avals = self._doc_row(x)
        px = self.px[x]
        pt_old = self.pt[t_old]
        mass_old = self.word_mass[t_old, cols]
        self.pt[t_old] = max(pt_old - px, 0.0)
        self.word_mass[t_old, cols] = np.maximum(mass_old - avals, 0.0)

        t_new = int(np.argmin(self.merge_costs_from(x)))

        if t_new == t_old:
            self.pt[t_old] = pt_old
            self.word_mass[t_old, cols] = mass_old
            return False
        self.sizes[t_old] -= 1
        self.pt[t_new] += px
        self.word_mass[t_new, cols] += avals
        self.sizes[t_new] += 1
        self.assignment[x] = t_new
        return True

    def information(self) -> float:
        """I(T; Y) of the current partition from the incremental statistics."""
        h_tj = float(xlogy(self.word_mass, self.word_mass).sum())
        h_t = float(xlogy(self.pt, self.pt).sum())
        return h_tj - h_t - self._neg_h_y


def sib_run_sequential(
    joint: JointDistribution,
    k: int,
    n_restarts: int = 10,
    max_loops: int = 50,
    eps: float = 0.0,
    seed: int = 0,
    init: np.ndarray | None = None,
) -> Partition:
    """``sib_run`` with every step taken by ``SibStateSequential``."""
    from textpart.sib import random_assignment

    n = joint.n_docs
    root = np.random.SeedSequence(seed)
    if init is None:
        rngs = map(np.random.default_rng, root.spawn(n_restarts))
        starts = ((random_assignment(n, k, rng), rng) for rng in rngs)
    else:
        starts = [(np.asarray(init, dtype=np.int64), np.random.default_rng(root))]
    best = None
    for start, rng in starts:
        state = SibStateSequential(joint, start, k)
        loops = 0
        while True:
            changes = 0
            for x in rng.permutation(n):
                if state.draw_and_merge(int(x)):
                    changes += 1
            loops += 1
            if loops >= max_loops or changes <= eps * n:
                break
        result = (state.assignment, state.information())
        if best is None or result[1] > best[1]:
            best = result
    return Partition(best[0], k)
