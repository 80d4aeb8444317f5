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
        d2 = sq_distances(rows, c)[:, 0]
        return ClusterStats(members, c, float(np.sqrt(d2).mean()), float(d2.sum()))

    def total_scatter_sq(rows, center):
        return float(sq_distances(rows, center)[:, 0].sum())

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
# verbatim; only the names and the imports differ. The package's stages
# (``pddp_run``, ``sgem_run``, ``SibState``) are checked on their own
# elsewhere, so reports and partitions can be compared bit for bit.


def sib_run_branches(
    joint: JointDistribution,
    k: int,
    n_restarts: int = 10,
    max_loops: int = 50,
    eps: float = 0.0,
    seed: int = 0,
    init: np.ndarray | None = None,
) -> IBPartition:
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
    from textpart.sib import SibState, _run_single, random_assignment

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
        state = SibState(joint, assignment, k)
        return state.to_partition()

    results = []
    for sub_seed in np.random.SeedSequence(seed).spawn(n_restarts):
        rng = np.random.default_rng(sub_seed)
        start = random_assignment(n, k, rng)
        results.append(_run_single(joint, k, start, max_loops, eps, rng))

    best = 0
    for i in range(1, n_restarts):
        if results[i][1] > results[best][1]:
            best = i
    state = SibState(joint, results[best][0], k)
    return state.to_partition()


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
        part = Partition(ib.assignment, k_run)
        params.extend([("k", str(k_run)), ("restarts", str(restarts)),
                       ("maxl", str(maxl)), ("eps", repr(eps))])
    elif algo == "pddp+sib":
        tree = pddp_run(matrix, stop=stop, k=k, seed=seed)
        init = tree.partition()
        ib = sib_run(joint, init.k, max_loops=maxl, eps=eps, seed=seed, init=init.labels)
        part = Partition(ib.assignment, init.k)
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
        k_found=int(np.unique(labels).size),
        time_seconds=elapsed,
        tree=report_mod.tree_records(tree) if tree is not None else None,
        assignments=[(doc_id, int(c)) for doc_id, c in zip(tdm.doc_ids, labels)],
    )
    return rep
