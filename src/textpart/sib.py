"""Sequential information-bottleneck clustering of documents by word statistics.

Documents are clustered so that the compressed variable T keeps as much
mutual information I(T; Y) about the words Y as possible. The sequential
procedure maintains exactly K clusters: at every step one document x is
drawn out of its cluster and re-merged into the cluster minimizing the
information loss

    d(x, t) = (p(x) + p(t)) * JS(p(y|x), p(y|t))

with the Jensen-Shannon weights {p(x), p(t)} / (p(x) + p(t)). Because the
reduced source cluster competes in the argmin, each step either raises
I(T; Y) or leaves the partition unchanged, so the score converges to a
local maximum; several seeded restarts keep the best partition found.

Cluster statistics are kept incrementally: p(t) and the per-cluster word
mass sum_{x in t} p(x) p(y|x) are updated on every draw/merge, and the
conditionals p(y|t) are materialized only when needed. Merge costs are
evaluated on the support of the drawn document via the entropy identity

    d(x, t) = H-terms of a, b and a+b with a = p(x) p(y|x), b = p(t) p(y|t)

which costs O(K * |supp(x)|) per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .corpus import JointDistribution
from .linalg import cluster_sums
from .partition import Partition


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


@dataclass
class IBPartition:
    """A hard partition with its bottleneck statistics.

    ``pt[j]`` is the cluster prior sum_{x in j} p(x); ``py_given_t[j]`` the
    cluster word conditional; ``score`` the retained information I(T; Y).
    """

    k: int
    assignment: np.ndarray
    pt: np.ndarray
    py_given_t: np.ndarray
    score: float


def mutual_information(part: IBPartition, joint: JointDistribution) -> float:
    """I(T; Y) = sum_{t,y} p(t) p(y|t) log(p(y|t) / p(y)), natural log."""
    py = joint.py()
    with np.errstate(divide="ignore"):
        log_py = np.where(py > 0, np.log(np.maximum(py, 1e-300)), 0.0)
    q = part.py_given_t
    per_cluster = xlogy(q, q).sum(axis=1) - (q * log_py[None, :]).sum(axis=1)
    return float((part.pt * per_cluster).sum())


def information_xy(joint: JointDistribution) -> float:
    """I(X; Y) of the joint itself: the ceiling for any partition's I(T; Y)."""
    rows = joint.joint_rows()
    py = joint.py()
    h_joint = float(xlogy(rows.data, rows.data).sum())
    h_x = float(xlogy(joint.px, joint.px).sum())
    h_y = float(xlogy(py, py).sum())
    return h_joint - h_x - h_y


class SibState:
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

    def py_given_t(self) -> np.ndarray:
        return self.word_mass / np.maximum(self.pt[:, None], 1e-300)

    def to_partition(self) -> IBPartition:
        return IBPartition(
            self.k, self.assignment.copy(), self.pt.copy(), self.py_given_t(), self.information()
        )


def random_assignment(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random assignment with empty clusters repaired from the largest."""
    assignment = rng.integers(0, k, size=n)
    counts = np.bincount(assignment, minlength=k)
    while np.any(counts == 0):
        empty = int(np.nonzero(counts == 0)[0][0])
        donor = int(np.argmax(counts))
        mover = int(np.nonzero(assignment == donor)[0][0])
        assignment[mover] = empty
        counts[donor] -= 1
        counts[empty] += 1
    return assignment


def _run_single(
    joint: JointDistribution,
    k: int,
    assignment: np.ndarray,
    max_loops: int,
    eps: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    n = joint.n_docs
    state = SibState(joint, assignment, k)
    loops = 0
    while True:
        changes = 0
        for x in rng.permutation(n):
            if state.draw_and_merge(int(x)):
                changes += 1
        loops += 1
        if loops >= max_loops or changes <= eps * n:
            break
    return state.assignment, state.information()


def sib_run(
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
    that assignment, with a generator seeded by ``seed`` itself, instead of
    random restarts.
    """
    n = joint.n_docs
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    if max_loops < 1:
        raise ValueError("max_loops must be >= 1")

    root = np.random.SeedSequence(seed)
    if init is None:
        rngs = map(np.random.default_rng, root.spawn(n_restarts))
        starts = ((random_assignment(n, k, rng), rng) for rng in rngs)
    else:
        starts = [(np.asarray(init, dtype=np.int64), np.random.default_rng(root))]
    best = None
    for start, rng in starts:
        result = _run_single(joint, k, start, max_loops, eps, rng)
        if best is None or result[1] > best[1]:
            best = result
    return SibState(joint, best[0], k).to_partition()
