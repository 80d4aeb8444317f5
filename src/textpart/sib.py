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

Cluster statistics are kept incrementally: p(t), the per-cluster word
mass b = sum_{x in t} p(x) p(y|x) and a table of b log b are updated on
every move. The conditionals p(y|t) = b / p(t) are never materialized.
Merge costs are evaluated on the support of the drawn document via the
entropy identity

    d(x, t) = H-terms of a, b and a+b with a = p(x) p(y|x), b = p(t) p(y|t)

which costs O(K * |supp(x)|) per step. A step gathers b and b log b on
supp(x) and draws x out of its own row of that copy, so a document that
stays in its cluster writes nothing; only a move writes the two touched
rows back. I(T; Y) is read from the same table (``SibState.information``).

``SibState.__init__`` imports ``scipy.special`` and binds its ``xlogy``
once per state, so importing this module loads numpy alone and a step
pays for no import.

This module holds only these incremental forms. The definitional ones,
KL and JS divergences, d(x, t) from the conditionals and I(T; Y) of an
assignment, are the test suite's reference (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .corpus import JointDistribution
from .linalg import cluster_sums
from .partition import Partition, check_k


class SibState:
    """Incrementally maintained statistics of one K-cluster partition.

    Holds, per cluster: the prior mass ``pt``, the word mass rows
    ``word_mass`` (= sum of joint rows of the members), a cached
    ``xlogy(word_mass, word_mass)`` and the member counts.
    ``draw_and_merge`` performs one sequential step; drawing a document
    that is alone in its cluster is skipped so the partition keeps exactly
    K clusters at all times.
    """

    def __init__(self, joint: JointDistribution, assignment: np.ndarray, k: int):
        from scipy.special import xlogy

        self._xlogy = xlogy
        n = joint.n_docs
        assignment = Partition(assignment, k).labels  # raises on a label outside [0, k)
        if assignment.shape != (n,):
            raise ValueError("assignment length does not match joint")
        rows = joint.joint_rows()  # canonical, so each row's columns are sorted
        self.word_mass, self.sizes = cluster_sums(rows, assignment, k)
        if np.any(self.sizes == 0):
            raise ValueError("initial partition has an empty cluster")
        self._mass_xlogy = xlogy(self.word_mass, self.word_mass)
        self.assignment = assignment.copy()
        self.px = joint.px.copy()

        self._indptr = rows.indptr
        self._indices = rows.indices
        self._data = rows.data
        # per-document constant of the merge cost: sum_y a log a over the
        # document's support, minus p(x) log p(x)
        cum = np.concatenate([[0.0], np.cumsum(xlogy(self._data, self._data))])
        self._doc_term = cum[self._indptr[1:]] - cum[self._indptr[:-1]] - xlogy(self.px, self.px)

        self.pt = np.bincount(assignment, weights=self.px, minlength=k)

        py = joint.py()
        self._neg_h_y = float(xlogy(py, py).sum())

    def _doc_row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._indptr[x], self._indptr[x + 1]
        return self._indices[lo:hi], self._data[lo:hi]

    def _merge_costs(self, x: int) -> tuple[np.ndarray, ...]:
        """``(costs, b, b_log_b, ab, ab_log_ab)`` for document x.

        ``costs`` is d(x, t) for every cluster t, with x drawn out of its
        own. The draw-out is made on gathered copies; the state is not
        written. ``b`` is the word mass on supp(x), gathered with x's own
        row drawn out; ``ab = b + a`` the mass each cluster would hold with
        x merged in; ``b_log_b`` and ``ab_log_ab`` their xlogy. A move
        writes row ``t_old`` of ``b`` and row ``t_new`` of ``ab`` back.
        """
        xlogy = self._xlogy
        t_old = self.assignment[x]
        cols, avals = self._doc_row(x)
        px = self.px[x]
        b = self.word_mass.take(cols, axis=1)
        b_log_b = self._mass_xlogy.take(cols, axis=1)
        drawn = np.maximum(b[t_old] - avals, 0.0)
        b[t_old] = drawn
        b_log_b[t_old] = xlogy(drawn, drawn)
        ab = b + avals
        ab_log_ab = xlogy(ab, ab)
        pt = self.pt.copy()
        pt[t_old] = max(pt[t_old] - px, 0.0)
        total = pt + px
        costs = (
            self._doc_term[x]
            + (b_log_b - ab_log_ab).sum(axis=1)
            - xlogy(pt, pt)
            + xlogy(total, total)
        )
        return costs, b, b_log_b, ab, ab_log_ab

    def draw_and_merge(self, x: int) -> bool:
        """Draw document x out and re-merge it into the cheapest cluster.

        Returns True when the document changed cluster. Skips (and returns
        False) when x is its cluster's only member. A document that returns
        to its own cluster writes nothing, so every statistic stays bitwise
        as it was.
        """
        t_old = int(self.assignment[x])
        if self.sizes[t_old] == 1:
            return False
        costs, b, b_log_b, ab, ab_log_ab = self._merge_costs(x)
        t_new = int(costs.argmin())
        if t_new == t_old:
            return False
        cols = self._doc_row(x)[0]
        px = self.px[x]
        self.pt[t_old] = max(self.pt[t_old] - px, 0.0)
        self.pt[t_new] += px
        self.word_mass[t_old, cols] = b[t_old]
        self.word_mass[t_new, cols] = ab[t_new]
        self._mass_xlogy[t_old, cols] = b_log_b[t_old]
        self._mass_xlogy[t_new, cols] = ab_log_ab[t_new]
        self.sizes[t_old] -= 1
        self.sizes[t_new] += 1
        self.assignment[x] = t_new
        return True

    def information(self) -> float:
        """I(T; Y) of the current partition from the incremental statistics."""
        h_tj = float(self._mass_xlogy.sum())
        h_t = float(self._xlogy(self.pt, self.pt).sum())
        return h_tj - h_t - self._neg_h_y


def random_assignment(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random assignment with empty clusters repaired from the largest.

    Each empty cluster, lowest index first, takes the lowest-index member of
    the largest cluster (the lowest-index cluster among equals).
    """
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
) -> Partition:
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

    Each sweep builds one ``SibState``, and the winner is returned as its
    labels alone. I(T; Y) of the result is
    ``SibState(joint, part.labels, part.k).information()`` and p(t) is
    ``np.bincount(part.labels, weights=joint.px, minlength=part.k)``.
    """
    n = joint.n_docs
    check_k(k, n)
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
    return Partition(best[0], k)
