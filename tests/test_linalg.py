import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import multinomial_corpus, near_tied_cloud, random_joint
from oracles import cluster_sums_loop, dense_covariance, row_sq_norms_multiply, top_eigvec_dense
from textpart import linalg
from textpart.corpus import read_matrix, tfidf_weight, write_matrix
from textpart.linalg import (
    ClusterStats,
    ConvergenceError,
    DegenerateClusterError,
    centroid,
    cluster_sums,
    principal_direction,
    row_sq_norms,
    sq_distances,
)
from textpart.model_select import bic_score
from textpart.partition import Partition
from textpart.pddp import pddp_run
from textpart.sgem import complete_log_likelihood, m_step
from textpart.sib import SibState


def test_centroid_midpoint():
    assert centroid(np.array([[0.0, 0.0], [2.0, 2.0]])).tolist() == [1.0, 1.0]


def test_centroid_single_row_identity():
    r = np.array([[3.0, -1.0, 2.0]])
    assert centroid(r).tolist() == [3.0, -1.0, 2.0]


def test_centroid_hand_sum():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert centroid(rows) == pytest.approx([0.0, 0.0])


def test_centroid_sparse_matches_dense():
    rng = np.random.default_rng(0)
    X = rng.random((10, 6)) * (rng.random((10, 6)) > 0.5)
    assert centroid(sp.csr_array(X)) == pytest.approx(centroid(X))


def test_centroid_empty_errors():
    with pytest.raises(ValueError):
        centroid(np.zeros((0, 3)))


def test_scatter_symmetric_pair():
    assert ClusterStats.from_rows(np.array([[0.0], [2.0]]), [0, 1]).scatter == 1.0


def test_scatter_single_point_is_zero():
    assert ClusterStats.from_rows(np.array([[4.0, 4.0]]), [0]).scatter == 0.0


def test_scatter_half_hypotenuse():
    rows = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert ClusterStats.from_rows(rows, [0, 1]).scatter == pytest.approx(2.5)


def test_cluster_stats_sse():
    stats = ClusterStats.from_rows(np.array([[0.0], [2.0]]), [0, 1])
    assert stats.sse == pytest.approx(2.0)
    assert stats.scatter == pytest.approx(1.0)


@pytest.mark.parametrize("step", ["m_step", "complete_log_likelihood", "SibState", "bic_score"])
def test_each_step_reads_the_cluster_sizes_of_one_cluster_sums_call(step, monkeypatch):
    """A cluster size is an unweighted ``np.bincount`` of the labels. The sGEM
    steps take theirs from the caller's ``cluster_sums``; ``SibState`` and
    ``bic_score`` take theirs from their own single ``cluster_sums`` call."""
    rng = np.random.default_rng(3)
    X = rng.random((12, 3))
    labels = np.arange(12) % 3
    part = Partition(labels, 3)
    sums, counts = cluster_sums(X, labels, 3)
    stats = {"sums": sums, "counts": counts, "sq_norms": row_sq_norms(X)}
    model = m_step(part, X, **stats)
    joint = random_joint(12, 5, seed=0)
    counters = []
    bincount = np.bincount

    def recording(x, weights=None, minlength=0):
        if weights is None:
            counters.append(sys._getframe(1).f_globals["__name__"])
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", recording)
    if step == "m_step":
        m_step(part, X, **stats)
    elif step == "complete_log_likelihood":
        complete_log_likelihood(model, part, **stats)
    elif step == "SibState":
        SibState(joint, labels, 3)
    else:
        bic_score(part, X)
    assert counters == ([] if step in ("m_step", "complete_log_likelihood") else ["textpart.linalg"])


@pytest.mark.parametrize("sparse", [False, True])
def test_cluster_sums_matches_loop_oracle(sparse):
    rng = np.random.default_rng(5)
    X = rng.random((30, 7)) * (rng.random((30, 7)) > 0.4)
    labels = rng.integers(0, 4, size=30)
    labels[labels == 2] = 3  # cluster 2 stays empty
    M = sp.csr_array(X) if sparse else X
    sums, counts = cluster_sums(M, labels, 5)
    ref_sums, ref_counts = cluster_sums_loop(M, labels, 5)
    assert sums.shape == (5, 7)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(sums, ref_sums)  # same summation order, so bitwise equal
    assert not sums[2].any() and not sums[4].any() and counts[2] == counts[4] == 0


@st.composite
def _labelled_rows(draw):
    """A matrix (dense, or CSR with some rows' column indices reversed),
    labels that leave some clusters empty, and k up to 3 beyond the
    largest label."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 6))
    values = st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([0.1, 1 / 3, 1e-300, 7e15])
    cells = draw(st.lists(values, min_size=n * d, max_size=n * d))
    X = np.array(cells).reshape(n, d)
    X[np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))).reshape(n, d)] = 0.0
    X[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0  # empty rows
    labels = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=np.int64)
    k = int(labels.max()) + 1 + draw(st.integers(0, 3))
    if not draw(st.booleans()):
        return X, labels, k
    M = sp.csr_array(X)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        lo, hi = M.indptr[i], M.indptr[i + 1]
        M.indices[lo:hi], M.data[lo:hi] = M.indices[lo:hi][::-1].copy(), M.data[lo:hi][::-1].copy()
    M.has_sorted_indices = False
    return M, labels, k


@settings(max_examples=300, deadline=None)
@given(case=_labelled_rows())
def test_cluster_sums_matches_loop_oracle_bitwise(case):
    M, labels, k = case
    sums, counts = cluster_sums(M, labels, k)
    ref_sums, ref_counts = cluster_sums_loop(M, labels, k)
    assert sums.shape == ref_sums.shape == (k, M.shape[1])
    assert np.array_equal(counts, ref_counts)
    assert sums.tobytes() == ref_sums.tobytes()


@st.composite
def _csr_rows(draw):
    """A CSR matrix with stored zeros, values whose squares underflow,
    empty rows, int32 or int64 index arrays and, in some cases, rows whose
    entries are out of column order or repeat a column."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(0, 10), min_size=n_rows, max_size=n_rows))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    nnz = sum(sizes)
    indices = np.array(draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)), dtype=dtype)
    value = st.sampled_from([0.0, 1e-170, 0.1, 1 / 3, 0.7, 1e100]) | st.floats(-10.0, 10.0)
    data = np.array(draw(st.lists(value, min_size=nnz, max_size=nnz)), dtype=float)
    indptr = np.cumsum([0] + sizes).astype(dtype)
    M = sp.csr_array((data, indices, indptr), shape=(n_rows, n_cols))
    if draw(st.booleans()):
        M.sum_duplicates()  # canonical: sorted columns, none repeated
    return M


@settings(max_examples=300, deadline=None)
@given(M=_csr_rows())
def test_row_sq_norms_and_centroid_match_scipy_bitwise(M):
    norms = linalg.row_sq_norms(M)
    expected = row_sq_norms_multiply(M)
    assert norms.dtype == expected.dtype and norms.tobytes() == expected.tobytes()
    # the centroid is sGEM's: the cluster sum of the rows over their count
    n = M.shape[0]
    mean = cluster_sums(M, np.zeros(n, dtype=np.int64), 1)[0][0] / n
    assert centroid(M).tobytes() == mean.tobytes()
    dense = M.toarray()
    if dense.shape[1] > 1:  # numpy sums a single column pairwise
        dense_mean = cluster_sums(dense, np.zeros(n, dtype=np.int64), 1)[0][0] / n
        assert centroid(dense).tobytes() == dense_mean.tobytes()
    counts = sp.csr_array((np.round(np.clip(M.data, -1e6, 1e6)).astype(np.int64), M.indices, M.indptr),
                          shape=M.shape)
    for ints in (counts, counts.toarray()):
        assert centroid(ints).tobytes() == centroid(ints.astype(float)).tobytes()


def _peak_bytes(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tfidf_as_read(tmp_path_factory):
    """A 4000 x 1000 tf-idf matrix, weighted from the counts as ``textpart
    cluster`` reads them (int64 index arrays)."""
    prefix = tmp_path_factory.mktemp("m") / "m"
    write_matrix(multinomial_corpus(0, n_docs=4000, vocab_size=1000)[0], prefix)
    return tfidf_weight(read_matrix(prefix))[0].matrix


def test_row_sq_norms_peak_memory_is_a_third_of_the_multiply_oracle(tfidf_as_read):
    """The squares alone, against scipy's product with room for twice the entries."""
    peak, expected = (_peak_bytes(f, tfidf_as_read) for f in (linalg.row_sq_norms, row_sq_norms_multiply))
    assert 3 * peak <= expected, f"peak {peak} bytes against the oracle's {expected}"


def test_root_cluster_stats_peak_memory_is_half_a_gathered_copys(tfidf_as_read):
    """Every row in order reads the matrix itself; every row in reverse
    order gathers a copy of it first."""
    rows = np.arange(tfidf_as_read.shape[0])
    peak, gathered = (_peak_bytes(ClusterStats.from_rows, tfidf_as_read, members)
                      for members in (rows, rows[::-1]))
    assert 2 * peak <= gathered, f"peak {peak} bytes against the gathered copy's {gathered}"


def test_scatter_translation_invariance():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(20, 4))
    shift = np.array([10.0, -3.0, 0.5, 100.0])
    before = ClusterStats.from_rows(rows, np.arange(20)).scatter
    after = ClusterStats.from_rows(rows + shift, np.arange(20)).scatter
    assert abs(before - after) < 1e-9


def test_scatter_empty_errors():
    with pytest.raises(ValueError):
        ClusterStats.from_rows(np.zeros((0, 2)), [])


def test_sq_distances_matches_direct():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 5))
    C = rng.normal(size=(3, 5))
    direct = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    assert sq_distances(X, C, sq_norms=row_sq_norms(X)) == pytest.approx(direct)
    assert sq_distances(sp.csr_array(X), C, sq_norms=row_sq_norms(X)) == pytest.approx(direct)


def _stats(rows) -> ClusterStats:
    """The stats of a whole row set, which ``principal_direction`` requires."""
    return ClusterStats.from_rows(rows, np.arange(rows.shape[0]))


def test_principal_direction_requires_the_row_sets_stats():
    rows = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])
    with pytest.raises(TypeError, match="stats"):
        principal_direction(rows, 0)


def test_principal_direction_dominant_axis():
    rows = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])
    u = principal_direction(rows, seed=0, stats=_stats(rows))
    assert abs(u @ np.array([1.0, 0.0])) >= 1 - 1e-6
    assert u[0] > 0  # sign convention: first nonzero coordinate positive


def test_principal_direction_closed_form_2x2():
    # points engineered so the covariance is [[2, 1], [1, 2]]
    s = np.sqrt(3.0)
    rows = np.array([[s, s], [-s, -s], [1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(dense_covariance(rows), [[2.0, 1.0], [1.0, 2.0]])
    u = principal_direction(rows, seed=1, stats=_stats(rows))
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(u @ expected) >= 1 - 1e-6
    assert u[0] > 0 and u[1] > 0


def test_principal_direction_identical_rows_degenerate():
    rows = np.array([[1.0, 2.0], [1.0, 2.0]])
    stats = _stats(rows)
    with pytest.raises(DegenerateClusterError):
        principal_direction(rows, seed=0, stats=stats)


def test_principal_direction_unit_norm_and_residual():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        d = int(rng.integers(2, 30))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        u = principal_direction(X, seed=int(rng.integers(0, 1 << 30)), stats=_stats(X))
        assert abs(np.linalg.norm(u) - 1.0) < 1e-9
        C = dense_covariance(X)
        lam = u @ C @ u
        assert np.linalg.norm(C @ u - lam * u) <= 1e-6


def test_principal_direction_matches_eigh_oracle():
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(4, 80))
        d = int(rng.integers(2, 20))
        X = rng.normal(size=(n, d))
        u = principal_direction(X, seed=int(rng.integers(0, 1 << 30)), stats=_stats(X))
        assert abs(u @ top_eigvec_dense(X)) >= 1 - 1e-6


def test_principal_direction_sparse_rows():
    rng = np.random.default_rng(12)
    X = rng.random((30, 8)) * (rng.random((30, 8)) > 0.6)
    rows = sp.csr_array(X)
    u = principal_direction(rows, seed=3, stats=_stats(rows))
    assert abs(u @ top_eigvec_dense(X)) >= 1 - 1e-6


def test_principal_direction_range_property_fixes_sign_on_support():
    # no row uses column 0, so the direction must be exactly 0 there and its
    # sign is fixed on column 1, the first coordinate in the support
    rng = np.random.default_rng(21)
    X = rng.random((40, 12)) * (rng.random((40, 12)) > 0.5)
    X[:, 0] = 0.0
    X[:, 1] = rng.random(40) + 0.5
    rows = sp.csr_array(X)
    for seed in range(5):
        u = principal_direction(rows, seed=seed, stats=_stats(rows))
        assert u[0] == 0.0
        assert u[1] > 0
        assert abs(u @ top_eigvec_dense(X)) >= 1 - 1e-6


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_principal_direction_constant_column_does_not_decide_the_sign(sparse):
    # column 0 is constant, so its covariance coordinate is rounding noise;
    # the sign must be fixed on column 1 for every seed and storage format.
    # Column 2 stores equal values in only some rows, so it varies.
    X = np.array([[5.0, 0.0, 3.0], [5.0, 1.0, 3.0], [5.0, 2.0, 3.0], [5.0, 4.0, 0.0]])
    rows = sp.csr_array(X) if sparse else X
    for seed in range(4):
        u = principal_direction(rows, seed=seed, stats=_stats(rows))
        assert u[0] == 0
        assert u[1] > 0
        assert abs(u @ top_eigvec_dense(X)) >= 1 - 1e-12


class _NullStartGenerator(np.random.Generator):
    """A real generator whose first ``uniform`` draw is a fixed vector."""

    def __init__(self, first):
        super().__init__(np.random.PCG64(0))
        self.first = np.asarray(first, dtype=float)
        self.draws = 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        if self.draws == 1:
            return self.first.copy()
        return super().uniform(*args, **kwargs)


def test_principal_direction_redraws_start_in_null_space():
    # the rows vary only along x, so the start (0, 1) lies in the null space of C
    rows = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
    rng = _NullStartGenerator([0.0, 1.0])
    u = principal_direction(rows, seed=rng, stats=_stats(rows))
    assert rng.draws == 2
    assert np.all(np.isfinite(u))
    assert u[0] == pytest.approx(1.0) and abs(u[1]) < 1e-12


def test_principal_direction_raises_when_restart_budget_is_spent(monkeypatch):
    X = near_tied_cloud(0)
    assert abs(principal_direction(X, seed=0, stats=_stats(X)) @ top_eigvec_dense(X)) >= 1 - 1e-3
    monkeypatch.setattr(linalg, "_MAX_RESTARTS", 1)
    with pytest.raises(ConvergenceError):
        principal_direction(X, seed=0, stats=_stats(X))
    with pytest.raises(ConvergenceError):  # not taken for a degenerate cluster
        pddp_run(X, stop="fixed", k=2, seed=0)


@pytest.mark.parametrize("value", [1e78, 1.2e154])
def test_principal_direction_of_bare_rows_refuses_rows_beyond_the_magnitude_bound(value):
    """The rows of the CLI's bound test, given straight to the eigen-solve
    through their stats: the CLI's message, naming the row, and no numpy
    warning on the way."""
    rows = sp.csr_array(np.array([[value, 0.0, 0.0], [value, 0.0, 0.0],
                                  [1.0, 0.0, 1.0], [0.0, 2.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^document at row 0: its squared norm \S+ is above "
                                             r"3\.35e\+153, the largest PDDP can split without overflow$"):
            principal_direction(rows, seed=0, stats=ClusterStats.from_rows(rows, np.arange(4)))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("value, cause", [(np.nan, "holds a value that is not finite"),
                                          (np.inf, "holds a value that is not finite"),
                                          (-np.inf, "holds a value that is not finite"),
                                          (1e200, "its squared norm overflows float64")])
def test_cluster_stats_name_the_row_and_its_fault(value, cause, sparse):
    """A 6 x 3 array with one bad value at row 2: the stats that the
    eigen-solve requires refuse it, with no numpy warning; a subset names
    the row by its index in the matrix, not in the subset."""
    X = np.random.default_rng(5).random((6, 3))
    X[2, 1] = value
    rows = sp.csr_array(X) if sparse else X
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^document at row 2: {cause}$"):
            principal_direction(rows, seed=0, stats=ClusterStats.from_rows(rows, np.arange(6)))
        with pytest.raises(ValueError, match=f"^document at row 2: {cause}$"):
            ClusterStats.from_rows(rows, np.array([4, 2, 0]))
