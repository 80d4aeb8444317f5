import numpy as np
import pytest
import scipy.sparse as sp

from datagen import near_tied_cloud
from oracles import cluster_sums_loop, dense_covariance, top_eigvec_dense
from textpart import linalg
from textpart.linalg import (
    ClusterStats,
    ConvergenceError,
    DegenerateClusterError,
    centroid,
    cluster_sums,
    principal_direction,
    scatter_value,
    sq_distances,
)
from textpart.pddp import pddp_run


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
    assert scatter_value(np.array([[0.0], [2.0]]), np.array([1.0])) == 1.0


def test_scatter_single_point_is_zero():
    assert scatter_value(np.array([[4.0, 4.0]]), np.array([4.0, 4.0])) == 0.0


def test_scatter_half_hypotenuse():
    rows = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert scatter_value(rows, np.array([1.5, 2.0])) == pytest.approx(2.5)


def test_cluster_stats_sse():
    stats = ClusterStats.from_rows(np.array([[0.0], [2.0]]), [0, 1])
    assert stats.sse == pytest.approx(2.0)
    assert stats.scatter == pytest.approx(1.0)


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


def test_scatter_translation_invariance():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(20, 4))
    c = centroid(rows)
    shift = np.array([10.0, -3.0, 0.5, 100.0])
    before = scatter_value(rows, c)
    after = scatter_value(rows + shift, c + shift)
    assert abs(before - after) < 1e-9


def test_scatter_empty_errors():
    with pytest.raises(ValueError):
        scatter_value(np.zeros((0, 2)), np.zeros(2))


def test_sq_distances_matches_direct():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 5))
    C = rng.normal(size=(3, 5))
    direct = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    assert sq_distances(X, C) == pytest.approx(direct)
    assert sq_distances(sp.csr_array(X), C) == pytest.approx(direct)


def test_principal_direction_dominant_axis():
    rows = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])
    u = principal_direction(rows, seed=0)
    assert abs(u @ np.array([1.0, 0.0])) >= 1 - 1e-6
    assert u[0] > 0  # sign convention: first nonzero coordinate positive


def test_principal_direction_closed_form_2x2():
    # points engineered so the covariance is [[2, 1], [1, 2]]
    s = np.sqrt(3.0)
    rows = np.array([[s, s], [-s, -s], [1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(dense_covariance(rows), [[2.0, 1.0], [1.0, 2.0]])
    u = principal_direction(rows, seed=1)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(u @ expected) >= 1 - 1e-6
    assert u[0] > 0 and u[1] > 0


def test_principal_direction_identical_rows_degenerate():
    with pytest.raises(DegenerateClusterError):
        principal_direction(np.array([[1.0, 2.0], [1.0, 2.0]]), seed=0)


def test_principal_direction_unit_norm_and_residual():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        d = int(rng.integers(2, 30))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        u = principal_direction(X, seed=int(rng.integers(0, 1 << 30)))
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
        u = principal_direction(X, seed=int(rng.integers(0, 1 << 30)))
        assert abs(u @ top_eigvec_dense(X)) >= 1 - 1e-6


def test_principal_direction_sparse_rows():
    rng = np.random.default_rng(12)
    X = rng.random((30, 8)) * (rng.random((30, 8)) > 0.6)
    u = principal_direction(sp.csr_array(X), seed=3)
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
        u = principal_direction(rows, seed=seed)
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
        u = principal_direction(rows, seed=seed)
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
    u = principal_direction(rows, seed=rng)
    assert rng.draws == 2
    assert np.all(np.isfinite(u))
    assert u[0] == pytest.approx(1.0) and abs(u[1]) < 1e-12


def test_principal_direction_raises_when_restart_budget_is_spent(monkeypatch):
    X = near_tied_cloud(0)
    assert abs(principal_direction(X, seed=0) @ top_eigvec_dense(X)) >= 1 - 1e-3
    monkeypatch.setattr(linalg, "_MAX_RESTARTS", 1)
    with pytest.raises(ConvergenceError):
        principal_direction(X, seed=0)
    with pytest.raises(ConvergenceError):  # not taken for a degenerate cluster
        pddp_run(X, stop="fixed", k=2, seed=0)
