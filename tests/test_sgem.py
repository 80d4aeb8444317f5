import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from datagen import five_clusters, multinomial_corpus, two_gaussians
from oracles import sgem_run_recompute
from textpart import linalg, nmi, pddp_run, sgem, tfidf_weight
from textpart.linalg import cluster_sums, row_sq_norms
from textpart.partition import Partition
from textpart.sgem import (
    SIGMA2_FLOOR,
    SGemModel,
    complete_log_likelihood,
    e_step,
    m_step,
    sgem_run,
)


def test_e_step_nearest_centroid_under_equal_priors():
    model = SGemModel([0.5, 0.5], [[0.0, 0.0], [10.0, 0.0]], 1.0)
    X = np.array([[1.0, 0.0]])
    z = e_step(model, X, sq_norms=row_sq_norms(X))
    assert z.labels.tolist() == [0]


def test_e_step_tie_breaks_to_smallest_index():
    model = SGemModel([0.5, 0.5], [[0.0, 0.0], [10.0, 0.0]], 1.0)
    X = np.array([[5.0, 0.0]])
    z = e_step(model, X, sq_norms=row_sq_norms(X))
    assert z.labels.tolist() == [0]


def test_e_step_prior_shifts_decision():
    # scores: ln 0.9 - 3.125 = -3.2304 vs ln 0.1 - 1.125 = -3.4276 -> cluster 0
    model = SGemModel([0.9, 0.1], [[0.0], [4.0]], 1.0)
    s0 = math.log(0.9) - 2.5**2 / 2
    s1 = math.log(0.1) - 1.5**2 / 2
    assert s0 == pytest.approx(-3.2303605156578263)
    assert s1 == pytest.approx(-3.427585092994046)
    X = np.array([[2.5]])
    z = e_step(model, X, sq_norms=row_sq_norms(X))
    assert z.labels.tolist() == [0]


def test_e_step_excludes_zero_prior_clusters():
    model = SGemModel([0.0, 1.0], [[0.0], [100.0]], 1.0)
    X = np.array([[0.0]])
    z = e_step(model, X, sq_norms=row_sq_norms(X))
    assert z.labels.tolist() == [1]


def test_e_step_all_zero_priors_invalid():
    model = SGemModel([0.0, 0.0], [[0.0], [1.0]], 1.0)
    X = np.array([[0.0]])
    with pytest.raises(ValueError, match="priors"):
        e_step(model, X, sq_norms=row_sq_norms(X))


def test_m_step_single_cluster_identity():
    X = np.array([[0.0, 2.0], [2.0, 0.0], [4.0, 4.0]])
    z = Partition(np.zeros(3, dtype=int), 1)
    model = m_step(z, X, sums=cluster_sums(X, z.labels, z.k)[0], sq_norms=row_sq_norms(X))
    assert model.priors.tolist() == [1.0]
    assert model.centroids[0] == pytest.approx(X.mean(axis=0))


def test_m_step_sigma2_scalar_case():
    X = np.array([[0.0], [2.0]])
    z = Partition(np.zeros(2, dtype=int), 1)
    model = m_step(z, X, sums=cluster_sums(X, z.labels, z.k)[0], sq_norms=row_sq_norms(X))
    assert model.centroids[0] == pytest.approx([1.0])
    assert model.sigma2 == pytest.approx(1.0)


def test_m_step_priors_are_counts_over_n():
    X = np.array([[0.0], [0.1], [-0.1], [9.0]])
    z = Partition(np.array([0, 0, 0, 1]), 2)
    model = m_step(z, X, sums=cluster_sums(X, z.labels, z.k)[0], sq_norms=row_sq_norms(X))
    assert model.priors.tolist() == [0.75, 0.25]


def test_m_step_priors_sum_exactly_rationally():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(23, 3))
    z = Partition(rng.integers(0, 5, size=23), 5)
    counts = np.bincount(z.labels, minlength=5)
    if np.any(counts == 0):  # repaired case would change counts; keep the raw check
        counts = counts[counts > 0]
    assert sum(Fraction(int(c), 23) for c in counts) == 1
    model = m_step(z, X, sums=cluster_sums(X, z.labels, z.k)[0], sq_norms=row_sq_norms(X))
    assert abs(model.priors.sum() - 1.0) < 1e-12


def test_m_step_repairs_empty_cluster_with_farthest_doc():
    X = np.array([[0.0], [0.1], [5.0]])
    z = Partition(np.array([0, 0, 0]), 2)
    model = m_step(z, X, sums=cluster_sums(X, z.labels, z.k)[0], sq_norms=row_sq_norms(X))
    # doc 2 is farthest from the cluster-0 centroid and seeds cluster 1
    assert model.priors.tolist() == pytest.approx([2 / 3, 1 / 3])
    assert model.centroids[1] == pytest.approx([5.0])


def test_m_step_sigma2_floor():
    X = np.array([[1.0, 1.0], [1.0, 1.0]])
    z = Partition(np.zeros(2, dtype=int), 1)
    model = m_step(z, X, sums=cluster_sums(X, z.labels, z.k)[0], sq_norms=row_sq_norms(X))
    assert model.sigma2 == SIGMA2_FLOOR


def test_cll_zero_case():
    # one doc exactly at its centroid, sigma2 = 1/(2 pi), d = 1 -> log L_c = 0
    model = SGemModel([1.0], [[3.0]], 1.0 / (2.0 * math.pi))
    X, z = np.array([[3.0]]), Partition(np.array([0]), 1)
    value = complete_log_likelihood(model, z, sums=cluster_sums(X, z.labels, z.k)[0],
                                    sq_norms=row_sq_norms(X))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_cll_decreases_when_residuals_double():
    model = SGemModel([1.0], [[0.0]], 1.0)
    z = Partition(np.array([0, 0]), 1)
    X_near, X_far = np.array([[1.0], [-1.0]]), np.array([[2.0], [-2.0]])
    near = complete_log_likelihood(model, z, sums=cluster_sums(X_near, z.labels, z.k)[0],
                                   sq_norms=row_sq_norms(X_near))
    far = complete_log_likelihood(model, z, sums=cluster_sums(X_far, z.labels, z.k)[0],
                                  sq_norms=row_sq_norms(X_far))
    assert far < near


def test_cll_unit_prior_contributes_zero():
    model = SGemModel([1.0], [[0.0]], 1.0)
    X, z = np.array([[0.0]]), Partition(np.array([0]), 1)
    value = complete_log_likelihood(model, z, sums=cluster_sums(X, z.labels, z.k)[0],
                                    sq_norms=row_sq_norms(X))
    assert value == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_cll_finite_at_sigma_floor():
    X = np.array([[1.0], [1.0]])
    z = Partition(np.zeros(2, dtype=int), 1)
    sums, sq_norms = cluster_sums(X, z.labels, z.k)[0], row_sq_norms(X)
    model = m_step(z, X, sums=sums, sq_norms=sq_norms)
    assert model.sigma2 == SIGMA2_FLOOR
    assert np.isfinite(complete_log_likelihood(model, z, sums=sums, sq_norms=sq_norms))


def test_sgem_run_fixed_point_converges_in_one_iteration():
    X = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0)])
    X += np.random.default_rng(0).normal(scale=0.1, size=X.shape)
    init = Partition(np.array([0] * 5 + [1] * 5), 2)
    final, model, trace = sgem_run(init, X)
    assert len(trace) == 1
    assert np.array_equal(final.labels, init.labels)


def test_sgem_run_k1_trivially_converges():
    X = np.random.default_rng(1).normal(size=(8, 3))
    final, model, trace = sgem_run(Partition(np.zeros(8, dtype=int), 1), X)
    assert len(trace) == 1
    assert model.k == 1


def test_sgem_run_requires_nonempty_clusters():
    X = np.random.default_rng(1).normal(size=(4, 2))
    with pytest.raises(ValueError, match="empty cluster"):
        sgem_run(Partition(np.zeros(4, dtype=int), 2), X)


def test_sgem_refines_pddp_on_five_clusters():
    X, labels = five_clusters(0)
    tree = pddp_run(X, stop="fixed", k=5, seed=0)
    before = tree.partition()
    after, _, trace = sgem_run(before, X)
    assert nmi(after, labels) > nmi(before, labels)
    assert all(trace[i + 1] >= trace[i] - 1e-9 for i in range(len(trace) - 1))


def test_sgem_trace_monotone_across_seeds():
    for seed in range(3):
        X, _ = two_gaussians(seed, n=200)
        tree = pddp_run(X, stop="fixed", k=4, seed=seed)
        _, _, trace = sgem_run(tree.partition(), X)
        assert all(trace[i + 1] >= trace[i] - 1e-9 for i in range(len(trace) - 1))
        assert len(trace) < 100


def test_idempotence_at_convergence():
    X, _ = five_clusters(1)
    tree = pddp_run(X, stop="fixed", k=5, seed=1)
    final, _, _ = sgem_run(tree.partition(), X)
    sq_norms = row_sq_norms(X)
    once = e_step(m_step(final, X, sums=cluster_sums(X, final.labels, final.k)[0], sq_norms=sq_norms),
                  X, sq_norms=sq_norms)
    twice = e_step(m_step(once, X, sums=cluster_sums(X, once.labels, once.k)[0], sq_norms=sq_norms),
                   X, sq_norms=sq_norms)
    assert np.array_equal(once.labels, twice.labels)


# --- shared statistics: same bits, fewer passes -------------------------------

def _c9_case(stop):
    tdm, _ = multinomial_corpus(0)
    matrix = tfidf_weight(tdm)[0].matrix
    return pddp_run(matrix, stop=stop, k=8, seed=0).partition(), matrix


def _emptying_case():
    """Two blobs plus a third cluster of one doc from each: its centroid sits
    between the blobs, so the first E-step empties it and the next M-step
    must repair it."""
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0.0, 0.5, size=(20, 2)), rng.normal(10.0, 0.5, size=(20, 2))])
    labels = np.array([0] * 20 + [1] * 20)
    labels[[0, 20]] = 2
    return Partition(labels, 3), X


def _count_calls(monkeypatch, owner, name, counter):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("case", ["c9-bic", "c9-fixed", "five-clusters", "emptying", "emptying-csr"])
def test_sgem_run_matches_recompute_oracle(case, monkeypatch):
    if case.startswith("c9"):
        init, matrix = _c9_case(case[3:])
    elif case == "five-clusters":
        X, _ = five_clusters(0)
        init, matrix = pddp_run(X, stop="fixed", k=5, seed=0).partition(), X
    else:
        init, matrix = _emptying_case()
        if case == "emptying-csr":
            matrix = sp.csr_array(matrix)
    calls = {}
    _count_calls(monkeypatch, sgem, "_repair_empty_clusters", calls)
    final, model, trace = sgem_run(init, matrix)
    labels, centroids, sigma2, oracle_trace = sgem_run_recompute(init, matrix)
    assert np.array_equal(final.labels, labels)
    assert trace == oracle_trace
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.sigma2 == sigma2
    assert len(trace) > 1
    if case.startswith("emptying"):
        assert calls.get("_repair_empty_clusters", 0) >= 1
        assert np.bincount(final.labels, minlength=3).min() >= 1


@pytest.mark.parametrize("case", ["c9-bic", "emptying"])
def test_sgem_run_computes_each_statistic_once(case, monkeypatch):
    init, matrix = _c9_case("bic") if case == "c9-bic" else _emptying_case()
    calls = {}
    for name in ("cluster_sums", "row_sq_norms", "m_step", "e_step", "complete_log_likelihood"):
        _count_calls(monkeypatch, sgem, name, calls)
    # a row-norm pass made inside linalg counts too
    _count_calls(monkeypatch, linalg, "row_sq_norms", calls)
    moves = {"n": 0}
    repair = sgem._repair_empty_clusters

    def counting_moves(labels, sums, counts, *args, **kwargs):
        moves["n"] += int(np.count_nonzero(counts == 0))
        return repair(labels, sums, counts, *args, **kwargs)

    monkeypatch.setattr(sgem, "_repair_empty_clusters", counting_moves)
    _, _, trace = sgem_run(init, matrix)
    iterations = len(trace)
    assert calls["row_sq_norms"] == 1
    # one per iteration for the new labels, one for the initial partition,
    # one after each document a repair moves into an empty cluster
    assert calls["cluster_sums"] == iterations + 1 + moves["n"]
    assert calls["m_step"] == calls["e_step"] == calls["complete_log_likelihood"] == iterations
    assert (moves["n"] > 0) == (case == "emptying")


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -5.0])
def test_sgem_run_rejects_non_finite_or_negative_delta(delta):
    X, labels = two_gaussians(0, n=40)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        sgem_run(Partition(labels, 2), X, delta=delta)
