import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import random_joint
from oracles import (
    best_bipartition_information,
    cluster_stats_from_scratch,
    information_of_assignment,
)
from textpart import JointDistribution
from textpart.sib import (
    SibState,
    information_xy,
    js_divergence,
    kl_divergence,
    merge_cost,
    mutual_information,
    random_assignment,
    sib_run,
)

LOG2 = math.log(2.0)


# --- divergences -------------------------------------------------------------

def test_kl_self_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_point_mass_vs_uniform():
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(LOG2)


def test_kl_support_violation():
    with pytest.raises(ValueError, match="supp"):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_js_identical_arguments():
    p = np.array([0.7, 0.3])
    assert js_divergence(p, p, 0.4, 0.6) == pytest.approx(0.0, abs=1e-15)


def test_js_disjoint_supports_equal_weights():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert js_divergence(p, q, 0.5, 0.5) == pytest.approx(LOG2)


def test_js_degenerate_weight():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert js_divergence(p, q, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_js_weights_must_sum_to_one():
    p = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        js_divergence(p, p, 0.5, 0.6)


# --- merge cost --------------------------------------------------------------

def test_merge_cost_identical_conditionals():
    p = np.array([0.25, 0.75])
    assert merge_cost(0.1, p, 0.4, p) == pytest.approx(0.0, abs=1e-15)


def test_merge_cost_hand_value():
    cost = merge_cost(0.25, np.array([1.0, 0.0]), 0.25, np.array([0.0, 1.0]))
    assert cost == pytest.approx(0.5 * LOG2)
    assert cost == pytest.approx(0.34657359027997264)


def test_merge_cost_homogeneous_in_masses():
    p = np.array([0.9, 0.1])
    q = np.array([0.2, 0.8])
    base = merge_cost(0.2, p, 0.3, q)
    for c in (0.5, 2.0, 3.7):
        assert merge_cost(0.2 * c, p, 0.3 * c, q) == pytest.approx(c * base)


def test_merge_cost_empty_target_is_free():
    assert merge_cost(0.25, np.array([1.0, 0.0]), 0.0, np.array([0.0, 0.0])) == 0.0


# --- mutual information --------------------------------------------------------

def _two_doc_joint():
    cond = sp.csr_array(np.array([[1.0, 0.0], [0.0, 1.0]]))
    return JointDistribution(np.array([0.5, 0.5]), cond)


def test_mutual_information_independent_clusters():
    joint = random_joint(6, 4, seed=0)
    # a single cluster always has p(y|t) = p(y)
    part = sib_run(joint, 1, n_restarts=1, seed=0)
    assert part.score == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(part, joint) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_disjoint_clusters():
    joint = _two_doc_joint()
    part = sib_run(joint, 2, n_restarts=1, seed=0)
    assert mutual_information(part, joint) == pytest.approx(LOG2)


def test_mutual_information_bounded_by_ixy():
    for seed in range(5):
        joint = random_joint(12, 6, seed=seed)
        for k in (2, 3, 5):
            part = sib_run(joint, k, n_restarts=3, seed=seed)
            assert mutual_information(part, joint) <= information_xy(joint) + 1e-9


# --- the sequential algorithm ---------------------------------------------------

def test_sib_recovers_duplicate_row_groups():
    p = np.array([0.8, 0.1, 0.1])
    q = np.array([0.1, 0.2, 0.7])
    cond = sp.csr_array(np.vstack([p, p, p, q, q, q]))
    joint = JointDistribution(np.full(6, 1 / 6), cond)
    part = sib_run(joint, 2, n_restarts=5, seed=0)
    labels = part.assignment
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]
    # grouping identical conditionals loses no information
    assert part.score == pytest.approx(information_xy(joint), abs=1e-9)
    assert part.score == pytest.approx(best_bipartition_information(joint), abs=1e-9)


def test_sib_k_equals_n_keeps_all_information():
    joint = random_joint(7, 5, seed=2)
    part = sib_run(joint, 7, n_restarts=1, seed=0)
    assert part.score == pytest.approx(information_xy(joint), abs=1e-9)


def test_sib_k1_zero_information():
    joint = random_joint(9, 4, seed=3)
    part = sib_run(joint, 1, n_restarts=1, seed=0)
    assert part.score == pytest.approx(0.0, abs=1e-12)


def test_sib_k_larger_than_n_rejected():
    joint = random_joint(4, 3, seed=1)
    with pytest.raises(ValueError):
        sib_run(joint, 5)


def test_sib_deterministic_per_seed():
    joint = random_joint(30, 8, seed=7)
    a = sib_run(joint, 4, n_restarts=3, seed=11)
    b = sib_run(joint, 4, n_restarts=3, seed=11)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.score == b.score


def test_sib_step_monotonicity_and_exact_k():
    joint = random_joint(40, 10, seed=4)
    k = 5
    rng = np.random.default_rng(9)
    state = SibState(joint, random_assignment(40, k, rng), k)
    prev = state.information()
    for _ in range(3):
        for x in rng.permutation(40):
            state.draw_and_merge(int(x))
            cur = state.information()
            assert cur >= prev - 1e-9
            prev = cur
            assert int((state.sizes > 0).sum()) == k


def test_sib_incremental_stats_match_scratch():
    joint = random_joint(35, 7, seed=6)
    k = 4
    rng = np.random.default_rng(1)
    state = SibState(joint, random_assignment(35, k, rng), k)
    for _ in range(4):
        for x in rng.permutation(35):
            state.draw_and_merge(int(x))
        pt, mass = cluster_stats_from_scratch(joint, state.assignment, k)
        assert np.abs(state.pt - pt).max() < 1e-9
        assert np.abs(state.word_mass - mass).max() < 1e-9


def test_sib_no_move_draw_leaves_statistics_bitwise_unchanged():
    joint = random_joint(60, 12, seed=3)
    k = 4
    rng = np.random.default_rng(2)
    state = SibState(joint, random_assignment(60, k, rng), k)
    no_moves = 0
    for _ in range(4):
        for x in rng.permutation(60):
            before = (state.pt.tobytes(), state.word_mass.tobytes(), state.sizes.tobytes())
            was_alone = state.sizes[state.assignment[x]] == 1
            if not state.draw_and_merge(int(x)):
                no_moves += not was_alone
                assert (state.pt.tobytes(), state.word_mass.tobytes(), state.sizes.tobytes()) == before
    assert no_moves >= 60


def test_sib_merge_costs_match_definition():
    joint = random_joint(20, 6, seed=8)
    k = 3
    rng = np.random.default_rng(3)
    state = SibState(joint, random_assignment(20, k, rng), k)
    cond = joint.py_given_x.toarray()
    for x in (0, 5, 19):
        t_old = int(state.assignment[x])
        if state.sizes[t_old] == 1:
            continue
        px = joint.px[x]
        state.pt[t_old] -= px
        state.word_mass[t_old] -= px * cond[x]
        state.sizes[t_old] -= 1
        fast = state.merge_costs_from(x)
        for t in range(k):
            expected = merge_cost(px, cond[x], state.pt[t], state.py_given_t()[t])
            assert fast[t] == pytest.approx(expected, abs=1e-9)
        state.pt[t_old] += px
        state.word_mass[t_old] += px * cond[x]
        state.sizes[t_old] += 1


def test_sib_small_instance_optimality_sample():
    hits = 0
    for i in range(5):
        joint = random_joint(8, 4, seed=500 + i)
        best = best_bipartition_information(joint)
        got = sib_run(joint, 2, n_restarts=10, seed=i).score
        hits += abs(got - best) <= 1e-9
    assert hits >= 4


def test_sib_partition_statistics_invariants():
    joint = random_joint(24, 9, seed=13)
    part = sib_run(joint, 4, n_restarts=3, seed=1)
    assert np.all(part.pt > 0)
    assert abs(part.pt.sum() - 1.0) <= 1e-12
    row_sums = part.py_given_t.sum(axis=1)
    assert np.abs(row_sums - 1.0).max() <= 1e-9
    pt, mass = cluster_stats_from_scratch(joint, part.assignment, 4)
    assert np.abs(part.py_given_t - mass / pt[:, None]).max() <= 1e-9


def test_sib_score_matches_definitional_information():
    joint = random_joint(18, 5, seed=12)
    part = sib_run(joint, 3, n_restarts=2, seed=0)
    oracle = information_of_assignment(joint, part.assignment, 3)
    assert part.score == pytest.approx(oracle, abs=1e-9)
    assert mutual_information(part, joint) == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 25), m=st.integers(1, 6), data=st.data(), seed=st.integers(0, 1000))
def test_sib_run_returns_exactly_k_nonempty_clusters(n, m, data, seed):
    joint = random_joint(n, m, seed=seed)
    k = data.draw(st.integers(1, n))
    part = sib_run(joint, k, n_restarts=2, max_loops=3, seed=seed)
    assert part.assignment.shape == (n,)
    assert np.array_equal(np.bincount(part.assignment, minlength=k) > 0, np.ones(k, dtype=bool))
    init = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if len(set(init)) == k:  # refinement mode starts from a partition with no empty cluster
        refined = sib_run(joint, k, max_loops=3, seed=seed, init=np.array(init))
        assert np.all(np.bincount(refined.assignment, minlength=k) > 0)
