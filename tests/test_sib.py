import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from datagen import multinomial_corpus, random_joint
from oracles import (
    SibStateSequential,
    best_bipartition_information,
    cluster_stats_from_scratch,
    information_of_assignment,
    information_xy,
    js_divergence,
    kl_divergence,
    merge_cost,
    sib_run_branches,
    sib_run_sequential,
)
from textpart import JointDistribution, nmi
from textpart.cli import run_clustering
from textpart.corpus import build_matrix, tokenize, word_conditionals
from textpart.sib import SibState, random_assignment, sib_run

LOG2 = math.log(2.0)


def _information(joint, part):
    """I(T; Y) of a ``sib_run`` partition, read from a fresh ``SibState``."""
    return SibState(joint, part.labels, part.k).information()


def _priors(joint, part):
    """The cluster priors p(t) of a ``sib_run`` partition."""
    return np.bincount(part.labels, weights=joint.px, minlength=part.k)


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
    assert _information(joint, part) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_disjoint_clusters():
    joint = _two_doc_joint()
    part = sib_run(joint, 2, n_restarts=1, seed=0)
    assert _information(joint, part) == pytest.approx(LOG2)


def test_mutual_information_bounded_by_ixy():
    for seed in range(5):
        joint = random_joint(12, 6, seed=seed)
        for k in (2, 3, 5):
            part = sib_run(joint, k, n_restarts=3, seed=seed)
            assert _information(joint, part) <= information_xy(joint) + 1e-9


# --- the sequential algorithm ---------------------------------------------------

def test_sib_recovers_duplicate_row_groups():
    p = np.array([0.8, 0.1, 0.1])
    q = np.array([0.1, 0.2, 0.7])
    cond = sp.csr_array(np.vstack([p, p, p, q, q, q]))
    joint = JointDistribution(np.full(6, 1 / 6), cond)
    part = sib_run(joint, 2, n_restarts=5, seed=0)
    labels = part.labels
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]
    # grouping identical conditionals loses no information
    assert _information(joint, part) == pytest.approx(information_xy(joint), abs=1e-9)
    assert _information(joint, part) == pytest.approx(best_bipartition_information(joint), abs=1e-9)


def test_sib_k_equals_n_keeps_all_information():
    joint = random_joint(7, 5, seed=2)
    part = sib_run(joint, 7, n_restarts=1, seed=0)
    assert _information(joint, part) == pytest.approx(information_xy(joint), abs=1e-9)


def test_sib_k1_zero_information():
    joint = random_joint(9, 4, seed=3)
    part = sib_run(joint, 1, n_restarts=1, seed=0)
    assert _information(joint, part) == pytest.approx(0.0, abs=1e-12)


def test_sib_k_larger_than_n_rejected():
    joint = random_joint(4, 3, seed=1)
    with pytest.raises(ValueError):
        sib_run(joint, 5)


def test_random_assignment_moves_the_donors_first_member():
    class Draws:  # a generator stub: the uniform draw leaves cluster 2 empty
        def integers(self, low, high, size):
            return np.array([0, 0, 1, 1, 0])

    assert random_assignment(5, 3, Draws()).tolist() == [2, 0, 1, 1, 0]


def test_sib_deterministic_per_seed():
    joint = random_joint(30, 8, seed=7)
    a = sib_run(joint, 4, n_restarts=3, seed=11)
    b = sib_run(joint, 4, n_restarts=3, seed=11)
    assert np.array_equal(a.labels, b.labels)
    assert _information(joint, a) == _information(joint, b)


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
        oracle = information_of_assignment(joint, state.assignment, k)
        assert state.information() == pytest.approx(oracle, abs=1e-9)


def test_sib_no_move_draw_leaves_statistics_bitwise_unchanged():
    joint = random_joint(60, 12, seed=3)
    k = 4
    rng = np.random.default_rng(2)
    state = SibState(joint, random_assignment(60, k, rng), k)
    no_moves = 0
    for _ in range(4):
        for x in rng.permutation(60):
            before = _state_bytes(state)
            was_alone = state.sizes[state.assignment[x]] == 1
            if not state.draw_and_merge(int(x)):
                no_moves += not was_alone
                assert _state_bytes(state) == before
    assert no_moves >= 60


def _state_bytes(state):
    return (state.pt.tobytes(), state.word_mass.tobytes(), state._mass_xlogy.tobytes(),
            state.sizes.tobytes(), state.assignment.tobytes())


def test_sib_cached_xlogy_equals_the_word_mass_table_after_every_step():
    # x * log(x) differs from xlogy in the last bit on about 1 in 10^4 of
    # these masses, so the corpus is large enough for a cache updated any
    # other way to show
    joint = word_conditionals(multinomial_corpus(1, n_docs=1000)[0])
    k = 8
    rng = np.random.default_rng(5)
    state = SibState(joint, random_assignment(joint.n_docs, k, rng), k)
    moves = 0
    for _ in range(2):
        for x in rng.permutation(joint.n_docs):
            moves += state.draw_and_merge(int(x))
            assert state._mass_xlogy.tobytes() == xlogy(state.word_mass, state.word_mass).tobytes()
    assert moves >= 500


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
        pt = state.pt.copy()
        mass = state.word_mass.copy()
        pt[t_old] -= px
        mass[t_old] -= px * cond[x]
        before = _state_bytes(state)
        fast = state._merge_costs(x)[0]
        assert _state_bytes(state) == before  # the draw-out is made on copies
        for t in range(k):
            expected = merge_cost(px, cond[x], pt[t], mass[t] / pt[t])
            assert fast[t] == pytest.approx(expected, abs=1e-9)


def test_sib_small_instance_optimality_sample():
    hits = 0
    for i in range(5):
        joint = random_joint(8, 4, seed=500 + i)
        best = best_bipartition_information(joint)
        got = _information(joint, sib_run(joint, 2, n_restarts=10, seed=i))
        hits += abs(got - best) <= 1e-9
    assert hits >= 4


def test_sib_partition_statistics_invariants():
    joint = random_joint(24, 9, seed=13)
    part = sib_run(joint, 4, n_restarts=3, seed=1)
    priors = _priors(joint, part)
    assert np.all(priors > 0)
    assert abs(priors.sum() - 1.0) <= 1e-12
    pt, _ = cluster_stats_from_scratch(joint, part.labels, 4)
    assert np.abs(priors - pt).max() <= 1e-12


def test_sib_score_matches_definitional_information():
    joint = random_joint(18, 5, seed=12)
    part = sib_run(joint, 3, n_restarts=2, seed=0)
    oracle = information_of_assignment(joint, part.labels, 3)
    assert _information(joint, part) == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 25), m=st.integers(1, 6), data=st.data(), seed=st.integers(0, 1000))
def test_sib_run_returns_exactly_k_nonempty_clusters(n, m, data, seed):
    joint = random_joint(n, m, seed=seed)
    k = data.draw(st.integers(1, n))
    part = sib_run(joint, k, n_restarts=2, max_loops=3, seed=seed)
    assert part.labels.shape == (n,)
    assert np.array_equal(np.bincount(part.labels, minlength=k) > 0, np.ones(k, dtype=bool))
    init = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if len(set(init)) == k:  # refinement mode starts from a partition with no empty cluster
        refined = sib_run(joint, k, max_loops=3, seed=seed, init=np.array(init))
        assert np.all(np.bincount(refined.labels, minlength=k) > 0)


# --- the paper's pipeline: PDDP leaves reallocated by one sIB sweep ----------

@pytest.mark.parametrize("seed", range(5))
def test_pddp_sib_beats_pddp_on_the_c9_corpora(seed):
    """On C9's corpora, one sweep from the PDDP leaves raises NMI on every
    seed, and never lowers I(T;Y) below the leaves' own (each step keeps or
    raises it)."""
    tdm, labels = multinomial_corpus(seed)
    joint = word_conditionals(tdm)
    runs = {}
    for algo in ("pddp", "pddp+sib"):
        rep = run_clustering(tdm, algo, "fixed", k=8, maxl=15, seed=0)
        assert [d for d, _ in rep.assignments] == list(tdm.doc_ids)
        runs[algo] = np.array([c for _, c in rep.assignments])
    assert nmi(runs["pddp+sib"], labels) > nmi(runs["pddp"], labels)
    start = information_of_assignment(joint, runs["pddp"], 8)
    assert information_of_assignment(joint, runs["pddp+sib"], 8) >= start - 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("background", [0.6, 0.75])
def test_refinements_beat_pddp_on_overlapping_topics(background, seed):
    """Where topics overlap, PDDP alone loses much of the structure and both
    refinements win most of it back (the paper's claim). At these overlaps
    nothing saturates at NMI 1: measured, pddp read 0.489-0.672, each
    refinement 0.837-0.995, and the smallest gain was 0.238."""
    tdm, labels = multinomial_corpus(seed, background=background)
    scores = {}
    for algo in ("pddp", "pddp+sgem", "pddp+sib"):
        rep = run_clustering(tdm, algo, "fixed", k=8, restarts=6, maxl=15, seed=0)
        scores[algo] = nmi(np.array([c for _, c in rep.assignments]), labels)
    assert scores["pddp+sgem"] >= scores["pddp"] + 0.2, scores
    assert scores["pddp+sib"] >= scores["pddp"] + 0.2, scores


# --- one loop over starts, checked against the separate init path -----------

def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("joint_seed", [0, 5])
@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("max_loops, eps", [(50, 0.0), (2, 0.0), (50, 0.1), (1, 0.3)])
@pytest.mark.parametrize("with_init", [False, True])
def test_sib_run_matches_branching_oracle_bitwise(joint_seed, restarts, max_loops, eps, with_init):
    joint = random_joint(40, 12, seed=joint_seed)
    k = 5
    init = np.arange(40) % k if with_init else None
    kwargs = dict(n_restarts=restarts, max_loops=max_loops, eps=eps, seed=joint_seed + 7, init=init)
    want = sib_run_branches(joint, k, **kwargs)
    got = sib_run(joint, k, **kwargs)
    assert got.k == want.k
    assert got.labels.dtype == want.labels.dtype
    assert _bits(got.labels) == _bits(want.labels)
    assert _bits(_priors(joint, got)) == _bits(_priors(joint, want))
    assert _information(joint, got) == _information(joint, want)


@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_sib_run_builds_one_state_per_sweep(monkeypatch, restarts):
    """The winning sweep's labels are returned as they are: R restarts build
    R states, and a refinement sweep from ``init`` builds one."""
    joint = random_joint(30, 8, seed=7)
    built = []
    init_state = SibState.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init_state(self, *args, **kwargs)

    monkeypatch.setattr(SibState, "__init__", counted)
    sib_run(joint, 4, n_restarts=restarts, seed=3)
    assert len(built) == restarts
    built.clear()
    sib_run(joint, 4, n_restarts=restarts, seed=3, init=np.arange(30) % 4)
    assert len(built) == 1


@pytest.mark.parametrize("restarts", [1, 3])
def test_sib_run_stops_after_its_first_loop_with_no_change(monkeypatch, restarts):
    """With ``eps = 0`` a sweep runs whole loops of n draws and stops after
    the first loop that moves no document, long before ``max_loops``."""
    joint = random_joint(30, 8, seed=7)
    moved = []
    step = SibState.draw_and_merge

    def counted(self, x):
        moved.append(step(self, x))
        return moved[-1]

    monkeypatch.setattr(SibState, "draw_and_merge", counted)
    sib_run(joint, 4, n_restarts=restarts, max_loops=50, eps=0.0, seed=3)
    loops = np.array(moved).reshape(-1, 30).any(axis=1)  # a loop per row: did it move one?
    assert loops.size < 50 * restarts
    # each sweep's loops move a document until its last, which moves none
    sweep_ends = np.flatnonzero(~loops)
    assert sweep_ends.size == restarts and sweep_ends[-1] == loops.size - 1


@pytest.mark.parametrize("k", [None, 0, 5, 2.0, "2"])
def test_sib_rejects_k_that_is_not_an_integer_in_range(k):
    with pytest.raises(ValueError, match=r"k must be an integer in \[1, 4\]"):
        sib_run(random_joint(4, 3, seed=1), k)


@pytest.mark.parametrize("labels", [[0, 1, 1, 2], [0, 1, -1, 1]], ids=["label-k", "label-negative"])
def test_sib_rejects_a_label_outside_range(labels):
    joint = random_joint(4, 3, seed=1)
    with pytest.raises(ValueError, match="cluster index out of range"):
        SibState(joint, labels, 2)
    with pytest.raises(ValueError, match="cluster index out of range"):
        sib_run(joint, 2, init=np.array(labels))


@pytest.mark.parametrize("seed", range(6))
def test_sib_run_ties_go_to_the_first_restart(seed):
    # Four pairs of identical one-word documents with dyadic masses: every
    # restart that pairs them up scores exactly the same, whatever its labels.
    joint = JointDistribution(np.full(8, 1 / 8), sp.csr_array(np.eye(4)[np.arange(8) // 2]))
    want = sib_run_branches(joint, 4, n_restarts=4, seed=seed)
    got = sib_run(joint, 4, n_restarts=4, seed=seed)
    assert _bits(got.labels) == _bits(want.labels)
    assert _information(joint, got) == _information(joint, want)


# --- the step against the in-place step it replaced -----------------------------

def _c10_joint():
    """The acceptance test C10's corpus: 60 lines over three word pools."""
    rng = np.random.default_rng(0)
    pools = (["kernel", "driver", "memory", "thread", "stack"],
             ["pitch", "goal", "league", "coach", "match"],
             ["tensor", "gradient", "epoch", "layer", "batch"])
    lines = [" ".join(rng.choice(pools[i % 3], size=14).tolist()) for i in range(60)]
    tdm, _ = build_matrix([tokenize(line) for line in lines], min_count=2)
    return word_conditionals(tdm), 3


_ORACLE_CORPORA = {
    "c9": lambda seed: (word_conditionals(multinomial_corpus(seed)[0]), 8),
    "c10": lambda seed: _c10_joint(),
    "s3k": lambda seed: (word_conditionals(multinomial_corpus(
        seed, n_docs=3000, n_topics=20, vocab_size=1000)[0]), 20),
}


def _assert_same_partition(joint, got, want):
    """Equal labels, and equal I(T; Y) from each side's own state class."""
    assert _bits(got.labels) == _bits(want.labels)
    assert _information(joint, got) == SibStateSequential(joint, want.labels, want.k).information()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("corpus", sorted(_ORACLE_CORPORA))
def test_sib_run_matches_in_place_step_oracle_bitwise(corpus, seed):
    joint, k = _ORACLE_CORPORA[corpus](seed)
    kwargs = dict(n_restarts=2, max_loops=3, seed=seed)
    _assert_same_partition(joint, sib_run(joint, k, **kwargs),
                           sib_run_sequential(joint, k, **kwargs))
    init = np.arange(joint.n_docs) % k
    kwargs = dict(max_loops=3, seed=seed, init=init)
    _assert_same_partition(joint, sib_run(joint, k, **kwargs),
                           sib_run_sequential(joint, k, **kwargs))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20), m=st.integers(1, 6), alpha=st.sampled_from([0.05, 0.5, 2.0]),
       data=st.data(), seed=st.integers(0, 1000))
def test_sib_run_matches_in_place_step_oracle_on_small_joints(n, m, alpha, data, seed):
    joint = random_joint(n, m, seed=seed, alpha=alpha)
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)))
    kwargs = dict(n_restarts=2, max_loops=4, seed=seed)
    _assert_same_partition(joint, sib_run(joint, k, **kwargs),
                           sib_run_sequential(joint, k, **kwargs))
    # singleton clusters: every cluster but the last holds one document
    init = np.minimum(np.arange(n), k - 1)
    kwargs = dict(max_loops=4, seed=seed, init=init)
    _assert_same_partition(joint, sib_run(joint, k, **kwargs),
                           sib_run_sequential(joint, k, **kwargs))
