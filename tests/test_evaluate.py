import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from textpart.evaluate import nmi
from textpart.partition import Partition


def test_identity_partition_scores_one():
    labels = ["a", "a", "b", "b", "c"]
    clusters = [0, 0, 1, 1, 2]
    assert nmi(np.array(clusters), np.array(labels)) == pytest.approx(1.0, abs=1e-9)


def test_hand_case_is_exactly_zero():
    labels = np.array(["A", "A", "B", "B"])
    clusters = np.array([1, 2, 1, 2])
    assert nmi(clusters, labels) == 0.0


def test_single_cluster_convention():
    labels = np.array(["A", "A", "B", "B"])
    assert nmi(np.zeros(4, dtype=int), labels) == 0.0


def test_single_category_convention():
    labels = np.array(["A", "A", "A", "A"])
    assert nmi(np.array([0, 1, 0, 1]), labels) == 0.0


def test_no_documents_score_zero():
    assert nmi(np.array([], dtype=int), np.array([], dtype=int)) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        nmi(np.array([0, 1]), np.array(["a"]))


def test_accepts_partition_objects():
    part = Partition(np.array([0, 0, 1, 1]), 2)
    assert nmi(part, np.array(["x", "x", "y", "y"])) == pytest.approx(1.0, abs=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=120)
    clusters = rng.integers(0, 5, size=120)
    base = nmi(clusters, labels)
    for _ in range(5):
        perm = rng.permutation(5)
        assert abs(nmi(perm[clusters], labels) - base) < 1e-12


def test_symmetry():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, size=90)
    b = rng.integers(0, 3, size=90)
    assert abs(nmi(a, b) - nmi(b, a)) < 1e-12


def test_range_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(5, 150))
        a = rng.integers(0, int(rng.integers(2, 8)), size=n)
        b = rng.integers(0, int(rng.integers(2, 8)), size=n)
        v = nmi(a, b)
        assert -1e-12 <= v <= 1.0 + 1e-9


def test_hand_case_normalises_by_the_geometric_mean():
    # I = 3 ln(4/3) / 4, H(C) = ln 2, H(L) = (3 ln(4/3) + ln 4) / 4; the
    # arithmetic mean of the entropies would give about 0.34371
    clusters, labels = [0, 0, 1, 1], ["a", "a", "a", "b"]
    mi = 3 * math.log(4 / 3)
    want = mi / math.sqrt((mi + math.log(4)) * 4 * math.log(2))
    assert want == pytest.approx(0.34559, abs=5e-6)
    assert nmi(np.array(clusters), np.array(labels)) == pytest.approx(want, rel=1e-12)
    assert oracles.nmi(clusters, labels) == pytest.approx(want, rel=1e-12)


def test_matches_the_pair_count_oracle_on_random_labelings():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 120))
        clusters = rng.integers(0, int(rng.integers(1, 8)), size=n)
        labels = rng.choice(list("abcdefg")[:int(rng.integers(1, 8))], size=n)
        want = oracles.nmi(clusters.tolist(), labels.tolist())
        assert nmi(clusters, labels) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_matches_sklearn_geometric_nmi():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(10, 200))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 4, size=n)
        if len(set(a.tolist())) < 2 or len(set(b.tolist())) < 2:
            continue
        ref = sklearn_metrics.normalized_mutual_info_score(b, a, average_method="geometric")
        assert nmi(a, b) == pytest.approx(ref, abs=1e-9)


# --- properties ----------------------------------------------------------------

_LABELINGS = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 6), min_size=n, max_size=n),
    st.lists(st.sampled_from("abcdefgh"), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(pair=_LABELINGS)
def test_nmi_is_symmetric_and_bounded(pair):
    clusters, categories = np.array(pair[0]), np.array(pair[1])
    forward = nmi(clusters, categories)
    assert abs(forward - nmi(categories, clusters)) <= 1e-12
    assert 0.0 <= forward <= 1.0


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.integers(0, 6), min_size=2, max_size=60))
def test_nmi_of_a_labelling_with_itself_is_one(labels):
    labels = np.array(labels)
    assume(np.unique(labels).size > 1)
    assert nmi(labels, labels) == 1.0


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 9), max_size=50), extra=st.integers(0, 3))
def test_partition_sizes_sum_to_n(labels, extra):
    labels = np.array(labels, dtype=np.int64)
    part = Partition(labels, (int(labels.max()) + 1 if labels.size else 1) + extra)
    sizes = part.sizes()
    assert sizes.shape == (part.k,)
    assert int(sizes.sum()) == part.n_docs == labels.size
    assert np.count_nonzero(sizes) == np.unique(labels).size
