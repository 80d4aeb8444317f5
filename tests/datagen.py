"""Synthetic datasets shared by the unit and acceptance tests.

Parameters are frozen: the acceptance thresholds were validated against
exactly these generators.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from textpart import JointDistribution, TermDocMatrix


def two_gaussians(seed: int, n: int = 1000, gap: float = 8.0):
    """1000 2-D points in two unit Gaussians, centers ``gap`` sigmas apart."""
    rng = np.random.default_rng(seed)
    n1 = n // 2
    a = rng.normal(size=(n1, 2))
    b = rng.normal(size=(n - n1, 2)) + [gap, 0.0]
    return np.vstack([a, b]), np.array([0] * n1 + [1] * (n - n1))


def five_clusters(seed: int, sigma: float = 0.6):
    """334 2-D points in five compact clusters; the central one straddles
    the first principal hyperplane (which is roughly the x = 0 line)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-6.0, -4.0], [-6.0, 4.0], [6.0, -4.0], [6.0, 4.0], [0.0, 0.0]])
    sizes = [67, 67, 67, 67, 66]
    points, labels = [], []
    for c, (ctr, size) in enumerate(zip(centers, sizes)):
        points.append(rng.normal(size=(size, 2)) * sigma + ctr)
        labels.extend([c] * size)
    return np.vstack(points), np.array(labels)


def multinomial_corpus(
    seed: int,
    n_docs: int = 2000,
    n_topics: int = 8,
    vocab_size: int = 300,
    alpha: float = 0.04,
    background: float = 0.35,
):
    """Balanced topic corpus: per-topic Dirichlet word distributions mixed
    with a uniform background, short multinomial documents."""
    rng = np.random.default_rng(seed)
    topic_word = rng.dirichlet(np.full(vocab_size, alpha), size=n_topics)
    topic_word = (1.0 - background) * topic_word + background / vocab_size
    labels = np.arange(n_docs) % n_topics
    lengths = 12 + rng.poisson(18, size=n_docs)
    rows = np.zeros((n_docs, vocab_size))
    for i in range(n_docs):
        rows[i] = rng.multinomial(lengths[i], topic_word[labels[i]])
    vocab = tuple(f"w{j:04d}" for j in range(vocab_size))
    doc_ids = tuple(str(i) for i in range(n_docs))
    return TermDocMatrix(sp.csr_array(rows), vocab, doc_ids), labels


def random_joint(n: int, m: int, seed: int, alpha: float = 0.5) -> JointDistribution:
    """Uniform document prior with Dirichlet word conditionals."""
    rng = np.random.default_rng(seed)
    cond = rng.dirichlet(np.full(m, alpha), size=n)
    return JointDistribution(np.full(n, 1.0 / n), sp.csr_array(cond))


def near_tied_cloud(seed: int):
    """200 centered 60-D points whose covariance is exactly diagonal with
    eigenvalues 1, 1 - 1e-6, then evenly spaced from 0.9 down to 0.1: the
    top eigenpair is nearly tied, so one short Krylov cycle cannot resolve it."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(200, 60))
    q, _ = np.linalg.qr(z - z.mean(axis=0))
    lam = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.9, 0.1, 58)])
    return np.sqrt(200) * q * np.sqrt(lam)


def dense_matrix(rows: np.ndarray, shift: float = 0.0) -> TermDocMatrix:
    """Wrap a dense point set as a TermDocMatrix (optionally shifted so all
    values are nonnegative, which the matrix file format requires)."""
    rows = np.asarray(rows, dtype=float) + shift
    if rows.min() < 0:
        raise ValueError("shift the data into the nonnegative orthant first")
    n, d = rows.shape
    vocab = tuple(f"dim{j}" for j in range(d))
    doc_ids = tuple(str(i) for i in range(n))
    return TermDocMatrix(sp.csr_array(rows), vocab, doc_ids)
