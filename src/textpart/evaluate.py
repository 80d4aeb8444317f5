"""Clustering quality against gold labels: normalized mutual information."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import Partition


@dataclass(frozen=True)
class Contingency:
    """Category x cluster co-occurrence counts with marginals."""

    counts: np.ndarray  # (n_categories, n_clusters)

    @classmethod
    def from_pairs(cls, categories, clusters) -> "Contingency":
        categories = np.asarray(categories)
        clusters = np.asarray(clusters)
        if categories.shape != clusters.shape:
            raise ValueError("categories and clusters must have the same length")
        _, hi = np.unique(categories, return_inverse=True)
        _, li = np.unique(clusters, return_inverse=True)
        counts = np.zeros((hi.max() + 1 if hi.size else 0, li.max() + 1 if li.size else 0), dtype=np.int64)
        np.add.at(counts, (hi, li), 1)
        return cls(counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def category_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def cluster_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def nmi(partition, labels) -> float:
    """Normalized mutual information between a clustering and gold categories.

    NMI = sum_{h,l} n_hl log(n n_hl / (n_h n_l))
          / sqrt((sum_h n_h log(n_h/n)) (sum_l n_l log(n_l/n)))

    with natural logs and 0 log 0 = 0. Equals 1 when the clustering matches
    the categories exactly; by convention 0 when either side has a single
    block (the formula is 0/0 there). Cluster ids and category names may be
    any hashable values; only the induced blocks matter.

    Every term is built from the same logs, log n_hl - log n_h - log n_l +
    log n against log n_h - log n, so a labelling scored against itself
    gives a numerator that is exactly minus each denominator, hence exactly
    1. Rounding elsewhere is clipped to [0, 1], where NMI lies.
    """
    clusters = partition.labels if isinstance(partition, Partition) else np.asarray(partition)
    labels = np.asarray(labels)
    if clusters.shape != labels.shape:
        raise ValueError("partition and labels must cover the same documents")
    table = Contingency.from_pairs(labels, clusters)
    n = table.n
    if n == 0:
        return 0.0
    nh = table.category_totals().astype(float)
    nl = table.cluster_totals().astype(float)
    c = table.counts

    hs, ls = np.nonzero(c)
    vals = c[hs, ls].astype(float)
    log_n, log_nh, log_nl = math.log(n), np.log(nh), np.log(nl)
    numerator = float(np.sum(vals * (np.log(vals) - log_nh[hs] - log_nl[ls] + log_n)))

    den_h = float(np.sum(nh * (log_nh - log_n)))
    den_l = float(np.sum(nl * (log_nl - log_n)))
    if den_h == 0.0 or den_l == 0.0:
        return 0.0
    return min(max(numerator / math.sqrt(den_h * den_l), 0.0), 1.0)
