"""Clustering quality against gold labels: normalized mutual information.

``nmi`` counts the category x cluster co-occurrence table itself, with one
``np.bincount`` over the pairs, and scores it.
"""

from __future__ import annotations

import math

import numpy as np

from .partition import Partition


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
    n = labels.size
    if n == 0:
        return 0.0
    categories, hi = np.unique(labels, return_inverse=True)
    blocks, li = np.unique(clusters, return_inverse=True)
    shape = (categories.size, blocks.size)
    c = np.bincount(hi * shape[1] + li, minlength=shape[0] * shape[1]).reshape(shape)
    nh = c.sum(axis=1).astype(float)
    nl = c.sum(axis=0).astype(float)

    hs, ls = np.nonzero(c)
    vals = c[hs, ls].astype(float)
    log_n, log_nh, log_nl = math.log(n), np.log(nh), np.log(nl)
    numerator = float(np.sum(vals * (np.log(vals) - log_nh[hs] - log_nl[ls] + log_n)))

    den_h = float(np.sum(nh * (log_nh - log_n)))
    den_l = float(np.sum(nl * (log_nl - log_n)))
    if den_h == 0.0 or den_l == 0.0:
        return 0.0
    return min(max(numerator / math.sqrt(den_h * den_l), 0.0), 1.0)
