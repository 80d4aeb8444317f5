"""Flat hard assignment of documents to clusters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Partition:
    """Assignment of every document to exactly one of ``k`` clusters.

    ``labels[i]`` is the cluster index of document i, in ``[0, k)``.
    Clusters are allowed to be empty unless a consumer says otherwise.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("cluster index out of range")

    @property
    def n_docs(self) -> int:
        return int(self.labels.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)
