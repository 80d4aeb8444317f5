"""Document clustering via divisive partitioning, spherical hard EM, and
sequential information bottleneck, with BIC/CSV model selection and NMI
evaluation."""

from .corpus import (
    EmptyCorpusError,
    JointDistribution,
    TermDocMatrix,
    build_matrix,
    tfidf_weight,
    tokenize,
    word_conditionals,
)
from .evaluate import nmi
from .linalg import (
    ClusterStats,
    ConvergenceError,
    DegenerateClusterError,
    centroid,
    principal_direction,
)
from .model_select import bic_score, bic_split_test, csv, csv_stop, param_count
from .partition import Partition
from .pddp import ClusterTree, pddp_run, select_leaf, split_cluster
from .sgem import SGemModel, complete_log_likelihood, e_step, m_step, sgem_run
from .sib import (
    IBPartition,
    SibState,
    information_xy,
    js_divergence,
    kl_divergence,
    merge_cost,
    mutual_information,
    sib_run,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterStats",
    "ClusterTree",
    "ConvergenceError",
    "DegenerateClusterError",
    "EmptyCorpusError",
    "IBPartition",
    "JointDistribution",
    "Partition",
    "SGemModel",
    "SibState",
    "TermDocMatrix",
    "bic_score",
    "bic_split_test",
    "build_matrix",
    "centroid",
    "complete_log_likelihood",
    "csv",
    "csv_stop",
    "e_step",
    "information_xy",
    "js_divergence",
    "kl_divergence",
    "m_step",
    "merge_cost",
    "mutual_information",
    "nmi",
    "param_count",
    "pddp_run",
    "principal_direction",
    "select_leaf",
    "sgem_run",
    "sib_run",
    "split_cluster",
    "tfidf_weight",
    "tokenize",
    "word_conditionals",
]
