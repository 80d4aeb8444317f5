"""Document clustering via divisive partitioning, spherical hard EM, and
sequential information bottleneck, with BIC/CSV model selection and NMI
evaluation.

Each public name is imported from its module on first use (PEP 562), so
``import textpart`` loads no submodule, and reading and scoring a report
(``textpart.report``, ``textpart.nmi``) loads no scipy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_MODULE_OF = {
    "ClusterStats": "linalg",
    "ClusterTree": "pddp",
    "ConvergenceError": "linalg",
    "DegenerateClusterError": "linalg",
    "EmptyCorpusError": "corpus",
    "IBPartition": "sib",
    "JointDistribution": "corpus",
    "Partition": "partition",
    "SGemModel": "sgem",
    "SibState": "sib",
    "TermDocMatrix": "corpus",
    "bic_score": "model_select",
    "bic_split_test": "model_select",
    "build_matrix": "corpus",
    "centroid": "linalg",
    "complete_log_likelihood": "sgem",
    "csv": "model_select",
    "csv_stop": "model_select",
    "e_step": "sgem",
    "information_xy": "sib",
    "js_divergence": "sib",
    "kl_divergence": "sib",
    "m_step": "sgem",
    "merge_cost": "sib",
    "mutual_information": "sib",
    "nmi": "evaluate",
    "param_count": "model_select",
    "pddp_run": "pddp",
    "principal_direction": "linalg",
    "select_leaf": "pddp",
    "sgem_run": "sgem",
    "sib_run": "sib",
    "split_cluster": "pddp",
    "tfidf_weight": "corpus",
    "tokenize": "corpus",
    "word_conditionals": "corpus",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines public ``name`` and keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
