"""Document clustering via divisive partitioning, spherical hard EM, and
sequential information bottleneck, with BIC/CSV model selection and NMI
evaluation.

Each public name is imported from its module on first use (PEP 562), so
``import textpart`` loads no submodule, and reading and scoring a report
(``textpart.report``, ``textpart.nmi``) loads no scipy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it: the pipeline's stages, the
# types they take or return, and the errors they let out. Step-level functions
# (the split test, leaf selection, the eigen-solve, ...) are imported from
# their modules.
_MODULE_OF = {
    "ClusterStats": "linalg",
    "ClusterTree": "pddp",
    "ConvergenceError": "linalg",
    "EmptyCorpusError": "corpus",
    "JointDistribution": "corpus",
    "Partition": "partition",
    "SGemModel": "sgem",
    "TermDocMatrix": "corpus",
    "build_matrix": "corpus",
    "nmi": "evaluate",
    "pddp_run": "pddp",
    "sgem_run": "sgem",
    "sib_run": "sib",
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
