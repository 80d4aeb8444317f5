"""Library fuzz property: the entry points that take rows or a joint fail
as loudly as the CLI.

Small dense and CSR arrays are drawn with zeros, negatives, subnormals,
values on both sides of PDDP's magnitude bound (about 5.8e76 per stored
value), NaN and infinities. ``ClusterStats.from_rows`` with
``principal_direction``, ``pddp_run`` under every stopping rule, and
``word_conditionals`` either return finite results or raise ``ValueError``
(``DegenerateClusterError`` is one) or ``ConvergenceError``; a numpy
``RuntimeWarning`` on the way fails the property.
"""

import math
import warnings

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from textpart.corpus import TermDocMatrix, word_conditionals
from textpart.linalg import ClusterStats, ConvergenceError, principal_direction
from textpart.pddp import STOP_RULES, pddp_run

SMALL = (0.0, 0.5, 1.0, -1.0, 5e-324, 1e76)
LARGE = (1e200, math.nan, math.inf, -math.inf)


@st.composite
def arrays(draw):
    """Rows drawn from a small pool, so that repeated rows are common; half
    of the draws hold only ``SMALL`` values, which every call accepts."""
    n_rows = draw(st.integers(2, 7))
    n_cols = draw(st.integers(1, 4))
    cell = st.sampled_from(draw(st.sampled_from((SMALL, SMALL + LARGE))))
    pool = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=1, max_size=4))
    rows = np.array([draw(st.sampled_from(pool)) for _ in range(n_rows)])
    return sp.csr_array(rows) if draw(st.booleans()) else rows


def _outcome(call):
    """What ``call()`` returns, or ``None`` when it raises one of the
    documented errors; any other exception or a ``RuntimeWarning`` escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ValueError, ConvergenceError):
            return None


def _finite_stats(stats: ClusterStats) -> bool:
    return (np.isfinite(stats.centroid).all()
            and all(math.isfinite(x) for x in (stats.scatter, stats.sse, stats.max_sq_norm)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(arrays())
def test_entry_points_return_finite_results_or_raise_a_documented_error(rows):
    n_rows, n_cols = rows.shape
    stats = _outcome(lambda: ClusterStats.from_rows(rows, np.arange(n_rows)))
    if stats is not None:
        assert _finite_stats(stats)
        u = _outcome(lambda: principal_direction(rows, seed=0, stats=stats))
        assert u is None or np.isfinite(u).all()
    for stop in STOP_RULES:
        tree = _outcome(lambda: pddp_run(rows, stop=stop, k=2, seed=0))
        assert tree is None or all(_finite_stats(nd.stats) for nd in tree.nodes), stop
    tdm = TermDocMatrix(sp.csr_array(rows), tuple(f"t{j}" for j in range(n_cols)),
                        tuple(f"d{i}" for i in range(n_rows)))
    joint = _outcome(lambda: word_conditionals(tdm))
    if joint is not None:
        assert np.isfinite(joint.py_given_x.data).all() and (joint.py_given_x.data >= 0).all()
