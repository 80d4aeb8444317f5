"""Mutation runner: single-point mutants of ``src/textpart`` that the test
suite must kill.

Run from anywhere in the checkout, with the standard library only::

    python tests/mutants.py            # every mutant
    python tests/mutants.py M7 M18     # a subset
    python tests/mutants.py --list     # the table, without running it

Each mutant is one exact string replacement in one source file; the text it
replaces must occur there exactly once, or the runner stops before running
anything. A mutant runs on its own temporary copy of the checkout, since
pytest's ``pythonpath = ["src"]`` would otherwise import the unmutated
source. The test files the mutant names run first, with ``-x``; if they
pass, the rest of the suite runs. A failing run kills the mutant, and so
does one that runs past ``TIMEOUT_S``, about eight times the whole suite's
time. The runner exits 1 when a mutant that is expected to be killed
survives.

The whole sweep takes about 10 minutes on 2 vCPUs, so CI runs it weekly
(``.github/workflows/mutants.yml``), not on every push. A change that
touches a mutated line reruns that mutant, and a change that moves the
mutated text updates its entry here; ``tests/test_mutants.py`` fails until
it does. A mutant's run leaves that test out, since on a mutated copy it
fails by design.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600.0  # per mutant
# The tier-1 test of this table, which every mutated copy fails.
_SELF_TEST = "tests/test_mutants.py"
# What the copy leaves out: history and caches.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".bench_run", ".benchmarks")


class Mutant(NamedTuple):
    id: str
    what: str
    module: str  # under src/textpart
    old: str
    new: str
    first: tuple[str, ...]  # test files, under tests/, to run first
    survives: str | None = None  # why no test can kill it, if none can


MUTANTS = (
    Mutant("M1", "split_cluster: a projection of exactly 0 goes right", "pddp.py",
           "left = members[proj <= 0]\n    right = members[proj > 0]",
           "left = members[proj < 0]\n    right = members[proj >= 0]", ("test_pddp.py",)),
    Mutant("M2", "select_leaf: ties go to the last leaf", "pddp.py",
           "nd.stats.scatter > best.stats.scatter", "nd.stats.scatter >= best.stats.scatter",
           ("test_pddp.py",)),
    Mutant("M3", "bic_split_test without its local test", "model_select.py",
           "    if not local_after > local_before:\n        return False\n", "",
           ("test_model_select.py",)),
    Mutant("M4", "global BIC accepts equal scores", "model_select.py",
           "return global_after > global_before", "return global_after >= global_before",
           ("test_model_select.py",), "differs only on an exact tie of two float scores"),
    Mutant("M5", "csv_stop can fire at one leaf", "model_select.py",
           "return len(leaves) >= 2 and", "return len(leaves) >= 1 and",
           ("test_model_select.py", "test_pddp.py"),
           "one leaf's CSV is 0, which exceeds no scatter"),
    Mutant("M6", "sGEM stops when the gain is <= delta", "sgem.py",
           "trace[-1] - trace[-2] < delta", "trace[-1] - trace[-2] <= delta",
           ("test_sgem.py",), "differs only when a gain equals delta exactly"),
    Mutant("M7", "sGEM default delta 1e-6 * n -> 1e-4 * n", "sgem.py",
           "delta = 1e-6 * n", "delta = 1e-4 * n", ("test_sgem.py",),
           "no data set found where the default delta stops sGEM before a fixed point"),
    Mutant("M8", "sIB stops on changes < eps * n", "sib.py",
           "changes <= eps * n", "changes < eps * n", ("test_sib.py",)),
    Mutant("M9", "sIB restart ties go to the last restart", "sib.py",
           "result[1] > best[1]", "result[1] >= best[1]", ("test_sib.py",)),
    Mutant("M10", "Lanczos tolerance 1e-8 -> 1e-4", "linalg.py",
           "<= 1e-8 * max(1.0, abs(evals[-1]))", "<= 1e-4 * max(1.0, abs(evals[-1]))",
           ("test_cli.py", "test_linalg.py")),
    Mutant("M11", "constant columns not zeroed in principal_direction", "linalg.py",
           "    u[_constant_columns(rows, rows_t)] = 0.0\n", "", ("test_linalg.py",)),
    Mutant("M12", "_KRYLOV_DIM 24 -> 8", "linalg.py",
           "_KRYLOV_DIM = 24", "_KRYLOV_DIM = 8", ("test_linalg.py",)),
    Mutant("M13", "idf log -> log1p", "corpus.py",
           "np.log(m.n_docs / np.maximum(df, 1))", "np.log1p(m.n_docs / np.maximum(df, 1))",
           ("test_cli.py", "test_corpus.py")),
    Mutant("M14", "param_count without the variance", "model_select.py",
           "return (k - 1) + k * d + 1", "return (k - 1) + k * d",
           ("test_acceptance.py", "test_model_select.py")),
    Mutant("M15", "BIC variance over (n - k) * d", "model_select.py",
           "sigma2 = max(residual / (n * d), sgem.SIGMA2_FLOOR)",
           "sigma2 = max(residual / ((n - k) * d), sgem.SIGMA2_FLOOR)",
           ("test_cli.py", "test_model_select.py")),
    Mutant("M16", "e_step divides by s2 instead of 2 s2", "sgem.py",
           "scores /= 2.0 * model.sigma2", "scores /= model.sigma2", ("test_sgem.py",)),
    Mutant("M17", "nmi normalised by the arithmetic mean of the entropies", "evaluate.py",
           "numerator / math.sqrt(den_h * den_l)", "numerator / (-(den_h + den_l) / 2.0)",
           ("test_evaluate.py",)),
    Mutant("M18", "sGEM repair may take a cluster's only member", "sgem.py",
           "        own[counts[labels] < 2] = -np.inf\n", "", ("test_sgem.py",)),
    Mutant("M19", "random_assignment moves the donor's last member", "sib.py",
           "np.nonzero(assignment == donor)[0][0]", "np.nonzero(assignment == donor)[0][-1]",
           ("test_sib.py",)),
    Mutant("M20", "eigenvector sign rule flipped", "linalg.py",
           "if nz.size and u[nz[0]] < 0:", "if nz.size and u[nz[0]] > 0:", ("test_linalg.py",)),
    Mutant("M21", "PDDP magnitude bound /4 -> /2", "pddp.py",
           "float(np.sqrt(np.finfo(float).max)) / 4.0",
           "float(np.sqrt(np.finfo(float).max)) / 2.0", ("test_cli.py", "test_pddp.py")),
    Mutant("M22", "sIB may draw a cluster's only member", "sib.py",
           "        if self.sizes[t_old] == 1:\n            return False\n", "",
           ("test_cli.py", "test_sib.py")),
    Mutant("M23", "sGEM s2 over n instead of n * d", "sgem.py",
           "sigma2 = max(residual / (n * d), SIGMA2_FLOOR)",
           "sigma2 = max(residual / n, SIGMA2_FLOOR)", ("test_acceptance.py", "test_sgem.py")),
    Mutant("M24", "degeneracy tolerance 1e-14 -> 1e-10", "linalg.py",
           "_DEGENERATE_REL_TOL = 1e-14", "_DEGENERATE_REL_TOL = 1e-10", ("test_linalg.py",),
           "a tolerance: no documented case sits between the two"),
)


def _check(mutants) -> list[str]:
    """One message per mutant whose text does not occur exactly once."""
    problems = []
    for m in mutants:
        found = (ROOT / "src" / "textpart" / m.module).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            problems.append(f"{m.id}: its text occurs {found} times in {m.module}")
    return problems


def _pytest(repo: Path, args: list[str], deadline: float) -> tuple[bool, str]:
    """Run pytest in ``repo``; ``(passed, the first failure line)``. A run
    past ``deadline`` is stopped, with its whole process group, and fails."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *args], cwd=repo, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, "timeout"
    if proc.returncode in (4, 5):  # a usage error or no tests: the runner is at fault
        raise RuntimeError(f"pytest {args} exited {proc.returncode}:\n{out}")
    lines = out.splitlines()
    failed = next((line for line in lines if line.startswith(("FAILED", "ERROR"))),
                  lines[-1] if lines else "")
    return proc.returncode == 0, failed


def run(m: Mutant) -> tuple[bool, str]:
    """``(killed, by what)`` for one mutant on its own copy of the checkout."""
    deadline = time.monotonic() + TIMEOUT_S
    with tempfile.TemporaryDirectory(prefix=f"textpart-{m.id}-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=_SKIP)
        path = repo / "src" / "textpart" / m.module
        path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
        first = [f"tests/{name}" for name in m.first]
        passed, failed = _pytest(repo, first, deadline)
        if passed:
            passed, failed = _pytest(repo, ["tests", *(f"--ignore={f}" for f in [*first, _SELF_TEST])],
                                     deadline)
    return not passed, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutant ids to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        parser.error(f"unknown mutant ids: {' '.join(unknown)}")
    chosen = [by_id[i] for i in args.ids] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.id:4} {m.module:16} {m.what}" + (f"  [survives: {m.survives}]"
                                                         if m.survives else ""))
        return 0
    problems = _check(chosen)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    unexpected = []
    for m in chosen:
        start = time.monotonic()
        killed, failed = run(m)
        verdict = "killed" if killed else "SURVIVED"
        if m.survives:
            verdict += " (expected to survive)"
        elif not killed:
            unexpected.append(m.id)
        print(f"{m.id:4} {verdict:30} {time.monotonic() - start:6.1f} s  {m.what}"
              + (f"\n     {failed}" if killed else ""), flush=True)
    if unexpected:
        print(f"survived, expected to be killed: {' '.join(unexpected)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
