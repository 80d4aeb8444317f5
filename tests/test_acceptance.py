"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from datagen import five_clusters, multinomial_corpus, random_joint, two_gaussians
from oracles import best_bipartition_information, top_eigvec_dense
import textpart
from textpart import nmi, pddp_run, sgem_run, sib_run, tfidf_weight, word_conditionals
from textpart.cli import main
from textpart.linalg import ClusterStats, principal_direction
from textpart.model_select import param_count
from textpart.sib import SibState, random_assignment


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_c01_pddp_separates_two_gaussians():
    elapsed = 0.0
    scores = []
    for seed in range(5):
        X, labels = two_gaussians(seed)  # 1000 points, centers 8 sigma apart
        t0 = time.perf_counter()
        tree = pddp_run(X, stop="fixed", k=2, seed=seed)
        elapsed += time.perf_counter() - t0
        scores.append(nmi(tree.partition(), labels))
    ok = all(s >= 0.95 for s in scores) and elapsed < 1.0
    _verdict("C1 pddp-separability", ok,
             f"NMI={['%.3f' % s for s in scores]}, clustering time {elapsed:.3f}s")


def test_c02_sgem_refines_pddp_failure_mode():
    elapsed = 0.0
    improved = 0
    pairs = []
    for seed in range(5):
        X, labels = five_clusters(seed)  # 334 points, central cluster straddles
        t0 = time.perf_counter()
        tree = pddp_run(X, stop="fixed", k=5, seed=seed)
        raw = tree.partition()
        refined, _, _ = sgem_run(raw, X)
        elapsed += time.perf_counter() - t0
        a, b = nmi(raw, labels), nmi(refined, labels)
        pairs.append((a, b))
        improved += b > a
    ok = improved >= 4 and elapsed < 2.0
    _verdict("C2 refinement-beats-pddp", ok,
             f"improved {improved}/5, time {elapsed:.3f}s, pairs={[('%.3f' % a, '%.3f' % b) for a, b in pairs]}")


def test_c03_sgem_ascent_and_convergence():
    monotone = True
    converged = True
    worst_drop = 0.0
    for seed in range(5):
        for dataset, k in ((two_gaussians(seed)[0], 2), (five_clusters(seed)[0], 5)):
            tree = pddp_run(dataset, stop="fixed", k=k, seed=seed)
            _, _, trace = sgem_run(tree.partition(), dataset)
            for a, b in zip(trace, trace[1:]):
                worst_drop = max(worst_drop, a - b)
                monotone = monotone and b >= a - 1e-9
            converged = converged and len(trace) < 100
    # one text-like dataset as well
    tdm, _ = multinomial_corpus(0)
    weighted, _ = tfidf_weight(tdm)
    tree = pddp_run(weighted.matrix, stop="fixed", k=8, seed=0)
    _, _, trace = sgem_run(tree.partition(), weighted.matrix)
    for a, b in zip(trace, trace[1:]):
        monotone = monotone and b >= a - 1e-9
    ok = monotone and converged
    _verdict("C3 sgem-ascent", ok, f"worst drop {worst_drop:.2e}, converged<100: {converged}")


def test_c04_sib_step_monotonicity_and_exact_k():
    joint = random_joint(200, 50, seed=42)
    k = 10
    rng = np.random.default_rng(7)
    state = SibState(joint, random_assignment(200, k, rng), k)
    prev = state.information()
    worst_drop = 0.0
    always_k = True
    steps = 0
    while steps < 10_000:
        for x in rng.permutation(200):
            state.draw_and_merge(int(x))
            cur = state.information()
            worst_drop = max(worst_drop, prev - cur)
            prev = cur
            always_k = always_k and int((state.sizes > 0).sum()) == k
            steps += 1
            if steps >= 10_000:
                break
    ok = worst_drop <= 1e-9 and always_k
    _verdict("C4 sib-monotone-exact-k", ok,
             f"{steps} steps, worst drop {worst_drop:.2e}, K constant: {always_k}")


def test_c05_sib_small_instance_optimality():
    t0 = time.perf_counter()
    hits = 0
    for i in range(20):
        joint = random_joint(10, 4, seed=1000 + i)
        best = best_bipartition_information(joint)  # all 511 bipartitions
        part = sib_run(joint, 2, n_restarts=20, seed=i)
        got = SibState(joint, part.labels, part.k).information()
        hits += abs(got - best) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 10.0
    _verdict("C5 sib-optimality", ok, f"{hits}/20 optimal, {elapsed:.2f}s")


def _stats(rows) -> ClusterStats:
    """The stats of a whole row set, which ``principal_direction`` requires."""
    return ClusterStats.from_rows(rows, np.arange(rows.shape[0]))


def test_c06_eigen_oracle():
    rng = np.random.default_rng(1234)
    worst = 1.0
    for _ in range(50):
        n = int(rng.integers(5, 101))
        d = int(rng.integers(2, 21))
        X = rng.normal(size=(n, d))
        u = principal_direction(X, seed=int(rng.integers(0, 2**31)), stats=_stats(X))
        worst = min(worst, abs(float(u @ top_eigvec_dense(X))))
    ok = worst >= 1 - 1e-6
    _verdict("C6 eigen-oracle", ok, f"worst |u.u_oracle| = {worst:.12f}")


def test_c07_nmi_correctness():
    identity_ok = abs(nmi(np.array([0, 0, 1, 1, 2]), np.array(list("aabbc"))) - 1.0) <= 1e-9
    hand_ok = nmi(np.array([1, 2, 1, 2]), np.array(list("AABB"))) == 0.0
    single_ok = nmi(np.zeros(6, dtype=int), np.array(list("aabbcc"))) == 0.0
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=80)
    clusters = rng.integers(0, 5, size=80)
    base = nmi(clusters, labels)
    perm_ok = all(
        abs(nmi(rng.permutation(5)[clusters], labels) - base) <= 1e-12 for _ in range(10)
    )
    ok = identity_ok and hand_ok and single_ok and perm_ok
    _verdict("C7 nmi-correctness", ok,
             f"identity={identity_ok} hand={hand_ok} single={single_ok} perm={perm_ok}")


def test_c08_bic_parameter_count():
    values_ok = param_count(3, 5) == 18 and param_count(1, 1) == 2
    monotone_ok = True
    for k in range(1, 11):
        for d in range(1, 11):
            monotone_ok = monotone_ok and param_count(k + 1, d) > param_count(k, d)
            monotone_ok = monotone_ok and param_count(k, d + 1) > param_count(k, d)
    ok = values_ok and monotone_ok
    _verdict("C8 bic-param-count", ok, f"values={values_ok} monotone={monotone_ok}")


def test_c09_quality_ordering_on_topic_corpus():
    t0 = time.perf_counter()
    results = {"pddp": [], "pddp+sgem": [], "sib": []}
    for seed in range(5):
        tdm, labels = multinomial_corpus(seed)
        weighted, dropped = tfidf_weight(tdm)
        assert not dropped
        matrix = weighted.matrix
        tree = pddp_run(matrix, stop="fixed", k=8, seed=seed)
        raw = tree.partition()
        results["pddp"].append(nmi(raw, labels))
        refined, _, _ = sgem_run(raw, matrix)
        results["pddp+sgem"].append(nmi(refined, labels))
        joint = word_conditionals(tdm)
        ib = sib_run(joint, 8, n_restarts=6, max_loops=15, seed=seed)
        results["sib"].append(nmi(ib, labels))
    elapsed = time.perf_counter() - t0
    med = {name: float(np.median(vals)) for name, vals in results.items()}
    ordering = med["sib"] >= med["pddp+sgem"] >= med["pddp"]
    ok = ordering and elapsed < 60.0
    _verdict("C9 table-trend-ordering", ok,
             f"medians sib={med['sib']:.3f} >= sgem={med['pddp+sgem']:.3f} >= "
             f"pddp={med['pddp']:.3f}, {elapsed:.1f}s")


def _c10_corpus(tmp_path):
    """C10's 60-document corpus, ingested; returns the matrix prefix."""
    rng = np.random.default_rng(0)
    pools = (["kernel", "driver", "memory", "thread", "stack"],
             ["pitch", "goal", "league", "coach", "match"],
             ["tensor", "gradient", "epoch", "layer", "batch"])
    lines = [" ".join(rng.choice(pools[i % 3], size=14).tolist()) for i in range(60)]
    src = tmp_path / "docs.txt"
    src.write_text("\n".join(lines), encoding="utf-8")
    prefix = tmp_path / "m"
    assert main(["ingest", str(src), "--output", str(prefix)]) == 0
    return prefix


C10_ALGOS = ("pddp", "pddp+sgem", "sib", "pddp+sib")


def _c10_cluster_argv(prefix, algo, output):
    return ["cluster", str(prefix), "--algo", algo, "--stop", "fixed", "--k", "3",
            "--seed", "5", "--restarts", "3", "--maxl", "10", "--output", str(output)]


def _assignment_bytes(path):
    return b"\n".join(
        ln.encode() for ln in path.read_text().splitlines() if ln.startswith("assignment ")
    )


def test_c10_cli_determinism(tmp_path):
    prefix = _c10_corpus(tmp_path)
    identical = True
    for algo in C10_ALGOS:
        a, b = tmp_path / f"{algo}-a.report", tmp_path / f"{algo}-b.report"
        assert main(_c10_cluster_argv(prefix, algo, a)) == 0
        assert main(_c10_cluster_argv(prefix, algo, b)) == 0
        identical = identical and _assignment_bytes(a) == _assignment_bytes(b)
    _verdict("C10 cli-determinism", identical)


def test_c10_assignments_hold_under_another_blas_kernel(tmp_path):
    # OpenBLAS reads both variables when it loads, so they need a fresh process.
    prefix = _c10_corpus(tmp_path)
    src = str(Path(textpart.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for algo in C10_ALGOS:
        here, there = tmp_path / f"{algo}-here.report", tmp_path / f"{algo}-there.report"
        assert main(_c10_cluster_argv(prefix, algo, here)) == 0
        run = subprocess.run([sys.executable, "-m", "textpart.cli",
                              *_c10_cluster_argv(prefix, algo, there)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert _assignment_bytes(there) == _assignment_bytes(here), algo
