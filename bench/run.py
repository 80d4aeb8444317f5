"""End-to-end benchmark of the textpart CLI, with a traced per-layer pass.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from ``--seed`` (see ``gen.py``), then runs
passes of the workload's commands until ``--seconds`` have elapsed (at
least two passes, so each command's output can be compared with a repeat).
Every command is one ``python -m textpart.cli`` process with
``PYTHONPATH=src`` and ``TEXTPART_THREADS`` unset, and every command's
output is checked. Timings are medians over the passes.

With ``--trace 0`` every pass is untraced and the result holds the
end-to-end metrics named in ``BENCHMARK.json``. With ``--trace 1`` the
passes alternate between untraced and traced (``tracer.py``); the result
holds the per-layer metrics, reduced from the traced passes' spans, and
``trace.overhead_s``, the traced minus the untraced ``wall_s``.

The last line of standard output is the result object; the line before it
is a JSON detail record (environment, inputs, per-command values, every
check that failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

import layers  # noqa: E402  (bench/ is on sys.path as the script's directory)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 2
# A run must end within 180 s: no command may run past this many seconds
# from the start of the run, and no pass starts that would be expected to.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{in}``/``{out}`` expand to the input/output dirs."""

    name: str
    argv: tuple[str, ...]
    corpus: str
    nmi_floor: float | None = None  # cluster commands: least acceptable NMI

    @property
    def kind(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str | None:
        a = self.argv
        return a[a.index(name) + 1] if name in a else None


@dataclass(frozen=True)
class Workload:
    why: str
    corpora: dict[str, bool]  # corpus -> also write raw text
    commands: tuple[Command, ...]


def _cluster(name, prefix, corpus, floor, *flags):
    argv = ("cluster", prefix, *flags, "--seed", "0", "--output", f"{{out}}/{name}.report")
    return Command(name, argv, corpus, floor)


# NMI floors sit well below the lowest value the current code reaches over
# the generator seeds tried (see CHANGES.md), so they catch a quality loss
# without tripping on the spread between document samples.
#
# An ``ingest-20k`` workload (ingest, ``pddp --stop fixed --k 8``, eval) was
# dropped as unsteady: its clustering phase is one short PDDP run whose
# eigen-solves on all 20k documents converge at a sample-dependent rate
# (1.2-2.2 s over seeds 1-6). Its ingest and eval commands run in
# ``divisive-20k``.
WORKLOADS = {
    "divisive-20k": Workload(
        "ingest of 20k text lines, then eigen-solves, BIC tests and sGEM (bic, 20k docs) and "
        "hundreds of small splits (csv, 2k docs), each scored by eval; sIB never runs",
        {"c20k": True, "c9": False},
        (
            Command("ingest", ("ingest", "{in}/c20k.txt", "--output", "{out}/i20k",
                               "--min-count", "2"), "c20k"),
            _cluster("pddp-sgem-bic", "{out}/i20k", "c20k", 0.70,
                     "--algo", "pddp+sgem", "--stop", "bic"),
            Command("eval-bic", ("eval", "{out}/pddp-sgem-bic.report", "{in}/c20k.labels"), "c20k"),
            _cluster("pddp-csv", "{in}/c9", "c9", 0.55, "--algo", "pddp", "--stop", "csv"),
            Command("eval-csv", ("eval", "{out}/pddp-csv.report", "{in}/c9.labels"), "c9"),
        ),
    ),
    # --maxl 5 rather than 10: with 10, sIB stopped after a sample-dependent
    # number of loops (81k-120k draw/merge steps per pass over seeds 1-6);
    # with 5, nearly every sweep runs all 5 loops (51k-60k steps), so the
    # time tracks the cost per step.
    "sib-3k": Workload(
        "sIB draw/merge steps (about 60k per pass, a near-fixed count) dominate; PDDP only "
        "builds a 20-leaf start partition and the inputs are 1 MB",
        {"s3k": False},
        (
            _cluster("sib-k20", "{in}/s3k", "s3k", 0.90,
                     "--algo", "sib", "--stop", "fixed", "--k", "20",
                     "--restarts", "3", "--maxl", "5"),
            _cluster("pddp-sib-k20", "{in}/s3k", "s3k", 0.90,
                     "--algo", "pddp+sib", "--stop", "fixed", "--k", "20", "--maxl", "5"),
        ),
    ),
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program source, no BENCHMARK.json)."""


def reference_nmi(clusters, labels) -> float:
    """NMI with geometric normalisation and natural logs, independent of textpart."""
    _, ci = np.unique(np.asarray(clusters), return_inverse=True)
    _, li = np.unique(np.asarray(labels), return_inverse=True)
    n = ci.size
    table = np.zeros((li.max() + 1, ci.max() + 1))
    np.add.at(table, (li, ci), 1.0)
    nh, nl = table.sum(axis=1), table.sum(axis=0)
    h, c = np.nonzero(table)
    v = table[h, c]
    num = float(np.sum(v * np.log(n * v / (nh[h] * nl[c]))))
    den = float(np.sum(nh * np.log(nh / n))) * float(np.sum(nl * np.log(nl / n)))
    return num / den ** 0.5 if den > 0 else 0.0


def mat_entries(path) -> np.ndarray:
    """The (doc, term, value) rows of a ``.mat`` file in (doc, term) order,
    parsed without textpart, so a check does not trust the program's reader."""
    _, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    rows = np.fromstring(body, dtype=float, sep=" ").reshape(-1, 3)
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def environment(seed: int) -> dict:
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TEXTPART_THREADS": os.environ.get("TEXTPART_THREADS"),
        "generator_seed": seed,
    }


@dataclass
class Outcome:
    """One command execution: its measurements and the checks it failed."""

    command: str
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    failures: list[str] = field(default_factory=list)
    time_seconds: float | None = None
    k_found: int | None = None
    nmi: float | None = None
    spans: list | None = None


class Runner:
    def __init__(self, work: Path, inputs: dict[str, dict], deadline: float):
        self.deadline = deadline
        self.inputs = inputs
        self.in_dir = work / "in"
        self.out_dir = work / "out"
        self.out_dir.mkdir()
        self.env = dict(os.environ)
        self.env.pop("TEXTPART_THREADS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.digests: dict[str, str] = {}
        self.labels: dict[str, list[str]] = {}
        self.entries: dict[str, np.ndarray] = {}

    def expand(self, argv) -> list[str]:
        return [a.replace("{in}", str(self.in_dir)).replace("{out}", str(self.out_dir))
                for a in argv]

    def path(self, arg: str) -> Path:
        return Path(self.expand([arg])[0])

    def spawn(self, cmd: Command, traced: bool) -> Outcome:
        argv = self.expand(cmd.argv)
        spans_path = self.out_dir / f"{cmd.name}.spans.json"
        out_path, err_path = self.out_dir / "stdout.txt", self.out_dir / "stderr.txt"
        with open(out_path, "wb") as so, open(err_path, "wb") as se:
            t0 = time.monotonic()
            if traced:
                full = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), repr(t0), "--", *argv]
            else:
                full = [sys.executable, "-m", "textpart.cli", *argv]
            proc = subprocess.Popen(full, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(cmd.name, traced, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, proc.returncode,
                          out_path.read_text(encoding="utf-8", errors="replace"))
        if proc.returncode != 0:
            err = err_path.read_text(encoding="utf-8", errors="replace").strip()
            outcome.failures.append(f"exit code {proc.returncode}: {err[-300:]}")
        elif traced:
            outcome.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            try:
                layers.check_self_times(outcome.spans)
            except layers.SpanCheckError as exc:
                outcome.failures.append(str(exc))
        return outcome

    def generated(self, corpus: str) -> np.ndarray:
        if corpus not in self.entries:
            self.entries[corpus] = mat_entries(self.in_dir / f"{corpus}.mat")
        return self.entries[corpus]

    def gold(self, corpus: str) -> list[str]:
        if corpus not in self.labels:
            text = (self.in_dir / f"{corpus}.labels").read_text(encoding="utf-8")
            self.labels[corpus] = text.splitlines()
        return self.labels[corpus]

    def check(self, cmd: Command, o: Outcome) -> None:
        """Append every failed output check of ``o`` to ``o.failures``."""
        if o.returncode != 0:
            return
        from textpart.report import read_report

        info = self.inputs[cmd.corpus]
        if cmd.kind == "ingest":
            expect = f"{info['n_docs']} {info['n_terms']} {info['nnz']}"
            if o.stdout.strip() != expect:
                o.failures.append(f"ingest printed {o.stdout.strip()!r}, expected {expect!r}")
            elif not np.array_equal(mat_entries(f"{self.path(cmd.flag('--output'))}.mat"),
                                    self.generated(cmd.corpus)):
                o.failures.append("ingested matrix differs from the generated one")
            return
        report_path = self.path(cmd.argv[1] if cmd.kind == "eval" else cmd.flag("--output"))
        try:
            rep = read_report(report_path)
        except (OSError, ValueError) as exc:
            o.failures.append(f"report does not re-parse: {exc}")
            return
        clusters = [c for _, c in rep.assignments]
        gold = self.gold(cmd.corpus)
        if len(clusters) != len(gold):
            o.failures.append(f"{len(clusters)} assignments for {len(gold)} documents")
            return
        value = reference_nmi(clusters, gold)
        if cmd.kind == "eval":
            if o.stdout.strip() != f"{value:.4f}" or rep.nmi is None or abs(rep.nmi - value) > 5e-5:
                o.failures.append(f"eval printed {o.stdout.strip()!r}, reference NMI {value:.4f}")
            return
        o.time_seconds, o.k_found, o.nmi = rep.time_seconds, rep.k_found, value
        k = cmd.flag("--k")
        if k is not None and rep.k_found != int(k):
            o.failures.append(f"k_found {rep.k_found} != --k {k}")
        if value < cmd.nmi_floor:
            o.failures.append(f"NMI {value:.4f} below floor {cmd.nmi_floor}")
        lines = [ln for ln in report_path.read_bytes().splitlines() if ln.startswith(b"assignment ")]
        digest = hashlib.sha256(b"\n".join(lines)).hexdigest()
        if self.digests.setdefault(cmd.name, digest) != digest:
            o.failures.append("assignments differ from an earlier run of the same command")

    def run_pass(self, workload: Workload, traced: bool) -> list[Outcome]:
        outcomes = []
        for cmd in workload.commands:
            o = self.spawn(cmd, traced)
            self.check(cmd, o)
            outcomes.append(o)
        return outcomes


def end_to_end(workload: Workload, inputs: dict, passes: list[list[Outcome]]) -> dict[str, float]:
    """End-to-end metrics (units in BENCHMARK.json) of complete ``passes``.

    Each command's wall time, clustering time and peak RSS is its median over
    the passes; the metrics combine those medians over the commands, so one
    slow command in one pass does not move the result.
    """
    if not passes:
        return {}
    cmds = list(enumerate(workload.commands))

    def med(i, f):
        return statistics.median(f(p[i]) for p in passes)

    clusters = [i for i, c in cmds if c.kind == "cluster"]
    nmis = [passes[0][i].nmi for i in clusters]
    return {
        "wall_s": sum(med(i, lambda o: o.wall_s) for i, _ in cmds),
        "cluster_s": sum(med(i, lambda o: o.time_seconds) for i in clusters),
        "setup_s": sum(med(i, lambda o: o.wall_s - o.time_seconds) for i in clusters),
        "ingest_s": sum(med(i, lambda o: o.wall_s) for i, c in cmds if c.kind == "ingest"),
        "peak_rss_mb": max(med(i, lambda o: o.peak_rss_mb) for i, _ in cmds),
        "nmi": sum(nmis) / len(nmis) if nmis else 0.0,
        "k_error": float(sum(abs(passes[0][i].k_found - inputs[c.corpus]["n_topics"])
                             for i, c in cmds if c.flag("--stop") in ("csv", "bic"))),
    }


def generate(corpus: str, seed: int, out: Path, text: bool) -> dict:
    """Write one corpus with ``gen.py`` in its own process and return its shape.

    On Linux a child's peak RSS (``ru_maxrss``) starts at its parent's RSS
    when it forks, so this process must stay small: the generator's memory
    would otherwise show up as every command's peak RSS.
    """
    argv = [sys.executable, str(BENCH / "gen.py"), "--seed", str(seed), "--corpus", corpus,
            "--out", str(out)] + (["--text"] if text else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def rss_mb() -> float:
    """This process's resident set size (the floor of a child's ru_maxrss)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
    return kb / 1024.0


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "textpart" / "cli.py").is_file() or not (ROOT / "tests" / "datagen.py").is_file():
        raise SetupError(f"no textpart source under {ROOT} (need src/textpart and tests/datagen.py)")
    if not path.is_file():
        raise SetupError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def measure(runner: Runner, workload: Workload, seconds: float, trace: bool) -> list[list[Outcome]]:
    """Run passes while another one is expected to end within ``seconds``
    (at least ``MIN_PASSES``); with ``trace``, every second pass is traced."""
    passes: list[list[Outcome]] = []
    started = time.monotonic()
    while True:
        t_pass = time.monotonic()
        passes.append(runner.run_pass(workload, trace and len(passes) % 2 == 1))
        now = time.monotonic()
        next_end = now + (now - t_pass)
        if next_end > runner.deadline or (
                len(passes) >= MIN_PASSES and next_end - started > seconds):
            return passes


def command_detail(workload: Workload, passes: list[list[Outcome]]) -> dict:
    detail = {}
    for i, c in enumerate(workload.commands):
        runs = [p[i] for p in passes]
        last = runs[-1]
        detail[c.name] = {"argv": list(c.argv), "wall_s": [o.wall_s for o in runs],
                          "cpu_s": [o.cpu_s for o in runs],
                          "peak_rss_mb": [o.peak_rss_mb for o in runs],
                          "time_seconds": last.time_seconds, "k_found": last.k_found,
                          "nmi": last.nmi, "nmi_floor": c.nmi_floor}
    return detail


def layer_metrics(workload: Workload, inputs: dict, passes: list[list[Outcome]],
                  e2e: dict[str, float], detail: dict) -> dict[str, float]:
    """Per-layer metrics: medians over the complete traced passes."""
    traced = [p for p in passes if p[0].traced and not any(o.failures for o in p)]
    if not traced or "wall_s" not in e2e:
        return {}
    rows, samples = [], {}
    for p in traced:
        row, samples = layers.reduce_spans([o.spans for o in p])
        rows.append(row)
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced_wall = end_to_end(workload, inputs, traced)["wall_s"]
    values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    values["cli.ingest_s"] = e2e["ingest_s"]
    values["model_select.k_error"] = e2e["k_error"]
    detail["trace"] = {
        "span_samples": {k: v for k, v in samples.items() if v},
        "traced_wall_s": traced_wall,
        "untraced_wall_s": e2e["wall_s"],
        "layer_map": {n: {"moves": m[0], "on": list(m[1]), "no_change_on": list(m[2])}
                      for n, m in layers.LAYER_METRICS.items()},
    }
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_run"))
    t0 = time.monotonic()
    try:
        inputs = {name: generate(name, args.seed, work / "in" / name, text)
                  for name, text in workload.corpora.items()}
        gen_s = time.monotonic() - t0
        passes = measure(Runner(work, inputs, t0 + DEADLINE_S), workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    attempted, failed = len(outcomes), sum(1 for o in outcomes if o.failures)
    complete = [p for p in passes if not any(o.failures for o in p)]
    e2e = end_to_end(workload, inputs, [p for p in complete if not p[0].traced])
    e2e["error_rate"] = failed / attempted
    detail = {
        "workload": args.workload,
        "why": workload.why,
        "environment": environment(args.seed),
        "inputs": inputs,
        "generate_s": gen_s,
        "harness_rss_mb": rss_mb(),
        "passes": {"untraced": sum(1 for p in passes if not p[0].traced),
                   "traced": sum(1 for p in passes if p[0].traced)},
        "commands": command_detail(workload, passes),
        "end_to_end": e2e,
        "failures": [f"pass {i} {o.command}: {f}" for i, p in enumerate(passes)
                     for o in p for f in o.failures],
    }
    if args.trace:
        wanted, values = spec["per_layer"], layer_metrics(workload, inputs, passes, e2e, detail)
    else:
        wanted, values = spec["end_to_end"], e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        detail["failures"].append(f"metrics not computed: {missing}")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
