"""Benchmark of `bagel solve`: one workload per process.

    python3 benchmarks/run.py --workload sd-many --seed 3 --seconds 25 --trace 0

Set-up imports bagel from ./src and writes the workload's instance file
with the library's generator.  The run then calls
`bagel.cli.main(["solve", ...])` in process, again and again, for
--seconds seconds, and checks every solve's output.  With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Seconds the set-up reference kernel (Solver.setup_kernel) takes on the
# 2-core Xeon the benchmark was built on; setup_s is scaled to that speed.
SETUP_KERNEL_REF_S = 0.08
# The instance structure (component sizes and weights, topic database,
# planted model) is fixed per workload by this library seed; --seed draws
# the row or document order and the seed stored in the file, which sets
# the smart-design fold split and the prior-nmf initialisations.  Across
# library seeds the node count of one workload varies by 40-80%, which no
# per-run median can make steady.
LIBRARY_SEED = 1

# kernel_reps sizes each workload's reference kernel (see Solver.kernel) to
# about 0.15 s on a 2-core Xeon.
WORKLOADS = {
    "sd-tall": {"problem": "smart-design", "folds": 1, "solve": [], "kernel_reps": 8,
                "shape": dict(n_features=100, samples=10000, cost_percent=0.6, n_components=8)},
    "sd-many": {"problem": "smart-design", "folds": 5, "solve": ["--strategy", "best-first"],
                "kernel_reps": 600,
                "shape": dict(n_features=40, samples=400, cost_percent=0.6, n_components=20)},
    "nmf-planted": {"problem": "prior-nmf", "solve": [], "kernel_reps": 8000,
                    "shape": dict(n_words=20, true_topics=4, false_topics=2, docs=50)},
    "nmf-large": {"problem": "prior-nmf", "solve": ["--node-cap", "30"], "kernel_reps": 2500,
                  "shape": dict(n_words=100, true_topics=8, false_topics=5, docs=300)},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def launch_environment():
    """One BLAS thread: two threads on two cores ran slower and spread
    wider.  BAGEL_SEED would override the seed stored in the instance."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("BAGEL_SEED", None)
    sys.dont_write_bytecode = True  # every run compiles bagel alike and leaves no files


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info(np):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads()}


class Solver:
    """Set-up, timed solves and output checks of one workload."""

    def __init__(self, name, seed, workdir):
        self.spec, self.seed = WORKLOADS[name], seed
        self.path = str(workdir / "instance.json")
        self.out = str(workdir / "result.csv")
        t0 = time.perf_counter()
        import numpy as np
        from bagel import cli, constraints, numerics, prior_nmf, smart_design
        import_s = time.perf_counter() - t0
        import checks  # after the timed import: it imports numpy too

        self.np, self.checks, self.cli, self.numerics = np, checks, cli, numerics
        self.smart_design, self.prior_nmf, self.constraints = smart_design, prior_nmf, constraints
        self._setup_doc = numerics.make_rng(0).random(20000).tolist()
        kernels, walls = [self.setup_kernel()], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.instance = self._write_instance()
            walls.append(time.perf_counter() - t0)
            kernels.append(self.setup_kernel())
        self.setup_raw_s = import_s + statistics.median(walls)
        rel = [w * 2 / (a + b) for w, a, b in zip(walls, kernels, kernels[1:])]
        self.setup_s = SETUP_KERNEL_REF_S * (import_s / kernels[0] + statistics.median(rel))
        self.argv = ["solve", "--instance", self.path, "--out", self.out] + self.spec["solve"]
        inst = self.instance
        if self.spec["problem"] == "smart-design":
            self.argv += ["--folds", str(self.spec["folds"])]
            train, _ = smart_design.fold_split(len(inst.y), 0, inst.seed)
            half = inst.X.shape[1] // 2
            self._kernel_args = (inst.X[train][:, :half], inst.y[train])
        else:
            rng = numerics.make_rng(0)
            self._kernel_args = (inst.A, 1.0 - rng.random((inst.A.shape[0], inst.k)),
                                 1.0 - rng.random((inst.k, inst.A.shape[1])))
        self.last_search = None
        original = cli.bagel_search

        # The prior-nmf CSV row has no assignment; keep the incumbent the
        # CLI's search returns.  One wrapped call per solve, not per node.
        @functools.wraps(original)
        def keep_result(*args, **kwargs):
            self.last_search = original(*args, **kwargs)
            return self.last_search

        cli.bagel_search = keep_result

    def setup_kernel(self):
        """Seconds to serialise a fixed list of floats to JSON four times:
        work like the set-up's own, timed between set-up passes."""
        t0 = time.perf_counter()
        for _ in range(4):
            json.dumps(self._setup_doc)
        return time.perf_counter() - t0

    def _write_instance(self):
        rng = self.numerics.make_rng(self.seed)
        if self.spec["problem"] == "smart-design":
            inst = self.smart_design.sd_generate_instance(**self.spec["shape"], seed=LIBRARY_SEED)
            order = rng.permutation(len(inst.y))
            inst.X, inst.y = inst.X[order], inst.y[order]
            inst.seed = int(rng.integers(2 ** 63 - 1))
            self.smart_design.save_instance(inst, self.path)
        else:
            inst = self.prior_nmf.nmf_generate_instance(**self.spec["shape"], seed=LIBRARY_SEED)
            inst.A = inst.A[:, rng.permutation(inst.A.shape[1])]
            inst.seed = int(rng.integers(2 ** 63 - 1))
            self.prior_nmf.save_instance(inst, self.path)
        return inst

    def kernel(self):
        """Seconds of fixed reference work shaped like the workload's own
        numerics: least squares on half the columns of the first training
        fold, or multiplicative NMF updates on the instance's matrix.  It
        shares no code with bagel and runs between solves, so its time
        tracks how fast the machine is running at that moment."""
        np = self.np
        t0 = time.perf_counter()
        if self.spec["problem"] == "smart-design":
            X, y = self._kernel_args
            for _ in range(self.spec["kernel_reps"]):
                np.linalg.lstsq(X, y, rcond=None)
        else:
            A, W, H = self._kernel_args
            W, H = W.copy(), H.copy()
            for _ in range(self.spec["kernel_reps"]):
                H *= (W.T @ A) / (W.T @ W @ H + 1e-12)
                W *= (A @ H.T) / (W @ (H @ H.T) + 1e-12)
        return time.perf_counter() - t0

    def solve(self):
        """One timed `bagel solve` and the output it left."""
        if os.path.exists(self.out):
            os.remove(self.out)
        self.last_search = None
        t0 = time.perf_counter()
        rc = self.cli.main(self.argv)
        wall = time.perf_counter() - t0
        rows = None
        if rc == 0 and os.path.exists(self.out):
            with open(self.out, newline="") as fh:
                rows = list(csv.DictReader(fh))
        best = self.last_search[0] if self.last_search else None
        return Solve(wall, rc, rows, best.model.assignment if best else None)

    def prepare_checks(self):
        """Exact optimum and target norm of every smart-design fold."""
        np, inst = self.np, self.instance
        if self.spec["problem"] != "smart-design":
            self.data_norm = float(np.linalg.norm(inst.A))
            return
        owner = np.repeat(np.arange(len(inst.components)),
                          [c.input_size for c in inst.components])
        self.reference, self.y_norms = [], []
        for fold in range(self.spec["folds"]):
            train, _ = self.smart_design.fold_split(len(inst.y), fold, inst.seed)
            X, y = inst.X[train], inst.y[train]
            self.reference.append(
                self.checks.smart_design_reference(X, y, owner, inst.weights, inst.bound))
            self.y_norms.append(float(np.linalg.norm(y)))

    def problems(self, solve):
        """Output check of one solve; an empty list means it is correct."""
        if solve.rows is None:
            return ["exit code %d and no result rows" % solve.rc]
        if self.spec["problem"] == "smart-design":
            return self.checks.smart_design_problems(solve.rows, self.reference)
        return self.checks.prior_nmf_problems(
            solve.rows, solve.assignment, self.instance.k, self.instance.planted_topics,
            "--node-cap" in self.spec["solve"])

    def quality(self, rows):
        """(recovery, best_loss_rel) of one solve's rows."""
        if self.spec["problem"] == "smart-design":
            losses = [float(r["train_loss"]) for r in rows if r["method"] == "bagel"]
            hits = [abs(l - ref) <= self.checks.LOSS_RTOL * ref
                    for l, ref in zip(losses, self.reference)]
            rel = [l / n for l, n in zip(losses, self.y_norms)]
            return sum(hits) / len(self.reference), sum(rel) / len(rel)
        row = rows[0]
        return float(row["recovery"]), float(row["best_loss"]) / self.data_norm


@dataclass
class Solve:
    wall: float
    rc: int
    rows: Optional[list]
    assignment: Optional[list]  # prior-nmf incumbent, as the search returned it


def bagel_nodes(rows):
    """The CSV nodes column of the bagel searches, in search order."""
    return [int(r["nodes"]) for r in rows if r.get("method", "bagel") == "bagel"]


class Run:
    """Timed solves, repeated until the next one would end past the budget."""

    def __init__(self, solver, budget, after_each=None):
        self.solves, self.kernels = [], [solver.kernel()]
        start = time.perf_counter()
        while True:
            self.solves.append(solver.solve())
            self.kernels.append(solver.kernel())
            if after_each is not None:
                after_each()
            if time.perf_counter() - start + self.solves[-1].wall > budget:
                break

    @property
    def wall_rel(self):
        """Median over solves of the solve's wall time divided by the mean
        of the reference kernels timed just before and just after it."""
        pairs = zip(self.solves, self.kernels, self.kernels[1:])
        return statistics.median(s.wall * 2 / (before + after) for s, before, after in pairs)

    @property
    def wall_s(self):
        return statistics.median(s.wall for s in self.solves)


def end_to_end(solver, run, good, peak_rss_mb):
    rows = next((s.rows for s in run.solves if s.rows), None)
    recovery, loss_rel = solver.quality(rows) if rows else (0.0, 0.0)
    return {
        "wall_rel": (run.wall_rel, "ratio"),
        "setup_s": (solver.setup_s, "s"),
        "nodes_opened": (sum(bagel_nodes(rows)) if rows else 0, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "solved_rate": (len(good) / len(run.solves), "ratio"),
        "recovery": (recovery, "ratio"),
        "best_loss_rel": (loss_rel, "ratio"),
    }


def traced(solver, seconds):
    """Untraced solves, then traced ones; returns (runs, metrics, problems)."""
    from tracer import Tracer

    plain = Run(solver, seconds / 2)
    tracer = Tracer()
    tracer.install(solver.cli, solver.smart_design, solver.prior_nmf, solver.numerics,
                   solver.constraints)
    snapshots = []
    try:
        run = Run(solver, seconds / 2,
                  after_each=lambda: snapshots.append(tracer.deterministic_counts()))
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics(len(run.solves))
    metrics["cli.instance_mb"] = (os.path.getsize(solver.path) / 1e6, "MB")
    metrics["trace.overhead_ratio"] = (run.wall_rel / plain.wall_rel, "ratio")
    metrics["solve.wall_s"] = (plain.wall_s, "s")
    metrics["solve.kernel_s"] = (statistics.median(plain.kernels), "s")
    metrics["setup.wall_s"] = (solver.setup_raw_s, "s")
    problems = tracer.lstsq_problems() if solver.spec["problem"] == "smart-design" else []
    per_solve = [{k: v - before.get(k, 0) for k, v in after.items()}
                 for before, after in zip([{}] + snapshots, snapshots)]
    if any(p != per_solve[0] for p in per_solve):
        problems.append("traced solves gave different counts")
    if all(s.rows for s in run.solves):
        csv_nodes = [n for s in run.solves for n in bagel_nodes(s.rows)]
        if tracer.searches != csv_nodes:
            problems.append("traced node counts %s differ from the CSV %s"
                            % (tracer.searches, csv_nodes))
    return [plain, run], metrics, problems


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "bagel" / "cli.py").is_file():
        print("error: no bagel sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    launch_environment()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path(tempfile.mkdtemp(prefix="bench-work-", dir=Path(__file__).parent))
    try:
        solver = Solver(args.workload, args.seed, workdir)
        print("machine " + json.dumps(machine_info(solver.np)))
        if args.trace:
            runs, metrics, problems = traced(solver, args.seconds)
        else:
            runs, problems = [Run(solver, args.seconds)], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Read before the checks' reference solves can raise it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    solver.prepare_checks()
    solves = [s for run in runs for s in run.solves]
    verdicts = [solver.problems(s) for s in solves]
    good = [s for s, v in zip(solves, verdicts) if not v]
    problems += [p for v in verdicts for p in v]
    outputs = [without_wall(s.rows) for s in solves if s.rows]
    if any(o != outputs[0] for o in outputs):
        problems.append("solves of one instance gave different rows")
    if not args.trace:
        metrics = end_to_end(solver, runs[0], good, peak_rss_mb)
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    for name in sorted(metrics):
        print("%-32s %14.6g %s" % (name, metrics[name][0], metrics[name][1]))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(solves),
        "failed": len(solves) - len(good),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def without_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


if __name__ == "__main__":
    sys.exit(main())
