"""Command-line entry point: instance generation, solves, benchmark sweeps.

Subcommands: generate, solve, bench.  Results are flat CSV rows plus a
JSON metadata sidecar; the optional trace is newline-delimited JSON, one
record per search node.  Exit codes: 0 success, 1 validation, 2 I/O.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import prior_nmf, smart_design
from .engine import StopCondition, bagel_search

SD_FIELDS = ["instance_id", "method", "fold", "train_loss", "test_loss",
             "tightness", "nodes", "wall_ms", "completed"]
NMF_FIELDS = ["instance_id", "best_loss", "planted_loss", "recovery",
              "nodes", "wall_ms", "completed"]


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def _write_rows(path, fields, rows, append=False):
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])


def _write_meta(out_path, config):
    with open(out_path + ".meta.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _env_seed(seed):
    env = os.environ.get("BAGEL_SEED")
    return int(env) if env is not None else seed


def cmd_generate(args):
    seed = _env_seed(args.seed)
    if args.problem == "smart-design":
        instance = smart_design.sd_generate_instance(
            args.n, args.samples, args.cost, seed
        )
        smart_design.save_instance(instance, args.out)
    else:
        instance = prior_nmf.nmf_generate_instance(
            args.n, args.true_topics, args.false_topics, args.docs,
            sparsity=args.sparsity, seed=seed,
            noise_sigma=0.0 if args.noiseless else None,
        )
        prior_nmf.save_instance(instance, args.out)
    print("%s  %s" % (_digest(args.out), args.out))
    return 0


def _stop_from(args):
    return StopCondition(wall_seconds=args.timeout_s, node_budget=args.node_cap)


def _trace_writer(path):
    fh = open(path, "w")

    def emit(record):
        fh.write(json.dumps(record) + "\n")

    return emit, fh


def _solve_smart_design(instance, instance_id, args, trace):
    rows = smart_design.run_methods(
        instance, folds=args.folds, stop=_stop_from(args),
        strategy=args.strategy, pruning=args.pruning, trace=trace,
    )
    for row in rows:
        row["instance_id"] = instance_id
    return SD_FIELDS, rows


def _solve_prior_nmf(instance, instance_id, args, trace):
    problem = prior_nmf.PriorNmfProblem(instance, iters=args.iters, restarts=args.restarts)
    best, stats = bagel_search(
        problem, stop=_stop_from(args), strategy=args.strategy,
        pruning=args.pruning, trace=trace,
    )
    planted_loss = float("nan")
    recovery = float("nan")
    if instance.planted_topics:
        domains = [prior_nmf.IntDomain({j}) for j in instance.planted_topics]
        _, _, planted_loss = prior_nmf.nmf_generate_and_train(
            instance, domains, args.iters, args.restarts
        )
        if best is not None:
            recovery = prior_nmf.nmf_topic_recovery(
                best.model.assignment, instance.planted_topics
            )
    row = {
        "instance_id": instance_id,
        "best_loss": best.loss if best is not None else float("nan"),
        "planted_loss": planted_loss,
        "recovery": recovery,
        "nodes": stats.nodes_opened,
        "wall_ms": stats.wall_time * 1000.0,
        "completed": stats.completed,
    }
    return NMF_FIELDS, [row]


# instance kind -> (instance from a parsed file, solve returning (fields, rows))
SOLVERS = {
    "smart-design": (smart_design.instance_from_doc, _solve_smart_design),
    "prior-nmf": (prior_nmf.instance_from_doc, _solve_prior_nmf),
}


def _load_instance(path):
    """(kind, instance) of an instance file, parsed once."""
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("problem") if isinstance(doc, dict) else None
    if kind not in SOLVERS:
        raise ValueError("unrecognised instance kind %r" % kind)
    return kind, SOLVERS[kind][0](doc)


def cmd_solve(args):
    kind, instance = _load_instance(args.instance)
    instance.seed = _env_seed(instance.seed if args.seed is None else args.seed)
    instance_id = _digest(args.instance)
    trace_emit, trace_fh = (None, None)
    if args.trace:
        trace_emit, trace_fh = _trace_writer(args.trace)
    try:
        fields, rows = SOLVERS[kind][1](instance, instance_id, args, trace_emit)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    _write_rows(args.out, fields, rows, append=args.append)
    _write_meta(args.out, {
        "instance": args.instance, "instance_id": instance_id, "problem": kind,
        "strategy": args.strategy, "pruning": args.pruning,
        "timeout_s": args.timeout_s, "node_cap": args.node_cap,
        "folds": args.folds, "seed": instance.seed,
    })
    return 0


def _parse_grid(text, cast):
    return [cast(tok) for tok in text.split(",") if tok]


def cmd_bench(args):
    os.makedirs(args.out_dir, exist_ok=True)
    aggregate = []
    if args.problem == "smart-design":
        grid = itertools.product(
            _parse_grid(args.grid_n, int),
            _parse_grid(args.grid_samples, int),
            _parse_grid(args.grid_cost, float),
            range(args.seeds),
        )
        for n, samples, cost, seed in grid:
            cell = "sd_n%d_m%d_c%g_s%d" % (n, samples, cost, seed)
            cell_path = os.path.join(args.out_dir, cell + ".csv")
            if not os.path.exists(cell_path):
                try:
                    instance = smart_design.sd_generate_instance(n, samples, cost, seed)
                    rows = smart_design.run_methods(
                        instance, folds=args.folds,
                        stop=StopCondition(wall_seconds=args.timeout_s),
                        strategy=args.strategy, pruning=args.pruning,
                    )
                    for row in rows:
                        row["instance_id"] = cell
                    _write_rows(cell_path, SD_FIELDS, rows)
                except Exception as exc:  # sweep continues past bad cells
                    aggregate.append({"cell": cell, "method": "error",
                                      "mean_train_loss": float("nan"),
                                      "mean_test_loss": float("nan"),
                                      "mean_tightness": float("nan"),
                                      "note": str(exc)})
                    continue
            with open(cell_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for method in sorted({r["method"] for r in rows}):
                sub = [r for r in rows if r["method"] == method]
                aggregate.append({
                    "cell": cell, "method": method,
                    "mean_train_loss": float(np.mean([float(r["train_loss"]) for r in sub])),
                    "mean_test_loss": float(np.mean([float(r["test_loss"]) for r in sub])),
                    "mean_tightness": float(np.mean([float(r["tightness"]) for r in sub])),
                    "note": "",
                })
        fields = ["cell", "method", "mean_train_loss", "mean_test_loss",
                  "mean_tightness", "note"]
    else:
        grid = itertools.product(
            _parse_grid(args.grid_n, int),
            _parse_grid(args.grid_true, int),
            _parse_grid(args.grid_false, int),
            _parse_grid(args.grid_docs, int),
            range(args.seeds),
        )
        for n, tt, ft, docs, seed in grid:
            cell = "nmf_n%d_t%d_f%d_m%d_s%d" % (n, tt, ft, docs, seed)
            cell_path = os.path.join(args.out_dir, cell + ".csv")
            if not os.path.exists(cell_path):
                try:
                    instance = prior_nmf.nmf_generate_instance(n, tt, ft, docs, seed=seed)
                    problem = prior_nmf.PriorNmfProblem(
                        instance, iters=args.iters, restarts=args.restarts
                    )
                    best, stats = bagel_search(
                        problem, stop=StopCondition(wall_seconds=args.timeout_s),
                        strategy=args.strategy, pruning=args.pruning,
                    )
                    recovery = float("nan")
                    if best is not None and instance.planted_topics:
                        recovery = prior_nmf.nmf_topic_recovery(
                            best.model.assignment, instance.planted_topics
                        )
                    _write_rows(cell_path, NMF_FIELDS, [{
                        "instance_id": cell,
                        "best_loss": best.loss if best else float("nan"),
                        "planted_loss": float("nan"),
                        "recovery": recovery,
                        "nodes": stats.nodes_opened,
                        "wall_ms": stats.wall_time * 1000.0,
                        "completed": stats.completed,
                    }])
                except Exception as exc:
                    aggregate.append({"cell": cell, "mean_best_loss": float("nan"),
                                      "mean_recovery": float("nan"), "note": str(exc)})
                    continue
            with open(cell_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            aggregate.append({
                "cell": cell,
                "mean_best_loss": float(np.mean([float(r["best_loss"]) for r in rows])),
                "mean_recovery": float(np.mean([float(r["recovery"]) for r in rows])),
                "note": "",
            })
        fields = ["cell", "mean_best_loss", "mean_recovery", "note"]
    out_path = os.path.join(args.out_dir, "aggregate.csv")
    _write_rows(out_path, fields, aggregate)
    print(out_path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="bagel")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded instance file")
    gen.add_argument("--problem", choices=["smart-design", "prior-nmf"], required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, required=True, help="features / vocabulary size")
    gen.add_argument("--samples", type=int, default=100)
    gen.add_argument("--cost", type=float, default=0.6, help="budget as a fraction of total weight")
    gen.add_argument("--true-topics", type=int, default=4)
    gen.add_argument("--false-topics", type=int, default=2)
    gen.add_argument("--docs", type=int, default=50)
    gen.add_argument("--sparsity", type=float, default=0.8)
    gen.add_argument("--noiseless", action="store_true")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--out", required=True)
    solve.add_argument("--trace", default=None)
    solve.add_argument("--append", action="store_true")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--timeout-s", type=float, default=600.0)
    solve.add_argument("--node-cap", type=int, default=None)
    solve.add_argument("--strategy", choices=["dfs", "best-first"], default="dfs")
    solve.add_argument("--pruning", choices=["exact", "heuristic", "off"], default=None)
    solve.add_argument("--folds", type=int, default=5)
    solve.add_argument("--iters", type=int, default=1000)
    solve.add_argument("--restarts", type=int, default=1)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="sweep a parameter grid")
    bench.add_argument("--problem", choices=["smart-design", "prior-nmf"], required=True)
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--seeds", type=int, default=3)
    bench.add_argument("--timeout-s", type=float, default=600.0)
    bench.add_argument("--strategy", choices=["dfs", "best-first"], default="dfs")
    bench.add_argument("--pruning", choices=["exact", "heuristic", "off"], default=None)
    bench.add_argument("--folds", type=int, default=5)
    bench.add_argument("--grid-n", default="10,20")
    bench.add_argument("--grid-samples", default="100")
    bench.add_argument("--grid-cost", default="0.6")
    bench.add_argument("--grid-true", default="4")
    bench.add_argument("--grid-false", default="2")
    bench.add_argument("--grid-docs", default="50")
    bench.add_argument("--iters", type=int, default=1000)
    bench.add_argument("--restarts", type=int, default=1)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
