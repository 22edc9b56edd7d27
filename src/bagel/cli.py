"""Command-line entry point: instance generation, solves, benchmark sweeps.

Subcommands: generate, solve, bench.  Results are flat CSV rows plus a
JSON metadata sidecar; the optional trace is newline-delimited JSON, one
record per search node.  Exit codes: 0 success, 1 validation, 2 I/O or
an argparse usage error.
Every file `generate`, `solve` and `bench` write goes to a temporary file
beside it, moved into place only when complete.  A failed or interrupted
`generate` or `solve` leaves no new output and an `--append` target byte
for byte as it was; `bench` keeps the cells it finished.
Each problem kind is one `ProblemKind` entry of `PROBLEMS` plus its generate
and `--grid-*` flags in `build_parser`; subcommands run a kind only through its entry.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import os
import platform
import shutil
import sys
import threading
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, List, Tuple

import numpy as np

from . import __version__, numerics, prior_nmf, smart_design
from .engine import StopCondition, bagel_search


@dataclass(frozen=True)
class ProblemKind:
    """How the CLI generates, stores, solves and sweeps one problem kind."""

    generate: Callable           # (seed=, **generate flags) -> instance
    module: ModuleType           # its save_instance(instance, path) and
                                 # load_instance(numerics.read_instance doc)
    solve: Callable              # (instance, args, stop, trace) -> result rows, each with
                                 # its search's SearchStats under "stats" (None if no search)
    fields: List[str]            # result CSV columns
    grid: Tuple                  # bench axes: (generate flag, --grid-* dest, cast)
    cell: str                    # bench cell name, formatted with the axis values and seed
    averages: Tuple[str, ...]    # result columns a bench cell averages, per method if any


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:12]


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def _write_rows(path, fields, rows, append=False):
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])


def _write_meta(path, config):
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


@contextlib.contextmanager
def _staged(targets):
    """{target: temporary path beside it}; each temporary file is moved
    onto its target when the block succeeds, and any not yet moved is
    removed, however the block or the moves end."""
    staged = {path: "%s.%d.tmp" % (path, os.getpid()) for path in targets}
    try:
        yield staged
        for path in targets:
            os.replace(staged[path], path)
    finally:
        for path in staged.values():
            if os.path.exists(path):
                os.remove(path)


def _read_meta(out_path):
    """A result file's sidecar, or {} if either is missing or the sidecar is not a JSON object."""
    try:
        with open(out_path + ".meta.json") as fh:
            meta = json.load(fh)
    except (FileNotFoundError, ValueError):
        return {}
    return meta if isinstance(meta, dict) and os.path.exists(out_path) else {}


def _check_search_flags(args):
    """The StopCondition of the search flags, each checked before any read
    or write, whether or not the problem kind uses it."""
    if args.folds < 1:
        raise ValueError("folds must be >= 1, got %d" % args.folds)
    if args.iters < 0:
        raise ValueError("iters must be >= 0, got %d" % args.iters)
    return StopCondition(wall_seconds=args.timeout_s, node_budget=args.node_cap)


def _sidecar(args, problem, instance_id, seed, rows=None):
    """A result file's sidecar: the keys that identify its solve and, given its
    rows, what their searches recorded (stops and nodes: one per search, in order)."""
    meta = {"instance_id": instance_id, "problem": problem, "seed": seed,
            "node_cap": args.node_cap, "strategy": args.strategy, "pruning": args.pruning,
            "timeout_s": args.timeout_s, "folds": args.folds, "iters": args.iters,
            "versions": _versions()}
    if rows is not None:
        searches = [row["stats"] for row in rows if row["stats"] is not None]
        meta.update(warnings=[w for stats in searches for w in stats.warnings],
                    stops=[stats.stop for stats in searches],
                    nodes=[{"opened": stats.nodes_opened, "trained": stats.nodes_trained,
                            "pruned": stats.nodes_pruned,
                            "failed": stats.nodes_failed, "leaves": stats.leaves}
                           for stats in searches])
    return meta


def _versions():
    """The versions a solve's numbers depend on, as its sidecar records them.

    blas is "name version" of the BLAS numpy was built with, or None where
    numpy cannot report it (`show_config(mode=...)` is numpy >= 1.26).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = None
    return {"bagel": __version__, "numpy": np.__version__,
            "python": platform.python_version(), "blas": blas}


def _generate_smart_design(seed, n, samples, cost, **_):
    return smart_design.sd_generate_instance(n, samples, cost, seed)


def _generate_prior_nmf(seed, n, true_topics, false_topics, docs, noiseless=False, **_):
    return prior_nmf.nmf_generate_instance(
        n, true_topics, false_topics, docs, seed=seed, noise_sigma=0.0 if noiseless else None,
    )


def _solve_smart_design(instance, args, stop, trace):
    return smart_design.run_methods(
        instance, folds=args.folds, stop=stop,
        strategy=args.strategy, prune=args.pruning == "on", trace=trace,
    )


def _solve_prior_nmf(instance, args, stop, trace):
    problem = prior_nmf.PriorNmfProblem(instance, iters=args.iters)
    best, stats = bagel_search(
        problem, stop=stop, strategy=args.strategy, prune=args.pruning == "on", trace=trace,
    )
    planted_loss = float("nan")
    recovery = float("nan")
    if instance.planted_topics:
        _, _, planted_loss, _ = prior_nmf.nmf_generate_and_train(
            instance, instance.planted_topics, args.iters
        )
        if best is not None:
            recovery = prior_nmf.nmf_topic_recovery(
                best.model.assignment, instance.planted_topics
            )
    return [{
        "best_loss": best.loss if best is not None else float("nan"),
        "planted_loss": planted_loss,
        "recovery": recovery,
        # The incumbent's topic per column: propagation can fix a column
        # that no trail decision names.
        "assignment": " ".join(map(str, best.model.assignment)) if best is not None else "",
        "nodes": stats.nodes_opened,
        "wall_ms": stats.wall_time * 1000.0,
        "completed": stats.completed,
        "stats": stats,
    }]


PROBLEMS = {
    "smart-design": ProblemKind(
        generate=_generate_smart_design,
        module=smart_design,
        solve=_solve_smart_design,
        fields=["instance_id", "method", "fold", "train_loss", "test_loss",
                "tightness", "nodes", "wall_ms", "completed"],
        grid=(("n", "grid_n", int), ("samples", "grid_samples", int),
              ("cost", "grid_cost", float)),
        cell="sd_n%d_m%d_c%g_s%d",
        averages=("train_loss", "test_loss", "tightness"),
    ),
    "prior-nmf": ProblemKind(
        generate=_generate_prior_nmf,
        module=prior_nmf,
        solve=_solve_prior_nmf,
        fields=["instance_id", "best_loss", "planted_loss", "recovery", "assignment",
                "nodes", "wall_ms", "completed"],
        grid=(("n", "grid_n", int), ("true_topics", "grid_true", int),
              ("false_topics", "grid_false", int), ("docs", "grid_docs", int)),
        cell="nmf_n%d_t%d_f%d_m%d_s%d",
        averages=("best_loss", "recovery"),
    ),
}


def cmd_generate(args):
    if args.seed < 0:  # numpy would reject it too, without naming the flag
        raise ValueError("seed must be >= 0, got %d" % args.seed)
    kind = PROBLEMS[args.problem]
    instance = kind.generate(**vars(args))
    with _staged([args.out]) as staged:
        kind.module.save_instance(instance, staged[args.out])
    with open(args.out, "rb") as fh:
        print("%s  %s" % (_digest(fh.read()), args.out))
    return 0


def _load_instance(path):
    """(kind, instance, data) of an instance file, read and parsed once;
    data is the file's bytes, which the instance's arrays may view."""
    doc, data = numerics.read_instance(path)
    kind = doc.get("problem") if isinstance(doc, dict) else None
    if kind not in PROBLEMS:
        raise ValueError("unrecognised instance kind %r" % kind)
    try:
        return kind, PROBLEMS[kind].module.load_instance(doc), data
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError("malformed %s instance: %s" % (kind, exc)) from exc


@contextlib.contextmanager
def _digesting(data):
    """Compute `_digest(data)` on a thread while the block runs (hashlib
    releases the GIL on large buffers).  Yields a function that waits for
    the digest and returns it; the thread is joined however the block
    exits."""
    digest = []
    thread = threading.Thread(target=lambda: digest.append(_digest(data)))
    thread.start()

    def result():
        thread.join()
        return digest[0]

    try:
        yield result
    finally:
        thread.join()


def cmd_solve(args):
    stop = _check_search_flags(args)
    if args.seed is not None and args.seed < 0:
        raise ValueError("seed must be >= 0, got %d" % args.seed)
    meta_path = args.out + ".meta.json"
    named = {}  # file -> the first flag that names it
    for flag, path in (("--instance", args.instance), ("--out", args.out),
                       ("--out's .meta.json", meta_path), ("--trace", args.trace)):
        if path and named.setdefault(os.path.realpath(path), flag) != flag:
            raise ValueError("%s and %s name the same file, %s"
                             % (named[os.path.realpath(path)], flag, path))
    kind, instance, data = _load_instance(args.instance)
    if args.seed is not None:
        instance.seed = args.seed
    fields = PROBLEMS[kind].fields
    # Decided once, before the solve: the header check, the copy and the
    # write act on the same answer, even if --out appears meanwhile.
    append = args.append and os.path.exists(args.out)
    if append:
        with open(args.out, newline="") as fh:
            header = next(csv.reader(fh), [])
        if header != fields:  # appended rows would land under other columns
            raise ValueError("cannot append to %s: its columns are %s, not %s"
                             % (args.out, ",".join(header), ",".join(fields)))
    targets = [args.out, meta_path] + ([args.trace] if args.trace else [])
    with _digesting(data) as digest, _staged(targets) as staged:
        with (open(staged[args.trace], "w") if args.trace
              else contextlib.nullcontext()) as trace_fh:
            emit = None if trace_fh is None else (
                lambda record: trace_fh.write(json.dumps(record) + "\n"))
            rows = PROBLEMS[kind].solve(instance, args, stop, emit)
        instance_id = digest()
        rows = [dict(row, instance_id=instance_id) for row in rows]
        if append:
            shutil.copyfile(args.out, staged[args.out])
        _write_rows(staged[args.out], fields, rows, append=append)
        meta = _sidecar(args, kind, instance_id, instance.seed, rows)
        _write_meta(staged[meta_path], dict(meta, instance=args.instance))
    return 0


def _parse_grid(text, cast):
    return [cast(tok) for tok in text.split(",") if tok]


def cmd_bench(args):
    stop = _check_search_flags(args)
    if args.seeds < 1:
        raise ValueError("seeds must be >= 1, got %d" % args.seeds)
    kind = PROBLEMS[args.problem]
    means = ["mean_" + column for column in kind.averages]
    fields = ["cell"] + (["method"] if "method" in kind.fields else []) + means + ["note"]
    axes = [_parse_grid(getattr(args, dest), cast) for _, dest, cast in kind.grid]
    os.makedirs(args.out_dir, exist_ok=True)
    aggregate = []
    for *values, seed in itertools.product(*axes, range(args.seeds)):
        cell = kind.cell % (*values, seed)
        cell_path = os.path.join(args.out_dir, cell + ".csv")
        stored = _read_meta(cell_path)
        # Resume a cell solved with the same identity keys; older sweeps lack node_cap (None).
        if any(stored.get(key) != value
               for key, value in _sidecar(args, args.problem, cell, seed).items()):
            try:
                flags = {flag: value for (flag, _, _), value in zip(kind.grid, values)}
                instance = kind.generate(seed=seed, **flags)
                rows = kind.solve(instance, args, stop, None)
            except Exception as exc:  # sweep continues past bad cells
                aggregate.append({"cell": cell, "method": "error", "note": str(exc),
                                  **dict.fromkeys(means, float("nan"))})
                continue
            with _staged([cell_path, cell_path + ".meta.json"]) as staged:
                _write_rows(staged[cell_path], kind.fields,
                            [dict(row, instance_id=cell) for row in rows])
                _write_meta(staged[cell_path + ".meta.json"],
                            _sidecar(args, args.problem, cell, seed, rows))
                # The CSV moves first; until the sidecar follows, none marks
                # the cell, so an interrupted move means "solve again".
                with contextlib.suppress(FileNotFoundError):
                    os.remove(cell_path + ".meta.json")
        with open(cell_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # Rows without a method column average as one group.
        for method in sorted({r.get("method") for r in rows}):
            sub = [r for r in rows if r.get("method") == method]
            aggregate.append({"cell": cell, "method": method, "note": "", **{
                mean: float(np.mean([float(r[column]) for r in sub]))
                for mean, column in zip(means, kind.averages)
            }})
    out_path = os.path.join(args.out_dir, "aggregate.csv")
    with _staged([out_path]) as staged:
        _write_rows(staged[out_path], fields, aggregate)
    print(out_path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="bagel")
    sub = parser.add_subparsers(dest="command", required=True)

    # Search flags shared by solve and bench.
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--timeout-s", type=float, default=600.0)
    search.add_argument("--strategy", choices=["dfs", "best-first"], default="dfs")
    search.add_argument("--pruning", choices=["on", "off"], default="on")
    search.add_argument("--folds", type=int, default=5)
    search.add_argument("--iters", type=int, default=1000)

    gen = sub.add_parser("generate", help="write a seeded instance file")
    gen.add_argument("--problem", choices=list(PROBLEMS), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, required=True, help="features / vocabulary size")
    gen.add_argument("--samples", type=int, default=100)
    gen.add_argument("--cost", type=float, default=0.6, help="budget as a fraction of total weight")
    gen.add_argument("--true-topics", type=int, default=4)
    gen.add_argument("--false-topics", type=int, default=2)
    gen.add_argument("--docs", type=int, default=50)
    gen.add_argument("--noiseless", action="store_true")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance file", parents=[search])
    solve.add_argument("--instance", required=True)
    solve.add_argument("--out", required=True)
    solve.add_argument("--trace", default=None)
    solve.add_argument("--append", action="store_true")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--node-cap", type=int, default=None)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="sweep a parameter grid", parents=[search])
    bench.add_argument("--problem", choices=list(PROBLEMS), required=True)
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--seeds", type=int, default=3)
    bench.add_argument("--grid-n", default="10,20")
    bench.add_argument("--grid-samples", default="100")
    bench.add_argument("--grid-cost", default="0.6")
    bench.add_argument("--grid-true", default="4")
    bench.add_argument("--grid-false", default="2")
    bench.add_argument("--grid-docs", default="50")
    bench.set_defaults(func=cmd_bench, node_cap=None)
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
