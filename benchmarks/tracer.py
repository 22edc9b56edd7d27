"""Per-module timings of `bagel solve`, traced from outside the program.

The tracer rebinds public functions of the bagel modules (and the
methods of the two Problem classes) to wrappers that time each call.
Spans nest: every call is recorded under its own name and the name of
the span it was called from, so a module's self time is its span time
minus the time of the spans it called.  `restore()` puts the original
functions back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

PROBLEM_METHODS = ("root_state", "prune", "generate", "train", "is_leaf", "branch",
                   "apply", "extract")


class _Search:
    """Per-search state: trained masks by trail and the best leaf loss."""

    def __init__(self):
        self.masks = {}
        self.best_leaf = None


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)  # (span, parent span) -> seconds
        self.calls = defaultdict(int)      # (span, parent span) -> calls
        self.counts = defaultdict(int)     # named event counters
        self.searches = []                 # nodes_opened of each search, in order
        self._stack = []
        self._patches = []
        self._search = _Search()

    # -- installing -------------------------------------------------------

    def wrap(self, owner, attr, span, after=None):
        """Rebind owner.attr to a timed wrapper; after(bound_args, result)
        runs once the call returns."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        stack, seconds, calls = self._stack, self.seconds, self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            key = (span, stack[-1] if stack else None)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
                calls[key] += 1
                stack.pop()
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, cli, smart_design, prior_nmf, numerics, constraints):
        """Wrap every layer boundary the per-layer metrics need.  The engine's
        search is wrapped where its two callers imported it."""
        self.wrap(cli, "main", "cli.main")
        for module in (smart_design, prior_nmf):
            self.wrap(module, "load_instance", "cli.load_instance")
        self.wrap(smart_design, "run_methods", "smart_design.run_methods")
        for module in (cli, smart_design):
            self.wrap(module, "bagel_search", "engine.bagel_search", after=self._on_search)
        for cls, prefix in ((smart_design.SmartDesignProblem, "smart_design"),
                            (prior_nmf.PriorNmfProblem, "prior_nmf")):
            for method in PROBLEM_METHODS:
                hook = {"train": self._on_train, "extract": self._on_extract}.get(method)
                self.wrap(cls, method, "%s.%s" % (prefix, method), after=hook)
        for name in ("baseline_l2_br", "baseline_l2_or"):
            self.wrap(smart_design, name, "smart_design." + name)
        self.wrap(prior_nmf, "nmf_build_mask", "prior_nmf.nmf_build_mask")
        self.wrap(prior_nmf, "nmf_generate_and_train", "prior_nmf.nmf_generate_and_train")
        self.wrap(numerics, "solve_least_squares", "numerics.solve_least_squares")
        self.wrap(numerics, "nmf_multiplicative", "numerics.nmf_multiplicative",
                  after=self._on_nmf)
        for name in ("budget_propagate", "alldifferent_filter", "et_rank_tuples"):
            self.wrap(constraints, name, "constraints." + name)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks ----------------------------------------------------------------

    def _on_search(self, args, result):
        _, stats = result
        self.counts["nodes_opened"] += stats.nodes_opened
        self.counts["nodes_pruned"] += stats.nodes_pruned
        self.counts["nodes_failed"] += stats.nodes_failed
        self.counts["leaves"] += stats.leaves
        self.searches.append(stats.nodes_opened)

    def _on_train(self, args, loss):
        node = args["node"]
        if not node.trail:  # the root opens every search and is trained first
            self._search = _Search()
        search = self._search
        self.counts["nodes_trained"] += 1
        parent_mask = search.masks.get(node.trail[:-1]) if node.trail else None
        if parent_mask is not None and np.array_equal(parent_mask, node.payload):
            self.counts["dup_mask_trains"] += 1
        if (node.parent_loss is not None and search.best_leaf is not None
                and node.parent_loss >= search.best_leaf):
            self.counts["dominated_trains"] += 1
        search.masks[node.trail] = node.payload

    def _on_extract(self, args, model):
        # The engine extracts exactly when a leaf becomes the new incumbent.
        loss = args["node"].trained_loss
        best = self._search.best_leaf
        self._search.best_leaf = loss if best is None else min(best, loss)

    def _on_nmf(self, args, result):
        n, m = np.shape(args["A"])
        k, iters = args["k"], args["iters"]
        self.counts["nmf_iters"] += iters
        # Matrix products only: per iteration W'A, W'W, (W'W)H, HH', AH',
        # W(HH'); then W H once for the final loss.
        self.counts["nmf_flop"] += iters * (4 * n * m * k + 4 * k * k * (n + m)) + 2 * n * m * k

    # -- reading --------------------------------------------------------------

    def total(self, span, parent=None):
        """Seconds in span, optionally only where called from parent."""
        return sum(s for (name, p), s in self.seconds.items()
                   if name == span and (parent is None or p == parent))

    def ncalls(self, span, parent=None):
        return sum(c for (name, p), c in self.calls.items()
                   if name == span and (parent is None or p == parent))

    def self_time(self, span):
        return self.total(span) - sum(s for (_, p), s in self.seconds.items() if p == span)

    def layer_metrics(self, reps):
        """Per-layer metrics of one run of the workload's solves: totals
        divided by the `reps` traced runs they were summed over."""
        t, c, n = self.total, self.ncalls, self.counts
        totals = {
            "cli.load_s": (t("cli.load_instance"), "s"),
            "cli.self_s": (self.self_time("cli.main"), "s"),
            "engine.self_s": (self.self_time("engine.bagel_search"), "s"),
            "engine.nodes_trained": (n["nodes_trained"], "count"),
            "engine.nodes_pruned": (n["nodes_pruned"], "count"),
            "engine.nodes_failed": (n["nodes_failed"], "count"),
            "engine.leaves": (n["leaves"], "count"),
            "engine.dup_mask_trains": (n["dup_mask_trains"], "count"),
            "engine.dominated_trains": (n["dominated_trains"], "count"),
            "smart_design.train_s": (t("smart_design.train"), "s"),
            "smart_design.generate_s": (t("smart_design.generate"), "s"),
            "smart_design.prune_s": (t("smart_design.prune"), "s"),
            "smart_design.is_leaf_s": (t("smart_design.is_leaf"), "s"),
            "smart_design.branch_s": (t("smart_design.branch") + t("smart_design.apply"), "s"),
            "smart_design.baselines_s": (t("smart_design.baseline_l2_br")
                                         + t("smart_design.baseline_l2_or"), "s"),
            "prior_nmf.train_s": (t("prior_nmf.train"), "s"),
            "prior_nmf.generate_s": (t("prior_nmf.generate"), "s"),
            "prior_nmf.prune_s": (t("prior_nmf.prune"), "s"),
            "prior_nmf.branch_s": (t("prior_nmf.branch") + t("prior_nmf.apply"), "s"),
            "prior_nmf.build_mask_calls": (c("prior_nmf.nmf_build_mask"), "count"),
            "prior_nmf.planted_ref_s": (t("prior_nmf.nmf_generate_and_train", "cli.main"), "s"),
            "numerics.lstsq_calls": (c("numerics.solve_least_squares"), "count"),
            "numerics.lstsq_s": (t("numerics.solve_least_squares"), "s"),
            "numerics.nmf_calls": (c("numerics.nmf_multiplicative"), "count"),
            "numerics.nmf_s": (t("numerics.nmf_multiplicative"), "s"),
            "numerics.nmf_gflop": (n["nmf_flop"] / 1e9, "GFLOP"),
            "constraints.budget_propagate_s": (t("constraints.budget_propagate"), "s"),
            "constraints.alldifferent_s": (t("constraints.alldifferent_filter"), "s"),
            "constraints.et_rank_s": (t("constraints.et_rank_tuples"), "s"),
        }
        out = {name: (value // reps if unit == "count" else value / reps, unit)
               for name, (value, unit) in totals.items()}
        # Ratios of totals need no division by reps.
        out["engine.us_per_node"] = (
            _ratio(t("engine.bagel_search"), n["nodes_opened"]) * 1e6, "us")
        out["numerics.lstsq_ms_per_call"] = (
            _ratio(t("numerics.solve_least_squares"), c("numerics.solve_least_squares")) * 1e3, "ms")
        out["numerics.nmf_us_per_iter"] = (
            _ratio(t("numerics.nmf_multiplicative"), n["nmf_iters"]) * 1e6, "us")
        return out

    def lstsq_problems(self):
        """Every least-squares solve is a smart-design train or a baseline
        solve, and no train makes more than one.  (At the commit that added
        this benchmark every train made exactly one.)"""
        c = self.ncalls
        span = "numerics.solve_least_squares"
        by_train = c(span, "smart_design.train")
        by_baselines = c(span, "smart_design.baseline_l2_br") + c(span, "smart_design.baseline_l2_or")
        problems = []
        if c(span) != by_train + by_baselines:
            problems.append("%d lstsq calls, but %d from trains + %d from baselines"
                            % (c(span), by_train, by_baselines))
        if by_train > c("smart_design.train"):
            problems.append("%d smart-design trains made %d lstsq calls"
                            % (c("smart_design.train"), by_train))
        return problems

    def deterministic_counts(self):
        """Counters that must repeat exactly from one traced run to the next."""
        counts = {k: v for k, v in self.counts.items() if k != "nmf_flop"}
        for span in ("numerics.solve_least_squares", "numerics.nmf_multiplicative",
                     "prior_nmf.nmf_build_mask"):
            counts[span] = self.ncalls(span)
        return counts


def _ratio(num, den):
    return num / den if den else 0.0
