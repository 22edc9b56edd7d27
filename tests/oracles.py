"""Engine-free oracles and instances that the test files share."""

import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np

from bagel import numerics
from bagel.numerics import make_rng
from bagel.smart_design import NOISE_SCALE, sd_generate_instance


def brute_force_sd(inst):
    """Best train loss of a smart-design instance: every selection whose
    weights `math.fsum` below the bound, each fitted by raw lstsq."""
    d = inst.X.shape[1]
    w = [c.weight for c in inst.components]
    sizes = [c.input_size for c in inst.components]
    best = None
    for u in itertools.product((0, 1), repeat=len(w)):
        if math.fsum(itertools.compress(w, u)) < inst.bound:
            cols = []
            start = 0
            for bit, size in zip(u, sizes):
                if bit:
                    cols.extend(range(start, start + size))
                start += size
            theta = np.zeros(d)
            if cols:
                theta[cols] = np.linalg.lstsq(inst.X[:, cols], inst.y, rcond=None)[0]
            loss = float(np.sqrt(np.sum((inst.X @ theta - inst.y) ** 2)))
            if best is None or loss < best:
                best = loss
    return best


def random_start(A, k, rng):
    """A random NMF start: W (n x k), then H (k x m), in (0, 1], the order
    and form in which `prior_nmf.nmf_random_start` draws them."""
    n, m = np.shape(A)
    return 1.0 - rng.random((n, k)), 1.0 - rng.random((k, m))


@contextlib.contextmanager
def sweep_losses():
    """A list that gathers (sq, loss, explicit) for every sweep the HALS
    kernel runs inside the block: sq is the sweep's loss^2 by the identity
    in the comment above `numerics.NMF_STOP_RTOL`, loss the loss its
    stopping rule read, and explicit whether that loss is the explicit
    residual, taken where the identity's guard fired."""
    seen = []
    sweep_loss = numerics._sweep_loss

    def watched(sq, floor, residual):
        explicit = []

        def counted():
            explicit.append(True)
            return residual()

        loss = sweep_loss(sq, floor, counted)
        seen.append((sq, loss, bool(explicit)))
        return loss

    with mock.patch.object(numerics, "_sweep_loss", watched):
        yield seen


def dense_instance(seed):
    """The generator's (40, 400, 0.6) instance with 20 components, its y
    redrawn from a dense theta* ~ N(0, 1) on every feature, so no
    budget-feasible support holds the whole signal."""
    inst = sd_generate_instance(40, 400, 0.6, seed, n_components=20)
    rng = make_rng([seed, 0xD])
    clean = inst.X @ rng.standard_normal(inst.X.shape[1])
    y = clean + NOISE_SCALE * float(np.std(clean)) * rng.standard_normal(len(clean))
    return dataclasses.replace(inst, y=y)


# The smart-design workloads of benchmarks/run.py: generator arguments and
# `bagel solve` flags.
BENCHMARK_WORKLOADS = {
    "sd-tall": (dict(n_features=100, samples=10000, cost_percent=0.6, n_components=8),
                ["--folds", "1"]),
    "sd-many": (dict(n_features=40, samples=400, cost_percent=0.6, n_components=20),
                ["--strategy", "best-first", "--folds", "5"]),
}


def benchmark_shaped(workload, seed):
    """The instance benchmarks/run.py solves for a smart-design workload
    at order seed `seed`: the generator's instance at library seed 1, its
    rows permuted and its stored seed drawn by `make_rng(seed)`."""
    shape, _ = BENCHMARK_WORKLOADS[workload]
    rng = make_rng(seed)
    inst = sd_generate_instance(**shape, seed=1)
    order = rng.permutation(len(inst.y))
    inst.X, inst.y = inst.X[order], inst.y[order]
    inst.seed = int(rng.integers(2 ** 63 - 1))
    return inst
