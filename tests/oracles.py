"""Engine-free oracles and instances that the test files share."""

import dataclasses
import itertools
import math

import numpy as np

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


def dense_instance(seed):
    """The generator's (40, 400, 0.6) instance with 20 components, its y
    redrawn from a dense theta* ~ N(0, 1) on every feature, so no
    budget-feasible support holds the whole signal."""
    inst = sd_generate_instance(40, 400, 0.6, seed, n_components=20)
    rng = make_rng([seed, 0xD])
    clean = inst.X @ rng.standard_normal(inst.X.shape[1])
    y = clean + NOISE_SCALE * float(np.std(clean)) * rng.standard_normal(len(clean))
    return dataclasses.replace(inst, y=y)
