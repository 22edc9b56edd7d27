"""Engine-free oracles that the test files share."""

import itertools
import math

import numpy as np


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
