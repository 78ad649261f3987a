"""Schedule of the stochastic (subsampled) E-step for large graphs.

SVI step t runs the E-step (sbanm.vem.e_step) once on the pairs inside a
node subsample whose size grows toward n, damped by a decaying averaging
weight.  This module only gives the schedule: sbanm.vem.fit makes every
E-step, full batch or SVI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import substream

# Step-size exponents (Hoffman, Blei, Wang & Paisley 2013).  KAPPA_W lies in
# (0.5, 1], so the averaging weights satisfy Robbins-Monro; KAPPA_M is
# finite, so the subsample reaches n.
KAPPA_M = 2.0
KAPPA_W = 0.7


@dataclass
class SviConfig:
    a: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.a < 2:
            raise DataError("base subsample size must be at least 2")


def subsample_size(t: int, cfg: SviConfig, n: int) -> int:
    """min(a + (t/(t+1))^KAPPA_M * n, n), floored to an integer."""
    grown = cfg.a + (t / (t + 1)) ** KAPPA_M * n
    return int(min(grown, n))


def averaging_weight(t: int) -> float:
    """(t+1)^(-KAPPA_W); sums diverge while squared sums converge."""
    return (t + 1) ** (-KAPPA_W)


def subsample_nodes(t: int, cfg: SviConfig, n: int) -> np.ndarray | None:
    """The sorted nodes of SVI step t, subsample_size(t) of them drawn
    without replacement from the (seed, "svi-sample", t) substream (always
    the same for a given (seed, t)); None once that size covers the graph.
    """
    m = subsample_size(t, cfg, n)
    if m >= n:
        return None
    return np.sort(substream(cfg.seed, "svi-sample", t).choice(n, size=m, replace=False))
