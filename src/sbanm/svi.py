"""Stochastic (subsampled) variant of the E-step for large graphs.

Each step draws a node subsample whose size grows toward n and runs one
pass of the E-step kernel (sbanm.estep) on the pairs inside it, damped by
a decaying averaging weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estep import e_step
from .model import ModelParams, MultilayerNetwork, VariationalState
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


def svi_e_step(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    t: int,
    cfg: SviConfig,
) -> np.ndarray:
    """One stochastic E-step; returns the new tau.

    One e_step pass on the pairs inside a node subsample of size
    subsample_size(t) (always the same for a given (seed, t)), with
    damping=averaging_weight(t): sampled rows get that weight times the
    new rows plus the rest times the previous ones, renormalized; the
    others are kept.  P is not blended: the fit takes it at the new tau
    from the whole-graph moment pass, as after a full-batch step.
    """
    n = state.n
    m = subsample_size(t, cfg, n)
    if m < state.Q:
        raise DataError("subsample too small for Q blocks")
    rng = substream(cfg.seed, "svi-sample", t)
    nodes = np.sort(rng.choice(n, size=m, replace=False))
    return e_step(net, params, state, nodes, inner=1, damping=averaging_weight(t))
