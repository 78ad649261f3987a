"""Stochastic (subsampled) variant of the E-step for large graphs.

Each step draws a node subsample whose size grows toward n, runs the
E-step kernel (sbanm.estep) on the pairs inside it, and averages the new
tau rows and P into the running estimates with a decaying weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estep import e_step
from .model import ModelParams, MultilayerNetwork, VariationalState
from .rng import substream


@dataclass
class SviConfig:
    a: int = 150
    kappa_m: float = 2.0
    kappa_w: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.a < 2:
            raise DataError("base subsample size must be at least 2")
        # With kappa_m = inf the subsample would stay at a nodes for good.
        if not 0 <= self.kappa_m < math.inf:
            raise DataError("kappa_m must be nonnegative and finite")
        if not 0.5 < self.kappa_w <= 1.0:
            raise DataError("kappa_w must lie in (0.5, 1]")


def subsample_size(t: int, cfg: SviConfig, n: int) -> int:
    """min(a + (t/(t+1))^kappa_m * n, n), floored to an integer."""
    grown = cfg.a + (t / (t + 1)) ** cfg.kappa_m * n
    return int(min(grown, n))


def averaging_weight(t: int, cfg: SviConfig) -> float:
    """(t+1)^(-kappa_w); sums diverge while squared sums converge."""
    return (t + 1) ** (-cfg.kappa_w)


def svi_e_step(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    t: int,
    cfg: SviConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic E-step; returns the blended (tau, P).

    One undamped tau pass and the P update on the pairs inside a node
    subsample of size subsample_size(t); sampled rows of tau and P then get
    delta_t * new + (1 - delta_t) * previous and tau's rows are
    renormalized; unsampled rows are kept unchanged.  The sample for a
    given (seed, t) is always the same.
    """
    n = state.n
    m = subsample_size(t, cfg, n)
    if m < state.Q:
        raise DataError("subsample too small for Q blocks")
    rng = substream(cfg.seed, "svi-sample", t)
    nodes = np.sort(rng.choice(n, size=m, replace=False))
    return e_step(net, params, state, nodes, averaging_weight(t, cfg), inner=1, damping=1.0)
