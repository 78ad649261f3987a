"""Weighted multilayer stochastic blockmodel with a global ambient-noise
block, fit by hierarchical variational EM."""

from .errors import DataError, NumericalError, SBANMError
from .evaluate import (
    ParamReport,
    ari,
    exact_recovery,
    icl,
    nmi,
    optimal_matching,
    param_report,
)
from .init import spectral_embedding, spectral_init
from .io import (
    ResponseMatrix,
    build_similarity_network,
    fisher,
    normalize_logit,
    read_memberships,
    read_network,
    read_params,
    read_responses,
    write_memberships,
    write_network,
    write_params,
)
from .model import (
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    pair_moments,
    param_count,
    psi,
)
from .simulate import (
    SimSpec,
    bhattacharyya,
    candidate_network,
    draw_candidate,
    draw_separable,
    experiment1_spec,
    experiment2_spec,
    filter_separable,
    gen_network,
    gen_params,
)
from .svi import SviConfig, averaging_weight, subsample_nodes, subsample_size
from .vem import (
    FitConfig,
    FitResult,
    e_step,
    elbo,
    fit,
    m_step_alpha,
    m_step_block,
    m_step_noise,
)

__all__ = [
    "BlockParams", "DataError", "FitConfig", "FitResult", "ModelParams", "MultilayerNetwork",
    "NumericalError", "ParamReport", "ResponseMatrix", "SBANMError", "SimSpec",
    "SviConfig", "VariationalState", "ari", "averaging_weight", "bhattacharyya",
    "build_similarity_network", "candidate_network", "draw_candidate",
    "draw_separable", "e_step", "elbo", "exact_recovery", "experiment1_spec",
    "experiment2_spec", "filter_separable", "fisher", "fit", "gen_network", "gen_params", "icl",
    "m_step_alpha", "m_step_block", "m_step_noise", "nmi", "normalize_logit",
    "optimal_matching", "pair_moments", "param_count", "param_report", "psi",
    "read_memberships", "read_network", "read_params", "read_responses", "spectral_embedding",
    "spectral_init", "subsample_nodes", "subsample_size", "write_memberships",
    "write_network", "write_params",
]

__version__ = "0.1.0"
