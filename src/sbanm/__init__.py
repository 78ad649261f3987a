"""Weighted multilayer stochastic blockmodel with a global ambient-noise
block, fit by hierarchical variational EM."""

from .errors import DataError, NumericalError, SBANMError
from .estep import e_step
from .evaluate import (
    ParamReport,
    ari,
    exact_recovery,
    icl,
    nmi,
    optimal_matching,
    param_report,
)
from .init import InitConfig, spectral_embedding, spectral_init
from .io import (
    ResponseMatrix,
    build_similarity_network,
    fisher,
    normalize_logit,
    read_memberships,
    read_network,
    read_params,
    read_responses,
    sum_layers,
    write_memberships,
    write_network,
    write_params,
)
from .model import (
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    NoiseParams,
    VariationalState,
    build_covariance,
    pair_moments,
    param_count,
    psi,
)
from .simulate import (
    SimSpec,
    bhattacharyya,
    draw_candidate,
    experiment2_spec,
    filter_separable,
    gen_network,
    gen_params,
)
from .svi import SviConfig, averaging_weight, subsample_size, svi_e_step
from .vem import (
    FitConfig,
    FitResult,
    elbo,
    fit,
    m_step_alpha,
    m_step_block,
    m_step_noise,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
