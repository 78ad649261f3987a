import io

import sbanm

# The names `from sbanm import *` gives: the package's functions and
# classes, none of its submodules.
PUBLIC = [
    "BlockParams", "DataError", "FitConfig", "FitResult", "ModelParams", "MultilayerNetwork",
    "NoiseParams", "NumericalError", "ParamReport", "ResponseMatrix", "SBANMError", "SimSpec",
    "SviConfig", "VariationalState", "ari", "averaging_weight", "bhattacharyya",
    "build_covariance", "build_similarity_network", "draw_candidate", "e_step", "elbo",
    "exact_recovery", "experiment2_spec", "filter_separable", "fisher", "fit", "gen_network",
    "gen_params", "icl", "m_step_alpha", "m_step_block", "m_step_noise", "nmi",
    "normalize_logit", "optimal_matching", "pair_moments", "param_count", "param_report", "psi",
    "read_memberships", "read_network", "read_params", "read_responses", "spectral_embedding",
    "spectral_init", "subsample_size", "sum_layers", "svi_e_step", "write_memberships",
    "write_network", "write_params",
]


def test_public_surface_is_pinned():
    # A name joins or leaves the package's surface only with this list.
    assert sorted(sbanm.__all__) == PUBLIC


def test_star_import_leaves_stdlib_io_alone():
    namespace = {}
    exec("import io\nfrom sbanm import *", namespace)
    assert namespace["io"] is io
