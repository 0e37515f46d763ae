"""Matrix-variate dynamic linear models with per-variable degrees of freedom.

The package provides the covariance and forecast distribution family, the
conjugate filtering recursions with entrywise missing-data masks, a bivariate
local-level simulation harness, and a command line interface.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    FilterError,
    MeanUndefined,
    MvdlmError,
    NotPositiveDefinite,
    ParseError,
)
from .linalg import SpdMatrix, as_spd, cholesky_lower, symmetrize
from .distributions import (
    IgParams,
    MatrixNormalParams,
    MiwParams,
    MtParams,
    diag_marginal_ig,
    iw_log_density,
    iw_to_miw,
    log_multigamma,
    matrix_normal_log_density,
    miw_conditional_update,
    miw_log_density,
    miw_marginal_block,
    miw_mean,
    miw_to_iw,
    mt_log_density,
    sample_matrix_normal,
    sample_miw,
)
from .dlm import (
    FilterOutput,
    MaskedObservation,
    ModelSpec,
    NmiwState,
    correlation_estimate,
    filter,
    msse,
)
from .simulate import (
    DEFAULT_MISSING_PATTERN,
    ExperimentSummary,
    LocalLevelConfig,
    MissingPattern,
    apply_missing,
    default_prior,
    gen_local_level,
    local_level_model,
    replicate_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_MISSING_PATTERN",
    "DimensionMismatch",
    "DomainError",
    "ExperimentSummary",
    "FilterError",
    "FilterOutput",
    "IgParams",
    "LocalLevelConfig",
    "MaskedObservation",
    "MatrixNormalParams",
    "MeanUndefined",
    "MissingPattern",
    "MiwParams",
    "ModelSpec",
    "MtParams",
    "MvdlmError",
    "NmiwState",
    "NotPositiveDefinite",
    "ParseError",
    "SpdMatrix",
    "apply_missing",
    "as_spd",
    "cholesky_lower",
    "correlation_estimate",
    "default_prior",
    "diag_marginal_ig",
    "filter",
    "gen_local_level",
    "iw_log_density",
    "iw_to_miw",
    "local_level_model",
    "log_multigamma",
    "matrix_normal_log_density",
    "miw_conditional_update",
    "miw_log_density",
    "miw_marginal_block",
    "miw_mean",
    "miw_to_iw",
    "msse",
    "mt_log_density",
    "replicate_experiment",
    "sample_matrix_normal",
    "sample_miw",
    "symmetrize",
]
