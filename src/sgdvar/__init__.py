"""Averaged SGD with a streaming estimator of its asymptotic covariance.

The package solves stochastic optimization problems with averaged
stochastic gradient descent while estimating, online and in one pass,
the asymptotic covariance of the averaged iterate, enabling confidence
regions that tighten as the stream grows.
"""

__version__ = "0.1.0"

from .schedule import StepParams, ConstraintViolation, validate
from .estimator import (
    EstimatorState,
    NumericError,
    init,
    step,
    merge,
    snapshot,
    restore,
)
from .problems import (
    Observation,
    Singularity,
    DataError,
    RandomSource,
    logistic_gradient,
    logistic_hessian,
    quantile_gradient,
    sphere_sampler,
    logistic_sampler,
    csv_stream,
)
from .baselines import (
    Trajectory,
    SingularHessian,
    batch_sigma,
    nonrecursive_sigma,
    pelletier_sigma,
    plugin_sandwich,
)
from .analysis import (
    KsResult,
    SphereReferences,
    sphere_references,
    normalize_iterate,
    normalize_average,
    ks_normal,
    frobenius_error,
    chi_square_quantile,
    confidence_ball,
    confidence_region,
)
from .experiments import RunConfig, MetricsRecord, RunResult, ConfigError, run, emit

__all__ = [
    "__version__",
    "StepParams", "ConstraintViolation", "validate",
    "EstimatorState", "NumericError", "init", "step", "merge", "snapshot", "restore",
    "Observation", "Singularity", "DataError", "RandomSource",
    "logistic_gradient", "logistic_hessian", "quantile_gradient",
    "sphere_sampler", "logistic_sampler", "csv_stream",
    "Trajectory", "SingularHessian", "batch_sigma", "nonrecursive_sigma",
    "pelletier_sigma", "plugin_sandwich",
    "KsResult", "SphereReferences", "sphere_references", "normalize_iterate",
    "normalize_average", "ks_normal", "frobenius_error", "chi_square_quantile",
    "confidence_ball", "confidence_region",
    "RunConfig", "MetricsRecord", "RunResult", "ConfigError", "run", "emit",
]
