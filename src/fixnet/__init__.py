"""fixnet: regression with fixed-weight sigmoid feature networks.

Feature networks whose inner weights come from closed-form constructions
approximate monomials, tents, and their products; only the linear output
layer is learned, by regularized least squares.  The package provides the
anchor-grid and projection estimators built from those features, classical
baselines, and a reproducible simulation benchmark.  The benchmark's names
and the baselines module load on first use.
"""

import importlib
import os
import sys

# OpenBLAS reads this when numpy loads it.  By default an idle BLAS worker
# spins for 2^28 cycles after each call, burning a second core through the
# elementwise feature builds; at 4, the least accepted, it sleeps.  Thread
# count and work split are unchanged, and so is every result.  A caller's
# value, or a numpy loaded before fixnet, is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .activation import ActivationProfile, admissibility_constants, sigma, sigma_derivative
from .netblocks import (BlockParams, R_SUPPORTED_MAX, bound_hat, bound_id,
                     bound_mult, bound_relu, bound_sq, clamp_scale, exact_hat,
                     f_hat, f_id, f_mult, f_relu, f_sq)
from .data import CsvFormatError, Dataset, load_x_csv, load_xy_csv
from .errors import (EstimatorError, FeatureCountError, FixnetError,
                     ParameterError, SolverError)
from .estimators import (FittedEstimator, PPConfig, SmoothConfig,
                         empirical_l2_risk, fit_pp, fit_smooth,
                         load_estimator, predict, sample_directions,
                         save_estimator)
from .features import (FeatureDescriptor, FeatureSet, architecture_summary,
                       count_features_cube, count_features_pp,
                       enumerate_features_cube, enumerate_features_pp,
                       eval_exact_target, eval_feature, multi_indices,
                       partition_of_unity_check, scale_lower_bound,
                       taylor_patch_P)
from .ridge import (DesignMatrix, RidgeSolution, build_design_matrix,
                    coefficient_bound_audit, objective_value, ridge_solve)
from .rng import Stream, mix64, normal_icdf

# Only bench and rate run the simulation benchmark and the baselines, so
# these names load their modules on first use (PEP 562) and a fit or
# predict process never compiles or imports them.
_SIMBENCH_NAMES = (
    "TARGETS", "TargetSpec", "BenchConfig", "BenchmarkReport", "RateConfig",
    "RateResult", "eval_target", "generate", "reference_error",
    "scaled_errors", "run_benchmark", "rate_experiment")


def __getattr__(name):
    if name in ("simbench", "baselines"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SIMBENCH_NAMES:
        return getattr(importlib.import_module(f"{__name__}.simbench"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ActivationProfile", "admissibility_constants", "sigma",
    "sigma_derivative",
    "BlockParams", "R_SUPPORTED_MAX", "clamp_scale", "exact_hat",
    "f_id", "f_sq", "f_mult", "f_relu", "f_hat",
    "bound_id", "bound_sq", "bound_mult", "bound_relu", "bound_hat",
    "CsvFormatError", "Dataset", "load_x_csv", "load_xy_csv",
    "FixnetError", "ParameterError", "FeatureCountError", "SolverError",
    "EstimatorError",
    "FeatureDescriptor", "FeatureSet", "multi_indices", "count_features_cube",
    "count_features_pp", "enumerate_features_cube", "enumerate_features_pp",
    "eval_feature", "eval_exact_target", "scale_lower_bound",
    "taylor_patch_P", "partition_of_unity_check", "architecture_summary",
    "DesignMatrix", "RidgeSolution", "build_design_matrix", "ridge_solve",
    "objective_value", "coefficient_bound_audit",
    "SmoothConfig", "PPConfig", "FittedEstimator", "fit_smooth", "fit_pp",
    "sample_directions", "predict", "empirical_l2_risk", "save_estimator",
    "load_estimator",
    "Stream", "mix64", "normal_icdf",
    *_SIMBENCH_NAMES,
    "baselines",
    "__version__",
]
