"""High-probability lower bounds (HPLBs) on the total variation distance.

Given two labeled samples reduced to one-dimensional projection scores,
the estimators here return a bound lambda_hat with
P(lambda_hat > TV(P, Q)) <= alpha: a certified minimal fraction of
observations witnessing a distributional difference.
"""

# Imported first so that scipy.special loads here rather than nested inside
# `counting`: that nesting measured 20-40 ms slower on `import hplb`, a gap
# that closes with the garbage collector disabled.
from .distributions import binom_quantile, normal_quantile
from .bounding import BoundSpec, EffectiveSizes, effective_sizes, is_violated, q_bound
from .counting import (
    BandConstant,
    CountingPath,
    LabeledScores,
    band_constant,
    band_value,
    beta_threshold,
    build_counting_path,
    simulate_null_sup_quantile,
    w_scale,
)
from .errors import DatasetError, ParameterError
from .estimators import (
    AccuracyPair,
    HPLBResult,
    in_class_accuracies,
    lambda_adapt,
    lambda_bayes,
    lambda_c,
    lambda_oracle_t,
)
from .experiments import (
    ExampleSpec,
    PowerGridResult,
    SplitScanResult,
    example_model,
    gen_example,
    pairwise_matrix,
    run_level_study,
    run_power_grid,
    split_scan,
)
from .mixtures import (
    FunctionDensity,
    Gaussian,
    Mixture,
    MixtureModel,
    PiecewiseUniform,
    ProductDensity,
    WitnessDecomposition,
    bayes_projection,
    bounding_operation,
    decompose,
    sample_with_witness,
    sigma_true,
    tv_exact,
)
from .streams import RngStream

__version__ = "0.1.0"

__all__ = [
    "AccuracyPair",
    "BandConstant",
    "BoundSpec",
    "CountingPath",
    "DatasetError",
    "EffectiveSizes",
    "ExampleSpec",
    "FunctionDensity",
    "Gaussian",
    "HPLBResult",
    "LabeledScores",
    "Mixture",
    "MixtureModel",
    "ParameterError",
    "PiecewiseUniform",
    "PowerGridResult",
    "ProductDensity",
    "RngStream",
    "SplitScanResult",
    "WitnessDecomposition",
    "band_constant",
    "band_value",
    "bayes_projection",
    "beta_threshold",
    "binom_quantile",
    "bounding_operation",
    "build_counting_path",
    "decompose",
    "effective_sizes",
    "example_model",
    "gen_example",
    "in_class_accuracies",
    "is_violated",
    "lambda_adapt",
    "lambda_bayes",
    "lambda_c",
    "lambda_oracle_t",
    "normal_quantile",
    "pairwise_matrix",
    "q_bound",
    "run_level_study",
    "run_power_grid",
    "sample_with_witness",
    "sigma_true",
    "simulate_null_sup_quantile",
    "split_scan",
    "tv_exact",
    "w_scale",
]
