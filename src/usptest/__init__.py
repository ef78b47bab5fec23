"""Independence testing for contingency tables.

The centerpiece is the USP test: an exact permutation test built on an
unbiased estimator of the dependence measure sum((p_ij - q_i r_j)^2).
Classic Pearson chi-squared and G (likelihood-ratio) tests are included,
in both their asymptotic and permutation forms, together with simulation
utilities for power studies, estimator diagnostics, and the asymptotic
size instability of the classic tests under sparsity.
"""

from .asymptotics import (
    DEFAULT_LAMBDA_GRID,
    SizeCurvePoint,
    g_asymptotic_size,
    pearson_asymptotic_size,
    size_curve,
)
from .datasets import DATASET_NAMES, EYECOLOUR, MARITAL, EmbeddedDataset, get_dataset
from .errors import (
    DivergenceUndefined,
    DomainError,
    EmptySample,
    EmptyTable,
    InfeasibleEpsilon,
    InvalidMode,
    NegativeCount,
    SampleTooSmall,
    SubsampleTooLarge,
    UndefinedStatistic,
    UspError,
)
from .numerics import (
    RandomStream,
    chi2_cdf,
    chi2_quantile,
    chi2_sf,
    poisson_pmf,
    poisson_tail_mass,
    reg_lower_gamma,
)
from .permutation import (
    METHODS,
    MODES,
    PermutationConfig,
    TestResult,
    permutation_pvalue,
    permuted_tables,
    run_test,
)
from .simulate import (
    AlternativeFamily,
    PowerCurvePoint,
    SubsampleStudy,
    TestRate,
    dense_family,
    dhat_samples,
    dhat_samples_csv,
    multiplicative_family,
    power_curve,
    power_curve_csv,
    sparse_family,
    sparse_max_epsilon,
    subsample_study,
    subsample_study_csv,
)
from .stats import (
    StatisticValue,
    chi2_divergence,
    dependence_measure,
    dhat_statistic,
    g_statistic,
    pearson_statistic,
    usp_statistic,
)
from .table import (
    ContingencyTable,
    JointDistribution,
    expected_counts,
    sample_table,
    subsample,
    validate_table,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeFamily",
    "ContingencyTable",
    "DATASET_NAMES",
    "DEFAULT_LAMBDA_GRID",
    "DivergenceUndefined",
    "DomainError",
    "EYECOLOUR",
    "EmbeddedDataset",
    "EmptySample",
    "EmptyTable",
    "InfeasibleEpsilon",
    "InvalidMode",
    "JointDistribution",
    "MARITAL",
    "METHODS",
    "MODES",
    "NegativeCount",
    "PermutationConfig",
    "PowerCurvePoint",
    "RandomStream",
    "SampleTooSmall",
    "SizeCurvePoint",
    "StatisticValue",
    "SubsampleStudy",
    "SubsampleTooLarge",
    "TestRate",
    "TestResult",
    "UndefinedStatistic",
    "UspError",
    "chi2_cdf",
    "chi2_divergence",
    "chi2_quantile",
    "chi2_sf",
    "dense_family",
    "dependence_measure",
    "dhat_samples",
    "dhat_samples_csv",
    "dhat_statistic",
    "expected_counts",
    "g_asymptotic_size",
    "g_statistic",
    "get_dataset",
    "main",
    "multiplicative_family",
    "pearson_asymptotic_size",
    "pearson_statistic",
    "permutation_pvalue",
    "permuted_tables",
    "poisson_pmf",
    "poisson_tail_mass",
    "power_curve",
    "power_curve_csv",
    "reg_lower_gamma",
    "run_test",
    "sample_table",
    "size_curve",
    "sparse_family",
    "sparse_max_epsilon",
    "subsample",
    "subsample_study",
    "subsample_study_csv",
    "usp_statistic",
    "validate_table",
    "__version__",
]


def main(argv=None):
    """Entry point for the ``usptest`` command line tool."""
    from .cli import main as _cli_main

    return _cli_main(argv)
