"""Kernel-based variable selection and classification for functional data.

The package covers the full desk-scale pipeline: exact Gaussian-process
simulators for a catalog of binary classification models, covariance kernels
and their discretized eigensystems, the closed-form optimal rule and its
error for finite kernel expansions, greedy Mahalanobis variable selection,
linear / kNN / centroid classifiers, and a reproducible benchmark harness.
"""

from .core import (
    ClassMoments,
    DatasetFormatError,
    Grid,
    LabeledDataset,
    RkfdaError,
    SelectionResult,
    SingularMatrixError,
    TrainingError,
    class_prior,
    make_grid,
)
from .kernels import (
    BrownianBridgeKernel,
    BrownianKernel,
    EigenSystem,
    OrnsteinUhlenbeckKernel,
    discretized_eigen,
    gram,
    kernel_eval,
    mahalanobis_psi,
    solve_spd,
)
from .rkhs import (
    FiniteExpansionMean,
    alphas_from_mean,
    bayes_discriminant,
    bayes_error,
    finite_expansion_from_values,
    rkhs_norm_sq,
    truncation_sequence,
)
from .estimate import class_moments, pooled_cov
from .select import (
    SelectionConfig,
    greedy_select,
    oracle_source,
    oracle_source_from_dataset,
)
from .classify import (
    CentroidClassifier,
    KNNClassifier,
    RKCClassifier,
    classify,
    classify_batch,
    error_rate,
    train_centroid,
    train_knn,
    train_rkc,
)
from .simulate import (
    GaussianModel,
    LogisticModel,
    builtin_catalog,
    gen_model_dataset,
    gen_process,
    load_catalog,
    standard_grid,
    trend_eval,
)
from .bench import ExperimentPlan, RunReport, run_experiment, variable_recovery_histogram

__version__ = "0.1.0"
