"""Survival-curve ensemble toolkit.

Five base survival learners feed a proximity-consensus aggregation: a
calibration record joins a query's proximity set when enough machines
place its predicted curve within an area-distance threshold of the
query's, and the prediction is the product-limit curve over the set.
Ships with censored-data metrics, a covariate-relevance procedure, a
synthetic benchmark generator, hyperparameter search, and a batch CLI.
"""

from .cobra import (
    CobraModel,
    CobraParams,
    fit_cobra,
    gamma_labels,
    predict_cobra,
    predict_cobra_batch,
)
from .curves import (
    StepCurve,
    censoring_km,
    evaluate,
    kaplan_meier,
    product_limit,
)
from .data import (
    DatasetSplit,
    RawTable,
    SurvivalDataset,
    SyntheticConfig,
    cobra_split,
    generate_synthetic,
    kfold_split,
    load_csv,
    load_raw_csv,
    preprocess,
)
from .exceptions import ConfigError, ConvergenceError, TuningError
from .learners import (
    LearnerSpec,
    default_roster,
    fit,
    fit_cox,
    fit_knn_survival,
    fit_random_survival_forest,
    fit_survival_tree,
)
from .metrics import (
    MetricReport,
    concordance_td,
    d_calibration,
    d_calibration_masses,
    integrated_brier,
)
from .relevance import (
    RelevanceResult,
    fit_logistic,
    relevance_study,
)
from .tuning import SearchSpace, TrialResult, evaluate_params, random_search

__version__ = "0.1.0"

__all__ = [
    "CobraModel",
    "CobraParams",
    "fit_cobra",
    "gamma_labels",
    "predict_cobra",
    "predict_cobra_batch",
    "StepCurve",
    "censoring_km",
    "evaluate",
    "kaplan_meier",
    "product_limit",
    "DatasetSplit",
    "RawTable",
    "SurvivalDataset",
    "SyntheticConfig",
    "cobra_split",
    "generate_synthetic",
    "kfold_split",
    "load_csv",
    "load_raw_csv",
    "preprocess",
    "ConfigError",
    "ConvergenceError",
    "TuningError",
    "LearnerSpec",
    "default_roster",
    "fit",
    "fit_cox",
    "fit_knn_survival",
    "fit_random_survival_forest",
    "fit_survival_tree",
    "MetricReport",
    "concordance_td",
    "d_calibration",
    "d_calibration_masses",
    "integrated_brier",
    "RelevanceResult",
    "fit_logistic",
    "relevance_study",
    "SearchSpace",
    "TrialResult",
    "evaluate_params",
    "random_search",
    "__version__",
]
