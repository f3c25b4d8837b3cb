"""The five base survival learners behind one fit / predict-curve contract.

Every fitted model exposes `predict_values(x_matrix, grid)` and
`predict_curve(x) -> StepCurve` (a valid survival curve), which is
`predict_values` at the model's own jump times; fits are deterministic
given the spec (forests carry an explicit seed).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from ..data import SurvivalDataset
from ..exceptions import ConfigError, ConvergenceError
from .base import BaseSurvivalModel
from .cox import CoxModel, breslow_baseline, cox_gradient, cox_log_partial_likelihood, fit_cox
from .forest import RandomSurvivalForestModel, fit_random_survival_forest
from .knn import KNNSurvivalModel, fit_knn_survival
from .tree import SurvivalTreeModel, fit_survival_tree

__all__ = [
    "LearnerSpec",
    "fit",
    "default_roster",
    "BaseSurvivalModel",
    "CoxModel",
    "SurvivalTreeModel",
    "RandomSurvivalForestModel",
    "KNNSurvivalModel",
    "fit_cox",
    "fit_survival_tree",
    "fit_random_survival_forest",
    "fit_knn_survival",
    "breslow_baseline",
    "cox_gradient",
    "cox_log_partial_likelihood",
    "LEARNER_KINDS",
]

#: Per learner kind: the fit function, and each hyperparameter's JSON type
#: (int, float for any JSON number, or bool) and least value.  The defaults
#: live only in the fit signatures; a hyperparameter may be null exactly
#: where its default there is None.
_COX_HYPERPARAMS = {"penalty": (float, 0.0), "cv_folds": (int, 2), "cv_seed": (int, 0)}
_KINDS = {
    "survival_tree": (fit_survival_tree, {"max_depth": (int, 1), "min_leaf": (int, 1)}),
    "random_survival_forest": (
        fit_random_survival_forest,
        {
            "n_trees": (int, 1),
            "mtry": (int, 1),
            "min_leaf": (int, 1),
            "max_depth": (int, 1),
            "seed": (int, 0),
            "bootstrap": (bool, None),
        },
    ),
    "cox_ridge": (partial(fit_cox, penalty_kind="ridge"), _COX_HYPERPARAMS),
    "cox_lasso": (partial(fit_cox, penalty_kind="lasso"), _COX_HYPERPARAMS),
    "knn_survival": (fit_knn_survival, {"k": (int, 1)}),
}
#: The JSON types of hyperparameters and config values; `list` stands for
#: an array of strings.
_JSON_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "an array of strings"
}

LEARNER_KINDS = tuple(_KINDS)


def _json(key: str, value, json_type):
    """`value` when it has `json_type`, a number as a float and an array as
    a tuple; else a `ConfigError` "<key> must be <type>, got <value>".
    `true` is only a boolean, and an integer is also a number."""
    if isinstance(value, bool) or json_type is bool:
        valid = isinstance(value, bool) and json_type is bool
    elif json_type is list:
        valid = isinstance(value, list) and all(isinstance(item, str) for item in value)
    else:
        valid = isinstance(value, (int, float) if json_type is float else json_type)
    if not valid:
        raise ConfigError(f"{key} must be {_JSON_TYPE_NAMES[json_type]}, got {value!r}")
    return float(value) if json_type is float else tuple(value) if json_type is list else value


@dataclass(frozen=True)
class LearnerSpec:
    """A learner kind plus its hyperparameters (unset ones use defaults)."""

    kind: str
    hyperparameters: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:  # a tuple: `kind` may be an unhashable list or object
            raise ValueError(f"unknown learner kind {self.kind!r}; choose from {LEARNER_KINDS}")
        builder, allowed = _KINDS[self.kind]
        defaults = inspect.signature(builder).parameters
        for key, value in self.hyperparameters.items():
            if key not in allowed:
                raise ValueError(f"{self.kind}: unknown hyperparameter {key!r}")
            json_type, least = allowed[key]
            if value is None and defaults[key].default is None:
                continue
            _json(f"{self.kind}: hyperparameter {key}", value, json_type)
            if least is not None and not value >= least:
                raise ValueError(f"{self.kind}: hyperparameter {key}={value!r} out of range (least {least})")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))


def fit(spec: LearnerSpec, data: SurvivalDataset) -> BaseSurvivalModel:
    """Train the learner described by `spec` on `data`.

    A solver that fails to converge raises `ConvergenceError` naming
    `spec.kind` as its learner.
    """
    builder, _ = _KINDS[spec.kind]
    try:
        return builder(data, **spec.hyperparameters)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), exc.trace, learner=spec.kind) from exc


def default_roster() -> tuple[LearnerSpec, ...]:
    """The five-model roster with conventional defaults."""
    return (
        LearnerSpec("survival_tree"),
        LearnerSpec("random_survival_forest"),
        LearnerSpec("cox_ridge"),
        LearnerSpec("cox_lasso"),
        LearnerSpec("knn_survival"),
    )
