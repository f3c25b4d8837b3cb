"""The five base survival learners behind one fit / predict-curve contract.

Every fitted model exposes `predict_curve(x) -> StepCurve` (a valid
survival curve) and `predict_values(x_matrix, grid)`; fits are
deterministic given the spec (forests carry an explicit seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..data import SurvivalDataset
from ..exceptions import ConvergenceError
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

#: Allowed hyperparameters and their validators, per learner kind.
_HYPERPARAMS = {
    "survival_tree": {
        "max_depth": lambda v: int(v) >= 1,
        "min_leaf": lambda v: int(v) >= 1,
    },
    "random_survival_forest": {
        "n_trees": lambda v: int(v) >= 1,
        "mtry": lambda v: v is None or int(v) >= 1,
        "min_leaf": lambda v: int(v) >= 1,
        "max_depth": lambda v: int(v) >= 1,
        "seed": lambda v: True,
        "bootstrap": lambda v: isinstance(v, bool),
    },
    "cox_ridge": {
        "penalty": lambda v: v is None or float(v) >= 0.0,
        "cv_folds": lambda v: int(v) >= 2,
        "cv_seed": lambda v: True,
    },
    "cox_lasso": {
        "penalty": lambda v: v is None or float(v) >= 0.0,
        "cv_folds": lambda v: int(v) >= 2,
        "cv_seed": lambda v: True,
    },
    "knn_survival": {
        "k": lambda v: v is None or int(v) >= 1,
    },
}

LEARNER_KINDS = tuple(_HYPERPARAMS)


@dataclass(frozen=True)
class LearnerSpec:
    """A learner kind plus its hyperparameters (unset ones use defaults)."""

    kind: str
    hyperparameters: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _HYPERPARAMS:
            raise ValueError(f"unknown learner kind {self.kind!r}; choose from {LEARNER_KINDS}")
        allowed = _HYPERPARAMS[self.kind]
        for key, value in self.hyperparameters.items():
            if key not in allowed:
                raise ValueError(f"{self.kind}: unknown hyperparameter {key!r}")
            if not allowed[key](value):
                raise ValueError(f"{self.kind}: hyperparameter {key}={value!r} out of range")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))

    def get(self, key, default=None):
        return self.hyperparameters.get(key, default)


def fit(spec: LearnerSpec, data: SurvivalDataset) -> BaseSurvivalModel:
    """Train the learner described by `spec` on `data`.

    A solver that fails to converge raises `ConvergenceError` naming
    `spec.kind` as its learner.
    """
    try:
        return _fit(spec, data)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), exc.trace, learner=spec.kind) from exc


def _fit(spec: LearnerSpec, data: SurvivalDataset) -> BaseSurvivalModel:
    hp = spec.get
    if spec.kind == "survival_tree":
        return fit_survival_tree(
            data, max_depth=int(hp("max_depth", 10)), min_leaf=int(hp("min_leaf", 15))
        )
    if spec.kind == "random_survival_forest":
        mtry = hp("mtry")
        return fit_random_survival_forest(
            data,
            n_trees=int(hp("n_trees", 100)),
            mtry=None if mtry is None else int(mtry),
            min_leaf=int(hp("min_leaf", 15)),
            seed=int(hp("seed", 0)),
            max_depth=int(hp("max_depth", 10)),
            bootstrap=bool(hp("bootstrap", True)),
        )
    if spec.kind in ("cox_ridge", "cox_lasso"):
        penalty = hp("penalty")
        return fit_cox(
            data,
            "ridge" if spec.kind == "cox_ridge" else "lasso",
            penalty=None if penalty is None else float(penalty),
            cv_folds=int(hp("cv_folds", 3)),
            cv_seed=int(hp("cv_seed", 0)),
        )
    if spec.kind == "knn_survival":
        k = hp("k")
        return fit_knn_survival(data, k=None if k is None else int(k))
    raise AssertionError(f"unreachable kind {spec.kind!r}")


def default_roster(seed: int = 0) -> tuple[LearnerSpec, ...]:
    """The five-model roster with conventional defaults."""
    return (
        LearnerSpec("survival_tree"),
        LearnerSpec("random_survival_forest", {"seed": seed}),
        LearnerSpec("cox_ridge"),
        LearnerSpec("cox_lasso"),
        LearnerSpec("knn_survival"),
    )
