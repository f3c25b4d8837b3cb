"""Shared plumbing for the base survival learners."""

from __future__ import annotations

import numpy as np

from ..curves import StepCurve, _checked_grid
from ..data import SurvivalDataset, _check_matrix, _check_vector


class BaseSurvivalModel:
    """Common contract: a fitted model predicts one survival curve per
    covariate vector of the training feature count."""

    n_features: int

    def predict_curve(self, x) -> StepCurve:
        """The survival curve at `x`: `predict_values` at its own jump times."""
        x = _check_vector(x, self.n_features)
        times = self._jump_times(x)
        return StepCurve(times, self.predict_values(x[None, :], times)[0])

    def _jump_times(self, x) -> np.ndarray:
        """Ascending times at which the curve at checked vector `x` may jump."""
        raise NotImplementedError

    def predict_values(self, x, grid) -> np.ndarray:
        """Survival values for each row of `x` at each grid point: the same
        floats as evaluating `predict_curve` of that row on `grid`, which is
        this at the model's own jump times."""
        return self._values(_check_matrix(x, self.n_features), _checked_grid(grid))

    def _values(self, x, grid) -> np.ndarray:
        """`predict_values` on a checked covariate matrix and grid."""
        raise NotImplementedError


def standardize_fit(data: SurvivalDataset, learner: str):
    """`data`'s covariates standardized, with their column means and sds, for
    scale-sensitive learners.

    Zero-variance columns get a unit scale so they stay inert instead of
    producing NaNs.  A column whose mean or sd overflows is refused by name
    (`<learner>: column '<name>': its mean or sd overflows`).
    """
    x = data.x
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        sd = x.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(sd)
    if not finite.all():
        raise ValueError(f"{learner}: column {data.feature_names[finite.argmin()]!r}: its mean or sd overflows")
    sd = np.where(sd == 0.0, 1.0, sd)
    return (x - mean) / sd, mean, sd


def halving_step(objective, beta, direction, current):
    """The first of `beta + direction * 2**-i`, i = 0..39, whose objective is
    finite and at least `current - 1e-12`, as (candidate, value); None when
    every try fails."""
    scale = 1.0
    for _ in range(40):
        candidate = beta + scale * direction
        value = objective(candidate)
        if np.isfinite(value) and value >= current - 1e-12:
            return candidate, value
        scale *= 0.5
    return None
