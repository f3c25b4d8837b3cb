"""Shared plumbing for the base survival learners."""

from __future__ import annotations

import numpy as np

from ..curves import StepCurve
from ..data import _check_vector


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
        raise NotImplementedError


def standardize_fit(x: np.ndarray):
    """Column means and standard deviations for scale-sensitive learners.

    Zero-variance columns get a unit scale so they stay inert instead of
    producing NaNs.
    """
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mean, sd


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
