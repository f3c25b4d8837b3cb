"""Covariate relevance through the proximity indicator.

For a query point, regress the 0/1 proximity label of every calibration
record on that record's (standardized) covariates with a ridge-stabilized
logistic regression; the slope magnitudes score how strongly each
covariate drives membership in the query's proximity set.  Scores are
aggregated over a query set as the mean absolute slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .cobra import CobraModel, _labels, _step_chunks
from .exceptions import ConvergenceError
from .learners.base import halving_step, standardize_fit

MAX_ITER = 50
COEF_TOL = 1e-8
DEFAULT_RIDGE = 1e-4


def _design(features) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return np.column_stack([np.ones(features.shape[0]), features])


def _penalty(p: int, l2: float) -> np.ndarray:
    """Ridge weight per coefficient; the intercept (first) is unpenalized."""
    ridge = np.full(p, float(l2))
    ridge[0] = 0.0
    return ridge


def _objective(x, y, ridge, beta) -> float:
    """Bernoulli log-likelihood of design `x` minus 0.5 * sum(ridge * beta**2)."""
    eta = x @ beta
    return float((y * eta - np.logaddexp(0.0, eta)).sum()) - 0.5 * float(ridge @ (beta * beta))


def _gradient(x, y, ridge, beta):
    """(gradient of `_objective`, fitted probabilities at `beta`)."""
    sigma = expit(x @ beta)
    return x.T @ (y - sigma) - ridge * beta, sigma


def _irls(x, y, l2):
    """Iteratively reweighted least squares with step halving.

    Returns (coefficients, objective trace); the trace is non-decreasing.
    """
    beta = np.zeros(x.shape[1])
    ridge = _penalty(x.shape[1], l2)
    trace = [_objective(x, y, ridge, beta)]
    for _ in range(MAX_ITER):
        grad, sigma = _gradient(x, y, ridge, beta)
        weights = sigma * (1.0 - sigma)
        hess = (x.T * weights) @ x + np.diag(ridge)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("non-finite IRLS step", tuple(trace))
        found = halving_step(lambda b: _objective(x, y, ridge, b), beta, step, trace[-1])
        if found is None:
            break  # no ascent direction left: stationary
        candidate, value = found
        change = float(np.max(np.abs(candidate - beta)))
        beta = candidate
        trace.append(value)
        if change < COEF_TOL:
            return beta, tuple(trace)
    if l2 == 0.0:
        raise ConvergenceError(
            "logistic fit did not converge (labels may be separable); set l2 > 0",
            tuple(trace),
        )
    return beta, tuple(trace)


def fit_logistic(features, labels, l2: float = 0.0) -> np.ndarray:
    """Maximum penalized-likelihood logistic coefficients (intercept first)."""
    if l2 < 0.0:
        raise ValueError("l2 must be nonnegative")
    x = _design(features)
    y = np.asarray(labels, dtype=float)
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be a vector matching the feature rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    if l2 == 0.0 and (y.min() == y.max()):
        raise ValueError("labels are constant; the unpenalized fit is unbounded")
    coefficients, _ = _irls(x, y, float(l2))
    return coefficients


@dataclass(frozen=True, eq=False)
class RelevanceResult:
    """Per-query coefficient matrix plus the aggregated relevance scores."""

    per_query: np.ndarray  # (queries, 1 + features), intercept first
    degenerate: np.ndarray  # (queries,) bool
    aggregate: np.ndarray  # (features,) mean |slope| over informative queries
    query_count: int

    def ranking(self) -> np.ndarray:
        """Covariate indices from most to least relevant."""
        return np.argsort(-self.aggregate, kind="stable")


def _relevance_from_labels(features, labels, l2):
    """(logistic coefficients, intercept first; degenerate) for one query's
    proximity labels.  Constant labels are degenerate: zero coefficients,
    skipped by the aggregation."""
    if labels.min() == labels.max():
        return np.zeros(features.shape[1] + 1), True
    return fit_logistic(features, labels, l2), False


def relevance_study(model: CobraModel, queries, l2: float = DEFAULT_RIDGE) -> RelevanceResult:
    """Aggregate per-query relevance over a query set.

    The labels of all queries come from one distance pass in chunks of
    bounded size, and each chunk's regressions are fit before the next
    chunk is computed.  The aggregate for covariate j is the mean of
    |slope_j| over queries whose labels were not degenerate; fails if
    the query set is empty or every query degenerates.
    """
    d_l = model.split.d_l
    features = standardize_fit(d_l, "relevance")[0]
    results, set_sizes = [], []
    for chunk in _step_chunks(model, queries, _labels):
        results.extend(_relevance_from_labels(features, labels, l2) for labels in chunk)
        set_sizes.extend(chunk.sum(axis=1).tolist())
    if not results:
        raise ValueError("the query set is empty: relevance needs at least one query")
    coefficients, flags = zip(*results)
    per_query = np.stack(coefficients)
    degenerate = np.array(flags)
    informative = ~degenerate
    if not informative.any():
        params = model.params
        full = set_sizes.count(d_l.n)
        raise ValueError(
            "every query produced constant proximity labels "
            f"(epsilon {params.epsilon:g}, consensus {params.consensus_count} of "
            f"{params.n_machines} machines): {len(results) - full} queries had no "
            f"member and {full} had every calibration record as a member"
        )
    aggregate = np.abs(per_query[informative, 1:]).mean(axis=0)
    return RelevanceResult(per_query, degenerate, aggregate, len(results))
