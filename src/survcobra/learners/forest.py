"""Random survival forest: bagged log-rank trees, curves averaged pointwise."""

from __future__ import annotations

import math

import numpy as np

from ..data import SurvivalDataset
from .tree import _fit_trees, _Forest


class RandomSurvivalForestModel(_Forest):
    """Fitted forest; the prediction is the pointwise mean of the trees'
    curves on the union of their jump times."""


def fit_random_survival_forest(
    data: SurvivalDataset,
    n_trees: int = 100,
    mtry: int | None = None,
    min_leaf: int = 15,
    seed: int = 0,
    max_depth: int = 10,
    bootstrap: bool = True,
) -> RandomSurvivalForestModel:
    """Fit `n_trees` log-rank trees on bootstrap resamples, sampling `mtry`
    features per node (default: ceil(sqrt(p))).

    With `bootstrap=False` every tree sees the full sample, so a forest of
    one tree with mtry = p reduces to that tree.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    p = data.n_features
    if mtry is None:
        mtry = int(math.ceil(math.sqrt(p)))
    if not 1 <= mtry <= p:
        raise ValueError(f"random_survival_forest: mtry must lie in [1, {p}], got {mtry}")
    rng = np.random.default_rng(seed)
    # each tree's generator and rows are drawn as the tree is grown
    tree_rngs = (np.random.default_rng(int(rng.integers(2**63))) for _ in range(n_trees))
    samples = ((r.integers(0, data.n, size=data.n) if bootstrap else np.arange(data.n), r) for r in tree_rngs)
    return _fit_trees(RandomSurvivalForestModel, data.x, data.time, data.event, samples, max_depth, min_leaf, mtry)
