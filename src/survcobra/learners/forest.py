"""Random survival forest: bagged log-rank trees, curves averaged pointwise."""

from __future__ import annotations

import math

import numpy as np

from ..data import SurvivalDataset
from .base import BaseSurvivalModel
from .tree import fit_survival_tree_arrays


class RandomSurvivalForestModel(BaseSurvivalModel):
    """Fitted forest; the prediction is the pointwise mean of the trees'
    curves on the union of their jump times."""

    def __init__(self, trees, n_features):
        self.trees = trees
        self.n_features = n_features

    def _jump_times(self, x) -> np.ndarray:
        return np.unique(np.concatenate([tree._jump_times(x) for tree in self.trees]))

    def _values(self, x, grid) -> np.ndarray:
        total = np.zeros((x.shape[0], grid.size))
        for tree in self.trees:
            total += tree._values(x, grid)
        return total / len(self.trees)


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
        raise ValueError(f"mtry must lie in [1, {p}], got {mtry}")
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(int(rng.integers(2**63)))
        if bootstrap:
            idx = tree_rng.integers(0, data.n, size=data.n)
        else:
            idx = np.arange(data.n)
        trees.append(
            fit_survival_tree_arrays(
                data.x[idx],
                data.time[idx],
                data.event[idx],
                max_depth=max_depth,
                min_leaf=min_leaf,
                mtry=mtry,
                rng=tree_rng,
            )
        )
    return RandomSurvivalForestModel(trees, p)
