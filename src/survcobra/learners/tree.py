"""Survival tree with log-rank splitting.

Each internal node stores the (feature, threshold) pair maximizing the
two-sample log-rank statistic among candidate thresholds (midpoints
between consecutive distinct feature values); each leaf stores the
product-limit curve of its records.  Growth stops at `max_depth`, when a
child would fall below `min_leaf`, or when no split has a positive
statistic.
"""

from __future__ import annotations

import numpy as np

from ..curves import StepCurve, _event_counts, evaluate, product_limit
from ..data import SurvivalDataset
from .base import BaseSurvivalModel


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "leaf_id")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, leaf_id=-1):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf_id = leaf_id

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id >= 0


def _best_split_for_feature(fvals, at_risk, events, weights, min_leaf):
    """Best log-rank statistic over all admissible thresholds of one feature.

    `at_risk` is the node's record-by-event-time at-risk indicator, and
    `weights` packs the per-event-time coefficients of the statistic:
    (d/r, d(r-d)/(r(r-1)) terms) precomputed once per node.
    """
    dr, w1, w2 = weights
    order = np.argsort(fvals, kind="stable")
    fs = fvals[order]
    n = fs.size
    lo, hi = min_leaf, n - min_leaf
    if lo > hi:
        return None
    cut = np.flatnonzero(fs[1:] > fs[:-1]) + 1  # split "first q records left"
    cut = cut[(cut >= lo) & (cut <= hi)]
    if cut.size == 0:
        return None
    n1 = np.cumsum(at_risk[order], axis=0, dtype=np.int32)[cut - 1].astype(float)
    observed = np.cumsum(events[order])[cut - 1]
    expected = n1 @ dr
    variance = n1 @ w1 - np.einsum("qt,t,qt->q", n1, w2, n1)
    with np.errstate(invalid="ignore", divide="ignore"):
        stat = np.where(variance > 1e-12, (observed - expected) ** 2 / variance, -np.inf)
    best = int(np.argmax(stat))
    if not np.isfinite(stat[best]) or stat[best] <= 0.0:
        return None
    q = int(cut[best])
    return float(stat[best]), float(0.5 * (fs[q - 1] + fs[q]))


class SurvivalTreeModel(BaseSurvivalModel):
    """Fitted survival tree: a binary partition with one curve per leaf."""

    def __init__(self, root, leaf_curves, n_features, max_depth, min_leaf):
        self.root = root
        self.leaf_curves = leaf_curves
        self.n_features = n_features
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    @property
    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def leaf_ids(self, x) -> np.ndarray:
        """Leaf index for each row of `x`."""
        x = self._check_matrix(x)
        out = np.empty(x.shape[0], dtype=np.int64)

        def assign(node, rows):
            if node.is_leaf:
                out[rows] = node.leaf_id
                return
            left = x[rows, node.feature] <= node.threshold
            assign(node.left, rows[left])
            assign(node.right, rows[~left])

        assign(self.root, np.arange(x.shape[0]))
        return out

    def predict_curve(self, x) -> StepCurve:
        x = self._check_vector(x)
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return self.leaf_curves[node.leaf_id]

    def predict_values(self, x, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        leaf_values = np.stack([evaluate(c, grid) for c in self.leaf_curves])
        return leaf_values[self.leaf_ids(x)]


def _grow(x, times, events, depth, max_depth, min_leaf, mtry, rng, leaves):
    def make_leaf():
        leaves.append(product_limit(times, events.astype(int)))
        return _Node(leaf_id=len(leaves) - 1)

    n, p = x.shape
    if depth >= max_depth or n < 2 * min_leaf:
        return make_leaf()
    u, d, r = _event_counts(times, events)
    if u.size == 0:
        return make_leaf()
    at_risk = (times[:, None] >= u[None, :]).astype(np.int8)
    dr = d / r
    with np.errstate(divide="ignore", invalid="ignore"):
        c2 = np.where(r > 1, (r - d) / (r - 1), 0.0)
    w1 = dr * c2
    w2 = w1 / r
    if rng is None or mtry >= p:
        candidates = range(p)
    else:
        candidates = np.sort(rng.choice(p, size=mtry, replace=False))
    best = None
    for f in candidates:
        found = _best_split_for_feature(x[:, f], at_risk, events, (dr, w1, w2), min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(f), found[1])
    if best is None:
        return make_leaf()
    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    node = _Node(feature=feature, threshold=threshold)
    node.left = _grow(x[mask], times[mask], events[mask], depth + 1, max_depth, min_leaf, mtry, rng, leaves)
    node.right = _grow(x[~mask], times[~mask], events[~mask], depth + 1, max_depth, min_leaf, mtry, rng, leaves)
    return node


def fit_survival_tree_arrays(x, times, events, max_depth=10, min_leaf=15, mtry=None, rng=None):
    """Grow a tree from raw arrays (used directly by the forest, where
    bootstrap samples may lack events entirely)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    leaves: list[StepCurve] = []
    mtry = x.shape[1] if mtry is None else int(mtry)
    root = _grow(x, times, events, 0, max_depth, min_leaf, mtry, rng, leaves)
    return SurvivalTreeModel(root, leaves, x.shape[1], max_depth, min_leaf)


def fit_survival_tree(data: SurvivalDataset, max_depth: int = 10, min_leaf: int = 15) -> SurvivalTreeModel:
    """Fit a survival tree with exhaustive log-rank split search."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    return fit_survival_tree_arrays(data.x, data.time, data.event, max_depth, min_leaf)
