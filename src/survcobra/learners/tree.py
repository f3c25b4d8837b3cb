"""Survival tree with log-rank splitting.

Each internal node stores the (feature, threshold) pair maximizing the
two-sample log-rank statistic among candidate thresholds (midpoints
between consecutive distinct feature values).  Growth stops at
`max_depth`, when a child would fall below `min_leaf`, or when no split
has a positive statistic.

A tree ranks its training records once against its own distinct event
times, so every node reads its event and at-risk counts from two
`bincount`s of those ranks.  A leaf's curve is the product-limit curve of
its records, formed from the counts its node already holds.  The leaves
are kept in three flat arrays: the tree's event times `u`, the ascending
keys leaf * len(u) + column of every leaf's jumps, and the survival value
after each jump.
"""

from __future__ import annotations

import numpy as np

from ..curves import StepCurve
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
    stat = np.full(cut.size, -np.inf)
    np.divide((observed - expected) ** 2, variance, out=stat, where=variance > 1e-12)
    best = int(np.argmax(stat))
    if not np.isfinite(stat[best]) or stat[best] <= 0.0:
        return None
    q = int(cut[best])
    return float(stat[best]), float(0.5 * (fs[q - 1] + fs[q]))


class SurvivalTreeModel(BaseSurvivalModel):
    """Fitted survival tree: a binary partition with one curve per leaf.

    Leaf `l` jumps at `u[jump_keys[j] - l * len(u)]` to `jump_values[j]`
    for the j with `l * len(u) <= jump_keys[j] < (l + 1) * len(u)`.
    """

    def __init__(self, root, u, jump_keys, jump_values, n_leaves, n_features):
        self.root = root
        self.u = u
        self.jump_keys = jump_keys
        self.jump_values = jump_values
        self.n_leaves = n_leaves
        self.n_features = n_features

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
        start = node.leaf_id * self.u.size
        lo, hi = np.searchsorted(self.jump_keys, [start, start + self.u.size])
        return StepCurve(self.u[self.jump_keys[lo:hi] - start], self.jump_values[lo:hi])

    def predict_values(self, x, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        if np.any(grid < 0.0):
            raise ValueError("evaluation times must be nonnegative")
        ids = self.leaf_ids(x)
        if self.jump_keys.size == 0:
            return np.ones((ids.size, grid.size))
        # each leaf's last jump at or before each grid point: one search over
        # (leaf, column) keys; no key, or a key of an earlier leaf, means no
        # jump yet (pos -1 reads the last key, and `pos >= 0` discards it)
        start = (np.arange(self.n_leaves) * self.u.size)[:, None]
        col = np.searchsorted(self.u, grid, side="right") - 1
        pos = np.searchsorted(self.jump_keys, start + col, side="right") - 1
        own = (pos >= 0) & (self.jump_keys[pos] >= start)
        leaf_values = np.where(own, self.jump_values[pos], 1.0)
        return leaf_values[ids]


def fit_survival_tree_arrays(x, times, events, max_depth=10, min_leaf=15, mtry=None, rng=None):
    """Grow a tree from raw arrays (used directly by the forest, where
    bootstrap samples may lack events entirely)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    is_event = events == 1
    u = np.unique(times[is_event])
    k = u.size
    last = np.searchsorted(u, times, side="right") - 1  # -1: gone before the first event
    n, p = x.shape
    mtry = p if mtry is None else int(mtry)
    keys: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def best_split(rows, ranks, cols, d, r):
        """(feature, threshold) of the node's best split over `mtry` sampled
        features, or None when no split has a positive statistic."""
        at_risk = (ranks[:, None] >= cols).astype(np.int8)
        dr = d / r
        c2 = np.divide(r - d, r - 1, out=np.zeros_like(r), where=r > 1)
        w1 = dr * c2
        w2 = w1 / r
        if rng is None or mtry >= p:
            candidates = range(p)
        else:
            candidates = np.sort(rng.choice(p, size=mtry, replace=False))
        best = None
        for f in candidates:
            found = _best_split_for_feature(x[rows, f], at_risk, events[rows], (dr, w1, w2), min_leaf)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], int(f), found[1])
        return None if best is None else best[1:]

    def grow(rows, depth):
        # the node's product-limit counts at its own event times `cols`:
        # the integers `curves._event_counts` gives on the node's records
        ranks = last[rows]
        d = np.bincount(ranks[is_event[rows]], minlength=k)
        cols = np.flatnonzero(d)
        r = np.cumsum(np.bincount(ranks[ranks >= 0], minlength=k)[::-1])[::-1][cols].astype(float)
        d = d[cols].astype(float)
        split = None
        if depth < max_depth and rows.size >= 2 * min_leaf and cols.size:
            split = best_split(rows, ranks, cols, d, r)
        if split is None:
            keys.append(len(keys) * k + cols)
            values.append(np.cumprod(1.0 - d / r))
            return _Node(leaf_id=len(keys) - 1)
        feature, threshold = split
        mask = x[rows, feature] <= threshold
        node = _Node(feature=feature, threshold=threshold)
        node.left = grow(rows[mask], depth + 1)
        node.right = grow(rows[~mask], depth + 1)
        return node

    root = grow(np.arange(n), 0)
    jump_keys, jump_values = np.concatenate(keys), np.concatenate(values)
    return SurvivalTreeModel(root, u, jump_keys, jump_values, len(keys), p)


def fit_survival_tree(data: SurvivalDataset, max_depth: int = 10, min_leaf: int = 15) -> SurvivalTreeModel:
    """Fit a survival tree with exhaustive log-rank split search."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    return fit_survival_tree_arrays(data.x, data.time, data.event, max_depth, min_leaf)
