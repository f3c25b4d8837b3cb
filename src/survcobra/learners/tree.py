"""Survival tree with log-rank splitting.

Each internal node stores the (feature, threshold) pair maximizing the
two-sample log-rank statistic among candidate thresholds (midpoints
between consecutive distinct feature values, or the lower value where the
rounded midpoint falls outside [lower, upper)).  Growth stops at
`max_depth`, when a child would fall below `min_leaf`, or when no split
has a positive statistic.

A tree ranks its training records once against its own distinct event
times, so every node reads its event counts from a `bincount` of those
ranks and its at-risk counts from a search of them in sorted order.  A
leaf's curve is the product-limit curve of its records, formed from the
counts its node already holds.  The leaves are one run of steps over
ascending integer keys, each leaf opening with a step at 1.0 of its own,
so `curves._steps_at` reads all leaves at once.
"""

from __future__ import annotations

import numpy as np

from ..curves import _steps_at
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


# a node with fewer rows than this holds its cumulative counts exactly in
# int16; larger nodes count in int32
_INT16_ROWS = 2**15


def _best_split(xt, is_event, rows, ranks, cols, d, r, candidates, min_leaf):
    """(statistic, feature, threshold) of the node's best log-rank split over
    the `candidates` rows of `xt` (features by records), or None when no
    split has a positive statistic.  The node's at-risk indicator at its
    event times `cols`, with its event flags as a last column, is built once;
    per feature, one gather and one cumulative sum give the left part's
    at-risk counts N1 and observed events at every admissible cut."""
    at_ev = np.empty((rows.size, cols.size + 1), dtype=np.int8)
    np.greater_equal(ranks[:, None], cols, out=at_ev[:, :-1])
    at_ev[:, -1] = is_event[rows]
    dr = d / r
    c2 = (r - d) / np.maximum(r - 1.0, 1.0)  # r = 1 forces d = 1, so c2 = 0 there
    w1 = dr * c2
    w2 = w1 / r
    lo, hi = min_leaf, rows.size - min_leaf
    dtype = np.int16 if rows.size < _INT16_ROWS else np.int32
    unset = np.full(hi, -np.inf)  # the statistic of a cut with variance <= 1e-12
    best = None
    for f in candidates:
        fvals = xt[f].take(rows)
        order = fvals.argsort(kind="stable")
        fs = fvals[order]
        cut = (fs[lo : hi + 1] > fs[lo - 1 : hi]).nonzero()[0] + (lo - 1)  # last row on the left
        if cut.size == 0:
            continue
        cum = np.add.accumulate(at_ev.take(order[:hi], axis=0), axis=0, dtype=dtype)
        counts = cum.take(cut, axis=0)  # each cut's left part: N1, then its events
        n1 = counts[:, :-1].astype(float)
        diff = counts[:, -1] - n1 @ dr
        variance = n1 @ w1 - np.einsum("qt,t,qt->q", n1, w2, n1)
        stat = unset[: cut.size].copy()
        np.divide(diff * diff, variance, out=stat, where=variance > 1e-12)
        i = stat.argmax()
        top = float(stat[i])
        if 0.0 < top < np.inf and (best is None or top > best[0]):
            low, high = float(fs[cut[i]]), float(fs[cut[i] + 1])
            mid = 0.5 * (low + high)
            # the midpoint overflows beyond about 9e307 and can round up to
            # `high` between neighbouring floats; `low` splits the same rows
            best = (top, int(f), mid if low <= mid < high else low)
    return best


class SurvivalTreeModel(BaseSurvivalModel):
    """Fitted survival tree: a binary partition with one curve per leaf.

    Leaf `l` owns the `jump_keys` from `l * (len(u) + 1)`: the first holds
    1.0, and key `l * (len(u) + 1) + 1 + c` holds its survival after its
    jump at `u[c]`.
    """

    def __init__(self, root, u, jump_keys, jump_values, n_leaves, n_features):
        self.root = root
        self.u = u
        self.jump_keys = jump_keys
        self.jump_values = jump_values
        self.n_leaves = n_leaves
        self.n_features = n_features

    def _leaf_ids(self, x) -> np.ndarray:
        """Leaf index for each row of the checked matrix `x`."""
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

    def _jump_times(self, x) -> np.ndarray:
        start = self._leaf_ids(x[None, :])[0] * (self.u.size + 1) + 1  # past the leading key
        lo, hi = np.searchsorted(self.jump_keys, [start, start + self.u.size])
        return self.u[self.jump_keys[lo:hi] - start]

    def _values(self, x, grid) -> np.ndarray:
        start = np.arange(self.n_leaves) * (self.u.size + 1)
        keys = start[:, None] + self.u.searchsorted(grid, side="right")
        return _steps_at(self.jump_keys, self.jump_values, keys, 1.0)[self._leaf_ids(x)]


def fit_survival_tree_arrays(x, times, events, max_depth=10, min_leaf=15, mtry=None, rng=None):
    """Grow a tree from raw arrays (used directly by the forest, where
    bootstrap samples may lack events entirely)."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xt = np.ascontiguousarray(x.T)
    times = np.asarray(times, dtype=float)
    is_event = np.asarray(events) == 1
    u = np.unique(times[is_event])
    k = u.size
    last = np.searchsorted(u, times, side="right") - 1  # -1: gone before the first event
    n, p = x.shape
    mtry = p if mtry is None else int(mtry)
    keys: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def grow(rows, depth):
        # the node's product-limit counts at its own event times `cols`:
        # the integers `curves._event_counts` gives on the node's records
        ranks = last[rows]
        d = np.bincount(ranks[is_event[rows]], minlength=k)
        cols = d.nonzero()[0]
        r = (rows.size - np.sort(ranks).searchsorted(cols)).astype(float)
        d = d[cols].astype(float)
        split = None
        if depth < max_depth and rows.size >= 2 * min_leaf and cols.size:
            if rng is None or mtry >= p:
                candidates = range(p)
            else:
                candidates = np.sort(rng.choice(p, size=mtry, replace=False))
            split = _best_split(xt, is_event, rows, ranks, cols, d, r, candidates, min_leaf)
        if split is None:
            keys.append(len(keys) * (k + 1) + np.concatenate(([0], cols + 1)))
            values.append(np.concatenate(([1.0], np.cumprod(1.0 - d / r))))
            return _Node(leaf_id=len(keys) - 1)
        _, feature, threshold = split
        mask = xt[feature].take(rows) <= threshold
        node = _Node(feature=feature, threshold=threshold)
        node.left = grow(rows[mask], depth + 1)
        node.right = grow(rows[~mask], depth + 1)
        return node

    root = grow(np.arange(n), 0)
    jump_keys, jump_values = np.concatenate(keys), np.concatenate(values)
    return SurvivalTreeModel(root, u, jump_keys, jump_values, len(keys), p)


def fit_survival_tree(data: SurvivalDataset, max_depth: int = 10, min_leaf: int = 15) -> SurvivalTreeModel:
    """Fit a survival tree with exhaustive log-rank split search."""
    return fit_survival_tree_arrays(data.x, data.time, data.event, max_depth, min_leaf)
