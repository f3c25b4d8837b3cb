"""Survival trees and forests with log-rank splitting.

Each internal node stores the (feature, threshold) pair maximizing the
two-sample log-rank statistic among candidate thresholds (midpoints
between consecutive distinct feature values, or the lower value where the
rounded midpoint falls outside [lower, upper)).  Growth stops at
`max_depth`, when a child would fall below `min_leaf`, or when no split
has a positive statistic.

A tree is a forest of one.  A forest ranks its training records once
against the distinct event times of the whole sample, so every node of
every tree reads its event counts from a `bincount` of those ranks and its
at-risk counts from a search of them in sorted order.  A leaf's curve is
the product-limit curve of its records, formed from the counts its node
already holds.  The trees' nodes are held in preorder in flat arrays, and
all rows go through all trees at once.  The leaves of all trees are one
run of steps over ascending integer keys, each leaf opening with a step at
1.0 of its own, so `curves._steps_at` reads all leaves of a tree at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..curves import _steps_at
from ..data import SurvivalDataset
from .base import BaseSurvivalModel


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


@dataclass(frozen=True, eq=False)
class _Forest(BaseSurvivalModel):
    """Fitted trees over flat node arrays; the prediction is the pointwise
    mean of the trees' curves.

    A row at node `i` goes to `child[i, 0]` when its `feature[i]` is at most
    `threshold[i]`, and to `child[i, 1]` otherwise.  A leaf is its own child
    on both sides (feature 0, threshold inf) and has `leaf[i] >= 0`; every
    other node has `leaf[i] == -1`.  Tree `t`'s nodes run in preorder from
    `roots[t]`, its leaves are `leaf_bounds[t]` to `leaf_bounds[t + 1]`, and
    no tree is deeper than `depth`.  Leaf `l` owns the `jump_keys` from
    `l * (len(u) + 1)`: the first holds 1.0, and key `l * (len(u) + 1) + 1 + c`
    holds its survival after its jump at `u[c]`.
    """

    feature: np.ndarray
    threshold: np.ndarray
    leaf: np.ndarray
    child: np.ndarray
    roots: np.ndarray
    leaf_bounds: np.ndarray
    depth: int
    u: np.ndarray
    jump_keys: np.ndarray
    jump_values: np.ndarray
    n_features: int

    def _leaf_ids(self, x) -> np.ndarray:
        """(rows, trees) leaf index of each row of the checked matrix `x` in
        each tree."""
        rows = np.arange(x.shape[0])[:, None]
        node = np.broadcast_to(self.roots, (x.shape[0], self.roots.size))
        for _ in range(self.depth):
            right = x[rows, self.feature[node]] > self.threshold[node]
            node = self.child[node, right.astype(np.intp)]
        return self.leaf[node]

    def _jump_times(self, x) -> np.ndarray:
        leaf, col = np.divmod(self.jump_keys, self.u.size + 1)
        jumps = np.isin(leaf, self._leaf_ids(x[None, :])[0]) & (col > 0)  # past each leading key
        return np.unique(self.u[col[jumps] - 1])

    def _values(self, x, grid) -> np.ndarray:
        cols = self.u.searchsorted(grid, side="right")
        ids = self._leaf_ids(x)
        total = np.zeros((x.shape[0], grid.size))
        width = self.u.size + 1
        at = self.jump_keys.searchsorted(self.leaf_bounds * width)  # each tree's first key
        for t, (lo, hi) in enumerate(zip(self.leaf_bounds[:-1], self.leaf_bounds[1:])):
            own = slice(at[t], at[t + 1])
            keys = np.arange(lo, hi)[:, None] * width + cols
            total += _steps_at(self.jump_keys[own], self.jump_values[own], keys, 1.0)[ids[:, t] - lo]
        return total / self.roots.size


class SurvivalTreeModel(_Forest):
    """Fitted survival tree: a binary partition with one curve per leaf."""


def _fit_trees(model_class, x, times, events, samples, max_depth, min_leaf, mtry):
    """A `model_class` of one tree per `(rows, rng)` of `samples`, grown on
    the records `rows` of the float arrays `x` and `times` and the 0/1
    `events`; at each node `rng` draws `mtry` of the features to search, or
    every feature is searched where `rng` is None or `mtry` covers them."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    xt = np.ascontiguousarray(x.T)
    is_event = np.asarray(events) == 1
    u = np.unique(times[is_event])
    k = u.size
    last = np.searchsorted(u, times, side="right") - 1  # -1: gone before the first event
    p = x.shape[1]
    nodes = []  # (feature, threshold, leaf, children) of every node, each tree in preorder
    roots, leaf_bounds, keys, values = [], [0], [], []
    depth = 0
    for rows, rng in samples:
        roots.append(len(nodes))
        tree_keys, tree_values = [], []  # the tree's leaves, joined once it is grown
        # (rows, depth, the parent's children); the left part is taken
        # first, so each node follows its parent in preorder and a parent's
        # children are listed left, then right
        stack = [(rows, 0, [])]
        while stack:
            rows, level, parent = stack.pop()
            parent.append(len(nodes))
            depth = max(depth, level)
            # the node's product-limit counts at its own event times `cols`:
            # the integers `curves._event_counts` gives on the node's records
            ranks = last[rows]
            d = np.bincount(ranks[is_event[rows]], minlength=k)
            cols = d.nonzero()[0]
            r = (rows.size - np.sort(ranks).searchsorted(cols)).astype(float)
            d = d[cols].astype(float)
            split = None
            if level < max_depth and rows.size >= 2 * min_leaf and cols.size:
                if rng is None or mtry >= p:
                    candidates = range(p)
                else:
                    candidates = np.sort(rng.choice(p, size=mtry, replace=False))
                split = _best_split(xt, is_event, rows, ranks, cols, d, r, candidates, min_leaf)
            if split is None:
                index = leaf_bounds[-1] + len(tree_keys)
                nodes.append((0, np.inf, index, [len(nodes)] * 2))
                tree_keys.append(index * (k + 1) + np.concatenate(([0], cols + 1)))
                tree_values.append(np.concatenate(([1.0], np.cumprod(1.0 - d / r))))
                continue
            _, f, cut = split
            children = []
            nodes.append((f, cut, -1, children))
            mask = xt[f].take(rows) <= cut
            stack += [(rows[~mask], level + 1, children), (rows[mask], level + 1, children)]
        leaf_bounds.append(leaf_bounds[-1] + len(tree_keys))
        keys.append(np.concatenate(tree_keys))
        values.append(np.concatenate(tree_values))
    feature, threshold, leaf, child = map(np.array, zip(*nodes))
    steps = (u, np.concatenate(keys), np.concatenate(values))
    return model_class(feature, threshold, leaf, child, np.array(roots), np.array(leaf_bounds), depth, *steps, p)


def fit_survival_tree(data: SurvivalDataset, max_depth: int = 10, min_leaf: int = 15) -> SurvivalTreeModel:
    """Fit a survival tree with exhaustive log-rank split search."""
    sample = [(np.arange(data.n), None)]
    return _fit_trees(SurvivalTreeModel, data.x, data.time, data.event, sample, max_depth, min_leaf, data.n_features)
