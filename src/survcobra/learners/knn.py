"""Nearest-neighbor conditional survival estimation.

The prediction for a query point is the product-limit curve of its k
nearest training records under Euclidean distance on standardized
covariates (distance ties broken toward the lower record index).  With
k = n this is the population Kaplan-Meier of the training data.

The fit ranks every training record once against the distinct event
times `u` of the whole sample, as a forest does.  A neighbourhood's
product-limit counts are then a `bincount` of its members' ranks, and
where it has no event at some u[j] its factor there is exactly 1.0, so
its cumulative product at each of its own event times is the one
`product_limit` forms on its records.
"""

from __future__ import annotations

import numpy as np

from ..curves import _steps_at
from ..data import SurvivalDataset
from .base import BaseSurvivalModel, standardize_fit

#: Rough size, in bytes, of the (queries, training records, features)
#: float64 difference temporary that one chunk of queries holds.  It is
#: kept small because the temporary adds to the peak RSS of every run.
_NEIGHBOR_CHUNK_BYTES = 2**18


class KNNSurvivalModel(BaseSurvivalModel):
    def __init__(self, z, times, events, k, mean, sd):
        self.z = z
        self.times = times
        self.events = events
        self.u = np.unique(times[events == 1])
        # each record's last at-risk event time in u; -1: gone before the first
        self.ranks = self.u.searchsorted(times, side="right") - 1
        self.k = k
        self.mean = mean
        self.sd = sd
        self.n_features = z.shape[1]

    def _neighbor_rows(self, x, first=0) -> np.ndarray:
        """(queries, k) nearest training indices for each row of `x`, which
        starts at the caller's row `first`; a non-finite distance is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            zq = (x - self.mean) / self.sd
            diff = self.z[None, :, :] - zq[:, None, :]
            dist = np.sqrt(np.square(diff, out=diff).sum(axis=2))
        finite = np.isfinite(dist).all(axis=1)
        if not finite.all():
            raise ValueError(f"knn_survival: row {first + finite.argmin()}: a distance is not finite")
        return np.argsort(dist, axis=1, kind="stable")[:, : self.k]

    def _jump_times(self, x) -> np.ndarray:
        nb = self._neighbor_rows(x[None, :])[0]
        return np.unique(self.times[nb][self.events[nb] == 1])

    def _values(self, x, grid) -> np.ndarray:
        out = np.empty((x.shape[0], grid.size))
        size = max(1, _NEIGHBOR_CHUNK_BYTES // (self.z.size * 8))
        width = self.u.size
        for start in range(0, x.shape[0], size):
            nb = self._neighbor_rows(x[start : start + size], start)
            # a member is counted at its rank, so the at-risk counts are a
            # reverse cumulative sum of those counts
            ranks, rows = self.ranks[nb], nb.shape[0]
            cell = ranks + (np.arange(rows) * width)[:, None]
            at_risk = np.bincount(cell[ranks >= 0], minlength=rows * width).reshape(rows, width)
            r = np.cumsum(at_risk[:, ::-1], axis=1)[:, ::-1].astype(float)
            d = np.bincount(cell[self.events[nb] == 1], minlength=rows * width).reshape(rows, width).astype(float)
            surv = np.cumprod(1.0 - np.divide(d, r, out=np.zeros_like(d), where=d > 0.0), axis=1)
            out[start : start + size] = _steps_at(self.u, surv, grid, 1.0)
        return out


def fit_knn_survival(data: SurvivalDataset, k: int | None = None) -> KNNSurvivalModel:
    """Store the standardized training sample; defaults k to ceil(sqrt(n))."""
    if k is None:
        k = int(np.ceil(np.sqrt(data.n)))
    if not 1 <= k <= data.n:
        raise ValueError(f"knn_survival: k must lie in [1, {data.n}], got {k}")
    z, mean, sd = standardize_fit(data, "knn_survival")
    return KNNSurvivalModel(z, data.time, data.event, int(k), mean, sd)
