"""Step-function survival curves and the nonparametric estimators on them.

A `StepCurve` is a right-continuous piecewise-constant function on
[0, inf).  Survival-kind curves start at 1 and are non-increasing within
[0, 1]; cumulative-kind curves (cumulative hazards) start at 0 and are
non-decreasing.  The module also provides the Kaplan-Meier product-limit
estimator, its batched form on one grid, and the censoring-distribution
Kaplan-Meier used for inverse-probability-of-censoring weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SURVIVAL = "survival"
CUMULATIVE = "cumulative"

_BASELINES = {SURVIVAL: 1.0, CUMULATIVE: 0.0}


def _frozen(arr: np.ndarray, original) -> np.ndarray:
    """Read-only copy-on-need: never freezes (or aliases) the caller's array."""
    if arr.flags.writeable:
        if arr is original:
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function with jumps at `times`.

    `values[i]` is the function value on [times[i], times[i+1]); before the
    first jump the curve sits at its baseline (1 for survival curves, 0 for
    cumulative-hazard curves).  Curves are immutable and safe to share.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = SURVIVAL

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if self.kind not in _BASELINES:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if times.size:
            if not (np.isfinite(times).all() and np.isfinite(values).all()):
                raise ValueError("curve times and values must be finite")
            if times[0] < 0.0:
                raise ValueError("jump times must be nonnegative")
            if (times[1:] <= times[:-1]).any():
                raise ValueError("jump times must be strictly increasing")
            if self.kind == SURVIVAL:
                if values.min() < 0.0 or values.max() > 1.0:
                    raise ValueError("survival values must lie in [0, 1]")
                if (values[1:] > values[:-1]).any():
                    raise ValueError("survival values must be non-increasing")
            else:
                if values.min() < 0.0:
                    raise ValueError("cumulative values must be nonnegative")
                if (values[1:] < values[:-1]).any():
                    raise ValueError("cumulative values must be non-decreasing")
        object.__setattr__(self, "times", _frozen(times, self.times))
        object.__setattr__(self, "values", _frozen(values, self.values))

    @property
    def baseline(self) -> float:
        return _BASELINES[self.kind]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepCurve):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None

    def __call__(self, t):
        return evaluate(self, t)

    def to_rows(self):
        """Yield (time, value) pairs for CSV serialization, baseline first."""
        yield (0.0, self.baseline)
        for t, v in zip(self.times.tolist(), self.values.tolist()):
            yield (t, v)


def _checked_times(t) -> np.ndarray:
    """Evaluation times as a float array: nonnegative numbers, `inf`
    included and NaN not."""
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0.0).all():
        raise ValueError("evaluation times must be nonnegative")
    return arr


def evaluate(curve: StepCurve, t):
    """Evaluate a step curve at scalar or array `t` (right-continuously)."""
    arr = _checked_times(t)
    # steps[i] holds on [times[i-1], times[i]), with the baseline before times[0]
    steps = np.concatenate(([curve.baseline], curve.values))
    out = steps[curve.times.searchsorted(arr, side="right")]
    return float(out) if arr.ndim == 0 else out


def _checked_sample(times, events):
    """Float times and event flags of a sample, checked for shape, size,
    finiteness and 0/1 flags."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events)
    if t.ndim != 1 or e.shape != t.shape:
        raise ValueError("times and events must be 1-d arrays of equal length")
    if t.size == 0:
        raise ValueError("empty input: at least one record is required")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if not np.all((e == 0) | (e == 1)):
        raise ValueError("event flags must be 0 or 1")
    return t, e


def _event_counts(t: np.ndarray, e: np.ndarray):
    """Unique event times with float event counts and float at-risk counts,
    on checked arrays (possibly empty).

    Ties are handled with the usual convention that records censored at an
    event time are still at risk at that time.
    """
    s = np.sort(t[e == 1])
    if s.size == 0:
        empty = np.empty(0, dtype=float)
        return empty, empty.copy(), empty.copy()
    # where each run of equal event times starts, plus the end of the last run
    edges = np.empty(s.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(s[1:], s[:-1], out=edges[1:-1])
    edges = edges.nonzero()[0]
    u = s[edges[:-1]]
    r = t.size - np.sort(t).searchsorted(u, side="left")
    return u, (edges[1:] - edges[:-1]).astype(float), r.astype(float)


def _product_limit(t: np.ndarray, e: np.ndarray) -> StepCurve:
    """`product_limit` on checked arrays."""
    u, d, r = _event_counts(t, e)
    return StepCurve(u, np.cumprod(1.0 - d / r) if u.size else u, SURVIVAL)


def product_limit(times, events) -> StepCurve:
    """Product-limit curve of a (possibly event-free) sample.

    With no observed events the curve is constant 1.  `kaplan_meier` adds
    the at-least-one-event check on top of this.
    """
    return _product_limit(*_checked_sample(times, events))


def product_limit_rows(times, events, grid) -> np.ndarray:
    """`evaluate(product_limit(times[i], events[i]), grid)` for every row i
    of (rows, m) member arrays, bitwise, from one cumulative product.

    The rows share the distinct event times u of the whole batch.  Where a
    row has no event at u[j] its factor is exactly 1.0, so its cumulative
    product at each of its own event times is the one `product_limit`
    forms.  Members are counted at their last at-risk event time, so the
    at-risk counts are a reverse cumulative sum of those counts.
    """
    t = np.asarray(times, dtype=float)
    is_event = np.asarray(events) == 1
    g = _checked_times(grid)
    u = np.unique(t[is_event])
    rows, k = t.shape[0], u.size
    if k == 0:
        return np.ones((rows, g.size))
    last = np.searchsorted(u, t, side="right") - 1  # -1: gone before the first event
    cell = last + (np.arange(rows) * k)[:, None]
    at_risk = np.bincount(cell[last >= 0], minlength=rows * k).reshape(rows, k)
    r = np.cumsum(at_risk[:, ::-1], axis=1)[:, ::-1].astype(float)
    d = np.bincount(cell[is_event], minlength=rows * k).reshape(rows, k).astype(float)
    surv = np.cumprod(1.0 - np.divide(d, r, out=np.zeros_like(d), where=d > 0.0), axis=1)
    idx = np.searchsorted(u, g, side="right") - 1
    return np.where(idx < 0, 1.0, surv[:, np.maximum(idx, 0)])


def kaplan_meier(times, events) -> StepCurve:
    """Kaplan-Meier estimate of the survival function.

    Jumps occur at event times only; censored-only times change the risk
    set but add no jump.  Requires at least one observed event.
    """
    curve = product_limit(times, events)
    if curve.times.size == 0:
        raise ValueError("Kaplan-Meier requires at least one observed event")
    return curve


def censoring_km(times, events) -> StepCurve:
    """Kaplan-Meier of the censoring distribution (flipped event flags).

    With no censored records the curve is constant 1.
    """
    t, e = _checked_sample(times, events)
    return _product_limit(t, 1 - e)
