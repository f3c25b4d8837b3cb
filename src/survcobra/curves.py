"""Step-function survival curves and the nonparametric estimators on them.

A `StepCurve` is a right-continuous piecewise-constant survival function
on [0, inf): it starts at 1 and is non-increasing within [0, 1].  The
module also provides the Kaplan-Meier product-limit estimator and the
censoring-distribution Kaplan-Meier used for inverse-probability-of-censoring
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen(arr: np.ndarray, original) -> np.ndarray:
    """Read-only copy-on-need: never freezes (or aliases) the caller's array."""
    if arr.flags.writeable:
        if arr is original:
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous survival step function with jumps at `times`.

    `values[i]` is the survival on [times[i], times[i+1]); before the first
    jump the curve sits at 1.  Curves are immutable and safe to share.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size:
            if not (np.isfinite(times).all() and np.isfinite(values).all()):
                raise ValueError("curve times and values must be finite")
            if times[0] < 0.0:
                raise ValueError("jump times must be nonnegative")
            if (times[1:] <= times[:-1]).any():
                raise ValueError("jump times must be strictly increasing")
            if values.min() < 0.0 or values.max() > 1.0:
                raise ValueError("survival values must lie in [0, 1]")
            if (values[1:] > values[:-1]).any():
                raise ValueError("survival values must be non-increasing")
        object.__setattr__(self, "times", _frozen(times, self.times))
        object.__setattr__(self, "values", _frozen(values, self.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepCurve):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.values, other.values)

    __hash__ = None

    def __call__(self, t):
        return evaluate(self, t)


def _checked_times(t) -> np.ndarray:
    """Evaluation times as a float array: nonnegative numbers, `inf`
    included and NaN not."""
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0.0).all():
        raise ValueError("evaluation times must be nonnegative")
    return arr


def _checked_grid(t) -> np.ndarray:
    """`_checked_times` of a prediction grid, which must be 1-d."""
    arr = _checked_times(t)
    if arr.ndim != 1:
        raise ValueError(f"evaluation times must be a 1-d array, got shape {arr.shape}")
    return arr


def _steps_at(jumps, values, t, before):
    """Right-continuous read at `t` of steps that jump at ascending `jumps`:
    `values[..., i]` on [jumps[i], jumps[i+1]), `before` ahead of jumps[0].
    `values` is one row of steps or a (rows, jumps) matrix, and `t` has any
    shape.  Steps that open with a jump of their own at or below every `t`,
    as each leaf of a survival forest does on its global leaf keys, never
    read `before`."""
    idx = jumps.searchsorted(t, side="right")
    return np.concatenate((np.full(values.shape[:-1] + (1,), before), values), axis=-1)[..., idx]


def evaluate(curve: StepCurve, t):
    """Evaluate a step curve at scalar or array `t` (right-continuously)."""
    arr = _checked_times(t)
    out = _steps_at(curve.times, curve.values, arr, 1.0)
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
    return StepCurve(u, np.cumprod(1.0 - d / r))


def product_limit(times, events) -> StepCurve:
    """Product-limit curve of a (possibly event-free) sample.

    With no observed events the curve is constant 1.  `kaplan_meier` adds
    the at-least-one-event check on top of this.
    """
    return _product_limit(*_checked_sample(times, events))


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
