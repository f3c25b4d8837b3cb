"""Censored-data evaluation metrics.

Time-dependent concordance over comparable pairs, the inverse-probability-
of-censoring-weighted Brier score and its trapezoid time average, and the
D-calibration goodness-of-calibration test.  Each metric reads the
predictions of an n-record sample as one array `survival` of shape
(n, n), where `survival[i, k]` is record i's predicted survival at
`times[k]`, the sample's own observed times.  Times must be finite,
event flags 0 or 1, and survival values finite and within [0, 1].  All
functions are pure; fold evaluation can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .curves import _checked_sample, censoring_km, evaluate


@dataclass(frozen=True)
class MetricReport:
    """Per-fold evaluation summary for one model."""

    concordance: float
    ibs: float
    dcal_pass: bool
    dcal_pvalue: float
    fold_id: int


def _check_aligned(survival, times, events, ndim=2):
    """Float arrays of a sample checked by `curves._checked_sample`;
    `survival` holds one value per record (ndim=1) or one row per record and
    one column per record time (ndim=2), each finite and in [0, 1]."""
    times, events = _checked_sample(times, events)
    survival = np.asarray(survival, dtype=float)
    if survival.shape != (times.size,) * ndim:
        raise ValueError(
            f"survival has shape {survival.shape}, expected {(times.size,) * ndim} for {times.size} records"
        )
    if not ((survival >= 0.0) & (survival <= 1.0)).all():  # NaN fails both
        raise ValueError("survival values must be finite and lie in [0, 1]")
    return survival, times, events.astype(np.int64)


def concordance_td(survival, times, events) -> float:
    """Time-dependent concordance.

    `survival[i, k]` is record i's predicted survival at `times[k]`.  Over
    pairs (i, j) with an observed event for i and t_i < t_j, the fraction
    where record i's predicted survival at t_i is lower than record j's;
    prediction ties count one half.  1 is perfect ranking, 0.5 is random.
    """
    survival, times, events = _check_aligned(survival, times, events)
    n = times.size
    num = 0.0
    den = 0
    for i in range(n):
        if events[i] != 1:
            continue
        comparable = times > times[i]
        if not comparable.any():
            continue
        s_i = survival[i, i]
        s_j = survival[comparable, i]
        num += float((s_i < s_j).sum()) + 0.5 * float((s_i == s_j).sum())
        den += int(comparable.sum())
    if den == 0:
        raise ValueError("no comparable pairs: concordance is undefined")
    return num / den


def _brier_scores(times, events, g_at_times, points) -> list[float]:
    """Censoring-weighted Brier score at each (t, G(t), survival at t) of
    `points`, with the sample's event masks built once.

    Event records seen by `t` whose weight G(y_i) is zero, and at-risk
    records when G(t) is zero, are excluded and the rest renormalizes.
    """
    is_event = events == 1
    weighted = is_event & (g_at_times != 0.0)
    lost = is_event & (g_at_times == 0.0)
    any_lost = bool(lost.any())
    scores = []
    for t, g_at_t, survival_at_t in points:
        seen = times <= t
        at_risk = times > t
        n_eff = times.size
        if any_lost:
            n_eff -= int(np.count_nonzero(seen & lost))
        if g_at_t == 0.0:
            n_eff -= int(np.count_nonzero(at_risk))
        if n_eff == 0:
            raise ValueError(f"every record lost its censoring weight at t={t}")
        had_event = seen & weighted
        total = float((survival_at_t[had_event] ** 2 / g_at_times[had_event]).sum())
        if g_at_t != 0.0:
            total += float(((1.0 - survival_at_t[at_risk]) ** 2 / g_at_t).sum())
        scores.append(total / n_eff)
    return scores


def integrated_brier(survival, times, events) -> float:
    """Trapezoid average of the censored Brier score.

    `survival[i, k]` is record i's predicted survival at `times[k]`.  The
    grid is every distinct event time of the sample, so the average runs
    from the first to the last event, and G is the censoring Kaplan-Meier
    of the same sample.
    """
    survival, times, events = _check_aligned(survival, times, events)
    event_rows = np.flatnonzero(events == 1)
    t_grid, first = np.unique(times[event_rows], return_index=True)
    if t_grid.size < 2:
        raise ValueError("the integration grid needs at least two time points")
    # every record observed at a grid time holds that time's column; take
    # the first event record's
    columns = event_rows[first]
    g_at_times = evaluate(censoring_km(times, events), times)
    points = [(float(times[c]), float(g_at_times[c]), survival[:, c]) for c in columns]
    scores = np.array(_brier_scores(times, events, g_at_times, points))
    gaps = np.diff(t_grid)
    area = float((0.5 * (scores[:-1] + scores[1:]) * gaps).sum())
    return area / float(t_grid[-1] - t_grid[0])


def d_calibration_masses(survival, times, events, bins: int = 10) -> np.ndarray:
    """Bin masses behind the D-calibration statistic.

    `survival[i, k]` is record i's predicted survival at `times[k]`, so
    the diagonal holds each record's prediction at its own observed time.
    Each uncensored record drops unit mass into the bin holding that
    probability; a censored record spreads its mass below it (partial mass
    to its own bin, uniform mass to every lower bin).  Masses sum to the
    record count.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    survival, times, events = _check_aligned(survival, times, events)
    width = 1.0 / bins
    masses = np.zeros(bins)
    for pi, event in zip(np.diagonal(survival), events):
        b = min(int(pi * bins), bins - 1)
        if event == 1:
            masses[b] += 1.0
            continue
        if pi <= 0.0:
            masses[0] += 1.0
            continue
        lower_edge = b * width
        masses[b] += (pi - lower_edge) / pi
        if b:
            masses[:b] += width / pi
    return masses


def d_calibration(survival, times, events, bins: int = 10, level: float = 0.05):
    """Chi-square uniformity test on the D-calibration bin masses of
    `survival` (laid out as in `d_calibration_masses`).

    Returns (passed, p_value), passing when the p-value exceeds `level`.
    """
    masses = d_calibration_masses(survival, times, events, bins)
    n = len(times)
    expected = n / bins
    stat = float(((masses - expected) ** 2 / expected).sum())
    pvalue = float(chdtrc(bins - 1, stat))  # chi2.sf(stat, bins - 1), without scipy.stats
    return pvalue > level, pvalue
