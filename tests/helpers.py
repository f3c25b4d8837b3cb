"""Hand-rolled slow oracles shared by the test modules.

Everything here is written independently of the package internals (plain
loops, textbook formulas) so the fast implementations are checked against
a second derivation, not against themselves.  The `reference_*` functions
are earlier versions of package code, kept verbatim so that the current
paths can be checked against them bit for bit.  The per-record and
per-pair entry points below them (`nelson_aalen`, `area_distance`,
`brier_censored`, the Cox and logistic likelihoods, ...) were public
package functions that no command calls; they stay here, over the same
private cores, as the definitions the batched paths are checked against.
"""

from typing import NamedTuple

import numpy as np

from survcobra import tuning
from survcobra.cobra import gamma_labels
from survcobra.curves import StepCurve, _checked_sample, _event_counts, evaluate, product_limit
from survcobra.data import SurvivalDataset, kfold_split
from survcobra.exceptions import ConvergenceError, TuningError
from survcobra.learners.base import _check_vector, standardize_fit
from survcobra.learners.cox import COEF_TOL, MAX_OUTER_ITER, _PartialLikelihood, _soft_threshold
from survcobra.learners.tree import SurvivalTreeModel, _fit_trees
from survcobra.metrics import _brier_scores, _check_aligned
from survcobra.relevance import COEF_TOL as LOGISTIC_COEF_TOL
from survcobra.relevance import (
    DEFAULT_RIDGE,
    MAX_ITER,
    _design,
    _gradient,
    _objective,
    _penalty,
    _relevance_from_labels,
)


def slow_km(times, events):
    """Sequential product-limit: returns (jump_times, values) lists."""
    times = list(map(float, times))
    events = list(map(int, events))
    uniq = sorted({t for t, e in zip(times, events) if e == 1})
    out_t, out_v = [], []
    s = 1.0
    for u in uniq:
        d = sum(1 for t, e in zip(times, events) if e == 1 and t == u)
        r = sum(1 for t in times if t >= u)
        s *= 1.0 - d / r
        out_t.append(u)
        out_v.append(s)
    return out_t, out_v


def slow_na(times, events):
    """Sequential Nelson-Aalen sum of d/r: returns (jump_times, values) lists."""
    times = list(map(float, times))
    events = list(map(int, events))
    uniq = sorted({t for t, e in zip(times, events) if e == 1})
    out_t, out_v = [], []
    h = 0.0
    for u in uniq:
        d = sum(1 for t, e in zip(times, events) if e == 1 and t == u)
        r = sum(1 for t in times if t >= u)
        h += d / r
        out_t.append(u)
        out_v.append(h)
    return out_t, out_v


def slow_logrank(times_a, events_a, times_b, events_b):
    """Two-sample log-rank chi-square statistic by explicit counting."""
    times = list(times_a) + list(times_b)
    events = list(events_a) + list(events_b)
    group_a = [True] * len(times_a) + [False] * len(times_b)
    uniq = sorted({t for t, e in zip(times, events) if e == 1})
    observed = expected = variance = 0.0
    for u in uniq:
        r = sum(1 for t in times if t >= u)
        d = sum(1 for t, e in zip(times, events) if e == 1 and t == u)
        r1 = sum(1 for t, a in zip(times, group_a) if a and t >= u)
        d1 = sum(1 for t, e, a in zip(times, events, group_a) if a and e == 1 and t == u)
        observed += d1
        expected += d * r1 / r
        if r > 1:
            variance += d * (r1 / r) * (1.0 - r1 / r) * (r - d) / (r - 1)
    if variance <= 0.0:
        return 0.0
    return (observed - expected) ** 2 / variance


def all_splits_logrank(x, times, events, min_leaf):
    """Every admissible (feature, midpoint-threshold) split with its
    log-rank statistic, by brute force."""
    n, p = x.shape
    results = []
    for f in range(p):
        vals = sorted(set(x[:, f].tolist()))
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (lo + hi)
            left = x[:, f] <= thr
            if left.sum() < min_leaf or (~left).sum() < min_leaf:
                continue
            stat = slow_logrank(times[left], events[left], times[~left], events[~left])
            results.append((f, thr, stat))
    return results


def reference_best_split_for_feature(fvals, at_risk, events, weights, min_leaf):
    """The tree's former per-feature split search, kept verbatim as a
    reference: every cut is computed and then masked, and the events are
    gathered and summed apart from the at-risk counts."""
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


def reference_node_split(x, events, rows, ranks, cols, d, r, candidates, min_leaf):
    """The tree's former node loop over `candidates`, kept verbatim apart
    from the feature draw: (statistic, feature, threshold) or None."""
    at_risk = (ranks[:, None] >= cols).astype(np.int8)
    dr = d / r
    c2 = np.divide(r - d, r - 1, out=np.zeros_like(r), where=r > 1)
    w1 = dr * c2
    w2 = w1 / r
    best = None
    for f in candidates:
        found = reference_best_split_for_feature(x[rows, f], at_risk, events[rows], (dr, w1, w2), min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(f), found[1])
    return best


def random_dataset(rng, n, p=2, event_rate=0.7, scale=3.0):
    """Small random censored dataset guaranteed to contain an event."""
    x = rng.uniform(size=(n, p))
    times = rng.uniform(0.1, scale, size=n)
    events = (rng.uniform(size=n) < event_rate).astype(int)
    events[int(rng.integers(n))] = 1
    return SurvivalDataset(x, times, events, [f"x{i}" for i in range(p)])


def oracle_cobra_curves(model, queries):
    """Reference predictions: enumerate the proximity indicator straight
    from its definition (per-pair distance grids), then hand-roll the
    product-limit over the members.  Each machine's curve of each query
    and of each calibration record is formed once.  Returns one
    (times, values) pair of lists per row of `queries`."""
    import math

    d_k = model.split.d_k
    d_l = model.split.d_l
    t_max = float(d_k.time.max())
    machines = model.machines
    need = math.ceil(len(machines) * model.params.alpha - 1e-9)
    calibration = [[machine.predict_curve(x) for x in d_l.x] for machine in machines]
    out = []
    for q in queries:
        mine = [machine.predict_curve(q) for machine in machines]
        members = []
        for j in range(d_l.n):
            close = 0
            for a, curves in zip(mine, calibration):
                b = curves[j]
                if area_distance(a, b, distance_grid(a, b, t_max)) <= model.params.epsilon:
                    close += 1
            if close >= need:
                members.append(j)
        times = [float(d_l.time[j]) for j in members]
        events = [int(d_l.event[j]) for j in members]
        if not members or not any(events):
            times = [float(t) for t in d_l.time]
            events = [int(e) for e in d_l.event]
        out.append(slow_km(times, events))
    return out


def slow_curvature(x, times, events, beta):
    """Negative Hessian of the Breslow log partial likelihood, one distinct
    event time at a time: records sorted by time join the risk-set sums
    block by block from the last event time back, and each event time adds
    d_k times the risk set's weighted covariance S2/W - mu mu^T."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    order = np.argsort(times, kind="stable")
    xs, ys, es = x[order], times[order], events[order]
    eta = xs @ np.asarray(beta, dtype=float)
    w = np.exp(eta - eta.max())
    u = sorted(set(ys[es == 1].tolist()))
    pos = np.searchsorted(ys, u, side="left")
    p = x.shape[1]
    h = np.zeros((p, p))
    s2 = np.zeros((p, p))
    s1 = np.zeros(p)
    s0 = 0.0
    boundary = np.append(pos, ys.size)
    for k in range(len(u) - 1, -1, -1):
        lo, hi = boundary[k], boundary[k + 1]
        for i in range(lo, hi):
            s2 += w[i] * np.outer(xs[i], xs[i])
            s1 += w[i] * xs[i]
            s0 += w[i]
        d = float(np.sum((ys == u[k]) & (es == 1)))
        mu = s1 / s0
        h += d * (s2 / s0 - np.outer(mu, mu))
    return h


def slow_cv_penalty(data, penalty_kind, folds=3, seed=0):
    """The Cox penalty CV as a cold loop: every (penalty, fold) pair is a
    fresh `fit_cox` from zero coefficients, scored by the held-out
    `cox_log_partial_likelihood`.  A penalty fails when any fold raises."""
    from survcobra.learners import fit_cox

    x = data.x
    sd = x.std(axis=0)
    z = (x - x.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
    zero = np.zeros(x.shape[1])
    lam_max = float(np.max(np.abs(cox_gradient(z, data.time, data.event, zero))))
    if lam_max == 0.0:
        lam_max = 1.0
    pairs = kfold_split(data, folds, seed)
    best_lam, best_score = None, -np.inf
    for lam in lam_max * np.logspace(0.0, -4.0, 10):
        score = 0.0
        try:
            for train, test in pairs:
                model = fit_cox(train, penalty_kind, float(lam))
                score += cox_log_partial_likelihood(
                    test.x - model.feature_means, test.time, test.event, model.beta
                )
        except (ConvergenceError, ValueError):
            continue
        if score > best_score:
            best_score, best_lam = score, float(lam)
    if best_lam is None:
        raise ConvergenceError(f"no penalty in the CV grid produced a fit (grid max {lam_max:g})")
    return best_lam


def same_bits(got, want) -> bool:
    """Equal type, dtype, shape and bytes: floats as float64 bytes."""
    if isinstance(want, float):
        return type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_event_table(times, events):
    """Unique event times with event counts and at-risk counts."""
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
    return reference_event_counts(t, e)


def reference_event_counts(t, e):
    """`reference_event_table` on validated arrays (possibly empty)."""
    event_times = t[e == 1]
    if event_times.size == 0:
        empty = np.empty(0, dtype=float)
        return empty, empty.copy(), empty.copy()
    unique_times, d = np.unique(event_times, return_counts=True)
    sorted_t = np.sort(t)
    r = t.size - np.searchsorted(sorted_t, unique_times, side="left")
    return unique_times, d.astype(float), r.astype(float)


def reference_product_limit(times, events):
    """(jump times, values) of the product-limit curve."""
    u, d, r = reference_event_table(times, events)
    return u, (np.cumprod(1.0 - d / r) if u.size else u)


def reference_evaluate(curve, t, baseline=1.0):
    """A step curve (ascending jump `times` and their `values`) at scalar
    or array `t`, right-continuously, with `baseline` before the first jump."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("evaluation times must be nonnegative")
    if curve.times.size == 0:
        out = np.full(arr.shape, baseline)
        return float(out) if arr.ndim == 0 else out
    idx = np.searchsorted(curve.times, arr, side="right") - 1
    out = np.where(idx < 0, baseline, curve.values[np.maximum(idx, 0)])
    return float(out) if arr.ndim == 0 else out


def reference_brier_from_values(survival_at_t, times, events, t, g_at_times, g_at_t):
    """One Brier evaluation given survival and censoring values."""
    had_event = (times <= t) & (events == 1)
    still_at_risk = times > t
    excluded = (had_event & (g_at_times == 0.0)) | (still_at_risk & (g_at_t == 0.0))
    n_eff = times.size - int(excluded.sum())
    if n_eff == 0:
        raise ValueError(f"every record lost its censoring weight at t={t}")
    keep = ~excluded
    total = 0.0
    mask1 = had_event & keep
    if mask1.any():
        total += float((survival_at_t[mask1] ** 2 / g_at_times[mask1]).sum())
    mask2 = still_at_risk & keep
    if mask2.any():
        total += float(((1.0 - survival_at_t[mask2]) ** 2 / g_at_t).sum())
    return total / n_eff


def reference_integrated_brier(survival, times, events):
    """Trapezoid average of the censored Brier score over the sample's
    distinct event times, with its own censoring Kaplan-Meier."""
    survival = np.asarray(survival, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events).astype(np.int64)
    event_rows = np.flatnonzero(events == 1)
    t_grid, first = np.unique(times[event_rows], return_index=True)
    if t_grid.size < 2:
        raise ValueError("the integration grid needs at least two time points")
    columns = event_rows[first]
    censoring = StepCurve(*reference_product_limit(times, 1 - events))
    g_at_times = reference_evaluate(censoring, times)
    scores = np.array(
        [
            reference_brier_from_values(
                survival[:, c], times, events, float(times[c]), g_at_times, float(g_at_times[c])
            )
            for c in columns
        ]
    )
    gaps = np.diff(t_grid)
    area = float((0.5 * (scores[:-1] + scores[1:]) * gaps).sum())
    return area / float(t_grid[-1] - t_grid[0])


def reference_concordance_td(survival, times, events) -> float:
    """`metrics.concordance_td` as a loop over event records."""
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


def reference_d_calibration_masses(survival, times, events, bins: int = 10) -> np.ndarray:
    """`metrics.d_calibration_masses` as a loop over records."""
    if not isinstance(bins, (int, np.integer)):
        raise ValueError(f"bins must be an integer, got {bins!r}")
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


def reference_predict_one(d_l, pop_km, distances_mq, epsilon, need):
    """One query's aggregated curve, or `pop_km` itself on a fallback."""
    members = np.flatnonzero((distances_mq <= epsilon).sum(axis=0) >= need)
    if members.size == 0:
        return pop_km
    events = d_l.event[members]
    if not np.any(events == 1):
        return pop_km
    return StepCurve(*reference_product_limit(d_l.time[members], events))


def reference_aggregate(d_l, pop_km, distances, epsilon, need):
    """`reference_predict_one` for every query of a (machines, queries, n_l) tensor."""
    return [
        reference_predict_one(d_l, pop_km, distances[:, i, :], epsilon, need)
        for i in range(distances.shape[1])
    ]


def reference_survival_rows(curves, pop_km, times, pop_row=None):
    """`survival[i, k]`: curve i at `times[k]`, one shared row for fallbacks."""
    if pop_row is None:
        pop_row = reference_evaluate(pop_km, times)
    return np.stack([pop_row if c is pop_km else reference_evaluate(c, times) for c in curves])


def reference_fold_objective(prepared, params, objective):
    """The tuning objective of one prepared fold, through the references;
    the population KM row is evaluated afresh."""
    curves = reference_aggregate(
        prepared.d_l, prepared.pop_km, prepared.distances, params.epsilon, params.consensus_count
    )
    survival = reference_survival_rows(curves, prepared.pop_km, prepared.val_times)
    if objective == "ibs":
        return reference_integrated_brier(survival, prepared.val_times, prepared.val_events)
    return -reference_concordance_td(survival, prepared.val_times, prepared.val_events)


def reference_member_mask(distances, epsilon, need):
    """The consensus rule by counting: (machines, ..., n_l) in any machine
    order -> bool member mask of shape (..., n_l)."""
    return (distances <= epsilon).sum(axis=0) >= need


def reference_random_search(space, train, inner_folds=3, roster=None):
    """`tuning.random_search` as it scored trial by trial, with `_evaluate`
    and the per-l_fraction cache of prepared folds beside one per-mask score
    memo per fold.  The package's `_fit_stack`, `_fold_objective` and
    per-mask memo are looked up at call time, so a test's monkeypatch
    reaches both searches."""

    def prepare_fold(folds, fold_idx, roster, l_fraction, seed, cache):
        def prepare():
            fold_train, fold_val = folds[fold_idx]
            stack = tuning._fit_stack(fold_train, roster, l_fraction, tuning._stack_seed(seed, l_fraction))
            distances = stack.query_distances(fold_val.x)
            return tuning._PreparedFold(distances, stack.split.d_l, stack.pop_km, fold_val.time, fold_val.event)

        return tuning._cached(cache, (fold_idx, l_fraction), prepare, (ValueError, ConvergenceError))

    def evaluate_trial(params, folds, seed, objective, cache, memos):
        values = tuple(
            tuning._scored_objective(
                prepare_fold(folds, i, params.roster, params.l_fraction, seed, cache),
                params,
                objective,
                memos[i],
            )
            for i in range(len(folds))
        )
        return float(np.mean(values)), values

    if roster is None:
        roster = tuning.default_roster()
    roster = tuple(roster)
    draws = tuning.draw_trials(space, roster)
    folds = tuning._inner_folds(train, inner_folds, space.seed)
    results = [None] * space.trials

    for l_fraction in sorted({p.l_fraction for p in draws}):
        cache, memos = {}, [{} for _ in folds]
        for index, params in enumerate(draws):
            if params.l_fraction != l_fraction:
                continue
            try:
                value, fold_values = evaluate_trial(params, folds, space.seed, space.objective, cache, memos)
                results[index] = tuning.TrialResult(params, value, fold_values, index)
            except (ValueError, ConvergenceError) as exc:
                learner = getattr(exc, "learner", None)
                error = f"{learner}: {exc}" if learner else str(exc)
                results[index] = tuning.TrialResult(params, float("nan"), (), index, error=error)
        cache.clear()

    trace = [r for r in results if r is not None]
    best = None
    for result in trace:
        if result.failed:
            continue
        if best is None or result.objective_value < best.objective_value:
            best = result
    if best is None:
        causes = "; ".join(dict.fromkeys(r.error for r in trace))
        raise TuningError(f"every trial failed ({len(trace)} of {len(trace)}): {causes}", trace)
    return best, trace


def reference_risk_structure(times, events):
    """Time-sorted views plus the unique-event-time bookkeeping reused by
    every likelihood pass."""
    order = np.argsort(times, kind="stable")
    ys = times[order]
    es = events[order]
    unique_times, d = np.unique(ys[es == 1], return_counts=True)
    first_at_risk = np.searchsorted(ys, unique_times, side="left")
    return order, ys, es, unique_times, d.astype(float), first_at_risk


def reference_breslow_from_arrays(beta_standardized, z, times, events):
    """Breslow cumulative-hazard estimate on standardized covariates, as
    (event times, cumulative hazards): jump d(t) / sum of exp(beta . z_j)
    over the risk set at each event time."""
    order, ys, es, u, d, pos = reference_risk_structure(times, events)
    w = np.exp(z[order] @ beta_standardized)
    rev_w = np.cumsum(w[::-1])[::-1]
    jumps = d / rev_w[pos]
    return u, np.cumsum(jumps)


def reference_newton_ridge(pl, lam, start=None):
    """Newton ascent on the ridge objective from `start` (zero by default)."""
    beta = np.zeros(pl.p) if start is None else start
    trace = [pl.value(beta) - 0.5 * lam * float(beta @ beta)]
    for _ in range(MAX_OUTER_ITER):
        grad, curvature = pl.gradient_and_curvature(beta)
        grad = grad - lam * beta
        hess = curvature + lam * np.eye(pl.p)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("non-finite Newton step", tuple(trace))
        scale = 1.0
        current = trace[-1]
        for _ in range(40):
            candidate = beta + scale * step
            value = pl.value(candidate) - 0.5 * lam * float(candidate @ candidate)
            if np.isfinite(value) and value >= current - 1e-12:
                break
            scale *= 0.5
        else:
            if float(np.max(np.abs(grad))) < 1e-8:
                break
            raise ConvergenceError("step halving exhausted", tuple(trace))
        beta = candidate
        trace.append(value)
        # a step that halving shrank below the tolerance is not convergence
        if float(np.max(np.abs(step))) < COEF_TOL:
            return beta, tuple(trace)
    else:
        raise ConvergenceError(
            f"ridge solver did not converge in {MAX_OUTER_ITER} iterations",
            tuple(trace),
        )
    return beta, tuple(trace)


def reference_coordinate_descent_lasso(pl, lam, start=None):
    """Cyclic coordinate descent on the lasso objective's local quadratic
    approximation from `start` (zero by default)."""
    beta = np.zeros(pl.p) if start is None else start
    xs = pl.xs
    columns = list(np.ascontiguousarray(xs.T))
    trace = [pl.value(beta) - lam * float(np.abs(beta).sum())]
    for _ in range(MAX_OUTER_ITER):
        eta, g, h = pl.eta_derivatives(beta)
        if not np.all(np.isfinite(g)):
            raise ConvergenceError("non-finite working gradient", tuple(trace))
        active = h > 1e-12
        z = np.where(active, eta + np.divide(g, h, out=np.zeros_like(g), where=active), eta)
        w = np.where(active, h, 0.0)
        denom = (w[:, None] * xs * xs).sum(axis=0).tolist()
        candidate = beta.tolist()
        resid = z - xs @ beta
        for _ in range(1000):
            biggest = 0.0
            for j, column in enumerate(columns):
                dj = denom[j]
                if dj <= 0.0:
                    continue
                old = candidate[j]
                rho = float(w @ (column * resid)) + dj * old
                new = _soft_threshold(rho, lam) / dj
                if new != old:
                    resid += column * (old - new)
                    candidate[j] = new
                    biggest = max(biggest, abs(new - old))
            if biggest < 1e-9:
                break
        direction = np.array(candidate) - beta
        scale = 1.0
        current = trace[-1]
        for _ in range(40):
            trial = beta + scale * direction
            value = pl.value(trial) - lam * float(np.abs(trial).sum())
            if np.isfinite(value) and value >= current - 1e-12:
                break
            scale *= 0.5
        else:
            if float(np.max(np.abs(direction))) < COEF_TOL:
                break
            raise ConvergenceError("step halving exhausted", tuple(trace))
        change = float(np.max(np.abs(trial - beta)))
        beta = trial
        trace.append(value)
        if change < COEF_TOL:
            return beta, tuple(trace)
    else:
        raise ConvergenceError(
            f"lasso solver did not converge in {MAX_OUTER_ITER} iterations",
            tuple(trace),
        )
    return beta, tuple(trace)


def reference_irls(x, y, l2):
    """Iteratively reweighted least squares with step halving.

    Returns (coefficients, objective trace); the trace is non-decreasing.
    """
    beta = np.zeros(x.shape[1])
    ridge = _penalty(x.shape[1], l2)
    trace = [_objective(x, y, ridge, beta)]
    for _ in range(MAX_ITER):
        grad, sigma = _gradient(x, y, ridge, beta)
        weights = sigma * (1.0 - sigma)
        hess = (x.T * weights) @ x + np.diag(ridge)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("non-finite IRLS step", tuple(trace))
        scale = 1.0
        current = trace[-1]
        for _ in range(40):
            candidate = beta + scale * step
            value = _objective(x, y, ridge, candidate)
            if np.isfinite(value) and value >= current - 1e-12:
                break
            scale *= 0.5
        else:
            break  # no ascent direction left: stationary
        change = float(np.max(np.abs(candidate - beta)))
        beta = candidate
        trace.append(value)
        if change < LOGISTIC_COEF_TOL:
            return beta, tuple(trace)
    if l2 == 0.0:
        raise ConvergenceError(
            "logistic fit did not converge (labels may be separable); set l2 > 0",
            tuple(trace),
        )
    return beta, tuple(trace)


def grow_tree(x, times, events, max_depth, min_leaf, mtry=None, rng=None):
    """A survival tree on every record of the float arrays `x` and `times`
    and the 0/1 `events`, which may hold no event; at each node `rng` draws
    `mtry` of the features to search, or every feature is searched where
    `rng` is None."""
    sample = [(np.arange(x.shape[0]), rng)]
    mtry = x.shape[1] if mtry is None else mtry
    return _fit_trees(SurvivalTreeModel, x, times, events, sample, max_depth, min_leaf, mtry)


def reference_leaf_curve(model, root, x):
    """Walk one tree of a fitted tree or forest node by node from `root` to
    the checked vector x's leaf (`x[feature] <= threshold` goes left) and
    slice that leaf's jumps, past its leading key."""
    node = root
    while model.leaf[node] < 0:
        node = model.child[node, 0 if x[model.feature[node]] <= model.threshold[node] else 1]
    return leaf_curve(model, model.leaf[node])


def leaf_curve(model, leaf):
    """Leaf `leaf` of a fitted tree or forest as a curve: its jumps past its
    leading key."""
    start = leaf * (model.u.size + 1) + 1
    lo, hi = np.searchsorted(model.jump_keys, [start, start + model.u.size])
    return StepCurve(model.u[model.jump_keys[lo:hi] - start], model.jump_values[lo:hi])


def reference_tree_curve(tree, x):
    """The survival tree's former `predict_curve`: its one tree's leaf curve
    at x."""
    return reference_leaf_curve(tree, tree.roots[0], _check_vector(x, tree.n_features))


def reference_forest_curve(forest, x):
    """The forest's former `predict_curve`: `predict_values` on the union of
    its trees' leaf curves' jump times."""
    x = _check_vector(x, forest.n_features)
    grid = np.unique(np.concatenate([reference_leaf_curve(forest, root, x).times for root in forest.roots]))
    return StepCurve(grid, forest.predict_values(x[None, :], grid)[0])


def reference_knn_curve(model, x):
    """k-NN's former `predict_curve`: the neighbours' product-limit curve."""
    nb = model._neighbor_rows(_check_vector(x, model.n_features)[None, :])[0]
    return product_limit(model.times[nb], model.events[nb])


def reference_cox_curve(model, x):
    """Cox's former `predict_curve`: exp(-H0 * r) at the baseline's jumps."""
    r = float(model._risk(_check_vector(x, model.n_features)))
    return StepCurve(model.baseline_times, np.exp(-model.baseline_cumhaz * r))


def nelson_aalen(times, events):
    """Nelson-Aalen estimate of the cumulative hazard (sum of d/r), as
    (event times, cumulative hazards); the hazard is 0 before the first."""
    u, d, r = _event_counts(*_checked_sample(times, events))
    return u, (np.cumsum(d / r) if u.size else u)


def distance_grid(a: StepCurve, b: StepCurve, t_max: float) -> np.ndarray:
    """Grid on which the area distance of two step curves is exact:
    the union of both curves' jump times plus the endpoints 0 and t_max."""
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise ValueError("t_max must be positive and finite")
    return np.unique(np.concatenate(([0.0], a.times, b.times, [float(t_max)])))


def area_distance(a: StepCurve, b: StepCurve, grid) -> float:
    """Time-averaged absolute area between two curves over `grid`.

    Left-Riemann sum of |a - b| over consecutive grid points, divided by
    the grid span.  Exact whenever both curves are constant between grid
    points; symmetric and within [0, 1] for survival curves.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must contain at least two points")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    span = g[-1] - g[0]
    if span <= 0.0:
        raise ValueError("degenerate grid: zero span")
    left = g[:-1]
    gap = np.abs(evaluate(a, left) - evaluate(b, left))
    return float(np.sum(gap * np.diff(g)) / span)


def brier_censored(survival_at_t, times, events, t, censoring_curve: StepCurve) -> float:
    """Censoring-weighted Brier score at time `t`.

    `survival_at_t[i]` is record i's predicted survival at `t`.  Records
    already censored by `t` contribute nothing; event records are weighted
    by 1/G(y_i) and at-risk records by 1/G(t), where G is the
    censoring-distribution Kaplan-Meier.
    """
    times, events = _checked_sample(times, events)
    survival_at_t = np.asarray(survival_at_t, dtype=float)
    if survival_at_t.shape != times.shape:
        raise ValueError(f"survival has shape {survival_at_t.shape}, expected {times.shape} for {times.size} records")
    if not ((survival_at_t >= 0.0) & (survival_at_t <= 1.0)).all():  # NaN fails both
        raise ValueError("survival values must be finite and lie in [0, 1]")
    t = float(t)
    g_at_times = evaluate(censoring_curve, times)
    g_at_t = float(evaluate(censoring_curve, t))
    return _brier_scores(times, events, g_at_times, [(t, g_at_t, survival_at_t)])[0]


def logistic_penalized_loglik(features, labels, l2, coefficients) -> float:
    """Bernoulli log-likelihood minus the ridge term (intercept unpenalized).

    `coefficients` holds the intercept first.
    """
    x = _design(features)
    return _objective(x, np.asarray(labels, dtype=float), _penalty(x.shape[1], l2),
                      np.asarray(coefficients, dtype=float))


def logistic_gradient(features, labels, l2, coefficients) -> np.ndarray:
    """Analytic gradient of `logistic_penalized_loglik`."""
    x = _design(features)
    return _gradient(x, np.asarray(labels, dtype=float), _penalty(x.shape[1], l2),
                     np.asarray(coefficients, dtype=float))[0]


class QueryRelevance(NamedTuple):
    """Logistic coefficients (intercept first) for one query point, and
    whether its proximity labels were constant."""

    coefficients: np.ndarray
    degenerate: bool


def relevance_for_query(model, x, l2: float = DEFAULT_RIDGE) -> QueryRelevance:
    """Per-query relevance: regress the proximity labels on the
    standardized calibration covariates."""
    labels = gamma_labels(model, x)
    features = standardize_fit(model.split.d_l, "relevance")[0]
    return QueryRelevance(*_relevance_from_labels(features, labels, l2))


class ProximityAggregate(NamedTuple):
    """Event times, event counts, and at-risk counts over the proximity set."""

    member_indices: np.ndarray
    event_times: np.ndarray
    event_counts: np.ndarray
    risk_counts: np.ndarray


def proximity_aggregate(model, x) -> ProximityAggregate:
    """Counts behind the aggregated curve at query x."""
    members = np.flatnonzero(gamma_labels(model, x))
    d_l = model.split.d_l
    u, d, r = _event_counts(d_l.time[members], d_l.event[members])
    return ProximityAggregate(members, u, d.astype(np.int64), r.astype(np.int64))


def cox_log_partial_likelihood(x, times, events, beta) -> float:
    """Breslow-ties log partial likelihood at `beta` (no penalty)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pl = _PartialLikelihood(x, np.asarray(times, float), np.asarray(events, float))
    return pl.value(np.asarray(beta, dtype=float))


def cox_gradient(x, times, events, beta) -> np.ndarray:
    """Analytic gradient of the log partial likelihood at `beta`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pl = _PartialLikelihood(x, np.asarray(times, float), np.asarray(events, float))
    return pl.gradient_and_curvature(np.asarray(beta, dtype=float))[0]


def breslow_baseline(model, data: SurvivalDataset):
    """Recompute the Breslow baseline of a fitted Cox model on `data`, as
    (event times, cumulative hazards)."""
    z = (data.x - model.feature_means) / model.feature_sds
    pl = _PartialLikelihood(z, data.time, data.event.astype(float))
    return pl.u, pl.breslow(model.beta_standardized)
