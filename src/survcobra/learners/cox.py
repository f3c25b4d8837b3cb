"""Proportional-hazards model with ridge or lasso penalty.

The coefficient vector maximizes the log partial likelihood (Breslow tie
handling) minus the penalty: ridge solves by Newton iterations with step
halving, lasso by cyclic coordinate descent on the local quadratic
approximation.  The baseline cumulative hazard uses the Breslow estimator,
so the conditional curve is exp(-H0(t) * exp(beta . (x - mean))).

Covariates are standardized internally (train mean/sd); reported
coefficients are rescaled back to the original feature units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..curves import _event_counts, _steps_at
from ..data import SurvivalDataset, _named, kfold_split
from ..exceptions import ConvergenceError
from .base import BaseSurvivalModel, halving_step, standardize_fit

MAX_OUTER_ITER = 100
COEF_TOL = 1e-7
_CURVATURE_BUDGET_BYTES = 8 * 2**20


class _PartialLikelihood:
    """Log partial likelihood, gradient, curvature and Breslow baseline for
    fixed data, sorted by time once.  The distinct event times `u`, tie counts
    `d` and at-risk counts are those of `curves._event_counts`, so each event
    time's first record at risk sits at `pos` = n - its at-risk count."""

    def __init__(self, x, times, events):
        order = np.argsort(times, kind="stable")
        self.ys, self.es, self.xs = times[order], events[order], x[order]
        self.n, self.p = x.shape
        self.u, self.d, at_risk = _event_counts(self.ys, self.es)
        self.pos = self.n - at_risk.astype(np.intp)
        if self.u.size == 0:
            raise ValueError("the partial likelihood needs at least one event")
        self._event_rows = self.es == 1
        self._sx_events = self.xs[self._event_rows].sum(axis=0)

    def _weights(self, beta):
        eta = self.xs @ beta
        shift = eta.max()
        w = np.exp(eta - shift)
        rev_w = np.cumsum(w[::-1])[::-1]
        return eta, shift, w, rev_w

    def value(self, beta) -> float:
        eta, shift, _, rev_w = self._weights(beta)
        event_term = float(eta[self._event_rows].sum())
        log_w = np.log(rev_w[self.pos]) + shift
        return event_term - float(self.d @ log_w)

    def gradient_and_curvature(self, beta):
        """The gradient and the curvature from one pass over the risk sets.

        The curvature is the negative Hessian of the log partial likelihood
        (PSD): the sum over event times of d_k times the risk set's weighted
        covariance V_k = S2_k / W_k - mu_k mu_k^T, where S2_k is the suffix
        sum of w x x^T from the first record at risk.

        The w x x^T terms are built in row blocks from the last row back,
        each block's suffix sum seeded with the one carried from the block
        after it.  So S2 is the same sequential sum whatever the block size,
        and each (rows, p, p) temporary holds about `_CURVATURE_BUDGET_BYTES`
        at most, not n p^2 floats.
        """
        _, _, w, rev_w = self._weights(beta)
        rev_wx = np.cumsum((w[:, None] * self.xs)[::-1], axis=0)[::-1]
        # W_k and mu_k: each event time's risk-set total weight and weighted mean
        wk = rev_w[self.pos]
        mu = rev_wx[self.pos] / wk[:, None]
        p = self.p
        h = np.zeros((p, p))
        carry = np.zeros((1, p, p))
        block = max(1, _CURVATURE_BUDGET_BYTES // (8 * p * p))
        hi = self.n
        while hi > self.pos[0]:
            lo = max(hi - block, self.pos[0])
            chunk = self.xs[lo:hi]
            terms = (w[lo:hi, None, None] * chunk[:, :, None]) * chunk[:, None, :]
            s2 = np.cumsum(np.concatenate([carry, terms[::-1]]), axis=0)[:0:-1]
            carry = s2[:1]
            ks = slice(*np.searchsorted(self.pos, [lo, hi]))
            v = s2[self.pos[ks] - lo] / wk[ks, None, None] - mu[ks, :, None] * mu[ks, None, :]
            h += np.einsum("k,kij->ij", self.d[ks], v)
            hi = lo
        return self._sx_events - self.d @ mu, h

    def eta_derivatives(self, beta):
        """Per-record gradient and (nonnegative) diagonal curvature of the
        log partial likelihood with respect to the linear predictor."""
        eta, _, w, rev_w = self._weights(beta)
        base = self.d / rev_w[self.pos]
        base2 = self.d / rev_w[self.pos] ** 2
        a = _steps_at(self.u, np.cumsum(base), self.ys, 0.0)
        b = _steps_at(self.u, np.cumsum(base2), self.ys, 0.0)
        g = self.es - w * a
        h = np.maximum(w * a - w * w * b, 0.0)
        return eta, g, h

    def breslow(self, beta) -> np.ndarray:
        """Breslow cumulative-hazard estimate at `beta` at each event time of
        `u`: the running sum of d(t) / sum of exp(beta . x_j) over the risk
        set."""
        rev_w = np.cumsum(np.exp(self.xs @ beta)[::-1])[::-1]
        cumhaz = np.cumsum(self.d / rev_w[self.pos])
        if not np.isfinite(cumhaz).all():
            raise ValueError("curve times and values must be finite")
        return cumhaz


def _soft_threshold(value: float, cut: float) -> float:
    if value > cut:
        return value - cut
    if value < -cut:
        return value + cut
    return 0.0


def _newton_ridge(pl: _PartialLikelihood, lam: float, start=None):
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
        found = halving_step(lambda b: pl.value(b) - 0.5 * lam * float(b @ b), beta, step, trace[-1])
        if found is None:
            if float(np.max(np.abs(grad))) < 1e-8:
                break
            raise ConvergenceError("step halving exhausted", tuple(trace))
        beta, value = found
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


def _coordinate_descent_lasso(pl: _PartialLikelihood, lam: float, start=None):
    """Cyclic coordinate descent on the lasso objective's local quadratic
    approximation from `start` (zero by default).  The coordinate sweeps
    run on Python floats (the same double arithmetic as numpy scalars, at
    less cost per coordinate) and on contiguous copies of the columns."""
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
        found = halving_step(
            lambda b: pl.value(b) - lam * float(np.abs(b).sum()), beta, direction, trace[-1]
        )
        if found is None:
            if float(np.max(np.abs(direction))) < COEF_TOL:
                break
            raise ConvergenceError("step halving exhausted", tuple(trace))
        trial, value = found
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


@dataclass(frozen=True, eq=False)
class CoxModel(BaseSurvivalModel):
    """Fitted proportional-hazards model."""

    beta: np.ndarray
    baseline_times: np.ndarray  # the Breslow baseline jumps at the training event times
    baseline_cumhaz: np.ndarray  # to its cumulative hazard there; 0 before the first
    feature_means: np.ndarray
    feature_sds: np.ndarray
    beta_standardized: np.ndarray
    penalty_kind: str
    penalty: float
    objective_trace: tuple[float, ...] = field(repr=False)

    @property
    def n_features(self) -> int:  # type: ignore[override]
        return self.beta.shape[0]

    def _risk(self, x: np.ndarray) -> np.ndarray:
        """exp(beta . z) per row, summed row-wise so that a row's score does
        not depend on how many rows come with it (a BLAS dot, a gemv and a
        one-row gemm can round differently).  A row that overflows gets its
        limit, inf or 0, with no warning; terms that overflow to both signs
        give NaN, which `_values` refuses."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = (x - self.feature_means) / self.feature_sds
            return np.exp((z * self.beta_standardized).sum(axis=-1))

    def _jump_times(self, x) -> np.ndarray:
        return self.baseline_times

    def _values(self, x, grid) -> np.ndarray:
        r = self._risk(x)
        if np.isnan(r).any():  # finite covariates whose terms overflow to +inf and -inf
            raise ValueError(f"cox_{self.penalty_kind}: row {np.isnan(r).argmax()}: the linear predictor is NaN")
        h = _steps_at(self.baseline_times, self.baseline_cumhaz, grid, 0.0)
        # exactly 1.0 where the baseline is 0, also for an overflowed (infinite) risk
        return np.exp(-np.multiply(r[:, None], h, out=np.zeros((r.size, h.size)), where=h > 0.0))


def _standardized(data: SurvivalDataset, penalty_kind: str):
    """`data`'s covariates standardized by its own column means and sds,
    with its times, event flags, means and sds."""
    z, mean, sd = standardize_fit(data, f"cox_{penalty_kind}")
    return z, data.time, data.event.astype(float), mean, sd


def _cv_penalty(data: SurvivalDataset, pl: _PartialLikelihood, penalty_kind: str, folds: int, seed: int) -> float:
    """Pick the penalty by cross-validated held-out log partial likelihood
    over a 10-point log grid anchored at the zero-coefficient gradient of
    `pl`, the likelihood of all of `data` on its standardized covariates.

    Each fold's training and held-out likelihoods are built once.  The grid
    is walked from the strongest penalty down, and each fold's solver starts
    from that fold's coefficients at the last penalty that fitted every
    fold (pathwise warm starts, as in glmnet); a penalty that fails leaves
    the starts as they were.  Warm starts move the path's iterates only
    within the solver tolerance, and `fit_cox` refits cold at the penalty
    chosen here.
    """
    lam_max = float(np.max(np.abs(pl.gradient_and_curvature(np.zeros(pl.p))[0])))
    if lam_max == 0.0:
        lam_max = 1.0
    grid = lam_max * np.logspace(0.0, -4.0, 10)
    solve = _newton_ridge if penalty_kind == "ridge" else _coordinate_descent_lasso
    no_fit = f"no penalty in the CV grid produced a fit (grid max {lam_max:g})"
    split = f"cox_{penalty_kind} penalty CV: {folds}-fold split (cv_seed {seed})"
    pairs = _named(split, kfold_split, data, folds, seed)
    paths = []
    for train, test in pairs:
        z, times, events, mean, sd = _standardized(train, penalty_kind)
        try:
            # held out: covariates centred by the training means, scored
            # with coefficients in feature units
            held_out = _PartialLikelihood(test.x - mean, test.time, test.event.astype(float))
            paths.append((_PartialLikelihood(z, times, events), held_out, sd))
        except ValueError:  # a part without events fails at every penalty
            raise ConvergenceError(no_fit) from None
    starts = [None] * len(paths)
    best_lam, best_score = None, -np.inf
    for lam in grid:  # descending: ties prefer the stronger penalty
        lam = float(lam)
        score, betas = 0.0, []
        try:
            for (train_pl, held_out, sd), start in zip(paths, starts):
                beta, _ = solve(train_pl, lam, start)
                score += held_out.value(beta / sd)
                betas.append(beta)
        except (ConvergenceError, ValueError):
            continue
        starts = betas
        if score > best_score:
            best_score, best_lam = score, lam
    if best_lam is None:
        raise ConvergenceError(no_fit)
    return best_lam


def fit_cox(
    data: SurvivalDataset,
    penalty_kind: str,
    penalty: float | None = None,
    cv_folds: int = 3,
    cv_seed: int = 0,
) -> CoxModel:
    """Fit a penalized Cox model.

    `penalty` is the raw multiplier on 0.5*||beta||^2 (ridge) or ||beta||_1
    (lasso) in standardized-covariate space.  When None it is chosen by
    `cv_folds`-fold cross-validation.
    """
    if penalty_kind not in ("ridge", "lasso"):
        raise ValueError(f"unknown penalty kind {penalty_kind!r}")
    if penalty is not None and penalty < 0.0:
        raise ValueError("penalty must be nonnegative")
    z, times, events, mean, sd = _standardized(data, penalty_kind)
    pl = _PartialLikelihood(z, times, events)
    if penalty is None:
        penalty = _cv_penalty(data, pl, penalty_kind, cv_folds, cv_seed)
    solve = _newton_ridge if penalty_kind == "ridge" else _coordinate_descent_lasso
    beta_std, trace = solve(pl, float(penalty))
    return CoxModel(
        beta=beta_std / sd,
        baseline_times=pl.u,
        baseline_cumhaz=pl.breslow(beta_std),
        feature_means=mean,
        feature_sds=sd,
        beta_standardized=beta_std,
        penalty_kind=penalty_kind,
        penalty=float(penalty),
        objective_trace=trace,
    )
