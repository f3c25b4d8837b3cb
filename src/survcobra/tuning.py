"""Seeded random search over (epsilon, alpha, l_fraction).

Each trial triple is scored by inner cross-validation: fit the ensemble on
every fold's training part, predict the fold's validation records, and
average the objective (time-averaged Brier score, or negative
concordance).  Machine fits depend only on (fold, l_fraction), and their
seeds on (seed, l_fraction) alone, so the trials of one l_fraction are
scored fold by fold: each fold is fitted once, shared by those trials, and
dropped before the next.  Within a fold, trials whose (epsilon, alpha)
select the same proximity sets share one scored objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cobra import CobraParams, _fit_stack, _member_mask, _survival_matrix
from .data import SurvivalDataset, _named, kfold_split
from .exceptions import ConvergenceError, TuningError
from .learners import LearnerSpec, default_roster
from .metrics import concordance_td, integrated_brier
from .seeds import derive_seed

OBJECTIVES = ("ibs", "neg_concordance")

TABLE_ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)
TABLE_L_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
TABLE_EPSILON_RANGE = (1e-300, 0.9)


@dataclass(frozen=True)
class SearchSpace:
    """Hyperparameter search domain with the benchmark defaults."""

    trials: int
    objective: str = "ibs"
    seed: int = 0
    epsilon_range: tuple[float, float] = TABLE_EPSILON_RANGE
    alpha_choices: tuple[float, ...] = TABLE_ALPHAS
    l_fraction_choices: tuple[float, ...] = TABLE_L_FRACTIONS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        lo, hi = self.epsilon_range
        if not 0.0 < lo < hi:
            raise ValueError("epsilon_range must satisfy 0 < low < high")
        if not self.alpha_choices or not self.l_fraction_choices:
            raise ValueError("choice lists may not be empty")


@dataclass(frozen=True, eq=False)
class TrialResult:
    """One scored triple; `error` is set when the trial failed."""

    params: CobraParams
    objective_value: float
    fold_values: tuple[float, ...]
    trial_index: int
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True, eq=False)
class _PreparedFold:
    """Distances and outcomes needed to score (epsilon, alpha) on one fold."""

    distances: np.ndarray  # (machines, n_validation, n_calibration), sorted on machines
    d_l: SurvivalDataset
    pop_km: object
    val_times: np.ndarray
    val_events: np.ndarray


def _stack_seed(seed: int, l_fraction: float) -> int:
    return derive_seed(seed, 1, int(round(l_fraction * 1e9)))


def _cached(cache, key, compute, errors):
    """`compute()` once per key; an exception of type `errors` is cached
    and raised again on every later lookup."""
    if key not in cache:
        try:
            cache[key] = compute()
        except errors as exc:
            cache[key] = exc
    value = cache[key]
    if isinstance(value, Exception):
        raise value
    return value


def _prepare_fold(folds, fold_idx, roster, l_fraction, seed) -> _PreparedFold:
    fold_train, fold_val = folds[fold_idx]
    stack = _fit_stack(fold_train, roster, l_fraction, _stack_seed(seed, l_fraction))
    distances = stack.query_distances(fold_val.x)
    return _PreparedFold(distances, stack.split.d_l, stack.pop_km, fold_val.time, fold_val.event)


def _fold_objective(prepared: _PreparedFold, params: CobraParams, objective: str) -> float:
    survival = _survival_matrix(
        prepared.d_l, prepared.pop_km, prepared.distances, params.epsilon, params.consensus_count, prepared.val_times
    )
    if objective == "ibs":
        return integrated_brier(survival, prepared.val_times, prepared.val_events)
    return -concordance_td(survival, prepared.val_times, prepared.val_events)


def _scored_objective(prepared, params, objective, cache) -> float:
    """`_fold_objective`, scored once per distinct member mask of a fold;
    `cache` belongs to one fold at one l_fraction.

    For a fixed consensus count the mask reads one order statistic of the
    machine-sorted distances, so it is fixed by how many of its entries lie
    within epsilon.  An empty or a full mask is the same for every need.
    """
    need = params.consensus_count
    mask = _member_mask(prepared.distances, params.epsilon, need)
    rank = int(np.count_nonzero(mask))
    key = (need if 0 < rank < mask.size else None, rank)
    return _cached(cache, key, lambda: _fold_objective(prepared, params, objective), ValueError)


def _score_trials(trials, folds, seed, objective) -> list:
    """Each trial's fold values, or its first error in fold order, for trials
    that share one roster.  Each l_fraction is scored fold by fold, and a
    fold is held only by its cache: one prepared fold is alive at a time."""
    errors = (ValueError, ConvergenceError)
    outcomes: list = [[] for _ in trials]
    for l_fraction in sorted({p.l_fraction for p in trials}):
        for i in range(len(folds)):
            cache: dict = {}
            for j, params in enumerate(trials):
                if params.l_fraction != l_fraction or isinstance(outcomes[j], Exception):
                    continue
                prepare = partial(_prepare_fold, folds, i, params.roster, l_fraction, seed)
                try:
                    outcomes[j].append(
                        _scored_objective(_cached(cache, i, prepare, errors), params, objective, cache)
                    )
                except errors as exc:
                    outcomes[j] = exc.with_traceback(None)  # its frames hold the fold
    return outcomes


def _inner_folds(train: SurvivalDataset, inner_folds: int, seed: int):
    """The tuning folds of `train`; a failed split names itself."""
    return _named(f"tuning inner {inner_folds}-fold split", kfold_split, train, inner_folds, derive_seed(seed, 0))


def evaluate_params(
    params: CobraParams,
    train: SurvivalDataset,
    inner_folds: int,
    objective: str = "ibs",
    seed: int = 0,
) -> float:
    """Mean objective of one parameter triple under inner cross-validation.

    Folds come from `kfold_split` with seed `derive_seed(seed, 0)`, and
    each fold's ensemble is fit with seed
    `derive_seed(seed, 1, round(l_fraction * 1e9))`, so scores are exactly
    reproducible from (params, train, inner_folds, objective, seed).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    [outcome] = _score_trials([params], _inner_folds(train, inner_folds, seed), seed, objective)
    if isinstance(outcome, Exception):
        raise outcome
    return float(np.mean(outcome))


def draw_trials(space: SearchSpace, roster) -> list[CobraParams]:
    """The deterministic trial sequence for a search space and roster."""
    rng = np.random.default_rng(space.seed)
    lo, hi = space.epsilon_range
    out = []
    for _ in range(space.trials):
        epsilon = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        alpha = float(space.alpha_choices[rng.integers(len(space.alpha_choices))])
        l_fraction = float(space.l_fraction_choices[rng.integers(len(space.l_fraction_choices))])
        out.append(CobraParams(epsilon, alpha, l_fraction, roster))
    return out


def random_search(
    space: SearchSpace,
    train: SurvivalDataset,
    inner_folds: int = 3,
    roster: tuple[LearnerSpec, ...] | None = None,
):
    """Score `space.trials` random triples and return (best, trace).

    Ties in the objective keep the earlier trial.  Trials whose learners
    fail are recorded in the trace with an error message, led by the
    learner kind when a solver did not converge, and skipped; if every
    trial fails a `TuningError` names the distinct causes and carries the
    full trace.
    """
    if roster is None:
        roster = default_roster()
    roster = tuple(roster)
    draws = draw_trials(space, roster)
    folds = _inner_folds(train, inner_folds, space.seed)
    outcomes = _score_trials(draws, folds, space.seed, space.objective)
    trace = []
    for index, (params, outcome) in enumerate(zip(draws, outcomes)):
        if isinstance(outcome, Exception):
            learner = getattr(outcome, "learner", None)
            error = f"{learner}: {outcome}" if learner else str(outcome)
            trace.append(TrialResult(params, float("nan"), (), index, error=error))
        else:
            trace.append(TrialResult(params, float(np.mean(outcome)), tuple(outcome), index))
    best = min((r for r in trace if not r.failed), key=lambda r: r.objective_value, default=None)
    if best is None:
        causes = "; ".join(dict.fromkeys(r.error for r in trace))
        raise TuningError(f"every trial failed ({len(trace)} of {len(trace)}): {causes}", trace)
    return best, trace
