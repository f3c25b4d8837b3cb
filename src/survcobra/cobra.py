"""Proximity-consensus survival ensemble.

The training set is split into a machine-training part and a calibration
part.  Every roster machine is fit on the first part and its predicted
curve for every calibration record is cached.  To predict for a query x,
a calibration record j joins the proximity set when at least a consensus
count of machines place their curve for j within area-distance epsilon of
their curve for x; the prediction is the product-limit curve over the
proximity set's observed outcomes.  An empty proximity set (or one with
no events) falls back to the population Kaplan-Meier of the calibration
part, the limit the aggregation reaches as epsilon grows.

Distances are evaluated on one shared grid per fitted model ({0} union
the machine-training event times union the largest observed training
time).  Every predicted curve is constant between consecutive grid
points, so the left-Riemann sum there equals the area distance on the
per-pair jump-time union exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist

from .curves import StepCurve, _checked_grid, _event_counts, _steps_at, evaluate, kaplan_meier
from .data import DatasetSplit, SurvivalDataset, _check_matrix, _check_vector, cobra_split
from .learners import BaseSurvivalModel, LearnerSpec, fit

#: Upper bound, in bytes, on what one chunk of a query set holds at a time
#: (see `_step_chunks`).
_DISTANCE_BUDGET_BYTES = 32 * 2**20


@dataclass(frozen=True)
class CobraParams:
    """Ensemble hyperparameters.

    `alpha` is the required consensus fraction; the consensus count is
    ceil(alpha * len(roster)), so fractional products round up ("at least
    a fraction alpha" of the machines must agree).
    """

    epsilon: float
    alpha: float
    l_fraction: float
    roster: tuple[LearnerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "roster", tuple(self.roster))
        if not self.roster:
            raise ValueError("the roster needs at least one learner")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.l_fraction < 1.0:
            raise ValueError("l_fraction must lie strictly between 0 and 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def n_machines(self) -> int:
        return len(self.roster)

    @property
    def consensus_count(self) -> int:
        """ceil(alpha * n) machines, computed exactly on the decimal that
        alpha prints as (so 0.6 of 5 is 3, and 0.2000000001 of 5 is 2)."""
        need = math.ceil(Fraction(repr(float(self.alpha))) * self.n_machines)
        return min(max(need, 1), self.n_machines)


class _CobraStack:
    """Everything a fitted ensemble carries besides (epsilon, alpha): the
    split, the fitted machines, the calibration part's population KM, and
    each machine's calibration curves on the shared distance grid, held
    once already weighted by the grid widths."""

    def __init__(self, split: DatasetSplit, machines):
        self.split = split
        self.machines = tuple(machines)
        d_k, d_l = split.d_k, split.d_l
        event_times = d_k.time[d_k.event == 1]
        self.grid = np.unique(np.concatenate(([0.0], event_times, [float(d_k.time.max())])))
        self.widths = np.diff(self.grid)
        self.span = float(self.grid[-1] - self.grid[0])
        # one (n_l, grid - 1) matrix per machine
        self.cal_weighted = tuple(self._weighted(machine, d_l.x) for machine in self.machines)
        self.pop_km = kaplan_meier(d_l.time, d_l.event)

    def _weighted(self, machine, x_matrix) -> np.ndarray:
        return machine.predict_values(x_matrix, self.grid)[:, :-1] * self.widths

    def query_distances(self, x_matrix) -> np.ndarray:
        """(machines, queries, calibration) tensor of area distances, sorted
        on the machine axis: entry m is each pair's (m+1)-th smallest."""
        out = np.empty((len(self.machines), x_matrix.shape[0], self.split.d_l.n))
        for m, machine in enumerate(self.machines):
            qw = self._weighted(machine, x_matrix)
            cdist(qw, self.cal_weighted[m], metric="cityblock", out=out[m])
            out[m] /= self.span
        out.sort(axis=0)
        return out


def _fit_stack(train, roster, l_fraction, seed) -> _CobraStack:
    split = cobra_split(train, l_fraction, seed)
    return _CobraStack(split, [fit(spec, split.d_k) for spec in roster])


@dataclass(frozen=True, eq=False)
class CobraModel:
    """Fitted ensemble: hyperparameters plus the fitted stack."""

    params: CobraParams
    stack: _CobraStack

    @property
    def split(self) -> DatasetSplit:
        return self.stack.split

    @property
    def machines(self) -> tuple[BaseSurvivalModel, ...]:
        return self.stack.machines

    def predict_values(self, queries, times) -> np.ndarray:
        """`survival[i, k]`: the aggregated curve of query i at `times[k]`,
        the learners' call, from one chunked distance pass."""
        times = _checked_grid(times)
        return np.concatenate([np.empty((0, times.size)), *_step_chunks(self, queries, _survival_matrix, times)])


def fit_cobra(train: SurvivalDataset, params: CobraParams, seed: int) -> CobraModel:
    """Split `train`, fit every roster machine on the machine-training part,
    and cache each machine's curve for every calibration record."""
    return CobraModel(params, _fit_stack(train, params.roster, params.l_fraction, seed))


def _step_chunks(model: CobraModel, queries, step, *extra):
    """`step(d_l, pop_km, distances, epsilon, need, *extra)` over the distance
    tensors of consecutive chunks of the checked query matrix, lazily: a bad
    query fails at the call, and the steps are `_aggregate`,
    `_survival_matrix` and `_labels`.

    A chunk holds as many queries (at least one) as keep within
    `_DISTANCE_BUDGET_BYTES` their rows of the (machines, chunk, n_l)
    float64 tensor and of the running machine's (chunk, grid) curve
    matrices, of which ridge Cox holds three (the product, its `exp` and
    `_weighted`'s copy).  No name holds a tensor past its step, so one is
    alive at a time.  Every row of a learner's `predict_values` and of a
    cityblock `cdist` is computed on its own, so chunking leaves every
    distance unchanged.
    """
    stack = model.stack
    q = _check_matrix(queries, stack.split.d_k.n_features)
    per_query = (len(stack.machines) * stack.split.d_l.n + 3 * stack.grid.size) * 8
    size = max(1, _DISTANCE_BUDGET_BYTES // per_query)
    d_l, pop_km = stack.split.d_l, stack.pop_km
    epsilon, need = model.params.epsilon, model.params.consensus_count
    return (
        step(d_l, pop_km, stack.query_distances(q[start : start + size]), epsilon, need, *extra)
        for start in range(0, q.shape[0], size)
    )


def _member_mask(distances, epsilon, need) -> np.ndarray:
    """Machine-sorted distances (machines, ..., n_l) -> bool member mask of
    shape (..., n_l).  At least `need` machines lie within epsilon exactly
    when the `need`-th smallest distance does."""
    return distances[need - 1] <= epsilon


def _labels(d_l: SurvivalDataset, pop_km: StepCurve, distances, epsilon, need) -> np.ndarray:
    """The (queries, n_l) bool proximity labels of a distance tensor, one
    byte a label."""
    return _member_mask(distances, epsilon, need)


def gamma_labels(model: CobraModel, x) -> np.ndarray:
    """The 0/1 proximity indicator of every calibration record for query x."""
    x = _check_vector(x, model.split.d_k.n_features)
    return next(_step_chunks(model, x[None, :], _labels))[0].astype(np.int64)


def _predict_one(d_l: SurvivalDataset, pop_km: StepCurve, distances_mq, epsilon, need):
    """The steps `(jump times, survival values)` of the product-limit curve
    of one query's proximity set, or `pop_km` itself when the set is
    event-free (an empty set included).  `d_l`'s arrays were checked when
    the dataset was built, so the steps skip those checks."""
    members = _member_mask(distances_mq, epsilon, need)
    events = d_l.event[members]
    if not events.any():
        return pop_km
    u, d, r = _event_counts(d_l.time[members], events)
    return u, np.cumprod(1.0 - d / r)


def _aggregate(d_l: SurvivalDataset, pop_km: StepCurve, distances, epsilon, need) -> list[StepCurve]:
    """The curve of `_predict_one` for every query of a (machines, queries,
    n_l) distance tensor: `pop_km` passes through, steps become a curve."""
    steps = (_predict_one(d_l, pop_km, distances[:, i, :], epsilon, need) for i in range(distances.shape[1]))
    return [s if s is pop_km else StepCurve(*s) for s in steps]


def _survival_matrix(d_l: SurvivalDataset, pop_km: StepCurve, distances, epsilon, need, times) -> np.ndarray:
    """`survival[i, k]`: query i's `_predict_one` steps at the checked
    `times[k]`, written in place into a matrix that starts as one shared
    evaluation of the population KM in every row."""
    out = np.tile(evaluate(pop_km, times), (distances.shape[1], 1))
    for i in range(distances.shape[1]):
        steps = _predict_one(d_l, pop_km, distances[:, i, :], epsilon, need)
        if steps is not pop_km:
            out[i] = _steps_at(*steps, times, 1.0)
    return out


def predict_cobra(model: CobraModel, x) -> StepCurve:
    """Aggregated survival curve at query x (population KM fallback when
    the proximity set is empty or event-free)."""
    x = _check_vector(x, model.split.d_k.n_features)
    return predict_cobra_batch(model, x[None, :])[0]


def predict_cobra_batch(model: CobraModel, queries) -> list[StepCurve]:
    """Element-wise `predict_cobra`, from one chunked distance pass;
    identical results to sequential calls."""
    return [curve for curves in _step_chunks(model, queries, _aggregate) for curve in curves]
