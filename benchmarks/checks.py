"""Output checks for the bench, tune and simulate workloads.

Every check compares a report file with a computation made here from the
documented definitions in plain numpy, or with a property the method must
have; none compares with a stored copy of earlier output.  The inputs of
the recomputations (the synthetic population, the folds, the fitted
machines) come from survcobra under its documented seed scheme; everything
computed from them is recomputed here.

Each `check_<workload>(out_dir, config, seed)` returns a list of
(name, passed, detail) triples; `passed` is None for a finding that is
reported but does not decide correctness.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# Documented search space (survcobra.tuning) and relevance ridge.
ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)
L_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
EPSILON_RANGE = (1e-300, 0.9)
RELEVANCE_L2 = 1e-4
REFIT_QUERIES = 3
REL_TOL = 1e-9


class _Verdicts(list):
    def add(self, name, passed, detail=""):
        self.append((name, bool(passed), str(detail)))

    def note(self, name, detail):
        """A reported finding that does not decide correctness."""
        self.append((name, None, str(detail)))


def _close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------
# Reference numerics, written from the definitions.


def product_limit_at(times, events, at) -> np.ndarray:
    """Product-limit survival at each time of `at`, right-continuous:
    the product over event times u <= t of 1 - d(u) / r(u), where d counts
    events at u and r counts records with time >= u."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    u = np.unique(times[events == 1])
    d = ((times[None, :] == u[:, None]) & (events[None, :] == 1)).sum(axis=1)
    r = (times[None, :] >= u[:, None]).sum(axis=1)
    steps = np.concatenate(([1.0], np.cumprod(1.0 - d / r)))
    return steps[np.searchsorted(u, np.asarray(at, dtype=float), side="right")]


def concordance(surv_at_times, times, events) -> float:
    """Time-dependent concordance; surv_at_times[j, i] = S_j(t_i).

    Pairs (i, j) with an event for i and t_i < t_j; i is ranked right when
    S_i(t_i) < S_j(t_i), and a tie counts one half."""
    own = np.diag(surv_at_times)[:, None]
    other = surv_at_times.T  # [i, j] = S_j(t_i)
    comparable = (events[:, None] == 1) & (times[None, :] > times[:, None])
    right = ((own < other) & comparable).sum()
    ties = ((own == other) & comparable).sum()
    return float((right + 0.5 * ties) / comparable.sum())


def integrated_brier(surv_at_grid, times, events, grid) -> float:
    """IPCW Brier score averaged over `grid` by the trapezoid rule.

    G is the product-limit curve of the censoring times.  At time t an
    event record with t_i <= t scores S(t)^2 / G(t_i) and a record with
    t_i > t scores (1 - S(t))^2 / G(t); records censored by t score 0.
    Records whose weight G is 0 are left out of both the sum and the count.
    """
    g_times = product_limit_at(times, 1 - events, times)[:, None]
    g_grid = product_limit_at(times, 1 - events, grid)[None, :]
    had_event = (times[:, None] <= grid[None, :]) & (events[:, None] == 1)
    at_risk = times[:, None] > grid[None, :]
    keep = ~((had_event & (g_times == 0.0)) | (at_risk & (g_grid == 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(had_event & keep, surv_at_grid**2 / g_times, 0.0)
        score += np.where(at_risk & keep, (1.0 - surv_at_grid) ** 2 / g_grid, 0.0)
    brier = score.sum(axis=0) / keep.sum(axis=0)
    area = (0.5 * (brier[:-1] + brier[1:]) * np.diff(grid)).sum()
    return float(area / (grid[-1] - grid[0]))


def _standardize(train_x):
    mean = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    sd[sd == 0.0] = 1.0
    return mean, sd


def knn_curves_at(train, test_x, at) -> np.ndarray:
    """k-NN survival: product-limit over the k = ceil(sqrt(n)) training
    records nearest in standardized Euclidean distance (ties to the lower
    index), evaluated at `at` for each test row."""
    n = train.n
    k = math.isqrt(n)
    k += k * k < n
    mean, sd = _standardize(train.x)
    z = (train.x - mean) / sd
    out = np.empty((test_x.shape[0], len(at)))
    for q, row in enumerate((test_x - mean) / sd):
        dist = np.sqrt(((z - row) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:k]
        out[q] = product_limit_at(train.time[nearest], train.event[nearest], at)
    return out


def consensus_count(alpha, machines: int) -> int:
    """At least a fraction alpha of the machines: ceil(alpha * M), exactly."""
    return min(max(math.ceil(Fraction(repr(alpha)) * machines), 1), machines)


def proximity_members(model, queries_x, epsilon, alpha) -> np.ndarray:
    """(queries, calibration) membership: at least ceil(alpha * M) machines
    put the record's curve within area distance epsilon of the query's.

    The area distance is the time-averaged absolute gap between two curves
    on {0} + machine-training event times + the largest training time."""
    d_k, d_l = model.split.d_k, model.split.d_l
    grid = np.unique(np.concatenate(([0.0], d_k.time[d_k.event == 1], [d_k.time.max()])))
    widths = np.diff(grid)
    span = grid[-1] - grid[0]
    votes = np.zeros((queries_x.shape[0], d_l.n), dtype=np.int64)
    for machine in model.machines:
        cal = machine.predict_values(d_l.x, grid)[:, :-1]
        qry = machine.predict_values(queries_x, grid)[:, :-1]
        for start in range(0, qry.shape[0], 16):
            gap = np.abs(qry[start : start + 16, None, :] - cal[None, :, :])
            votes[start : start + 16] += (gap @ widths) / span <= epsilon
    return votes >= consensus_count(alpha, len(model.machines))


def cobra_curves_at(model, queries_x, at, epsilon, alpha) -> np.ndarray:
    """Product-limit over each query's proximity set, evaluated at `at`;
    the population product-limit of the calibration part when the set is
    empty or holds no event."""
    d_l = model.split.d_l
    population = product_limit_at(d_l.time, d_l.event, at)
    members = proximity_members(model, queries_x, epsilon, alpha)
    out = np.empty((queries_x.shape[0], len(at)))
    for q, mask in enumerate(members):
        if d_l.event[mask].sum() == 0:
            out[q] = population
        else:
            out[q] = product_limit_at(d_l.time[mask], d_l.event[mask], at)
    return out


def ridge_logistic(features, labels, l2, tol=1e-10, max_iter=200) -> np.ndarray:
    """Maximise sum(y*eta - log(1 + e^eta)) - l2/2 * |slopes|^2 by damped
    Newton steps until the largest gradient entry is below `tol`."""
    x = np.column_stack([np.ones(features.shape[0]), features])
    pen = np.full(x.shape[1], float(l2))
    pen[0] = 0.0

    def objective(b):
        eta = x @ b
        return float((labels * eta - np.logaddexp(0.0, eta)).sum() - 0.5 * (pen * b * b).sum())

    beta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        p = 0.5 * (1.0 + np.tanh(0.5 * (x @ beta)))
        grad = x.T @ (labels - p) - pen * beta
        if np.abs(grad).max() < tol:
            break
        hess = (x.T * (p * (1.0 - p))) @ x + np.diag(pen)
        step = np.linalg.solve(hess, grad)
        base, t = objective(beta), 1.0
        while objective(beta + t * step) < base and t > 1e-12:
            t *= 0.5
        beta = beta + t * step
    return beta


# --------------------------------------------------------------------------
# Inputs under the documented seed scheme (0: data, 1: outer folds,
# 2: ensemble fits, 3: tuning, 4: query draws).


def _population(config, seed):
    from survcobra.data import SyntheticConfig, generate_synthetic
    from survcobra.seeds import derive_seed

    ds = config["dataset"]
    return generate_synthetic(
        SyntheticConfig(
            n=ds["n"], censor_fraction=ds["censor_fraction"], dim=ds["dim"], seed=derive_seed(seed, 0)
        )
    )


def _roster(config):
    from survcobra.learners import LearnerSpec, default_roster

    if "roster" not in config:
        return default_roster()
    return tuple(
        LearnerSpec(e["kind"], {k: v for k, v in e.items() if k != "kind"}) for e in config["roster"]
    )


# --------------------------------------------------------------------------
# bench


def check_bench(out: Path, config: dict, seed: int):
    from survcobra.data import kfold_split
    from survcobra.seeds import derive_seed

    v = _Verdicts()
    folds = config["folds"]
    models = [spec.kind for spec in _roster(config)] + ["proposed"]
    rows = _read_csv(out / "metrics.csv")
    v.add("bench.rows", len(rows) == len(models) * folds, f"{len(rows)} rows")
    cells = {(r["model"], int(r["fold"])): r for r in rows}
    v.add(
        "bench.models_x_folds",
        set(cells) == {(m, k) for m in models for k in range(folds)},
        "each (model, fold) once",
    )
    values = [float(r[c]) for r in rows for c in ("concordance", "ibs", "dcal_pvalue")]
    v.add("bench.unit_interval", all(0.0 <= x <= 1.0 for x in values), "concordance, ibs, p")
    v.add(
        "bench.dcal_pass_is_p_above_level",
        all((float(r["dcal_pvalue"]) > 0.05) == (r["dcal_pass"] == "1") for r in rows),
    )
    for metric in ("concordance", "ibs"):
        table = {r["model"]: r for r in _read_csv(out / f"{metric}.csv")}
        ok = set(table) == set(models)
        for m in models if ok else ():
            per_fold = [float(cells[(m, k)][metric]) for k in range(folds)]
            ok &= [float(table[m][f"fold_{k}"]) for k in range(folds)] == per_fold
            ok &= _close(float(table[m]["mean"]), sum(per_fold) / folds, 1e-12)
        v.add(f"bench.{metric}_csv_matches_metrics", ok)
    dcal = {r["model"]: r for r in _read_csv(out / "dcalibration.csv")}
    v.add(
        "bench.dcalibration_counts",
        set(dcal) == set(models)
        and all(
            int(dcal[m]["passes"]) == sum(cells[(m, k)]["dcal_pass"] == "1" for k in range(folds))
            and int(dcal[m]["folds"]) == folds
            for m in models
        ),
    )

    # knn_survival on fold 0, recomputed from the definitions
    train, test = kfold_split(_population(config, seed), folds, derive_seed(seed, 1))[0]
    grid = np.unique(test.time[test.event == 1])
    curves = knn_curves_at(train, test.x, np.concatenate((test.time, grid)))
    c_ref = concordance(curves[:, : test.n], test.time, test.event)
    ibs_ref = integrated_brier(curves[:, test.n :], test.time, test.event, grid)
    row = cells[("knn_survival", 0)]
    c_got, ibs_got = float(row["concordance"]), float(row["ibs"])
    v.add("bench.knn_fold0_concordance", _close(c_got, c_ref), f"{c_got!r} vs {c_ref!r}")
    v.add("bench.knn_fold0_ibs", _close(ibs_got, ibs_ref), f"{ibs_got!r} vs {ibs_ref!r}")
    return v


# --------------------------------------------------------------------------
# tune


def check_tune(out: Path, config: dict, seed: int):
    from survcobra.cobra import CobraParams, fit_cobra
    from survcobra.data import kfold_split
    from survcobra.seeds import derive_seed

    v = _Verdicts()
    trials = config["search"]["trials"]
    rows = _read_csv(out / "trials.csv")
    v.add("tune.one_row_per_trial", [int(r["trial"]) for r in rows] == list(range(trials)))
    lo, hi = EPSILON_RANGE
    v.add("tune.epsilon_in_range", all(lo <= float(r["epsilon"]) <= hi for r in rows))
    v.add("tune.alpha_in_choices", all(float(r["alpha"]) in ALPHAS for r in rows))
    v.add("tune.l_fraction_in_choices", all(float(r["l_fraction"]) in L_FRACTIONS for r in rows))
    scored = [r for r in rows if not r["error"]]
    v.add("tune.objective_unit_interval", all(0.0 <= float(r["objective"]) <= 1.0 for r in scored))
    if not scored:
        v.add("tune.some_trial_scored", False)
        return v
    best_row = min(scored, key=lambda r: (float(r["objective"]), int(r["trial"])))
    best = json.loads((out / "best_params.json").read_text(encoding="utf-8"))
    v.add(
        "tune.best_is_earliest_minimum",
        best["trial"] == int(best_row["trial"])
        and best["trials"] == trials
        and all(best[k] == float(best_row[k]) for k in ("epsilon", "alpha", "l_fraction"))
        and best["objective_value"] == float(best_row["objective"]),
        f"trial {best['trial']} vs {best_row['trial']}",
    )

    # the winning objective, recomputed on freshly fitted inner-fold stacks
    eps, alpha, l_frac = best["epsilon"], best["alpha"], best["l_fraction"]
    params = CobraParams(eps, alpha, l_frac, _roster(config))
    search_seed = derive_seed(seed, 3)
    fold_values = []
    for train, val in kfold_split(
        _population(config, seed), config["inner_folds"], derive_seed(search_seed, 0)
    ):
        model = fit_cobra(train, params, derive_seed(search_seed, 1, round(l_frac * 1e9)))
        grid = np.unique(val.time[val.event == 1])
        curves = cobra_curves_at(model, val.x, grid, eps, alpha)
        fold_values.append(integrated_brier(curves, val.time, val.event, grid))
    ref = sum(fold_values) / len(fold_values)
    got = best["objective_value"]
    v.add("tune.best_objective_recomputed", _close(got, ref), f"{got!r} vs {ref!r}")
    return v


# --------------------------------------------------------------------------
# simulate


def check_simulate(out: Path, config: dict, seed: int):
    from survcobra.cobra import CobraParams, fit_cobra
    from survcobra.data import SyntheticConfig, generate_synthetic
    from survcobra.seeds import derive_seed

    v = _Verdicts()
    dim, n_queries = config["dataset"]["dim"], config["queries"]
    names = [f"x{j}" for j in range(dim)]
    relevance = _read_csv(out / "relevance.csv")
    v.add("simulate.covariates", [r["covariate"] for r in relevance] == names)
    ranks = [int(r["rank"]) for r in relevance]
    v.add("simulate.ranks_permutation", sorted(ranks) == list(range(1, dim + 1)))
    scores = [float(r["aggregate_score"]) for r in relevance]
    by_rank = [scores[ranks.index(k)] for k in sorted(ranks)]
    v.add("simulate.ranks_follow_scores", by_rank == sorted(scores, reverse=True))
    # x0 and x3 move the Weibull scale by similar amounts; x0 came first on
    # every seed tried at n=2000 with 100 queries but on about 60 % of seeds
    # at n=1000 with 40 queries, so at this size its rank is reported only.
    v.note("simulate.x0_rank", f"x0 rank {ranks[0]} of {dim}")

    per_query = _read_csv(out / "relevance_per_query.csv")
    v.add("simulate.one_row_per_query", [int(r["query"]) for r in per_query] == list(range(n_queries)))
    informative = [r for r in per_query if r["degenerate"] == "0"]
    mean_abs = [
        sum(abs(float(r[name])) for r in informative) / max(len(informative), 1) for name in names
    ]
    v.add(
        "simulate.aggregate_is_mean_abs_slope",
        bool(informative) and all(_close(a, b, 1e-12) for a, b in zip(scores, mean_abs)),
    )

    curves = {}
    for r in _read_csv(out / "curves.csv"):
        curves.setdefault(int(r["query"]), []).append((float(r["time"]), float(r["value"])))
    ok = sorted(curves) == list(range(min(5, n_queries)))
    for points in curves.values():
        t = np.array([p[0] for p in points])
        s = np.array([p[1] for p in points])
        ok &= points[0] == (0.0, 1.0)
        ok &= bool(np.all(np.diff(t) > 0.0) and np.all(np.diff(s) <= 0.0))
        ok &= bool(np.all((s >= 0.0) & (s <= 1.0)))
    v.add("simulate.curves_are_survival_curves", ok)

    # ridge-logistic slopes of the first informative queries, refitted
    p = config["params"]
    eps, alpha = p["epsilon"], p["alpha"]
    model = fit_cobra(
        _population(config, seed),
        CobraParams(eps, alpha, p["l_fraction"], _roster(config)),
        derive_seed(seed, 2),
    )
    queries = generate_synthetic(
        SyntheticConfig(n=n_queries, censor_fraction=0.0, dim=dim, seed=derive_seed(seed, 4))
    ).x
    picked = [int(r["query"]) for r in informative[:REFIT_QUERIES]]
    labels = proximity_members(model, queries[picked], eps, alpha).astype(float)
    mean, sd = _standardize(model.split.d_l.x)
    features = (model.split.d_l.x - mean) / sd
    worst = 0.0
    ok = bool(picked)
    for q, y in zip(picked, labels):
        ok &= 0.0 < y.mean() < 1.0
        ref = ridge_logistic(features, y, RELEVANCE_L2)
        got = np.array([float(per_query[q][c]) for c in ["intercept"] + names])
        err = float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
        worst = max(worst, err)
    v.add("simulate.logistic_refit", ok and worst <= 1e-6, f"{len(picked)} queries, max rel err {worst:.2e}")
    return v


CHECKS = {"bench": check_bench, "tune": check_tune, "simulate": check_simulate}
