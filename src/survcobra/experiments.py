"""Experiment runners behind the CLI: benchmark, tune, simulate, relevance.

Every runner derives all randomness from the config's master seed through
`derive_seed` with fixed purpose indices (0: dataset generation,
1: outer folds, 2: ensemble fits, 3: tuning, 4: query draws), collects its
results fully in memory, and only then writes the report files one by one:
a run that fails while computing leaves no outputs (one that fails while
writing can leave a partial set), and a repeated run reproduces every file
byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cobra import CobraParams, fit_cobra, predict_cobra_batch
from .data import (
    SurvivalDataset,
    SyntheticConfig,
    _named,
    _parse_table,
    generate_synthetic,
    kfold_split,
    load_csv,
    load_raw_csv,
)
from .exceptions import ConfigError, ConvergenceError
from .learners import LearnerSpec, _json, default_roster, fit
from .metrics import MetricReport, concordance_td, d_calibration, integrated_brier
from .relevance import relevance_study
from .seeds import derive_seed
from .tuning import SearchSpace, random_search

PROPOSED = "proposed"


_CONFIG_KEYS = (
    "dataset", "roster", "params", "search", "folds", "inner_folds", "seed",
    "queries", "dcal_bins", "dcal_level", "out_dir",
)
_PARAMS_KEYS = ("epsilon", "alpha", "l_fraction")


@dataclass(frozen=True)
class CsvDataset:
    """A CSV dataset section.  With `numeric` or `categorical` declared the
    file goes through `preprocess`; with neither it is read by `load_csv`.
    Either way a bad cell is named by path, column and row."""

    path: str
    time_col: str
    event_col: str
    numeric: tuple[str, ...] | None = None
    categorical: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    dataset: SyntheticConfig | CsvDataset
    roster: tuple[LearnerSpec, ...]
    params: CobraParams | None
    search: SearchSpace | None
    folds: int
    inner_folds: int
    seed: int
    queries: int
    dcal_bins: int
    dcal_level: float
    out_dir: str

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        _check_keys("config", raw, _CONFIG_KEYS, required=("dataset",))
        counts = {}
        for key, default, least in (
            ("seed", 0, 0),
            ("queries", 100, 1),
            ("folds", 5, 2),
            ("inner_folds", 3, 2),
            ("dcal_bins", 10, 2),
        ):
            counts[key] = _json(key, raw.get(key, default), int)
            if counts[key] < least:
                raise ConfigError(f"{key} must be at least {least}, got {counts[key]}")
        dataset = _parse_dataset(raw["dataset"], counts["seed"])

        roster_cfg = raw.get("roster")
        if roster_cfg is None:
            roster = default_roster()
        else:
            try:
                roster = tuple(
                    LearnerSpec(entry["kind"], {k: v for k, v in entry.items() if k != "kind"})
                    for entry in roster_cfg
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid roster entry: {exc}") from exc
            if not roster:
                raise ConfigError("roster needs at least one learner")

        fixed, space = raw.get("params"), raw.get("search")
        if (fixed is None) == (space is None):
            raise ConfigError("supply exactly one of 'params' and 'search'")
        params = search = None
        if fixed is not None:
            _check_keys("params", fixed, _PARAMS_KEYS, required=_PARAMS_KEYS)
            numbers = {key: _json(f"params.{key}", value, float) for key, value in fixed.items()}
            params = _parsed("params", CobraParams, roster=roster, **numbers)
        else:
            _check_keys("search", space, ("trials", "objective"), required=("trials",))
            _json("search.trials", space["trials"], int)
            if "objective" in space:
                _json("search.objective", space["objective"], str)
            search = _parsed("search", SearchSpace, **space)
        dcal_level = _json("dcal_level", raw.get("dcal_level", 0.05), float)
        if not 0.0 < dcal_level < 1.0:
            raise ConfigError(f"dcal_level must lie strictly between 0 and 1, got {dcal_level}")

        return ExperimentConfig(
            dataset=dataset,
            roster=roster,
            params=params,
            search=search,
            dcal_level=dcal_level,
            **counts,
            out_dir=_json("out_dir", raw.get("out_dir", "survcobra-out"), str),
        )


def _check_keys(section: str, raw, allowed, required=()):
    """Reject `raw` unless it is a JSON object whose keys are all in
    `allowed` and include every key of `required`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{section} needs keys {', '.join(required)} (missing {missing})")


def _parsed(section: str, build, **fields):
    """`build(**fields)`, its `ValueError` re-raised as a `ConfigError` that
    names the key: the messages of the built types start with the field."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


_DATASET_KEYS = {  # kind: ({key: its JSON type}, required keys)
    "synthetic": (dict(n=int, censor_fraction=float, dim=int, seed=int), ()),
    "csv": (
        dict(path=str, time_col=str, event_col=str, numeric=list, categorical=list),
        ("path", "time_col", "event_col"),
    ),
}


def _parse_dataset(dataset, master_seed: int) -> SyntheticConfig | CsvDataset:
    """The typed dataset section.  A synthetic dataset without its own seed
    (or with seed null) is drawn with `derive_seed(master_seed, 0)`."""
    kind = dataset.get("kind") if isinstance(dataset, dict) else None
    if kind not in tuple(_DATASET_KEYS):  # `kind` may be an unhashable list or object
        raise ConfigError(f"dataset must be a JSON object of kind 'synthetic' or 'csv', got {dataset!r}")
    types, required = _DATASET_KEYS[kind]
    _check_keys("dataset", dataset, ("kind", *types), required)
    fields = {key: value for key, value in dataset.items() if key != "kind"}
    if kind == "synthetic":
        fields = {"n": 2000, "censor_fraction": 0.4, **fields}
        if fields.get("seed") is None:
            fields["seed"] = derive_seed(master_seed, 0)
    typed = {key: _json(f"dataset.{key}", value, types[key]) for key, value in fields.items()}
    return _parsed("dataset", SyntheticConfig if kind == "synthetic" else CsvDataset, **typed)


def load_config(path, seed=None) -> tuple[ExperimentConfig, dict]:
    """The validated config and the parsed JSON it came from; `seed`, when
    given, replaces the master seed in both."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return ExperimentConfig.from_dict(raw), raw


def load_dataset(cfg: ExperimentConfig) -> SurvivalDataset:
    spec = cfg.dataset
    if isinstance(spec, SyntheticConfig):
        return generate_synthetic(spec)
    if spec.numeric is None and spec.categorical is None:
        return load_csv(spec.path, spec.time_col, spec.event_col)
    columns = _named(spec.path, _parse_table, load_raw_csv(spec.path), numeric=spec.numeric or (),
                     categorical=spec.categorical or (), time_col=spec.time_col, event_col=spec.event_col)
    return SurvivalDataset(*columns)  # `preprocess`, its cell errors prefixed with the path


def _resolve_params(cfg: ExperimentConfig, train: SurvivalDataset, tune_seed: int):
    """Fixed params from the config, or the best triple of a fresh search."""
    if cfg.params is not None:
        return cfg.params, None
    best, trace = _search(cfg, train, tune_seed)
    return best.params, (best, trace)


def _search(cfg: ExperimentConfig, train: SurvivalDataset, seed: int):
    """`random_search` over the config's search section: (best, trace)."""
    return random_search(replace(cfg.search, seed=seed), train, inner_folds=cfg.inner_folds, roster=cfg.roster)


def _fold_metrics(train, test, cfg: ExperimentConfig, fold_id: int):
    """Metric reports for the standalone learners and the ensemble; an
    ensemble fit error and a metric error name the fold and the model."""
    where = f"outer fold {fold_id + 1} of {cfg.folds}"

    def report(name, model):
        return _named(f"{where}, {name}", _report, model.predict_values(test.x, test.time), test, cfg, fold_id)

    try:
        rows = {spec.kind: report(spec.kind, fit(spec, train)) for spec in cfg.roster}
        params, _ = _resolve_params(cfg, train, derive_seed(cfg.seed, 3, fold_id))
        seed = derive_seed(cfg.seed, 2, fold_id)
        rows[PROPOSED] = report(PROPOSED, _named(f"{where}, {PROPOSED}", fit_cobra, train, params, seed))
    except ConvergenceError as exc:
        raise ConvergenceError(f"{where}: {exc}", exc.trace, exc.learner) from exc
    return rows


def _report(survival, test, cfg, fold_id) -> MetricReport:
    """`survival[i, k]`: record i's predicted survival at `test.time[k]`."""
    passed, pvalue = d_calibration(
        survival, test.time, test.event, bins=cfg.dcal_bins, level=cfg.dcal_level
    )
    return MetricReport(
        concordance=concordance_td(survival, test.time, test.event),
        ibs=integrated_brier(survival, test.time, test.event),
        dcal_pass=passed,
        dcal_pvalue=pvalue,
        fold_id=fold_id,
    )


def run_bench(cfg: ExperimentConfig, jobs: int = 1) -> dict:
    """Outer cross-validation over all models; returns {model: [MetricReport]}.

    With `jobs > 1` the folds run in a process pool of at most one worker
    per fold that receives each fold's datasets, so every fold sees the
    data loaded once here.  The reports key their rows by learner kind, so
    a roster that repeats a kind is refused before the data is loaded.
    """
    kinds = [spec.kind for spec in cfg.roster]
    repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise ConfigError(f"bench reports one row per learner kind; the roster repeats {', '.join(repeated)}")
    data = load_dataset(cfg)
    split = f"outer {cfg.folds}-fold split"
    trains, tests = zip(*_named(split, kfold_split, data, cfg.folds, derive_seed(cfg.seed, 1)))
    fold_args = (trains, tests, [cfg] * cfg.folds, range(cfg.folds))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only when asked

        with ProcessPoolExecutor(max_workers=min(jobs, cfg.folds)) as pool:
            fold_rows = list(pool.map(_fold_metrics, *fold_args))
    else:
        fold_rows = list(map(_fold_metrics, *fold_args))
    return {name: [rows[name] for rows in fold_rows] for name in fold_rows[0]}


def _dataset_label(cfg: ExperimentConfig) -> str:
    return "synthetic" if isinstance(cfg.dataset, SyntheticConfig) else Path(cfg.dataset.path).stem


def write_bench_reports(cfg: ExperimentConfig, results: dict, out: Path):
    label = _dataset_label(cfg)
    metrics = [
        [label, name, r.fold_id, repr(r.concordance), repr(r.ibs), int(r.dcal_pass), repr(r.dcal_pvalue)]
        for name, reports in results.items()
        for r in reports
    ]
    header = ["dataset", "model", "fold", "concordance", "ibs", "dcal_pass", "dcal_pvalue"]
    _write_csv(out / "metrics.csv", header, metrics)
    for metric in ("concordance", "ibs"):
        rows = []
        for name, reports in results.items():
            values = [getattr(r, metric) for r in reports]
            rows.append([name] + [repr(v) for v in values] + [repr(float(np.mean(values)))])
        _write_csv(out / f"{metric}.csv", ["model"] + [f"fold_{k}" for k in range(cfg.folds)] + ["mean"], rows)
    passes = [[name, sum(int(r.dcal_pass) for r in reports), len(reports)] for name, reports in results.items()]
    _write_csv(out / "dcalibration.csv", ["model", "passes", "folds"], passes)


def _relevance_run(cfg: ExperimentConfig, train: SurvivalDataset, queries):
    """Fit the ensemble on `train`, score covariate relevance over
    `queries`, and predict the curves of the first five queries."""
    params, tuning = _resolve_params(cfg, train, derive_seed(cfg.seed, 3))
    model = fit_cobra(train, params, derive_seed(cfg.seed, 2))
    study = relevance_study(model, queries)
    curves = predict_cobra_batch(model, queries[:5])
    return model, params, study, curves, tuning


def run_simulate(cfg: ExperimentConfig):
    """Synthetic-population study: fit the ensemble, score covariate relevance."""
    data = load_dataset(cfg)
    query_cfg = SyntheticConfig(
        n=cfg.queries, censor_fraction=0.0, dim=data.n_features, seed=derive_seed(cfg.seed, 4)
    )
    return _relevance_run(cfg, data, generate_synthetic(query_cfg).x)


def run_relevance(cfg: ExperimentConfig):
    """Relevance study on a user dataset; queries are held-out records."""
    data = load_dataset(cfg)
    if cfg.queries >= data.n:
        raise ConfigError(f"queries ({cfg.queries}) must be below the record count ({data.n})")
    rng = np.random.default_rng(derive_seed(cfg.seed, 4))
    perm = rng.permutation(data.n)
    held = np.sort(perm[: cfg.queries])
    rest = np.sort(perm[cfg.queries :])
    train = _named(f"training part ({cfg.queries} records held out as queries)", data.subset, rest)
    return _relevance_run(cfg, train, data.x[held])


def write_relevance_reports(cfg: ExperimentConfig, feature_names, study, curves, out: Path):
    ranks = np.empty(len(feature_names), dtype=int)
    ranks[study.ranking()] = np.arange(1, len(feature_names) + 1)
    ranking = [[name, repr(float(study.aggregate[j])), int(ranks[j])] for j, name in enumerate(feature_names)]
    _write_csv(out / "relevance.csv", ["covariate", "aggregate_score", "rank"], ranking)
    per_query = [
        [q, int(study.degenerate[q])] + [repr(float(v)) for v in study.per_query[q]]
        for q in range(study.per_query.shape[0])
    ]
    _write_csv(out / "relevance_per_query.csv", ["query", "degenerate", "intercept", *feature_names], per_query)
    points = [
        [q, repr(float(t)), repr(float(v))]
        for q, curve in enumerate(curves)
        for t, v in [(0.0, 1.0), *zip(curve.times.tolist(), curve.values.tolist())]
    ]
    _write_csv(out / "curves.csv", ["query", "time", "value"], points)


def run_tune(cfg: ExperimentConfig):
    if cfg.search is None:
        raise ConfigError("the tune command needs a 'search' section")
    return _search(cfg, load_dataset(cfg), derive_seed(cfg.seed, 3))


def write_tune_reports(cfg: ExperimentConfig, best, trace, out: Path):
    trials = [
        [
            t.trial_index,
            repr(t.params.epsilon),
            repr(t.params.alpha),
            repr(t.params.l_fraction),
            "nan" if t.failed else repr(t.objective_value),
            t.error or "",
        ]
        for t in trace
    ]
    _write_csv(out / "trials.csv", ["trial", "epsilon", "alpha", "l_fraction", "objective", "error"], trials)
    payload = {
        "epsilon": best.params.epsilon,
        "alpha": best.params.alpha,
        "l_fraction": best.params.l_fraction,
        "objective": cfg.search.objective,
        "objective_value": best.objective_value,
        "trial": best.trial_index,
        "trials": len(trace),
    }
    _write_json(out / "best_params.json", payload)


def write_run_metadata(cfg: ExperimentConfig, command: str, raw_config: dict, out: Path, extra=None):
    payload = {
        "command": command,
        "master_seed": cfg.seed,
        "config": raw_config,
    }
    if extra:
        payload.update(extra)
    _write_json(out / "run.json", payload)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
