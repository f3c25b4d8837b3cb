import contextlib
import csv
import io
import json
import math
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survcobra import cobra, experiments, learners
from survcobra.cli import main
from survcobra.data import SyntheticConfig, generate_synthetic
from survcobra.exceptions import ConvergenceError
from survcobra.seeds import derive_seed

REPO = Path(__file__).resolve().parents[1]

FAST_ROSTER = [
    {"kind": "survival_tree", "max_depth": 3, "min_leaf": 5},
    {"kind": "random_survival_forest", "n_trees": 6, "min_leaf": 5, "seed": 0},
    {"kind": "cox_ridge", "penalty": 1.0},
    {"kind": "cox_lasso", "penalty": 1.0},
    {"kind": "knn_survival", "k": 6},
]


def write_config(path, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "n": 150, "censor_fraction": 0.3, "dim": 4},
        "roster": FAST_ROSTER,
        "params": {"epsilon": 0.05, "alpha": 0.6, "l_fraction": 0.4},
        "folds": 3,
        "seed": 7,
        "queries": 12,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read(path):
    return Path(path).read_bytes()


def ordered_dataset(tmp_path):
    """A 60-row CSV whose single covariate orders the times perfectly, so
    the unpenalized Cox partial likelihood has no maximum, and its dataset
    section."""
    rng = np.random.default_rng(0)
    covariate = np.sort(rng.uniform(size=60))
    rows = [f"{c:.6f},{t:.1f},1" for c, t in zip(covariate, range(1, 61))]
    csv_path = tmp_path / "ordered.csv"
    csv_path.write_text("x,time,event\n" + "\n".join(rows) + "\n")
    return {"kind": "csv", "path": str(csv_path), "time_col": "time", "event_col": "event"}


def csv_dataset(tmp_path, bom=False, infinite=None, **columns):
    """A 60-row CSV with columns time, a, b, event, and its dataset section;
    `infinite` names a column whose fifth cell becomes `inf`."""
    rng = np.random.default_rng(0)
    lines = ["time,a,b,event"]
    for i in range(60):
        cells = {
            "time": f"{rng.uniform(0.1, 5.0):.6f}",
            "a": f"{rng.uniform():.6f}",
            "b": f"{rng.uniform():.6f}",
            "event": str(int(rng.uniform() < 0.7)),
        }
        if i == 4 and infinite is not None:
            cells[infinite] = "inf"
        lines.append(",".join(cells.values()))
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(("\ufeff" if bom else "") + "\n".join(lines) + "\n", encoding="utf-8")
    return {"kind": "csv", "path": str(csv_path), "time_col": "time", "event_col": "event", **columns}


class TestBench:
    def test_writes_all_reports_and_covers_all_models(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("metrics.csv", "concordance.csv", "ibs.csv", "dcalibration.csv", "run.json"):
            assert (out / name).exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 3  # header + six models x three folds
        models = {line.split(",")[1] for line in lines[1:]}
        assert models == {
            "survival_tree",
            "random_survival_forest",
            "cox_ridge",
            "cox_lasso",
            "knn_survival",
            "proposed",
        }

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("metrics.csv", "concordance.csv", "ibs.csv", "dcalibration.csv"):
            assert read(out_a / name) == read(out_b / name)

    def test_missing_dataset_file_exits_one_without_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            dataset={"kind": "csv", "path": str(tmp_path / "absent.csv"), "time_col": "t", "event_col": "e"},
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_unconverged_solver_exits_one_naming_the_learner(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            dataset=ordered_dataset(tmp_path),
            roster=[{"kind": "cox_ridge", "penalty": 0}],
            folds=2,
            seed=1,
        )
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("survcobra: error: cox_ridge:")
        assert "solver did not converge: outer fold 1 of 2: " in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_convergence_error_keeps_learner_across_pickling(self):
        exc = pickle.loads(pickle.dumps(ConvergenceError("stuck", (1.0, 2.0), learner="cox_lasso")))
        assert (str(exc), exc.trace, exc.learner) == ("stuck", (1.0, 2.0), "cox_lasso")

    def test_bad_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        raw = json.loads(cfg.read_text())
        raw["search"] = {"trials": 2}  # both params and search
        cfg.write_text(json.dumps(raw))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dcal_level", 2.0),
            ("dcal_level", 0.0),
            ("dcal_bins", 1),
            ("folds", 1),
            ("inner_folds", 1),
        ],
    )
    def test_out_of_range_setting_exits_one_naming_its_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"survcobra: error: {key} must ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("folds", 2.7),
            ("inner_folds", "two"),
            ("queries", True),
            ("dcal_bins", 10.0),
            ("seed", "7"),
            ("dcal_level", "0.05"),
            ("dcal_level", False),
        ],
    )
    def test_mistyped_setting_exits_one_naming_its_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        kind = "a number" if key == "dcal_level" else "an integer"
        assert capsys.readouterr().err.startswith(f"survcobra: error: {key} must be {kind}, got ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("search", 5), ("search", [{"trials": 2}]), ("params", 5), ("params", "x")]
    )
    def test_non_object_section_exits_one_naming_its_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json")
        raw = json.loads(cfg.read_text())
        del raw["params"]
        raw[key] = value
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"survcobra: error: {key} must be a JSON object, got ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 120.9),
            ("dim", 4.5),
            ("seed", "3"),
            ("n", True),
            ("censor_fraction", "0.3"),
            ("censor_fraction", False),
        ],
    )
    def test_mistyped_dataset_setting_exits_one_naming_its_key(self, tmp_path, capsys, key, value):
        dataset = {"kind": "synthetic", "n": 150, "censor_fraction": 0.3, "dim": 4, key: value}
        cfg = write_config(tmp_path / "cfg.json", dataset=dataset)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        kind = "a number" if key == "censor_fraction" else "an integer"
        err = capsys.readouterr().err
        assert err.startswith(f"survcobra: error: dataset.{key} must be {kind}, got ")
        assert not out.exists()


    @pytest.mark.parametrize(
        "key, value",
        [
            ("numeric", 5),
            ("numeric", "a"),
            ("numeric", ["a", 1]),
            ("categorical", {"b": 1}),
            ("categorical", [None]),
        ],
    )
    def test_mistyped_csv_column_list_exits_one_naming_its_key(self, tmp_path, capsys, key, value):
        dataset = csv_dataset(tmp_path, numeric=["a", "b"])
        dataset[key] = value
        cfg = write_config(tmp_path / "cfg.json", dataset=dataset)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"survcobra: error: dataset.{key} must be an array of strings, got ")
        assert not out.exists()

    @pytest.mark.parametrize("declared", [False, True])
    def test_csv_with_byte_order_mark_runs(self, tmp_path, declared):
        dataset = csv_dataset(tmp_path, bom=True, **({"numeric": ["a", "b"]} if declared else {}))
        cfg = write_config(tmp_path / "cfg.json", dataset=dataset, roster=FAST_ROSTER[:1])
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("column", ["time", "a"])
    def test_infinite_csv_cell_exits_one(self, tmp_path, capsys, column):
        dataset = csv_dataset(tmp_path, infinite=column)
        cfg = write_config(tmp_path / "cfg.json", dataset=dataset, roster=FAST_ROSTER[:1])
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("survcobra: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("declared", [False, True])
    def test_bad_time_cell_names_path_column_and_row(self, tmp_path, capsys, declared):
        dataset = csv_dataset(tmp_path, infinite="time", **({"numeric": ["a", "b"]} if declared else {}))
        cfg = write_config(tmp_path / "cfg.json", dataset=dataset, roster=FAST_ROSTER[:1])
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        cell = "column 'time', row 5: time must be finite and positive, got 'inf'"
        assert capsys.readouterr().err == f"survcobra: error: {dataset['path']}: {cell}\n"

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(out_b), "--seed", "99"]) == 0
        assert read(out_a / "metrics.csv") != read(out_b / "metrics.csv")

    def test_parallel_folds_match_sequential(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(out_b), "--jobs", "2"]) == 0
        for name in ("metrics.csv", "concordance.csv", "ibs.csv", "dcalibration.csv"):
            assert read(out_a / name) == read(out_b / name)

    def test_parallel_folds_receive_the_loaded_dataset(self, tmp_path, monkeypatch):
        cfg, _ = experiments.load_config(write_config(tmp_path / "cfg.json"))
        load_dataset = experiments.load_dataset
        calls = []

        def load_once(c):
            calls.append(c)
            if len(calls) > 1:
                raise AssertionError("the dataset was loaded again")
            return load_dataset(c)

        # forked workers inherit the patch, so a reload there fails too
        monkeypatch.setattr(experiments, "load_dataset", load_once)
        results = experiments.run_bench(cfg, jobs=2)
        assert [r.fold_id for r in results["proposed"]] == [0, 1, 2]

    def test_jobs_below_one_exits_one(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path / "cfg.json"), tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out), "--jobs", "0"]) == 1
        assert capsys.readouterr().err == "survcobra: error: --jobs must be at least 1\n"
        assert not out.exists()

    def test_pool_has_at_most_one_worker_per_fold(self, tmp_path, monkeypatch):
        cfg, _ = experiments.load_config(write_config(tmp_path / "cfg.json"))
        asked = []

        class InlinePool:
            """Records the pool size and runs the folds in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        results = experiments.run_bench(cfg, jobs=8)
        assert asked == [cfg.folds] == [3]
        assert [r.fold_id for r in results["proposed"]] == [0, 1, 2]


def roster_with(index, **hyperparameters):
    """FAST_ROSTER with entry `index` updated by `hyperparameters`."""
    roster = [dict(entry) for entry in FAST_ROSTER]
    roster[index].update(hyperparameters)
    return roster


PARAMS = {"alpha": 0.6, "l_fraction": 0.4}


class TestConfigRejectedBeforeAnyFit:
    """Each bad value exits 1 naming its key, before a learner is fit and
    before any report is written."""

    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        def fit(*_args, **_kwargs):
            raise AssertionError("a learner was fit before the config was rejected")

        for module in (learners, cobra, experiments):
            monkeypatch.setattr(module, "fit", fit)

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("bench", {"params": {"epsilon": [0.05], **PARAMS}}, "params.epsilon must be a number, got [0.05]"),
            ("bench", {"params": {"epsilon": "0.05", **PARAMS}}, "params.epsilon must be a number, got '0.05'"),
            ("bench", {"params": {"epsilon": 0.05, "alpha": 1.5, "l_fraction": 0.4}}, "params.alpha must lie in (0, 1]"),
            # JSON's NaN and Infinity are not numbers
            ("bench", {"params": {"epsilon": float("nan"), **PARAMS}}, "params.epsilon must be a number, got nan"),
            (
                "bench",
                {"roster": roster_with(3, penalty=float("inf"))},
                "cox_lasso: hyperparameter penalty must be a number, got inf",
            ),
            (
                "bench",
                {"roster": roster_with(2, penalty=float("inf"))},
                "cox_ridge: hyperparameter penalty must be a number, got inf",
            ),
            (
                "bench",
                {"roster": roster_with(2, cv_seed=None)},
                "cox_ridge: hyperparameter cv_seed must be an integer, got None",
            ),
            (
                "bench",
                {"roster": roster_with(1, seed=None)},
                "random_survival_forest: hyperparameter seed must be an integer, got None",
            ),
            (
                "bench",
                {"roster": roster_with(0, max_depth=2.7)},
                "survival_tree: hyperparameter max_depth must be an integer, got 2.7",
            ),
            (
                "bench",
                {"roster": roster_with(1, n_trees=True)},
                "random_survival_forest: hyperparameter n_trees must be an integer, got True",
            ),
            ("bench", {"roster": roster_with(4, k="abc")}, "knn_survival: hyperparameter k must be an integer, got 'abc'"),
            (
                "tune",
                {"params": None, "search": {"trials": 2, "objectve": "ibs"}},
                "unknown search keys: ['objectve']",
            ),
            (
                "tune",
                {"params": None, "search": {"trials": 2, "objective": "auc"}},
                "search.objective must be one of",
            ),
            (
                "bench",
                {"dataset": {"kind": "synthetic", "n": 150, "censor_frac": 0.3, "dim": 4}},
                "unknown dataset keys: ['censor_frac']",
            ),
            (
                "bench",
                {"dataset": {"kind": "csv", "path": ["data.csv"], "time_col": "time", "event_col": "event"}},
                "dataset.path must be a string, got ['data.csv']",
            ),
            ("bench", {"out_dir": 5}, "out_dir must be a string, got 5"),
            ("bench", {"dataset": {"kind": "synthetic", "n": 0}}, "dataset.n must be at least 1"),
            (
                "bench",
                {"dataset": {"kind": "synthetic", "n": 150, "censor_fraction": 0.3, "dim": 3}},
                "dataset.dim must be at least 4",
            ),
            (
                "simulate",
                {"dataset": {"kind": "synthetic", "n": 150, "censor_fraction": 1.0}},
                "dataset.censor_fraction must lie in [0, 1)",
            ),
            (
                "bench",
                {"dataset": {"kind": "synthetic", "n": 60, "censor_fraction": 0.3, "dim": 4, "seed": -1}},
                "dataset.seed must be at least 0",
            ),
            ("bench", {"seed": -1}, "seed must be at least 0, got -1"),
        ],
    )
    def test_exits_one_naming_the_key(self, tmp_path, capsys, command, overrides, message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("survcobra: error: ")
        assert message in err
        assert not out.exists()

    def test_negative_seed_flag_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "survcobra: error: seed must be at least 0, got -1\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bench"], "the following arguments are required: --config"),
        (["bench", "--config", "cfg.json", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["bench", "--config", "cfg.json", "--jobs", "2.5"], "argument --jobs: invalid int value: '2.5'"),
        (["bench", "--config", "cfg.json", "--verbose"], "unrecognized arguments: --verbose"),
        (["benchmark", "--config", "cfg.json"], "argument command: invalid choice: 'benchmark' "),
    ],
    ids=["no-command", "no-config", "seed-not-int", "jobs-not-int", "unknown-flag", "unknown-command"],
)
def test_usage_error_exits_one_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"survcobra: error: {message}")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: survcobra bench")


@pytest.mark.parametrize("roster", [FAST_ROSTER[:1], [FAST_ROSTER[0], FAST_ROSTER[4]]], ids=["tree", "tree-knn"])
def test_csv_without_covariates_exits_one(tmp_path, capsys, roster):
    lines = ["time,event"] + [f"{t}.5,{t % 2}" for t in range(1, 41)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    dataset = {"kind": "csv", "path": str(tmp_path / "data.csv"), "time_col": "time", "event_col": "event"}
    cfg = write_config(tmp_path / "cfg.json", dataset=dataset, roster=roster, folds=2)
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "survcobra: error: a dataset needs at least one covariate column\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, roster, learner",
    [
        ("bench", [{"kind": "cox_ridge", "penalty": 1.0}], "cox_ridge"),
        ("bench", [{"kind": "cox_lasso", "penalty": 1.0}], "cox_lasso"),
        ("relevance", FAST_ROSTER[:1], "relevance"),
    ],
)
def test_overflowing_column_exits_one_naming_the_learner_and_column(tmp_path, capsys, command, roster, learner):
    rng = np.random.default_rng(0)
    rows = [f"{rng.uniform(0.1, 5.0):.6f},{rng.uniform():.6f},1e308,{int(rng.uniform() < 0.7)}" for _ in range(60)]
    (tmp_path / "data.csv").write_text("time,a,b,event\n" + "\n".join(rows) + "\n")
    dataset = {"kind": "csv", "path": str(tmp_path / "data.csv"), "time_col": "time", "event_col": "event"}
    cfg = write_config(tmp_path / "cfg.json", dataset=dataset, roster=roster, folds=2)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("survcobra: error: ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith(f"{learner}: column 'b': its mean or sd overflows")
    assert not out.exists()


def rare_event_dataset(tmp_path):
    """A 60-row CSV with two events, and its dataset section: three folds
    always leave one part without any."""
    rng = np.random.default_rng(0)
    rows = [f"{rng.uniform(0.1, 5.0):.6f},{rng.uniform():.6f},{int(i < 2)}" for i in range(60)]
    csv_path = tmp_path / "rare.csv"
    csv_path.write_text("time,a,event\n" + "\n".join(rows) + "\n")
    return {"kind": "csv", "path": str(csv_path), "time_col": "time", "event_col": "event"}


def test_cox_cv_fold_without_events_exits_one_naming_the_split(tmp_path, capsys):
    # at seed 1 each outer half holds one event, so the 3-fold penalty CV
    # over a 30-row training half has parts without any
    dataset = rare_event_dataset(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", dataset=dataset, roster=[{"kind": "cox_ridge"}], folds=2, seed=1)
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("survcobra: error: cox_ridge penalty CV: 3-fold split (cv_seed 0): fold ")
    assert err.rstrip().endswith("at least one observed event")
    assert not out.exists()


def test_relevance_training_part_without_events_exits_one_naming_it(tmp_path, capsys):
    # at seed 7 both events of the 60 rows fall among the 55 held-out queries
    cfg = write_config(tmp_path / "cfg.json", dataset=rare_event_dataset(tmp_path), queries=55)
    out = tmp_path / "out"
    assert main(["relevance", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "survcobra: error: training part (55 records held out as queries): "
        "a dataset needs at least one observed event\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, split",
    [
        ("bench", {"folds": 3}, "outer 3-fold split"),
        ("tune", {"params": None, "search": {"trials": 2}, "inner_folds": 3}, "tuning inner 3-fold split"),
    ],
)
def test_event_free_fold_exits_one_naming_the_split_and_part(tmp_path, capsys, command, overrides, split):
    cfg = write_config(tmp_path / "cfg.json", dataset=rare_event_dataset(tmp_path), **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    pattern = rf"survcobra: error: {split}: fold [123] of 3, (test|training) part: a dataset needs at least one observed event\n"
    assert re.fullmatch(pattern, err)
    assert not out.exists()


SPARSE_BENCH = {  # 21 of 30 records censored: a test part of six may hold one event time
    "dataset": {"kind": "synthetic", "n": 30, "censor_fraction": 0.7, "dim": 4, "seed": 3},
    "roster": [{"kind": "survival_tree"}, {"kind": "knn_survival", "k": 3}],
    "params": {"epsilon": 0.05, "alpha": 0.5, "l_fraction": 0.4},
    "folds": 5,
}


@pytest.mark.parametrize(
    "seed, where, message",
    [
        (1, "outer fold 1 of 5, survival_tree", "the integration grid needs at least two time points"),
        (4, "outer fold 2 of 5, survival_tree", "no comparable pairs: concordance is undefined"),
    ],
)
def test_metric_error_names_the_outer_fold_and_the_model(tmp_path, capsys, seed, where, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SPARSE_BENCH))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"survcobra: error: {where}: {message}\n"
    assert not out.exists()


def test_metric_error_of_the_ensemble_names_it(tmp_path, capsys, monkeypatch):
    report, calls = experiments._report, []

    def report_or_fail(*args):
        calls.append(None)
        if len(calls) == 3:  # the two learners of fold 1, then the ensemble
            raise ValueError("the integration grid needs at least two time points")
        return report(*args)

    monkeypatch.setattr(experiments, "_report", report_or_fail)
    roster = [{"kind": "survival_tree", "max_depth": 2}, {"kind": "knn_survival", "k": 5}]
    cfg = write_config(tmp_path / "cfg.json", roster=roster, folds=2)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "survcobra: error: outer fold 1 of 2, proposed: the integration grid needs at least two time points\n"
    )


@pytest.mark.parametrize(
    "path",
    sorted(REPO.glob("configs/*.json")) + sorted(REPO.glob("benchmarks/configs/*.json")),
    ids=lambda p: str(p.relative_to(REPO)),
)
def test_shipped_config_loads(path):
    cfg, raw = experiments.load_config(path)
    assert (cfg.params is None) == ("params" not in raw)
    assert (cfg.search is None) == ("search" not in raw)


def test_seed_override_reaches_the_derived_dataset_seed(tmp_path):
    # a synthetic dataset without its own seed is drawn from the master seed,
    # so --seed is applied to the raw config before it is parsed
    path = write_config(tmp_path / "cfg.json")
    cfg, raw = experiments.load_config(path, seed=5)
    assert (cfg.seed, raw["seed"]) == (5, 5)
    assert cfg.dataset == SyntheticConfig(n=150, censor_fraction=0.3, dim=4, seed=derive_seed(5, 0))
    assert experiments.load_config(path)[0].dataset.seed == derive_seed(7, 0)


class TestTune:
    def test_trace_and_best_params(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        raw = json.loads(cfg.read_text())
        del raw["params"]
        raw["search"] = {"trials": 4, "objective": "ibs"}
        raw["inner_folds"] = 2
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + four trials
        best = json.loads((out / "best_params.json").read_text())
        assert best["alpha"] in (0.2, 0.4, 0.6, 0.8, 1.0)
        assert 1e-300 <= best["epsilon"] <= 0.9
        # the best triple appears verbatim in the trace
        row = lines[1 + best["trial"]].split(",")
        assert float(row[1]) == best["epsilon"]
        assert float(row[2]) == best["alpha"]
        assert float(row[3]) == best["l_fraction"]

    def test_single_trial_trace(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        raw = json.loads(cfg.read_text())
        del raw["params"]
        raw["search"] = {"trials": 1}
        raw["inner_folds"] = 2
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "trials.csv").read_text().strip().splitlines()) == 2

    def test_every_trial_failing_exits_one_naming_the_causes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            dataset=ordered_dataset(tmp_path),
            roster=[{"kind": "cox_ridge", "penalty": 0}, {"kind": "knn_survival"}],
            search={"trials": 4},
            inner_folds=2,
            seed=1,
        )
        raw = json.loads(cfg.read_text())
        del raw["params"]
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "survcobra: error: every trial failed (4 of 4): cox_ridge: step halving exhausted\n"
        assert not out.exists()


    @pytest.mark.parametrize("trials", [2.5, "4", True])
    def test_mistyped_trials_exit_one_naming_the_key(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path / "cfg.json")
        raw = json.loads(cfg.read_text())
        del raw["params"]
        raw["search"] = {"trials": trials}
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("survcobra: error: search.trials must be an integer, got ")
        assert not out.exists()


class TestSimulate:
    def test_relevance_table_has_one_row_per_covariate(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            dataset={"kind": "synthetic", "n": 200, "censor_fraction": 0.3, "dim": 9},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "relevance.csv").read_text().strip().splitlines()
        assert len(lines) == 10  # header + nine covariates
        assert (out / "relevance_per_query.csv").exists()
        assert (out / "curves.csv").exists()

    def test_dim_four_gives_four_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")  # dim=4 dataset
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "relevance.csv").read_text().strip().splitlines()
        assert len(lines) == 5

    def test_curve_dump_is_step_serialization(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "curves.csv").read_text().strip().splitlines()[1:]
        first = [r.split(",") for r in rows if r.split(",")[0] == "0"]
        times = [float(r[1]) for r in first]
        values = [float(r[2]) for r in first]
        assert times[0] == 0.0 and values[0] == 1.0
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a >= b for a, b in zip(values, values[1:]))


REPORT_HEADERS = {
    "bench": {
        "metrics.csv": "dataset,model,fold,concordance,ibs,dcal_pass,dcal_pvalue",
        "concordance.csv": "model,fold_0,fold_1,fold_2,mean",
        "ibs.csv": "model,fold_0,fold_1,fold_2,mean",
        "dcalibration.csv": "model,passes,folds",
    },
    "tune": {"trials.csv": "trial,epsilon,alpha,l_fraction,objective,error"},
    "simulate": {
        "relevance.csv": "covariate,aggregate_score,rank",
        "relevance_per_query.csv": "query,degenerate,intercept,x0,x1,x2,x3",
        "curves.csv": "query,time,value",
    },
}
FLOAT_COLUMNS = {  # CSV name: columns whose cells are repr floats
    "metrics.csv": ("concordance", "ibs", "dcal_pvalue"),
    "ibs.csv": ("fold_0", "fold_1", "fold_2", "mean"),
    "trials.csv": ("epsilon", "alpha", "l_fraction", "objective"),
}


@pytest.mark.parametrize("command", sorted(REPORT_HEADERS))
def test_report_files_share_one_on_disk_format(tmp_path, command):
    overrides = {"params": None, "search": {"trials": 3}, "inner_folds": 2} if command == "tune" else {}
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    extra = {"best_params.json"} if command == "tune" else set()
    headers = REPORT_HEADERS[command]
    assert {p.name for p in out.iterdir()} == {*headers, "run.json", *extra}
    for name, header in headers.items():
        data = read(out / name)
        assert b"\r" not in data
        lines = data.decode("utf-8").split("\n")
        assert lines[0] == header and lines[-1] == ""
        columns = header.split(",")
        rows = list(csv.reader(lines[1:-1]))
        assert rows and all(len(row) == len(columns) for row in rows)
        for row in rows:
            cells = dict(zip(columns, row))
            for column in FLOAT_COLUMNS.get(name, ()):
                assert cells[column] == repr(float(cells[column]))


def write_relevance_config(tmp_path, queries):
    """A 120-row, two-covariate CSV and a relevance config holding out `queries`."""
    rng = np.random.default_rng(0)
    lines = ["a,b,time,event"]
    for i in range(120):
        lines.append(
            f"{rng.uniform():.6f},{rng.uniform():.6f},{rng.uniform(0.1, 5.0):.6f},{int(rng.uniform() < 0.7)}"
        )
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return write_config(
        tmp_path / "cfg.json",
        dataset={"kind": "csv", "path": str(csv_path), "time_col": "time", "event_col": "event"},
        queries=queries,
    )


class TestRelevanceCommand:
    def test_holds_out_queries_from_csv(self, tmp_path):
        cfg = write_relevance_config(tmp_path, queries=10)
        out = tmp_path / "out"
        assert main(["relevance", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "relevance.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two covariates

    @pytest.mark.parametrize("queries", [-100, 0])
    def test_nonpositive_queries_exit_one_naming_queries(self, tmp_path, capsys, queries):
        cfg = write_relevance_config(tmp_path, queries=queries)
        out = tmp_path / "out"
        assert main(["relevance", "--config", str(cfg), "--out", str(out)]) == 1
        assert "queries" in capsys.readouterr().err
        assert not out.exists()


GENERATED_BASE = {
    "dataset": {"kind": "synthetic", "n": 60, "censor_fraction": 0.3, "dim": 4, "seed": 3},
    "roster": [{"kind": "survival_tree", "max_depth": 3, "min_leaf": 5}, {"kind": "knn_survival", "k": 6}],
    "params": {"epsilon": 0.05, "alpha": 0.5, "l_fraction": 0.4},
    "folds": 2,
    "inner_folds": 2,
    "seed": 7,
    "queries": 10,
    "dcal_bins": 5,
    "dcal_level": 0.05,
    "out_dir": "unused",
}
# another JSON type, or a boundary; the non-finite floats are the literals
# that Python's `json` writes and reads
JSON_VALUES = (
    0, -1, 2, 1e308, 0.5, float("nan"), float("inf"), float("-inf"),
    True, False, None, "", "x", [], ["x"], [1], {}, {"x": 1},
)


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _node_paths(node, path=()):
    """The path of `node` and of every value under it, parents first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(value, (*path, key))


NODE_PATHS = list(_node_paths(GENERATED_BASE))
OBJECT_PATHS = [path for path in NODE_PATHS if isinstance(_at(GENERATED_BASE, path), dict)]


@st.composite
def mutated_configs(draw):
    """`GENERATED_BASE` with one value replaced, one key deleted, or one
    unknown key added, anywhere in the tree."""
    config = json.loads(json.dumps(GENERATED_BASE))
    how = draw(st.sampled_from(("replace", "add", "delete")))
    if how == "add":
        _at(config, draw(st.sampled_from(OBJECT_PATHS)))["unknown_key"] = draw(st.sampled_from(JSON_VALUES))
        return config
    *path, key = draw(st.sampled_from(NODE_PATHS[1:]))
    container = _at(config, path)
    if how == "delete":
        del container[key]
    else:
        container[key] = draw(st.sampled_from(JSON_VALUES))
    return config


def _run(config_path, out, command="bench"):
    """`main([command, ...])` in process: (exit code, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(config_path), "--out", str(out)])
    return code, stderr.getvalue()


def _report_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


@settings(max_examples=40, deadline=None)
@given(config=mutated_configs())
@example(config={**GENERATED_BASE, "dataset": {**GENERATED_BASE["dataset"], "kind": []}})  # exited 2 once
def test_generated_configs_exit_zero_or_one_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cfg.json").write_text(json.dumps(config))
        _assert_exits_zero_or_one_cleanly(Path(tmp), "bench")


def _assert_exits_zero_or_one_cleanly(tmp, command):
    """Exit 1 is one error line and no output directory; exit 0 reruns to
    byte-identical reports; exit 2, a real bug, never happens."""
    code, err = _run(tmp / "cfg.json", tmp / "a", command)
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("survcobra: error: ") and err.endswith("\n")
        assert len(err.splitlines()) == 1, err
        assert not (tmp / "a").exists()
        return
    assert _run(tmp / "cfg.json", tmp / "b", command) == (0, "")
    assert _report_bytes(tmp / "a") == _report_bytes(tmp / "b")


CSV_MUTATIONS = (
    "tied times", "all censored", "one event", "constant covariate", "odd cell", "bom", "crlf",
    "duplicate header", "reordered columns", "no covariates",
)


@st.composite
def mutated_csvs(draw):
    """A CSV written from `generate_synthetic` with some of `CSV_MUTATIONS`
    applied, and its dataset section (with or without `numeric`) for a
    file named data.csv: (file text, dataset section)."""
    n = draw(st.integers(20, 60))
    ds = generate_synthetic(SyntheticConfig(n=n, censor_fraction=0.3, dim=4, seed=draw(st.integers(0, 9))))
    columns = {name: [repr(v) for v in ds.x[:, j].tolist()] for j, name in enumerate(ds.feature_names)}
    columns["time"] = [repr(t) for t in ds.time.tolist()]
    columns["event"] = [str(e) for e in ds.event.tolist()]
    mutations = draw(st.sets(st.sampled_from(CSV_MUTATIONS), min_size=1, max_size=3))
    if "tied times" in mutations:
        columns["time"] = [repr(math.ceil(t * 2) / 2) for t in ds.time.tolist()]
    if "all censored" in mutations or "one event" in mutations:
        columns["event"] = ["0"] * n
    if "one event" in mutations:
        columns["event"][draw(st.integers(0, n - 1))] = "1"
    if "constant covariate" in mutations:
        columns[draw(st.sampled_from(ds.feature_names))] = ["0.5"] * n
    if "odd cell" in mutations:
        cells = columns[draw(st.sampled_from(sorted(columns)))]
        cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(("", "nan", "inf", "1e308")))
    if "no covariates" in mutations:
        for name in ds.feature_names:
            del columns[name]
    header = list(columns)
    if "reordered columns" in mutations:
        header = draw(st.permutations(header))
    covariates = [name for name in header if name not in ("time", "event")]
    if "duplicate header" in mutations and len(covariates) > 1:
        # "x0 " reads as "x0" once stripped
        header = [f"{covariates[0]} " if name == covariates[1] else name for name in header]
    newline = "\r\n" if "crlf" in mutations else "\n"
    lines = [",".join(header)] + [",".join(columns[name.strip()][i] for name in header) for i in range(n)]
    text = ("\ufeff" if "bom" in mutations else "") + newline.join(lines) + newline
    dataset = {"kind": "csv", "path": "data.csv", "time_col": "time", "event_col": "event"}
    if draw(st.booleans()):
        dataset["numeric"] = sorted({name.strip() for name in covariates})
    return text, dataset


@settings(max_examples=100, deadline=None)
@given(csv_file=mutated_csvs(), command=st.sampled_from(("bench", "relevance")))
def test_generated_csvs_exit_zero_or_one_cleanly(csv_file, command):
    text, dataset = csv_file
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_bytes(text.encode("utf-8"))
        config = {**GENERATED_BASE, "dataset": {**dataset, "path": str(tmp / "data.csv")}, "queries": 5}
        (tmp / "cfg.json").write_text(json.dumps(config))
        _assert_exits_zero_or_one_cleanly(tmp, command)
