"""Each input rule has one home, and every entry point gives its message.

The JSON-type rule (`learners._json`) serves the config, its dataset
section and the roster; the covariate checks of `data` serve the datasets,
the learners and the ensemble; `curves._checked_sample` serves the
datasets, the curves and the metrics.
"""

import numpy as np
import pytest

from survcobra.cobra import CobraParams, fit_cobra, gamma_labels, predict_cobra, predict_cobra_batch
from survcobra.curves import censoring_km, product_limit
from survcobra.data import SurvivalDataset
from survcobra.experiments import ExperimentConfig
from survcobra.learners import LEARNER_KINDS, LearnerSpec, fit
from survcobra.metrics import concordance_td, d_calibration, integrated_brier
from survcobra.relevance import relevance_study
from helpers import brier_censored, random_dataset

CONFIG = {
    "dataset": {"kind": "synthetic", "n": 60, "dim": 4},
    "roster": [{"kind": "knn_survival", "k": 5}],
    "params": {"epsilon": 0.05, "alpha": 0.5, "l_fraction": 0.4},
}


def config(**overrides):
    return lambda _model: ExperimentConfig.from_dict({**CONFIG, **overrides})


def dataset(**overrides):
    return config(dataset={**CONFIG["dataset"], **overrides})


def csv_dataset(**overrides):
    return config(dataset={"kind": "csv", "path": "d.csv", "time_col": "t", "event_col": "e", **overrides})


@pytest.fixture(scope="module")
def model():
    roster = (LearnerSpec("knn_survival", {"k": 3}), LearnerSpec("survival_tree", {"max_depth": 2}))
    train = random_dataset(np.random.default_rng(0), 60, p=2)
    return fit_cobra(train, CobraParams(0.1, 0.5, 0.4, roster), seed=0)


GRID = np.array([0.5, 1.0])
HALF = np.full((2, 2), 0.5)
VECTOR = "covariate vector has shape (3,), expected (2,)"
MATRIX = "covariate matrix has shape (4, 3), expected 2 features per row"
FINITE = "covariates must be finite (no NaN or infinity)"
NAN_ROWS = np.array([[0.5, np.nan]])


@pytest.mark.parametrize(
    "call, message",
    [
        # one JSON-type rule
        (config(folds=2.7), "folds must be an integer, got 2.7"),
        (config(dcal_level="0.05"), "dcal_level must be a number, got '0.05'"),
        (config(out_dir=["out"]), "out_dir must be a string, got ['out']"),
        (config(params={**CONFIG["params"], "epsilon": None}), "params.epsilon must be a number, got None"),
        (dataset(n=True), "dataset.n must be an integer, got True"),
        (dataset(censor_fraction=[0.3]), "dataset.censor_fraction must be a number, got [0.3]"),
        (dataset(censor_fraction=float("nan")), "dataset.censor_fraction must be a number, got nan"),
        (config(dcal_level=float("inf")), "dcal_level must be a number, got inf"),
        (csv_dataset(path=5), "dataset.path must be a string, got 5"),
        (csv_dataset(numeric=["a", 1]), "dataset.numeric must be an array of strings, got ['a', 1]"),
        (
            config(roster=[{"kind": "knn_survival", "k": 2.5}]),
            "invalid roster entry: knn_survival: hyperparameter k must be an integer, got 2.5",
        ),
        (
            lambda _model: LearnerSpec("knn_survival", {"k": 2.5}),
            "knn_survival: hyperparameter k must be an integer, got 2.5",
        ),
        (
            lambda _model: LearnerSpec("random_survival_forest", {"bootstrap": 1}),
            "random_survival_forest: hyperparameter bootstrap must be a boolean, got 1",
        ),
        # one covariate check, for the learners and the ensemble
        (lambda m: m.machines[0].predict_curve(np.zeros(3)), VECTOR),
        (lambda m: predict_cobra(m, np.zeros(3)), VECTOR),
        (lambda m: gamma_labels(m, np.zeros(3)), VECTOR),
        (lambda m: m.machines[1].predict_values(np.zeros((4, 3)), GRID), MATRIX),
        (lambda m: predict_cobra_batch(m, np.zeros((4, 3))), MATRIX),
        (lambda m: m.predict_values(np.zeros((4, 3)), GRID), MATRIX),
        (lambda m: relevance_study(m, np.zeros((4, 3))), MATRIX),
        (lambda m: m.machines[0].predict_values(NAN_ROWS, GRID), FINITE),
        (lambda m: predict_cobra_batch(m, NAN_ROWS), FINITE),
        (lambda m: m.predict_values(NAN_ROWS, GRID), FINITE),
        (lambda m: predict_cobra(m, NAN_ROWS[0]), FINITE),
        (lambda _model: SurvivalDataset(np.zeros((4, 3)), np.ones(4), np.ones(4), ["a", "b"]), MATRIX),
        (lambda _model: SurvivalDataset(NAN_ROWS, [1.0], [1], ["a", "b"]), FINITE),
        # one sample check, for the curves and the metrics
        (lambda _model: product_limit([1.0, np.nan], [1, 1]), "times must be finite"),
        (lambda _model: integrated_brier(HALF, [1.0, np.nan], [1, 1]), "times must be finite"),
        (lambda _model: SurvivalDataset(np.zeros((2, 1)), [1.0, np.nan], [1, 1], ["a"]), "times must be finite"),
        (lambda _model: censoring_km([1.0, 2.0], [1, 2]), "event flags must be 0 or 1"),
        (lambda _model: concordance_td(HALF, [1.0, 2.0], [1, 2]), "event flags must be 0 or 1"),
        (lambda _model: d_calibration(np.empty((0, 0)), [], []), "empty input: at least one record is required"),
        (
            lambda _model: brier_censored([0.5], [1.0, 2.0], [1], 1.0, censoring_km([1.0], [1])),
            "times and events must be 1-d arrays of equal length",
        ),
        (lambda _model: SurvivalDataset(np.zeros((2, 1)), [1.0, 2.0], [1, 2], ["a"]), "event flags must be 0 or 1"),
    ],
)
def test_each_entry_point_gives_the_shared_message(model, call, message):
    with pytest.raises(ValueError) as err:
        call(model)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", LEARNER_KINDS + ("proposed",))
def test_every_model_checks_predict_values_inputs_alike(model, kind):
    # the learners share one check in the base class, and the ensemble
    # answers the same call
    predictor = model if kind == "proposed" else fit(LearnerSpec(kind), model.split.d_k)
    with pytest.raises(ValueError, match=r"^covariate matrix has shape \(4, 3\)"):
        predictor.predict_values(np.zeros((4, 3)), GRID)
    with pytest.raises(ValueError, match="^evaluation times must be nonnegative$"):
        predictor.predict_values(HALF, [0.5, np.nan])
    for grid, shape in ((1.0, "()"), ([[0.5, 1.0]], "(1, 2)")):
        with pytest.raises(ValueError) as err:
            predictor.predict_values(HALF, grid)
        assert str(err.value) == f"evaluation times must be a 1-d array, got shape {shape}"
