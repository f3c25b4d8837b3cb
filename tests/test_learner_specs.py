import numpy as np
import pytest

from survcobra.cobra import CobraParams, fit_cobra, predict_cobra
from survcobra.curves import SURVIVAL, evaluate
from survcobra.learners import LEARNER_KINDS, BaseSurvivalModel, LearnerSpec, default_roster, fit
from survcobra.relevance import relevance_study
from helpers import random_dataset

SPECS = [
    LearnerSpec("survival_tree", {"max_depth": 4, "min_leaf": 3}),
    LearnerSpec("random_survival_forest", {"n_trees": 8, "min_leaf": 3, "seed": 7}),
    LearnerSpec("cox_ridge", {"penalty": 0.5}),
    LearnerSpec("cox_lasso", {"penalty": 0.2}),
    LearnerSpec("knn_survival", {"k": 4}),
]


class TestLearnerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown learner kind"):
            LearnerSpec("deep_survival")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            LearnerSpec("knn_survival", {"neighbours": 3})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            LearnerSpec("knn_survival", {"k": 0})
        with pytest.raises(ValueError, match="out of range"):
            LearnerSpec("cox_ridge", {"penalty": -1.0})
        with pytest.raises(ValueError, match="out of range"):
            LearnerSpec("random_survival_forest", {"n_trees": 0})

    def test_default_roster_covers_all_kinds(self):
        kinds = [spec.kind for spec in default_roster()]
        assert sorted(kinds) == sorted(LEARNER_KINDS)


class TestPredictContract:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_fuzz_predictions_are_valid_survival_curves(self, spec):
        rng = np.random.default_rng(99)
        for trial in range(5):
            ds = random_dataset(np.random.default_rng(trial), 35, p=3, event_rate=0.6)
            model = fit(spec, ds)
            assert model.n_features == 3
            for q in rng.uniform(size=(6, 3)):
                curve = model.predict_curve(q)  # constructor enforces monotone [0,1]
                assert curve.kind == SURVIVAL
                assert evaluate(curve, 0.0) == 1.0 or curve.times[0] == 0.0

    def test_base_class_has_no_predict_values(self):
        with pytest.raises(NotImplementedError):
            BaseSurvivalModel().predict_values(np.zeros((1, 1)), np.zeros(2))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_dimension_mismatch_rejected(self, spec):
        ds = random_dataset(np.random.default_rng(0), 25, p=3)
        model = fit(spec, ds)
        with pytest.raises(ValueError, match="shape"):
            model.predict_curve(np.zeros(5))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_negative_grid_rejected(self, spec):
        # the forest checks the grid once for all its trees
        ds = random_dataset(np.random.default_rng(0), 25, p=3)
        model = fit(spec, ds)
        with pytest.raises(ValueError, match="evaluation times must be nonnegative"):
            model.predict_values(ds.x[:4], [0.0, -0.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", [spec.kind for spec in SPECS] + ["predict_cobra", "relevance_study"])
def test_non_finite_covariates_rejected(target, bad):
    # every learner checks its covariates, and the ensemble's distance pass
    # runs through those checks
    ds = random_dataset(np.random.default_rng(0), 40, p=3)
    query = np.array([0.5, bad, 0.5])
    if target in LEARNER_KINDS:
        model = fit(SPECS[LEARNER_KINDS.index(target)], ds)
        calls = [lambda: model.predict_curve(query), lambda: model.predict_values(query[None, :], [0.5, 1.0])]
    else:
        ensemble = fit_cobra(ds, CobraParams(0.2, 0.5, 0.5, tuple(SPECS)), seed=0)
        if target == "predict_cobra":
            calls = [lambda: predict_cobra(ensemble, query)]
        else:
            calls = [lambda: relevance_study(ensemble, query[None, :])]
    for call in calls:
        with pytest.raises(ValueError, match="covariates must be finite"):
            call()
