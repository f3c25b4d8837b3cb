import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survcobra.cobra import CobraParams, fit_cobra, predict_cobra
from survcobra.curves import evaluate
from survcobra.data import SurvivalDataset
from survcobra.exceptions import ConvergenceError
from survcobra.learners import LEARNER_KINDS, BaseSurvivalModel, LearnerSpec, default_roster, fit
from survcobra.relevance import relevance_study
from helpers import (
    random_dataset,
    reference_cox_curve,
    reference_forest_curve,
    reference_knn_curve,
    reference_tree_curve,
)

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
                assert evaluate(curve, 0.0) == 1.0 or curve.times[0] == 0.0

    def test_base_class_has_no_predict_values(self):
        class Bare(BaseSurvivalModel):  # a feature count, and no `_values`
            n_features = 1

        with pytest.raises(NotImplementedError):
            Bare().predict_values(np.zeros((1, 1)), np.zeros(2))

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

    @pytest.mark.parametrize("rows", [4, 0])
    @pytest.mark.parametrize("grid", [[1.0, np.nan], [np.nan]], ids=["nan in grid", "nan"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_nan_grid_rejected(self, spec, grid, rows):
        # a NaN is no time: it must not read as past the last jump, and the
        # grid is checked even when no row asks for it
        ds = random_dataset(np.random.default_rng(0), 25, p=3)
        model = fit(spec, ds)
        with pytest.raises(ValueError, match="evaluation times must be nonnegative"):
            model.predict_values(ds.x[:rows], grid)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_infinite_grid_point_reads_the_curve_tail(self, spec):
        ds = random_dataset(np.random.default_rng(0), 25, p=3)
        model = fit(spec, ds)
        got = model.predict_values(ds.x[:4], [0.0, np.inf])
        for row, q in zip(got, ds.x[:4]):
            tail = model.predict_curve(q).values
            assert row[1] == (tail[-1] if tail.size else 1.0)


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


REFERENCE_CURVES = {
    "survival_tree": reference_tree_curve,
    "random_survival_forest": reference_forest_curve,
    "cox_ridge": reference_cox_curve,
    "cox_lasso": reference_cox_curve,
    "knn_survival": reference_knn_curve,
}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 30),
    p=st.integers(1, 3),
    event_rate=st.sampled_from([0.2, 0.6, 1.0]),
    spec=st.sampled_from(
        [
            LearnerSpec("survival_tree", {"max_depth": 4, "min_leaf": 1}),
            LearnerSpec("random_survival_forest", {"n_trees": 4, "min_leaf": 1, "mtry": 1, "seed": 3}),
            LearnerSpec("random_survival_forest", {"n_trees": 2, "min_leaf": 2, "bootstrap": False}),
            LearnerSpec("cox_ridge", {"penalty": 1.0}),
            LearnerSpec("cox_lasso", {"penalty": 0.1}),
            LearnerSpec("cox_lasso", {"penalty": 1e6}),  # zeroes every coefficient
            LearnerSpec("knn_survival", {"k": 1}),
            LearnerSpec("knn_survival"),
            "knn_survival k=n",
        ]
    ),
)
def test_property_predict_curve_matches_the_former_bodies(seed, n, p, event_rate, spec):
    # tied covariates and times, leaves and neighbourhoods without events:
    # `predict_curve` (predict_values at the model's own jump times) gives
    # the times and values of each learner's former curve, bit for bit
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(n, p)).astype(float)
    times = rng.integers(1, 6, size=n).astype(float)
    events = (rng.uniform(size=n) < event_rate).astype(int)
    events[int(rng.integers(n))] = 1
    data = SurvivalDataset(x, times, events, [f"x{i}" for i in range(p)])
    if spec == "knn_survival k=n":
        spec = LearnerSpec("knn_survival", {"k": n})
    try:
        model = fit(spec, data)
    except ConvergenceError:
        assume(False)  # a tiny separable sample has no finite Cox fit
    if spec.kind == "cox_lasso" and spec.hyperparameters["penalty"] == 1e6:
        assert not model.beta.any()
    queries = np.vstack([x, rng.integers(-1, 4, size=(4, p)).astype(float)])
    for q in queries:
        got, want = model.predict_curve(q), REFERENCE_CURVES[spec.kind](model, q)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


#: Cells whose mean, spread or standardized distance may overflow.
EXTREME_CELLS = (1e308, -1e308, 1e-308)


@st.composite
def extreme_inputs(draw):
    """A small training sample whose columns are plain, constant or hold
    extreme cells, and query rows inside and far outside its range."""
    n, p = draw(st.integers(12, 24)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = random_dataset(rng, n, p)
    x = data.x.copy()
    for j in range(p):
        column = draw(st.sampled_from(["plain", "constant", "cells"]))
        if column == "constant":
            x[:, j] = draw(st.sampled_from((0.0, 1.0) + EXTREME_CELLS))
        elif column == "cells":
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                x[i, j] = draw(st.sampled_from(EXTREME_CELLS))
    far = st.sampled_from((-1e308, -1e300, -1e6, 1e-308, 1e6, 1e300, 1e308))
    outside = draw(st.lists(st.lists(far, min_size=p, max_size=p), min_size=1, max_size=3))
    queries = np.vstack([rng.uniform(size=(2, p)), outside])
    return SurvivalDataset(x, data.time, data.event, data.feature_names), queries


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(SPECS), case=extreme_inputs())
def test_property_extreme_inputs_are_refused_by_name_or_predicted_in_range(spec, case):
    # every learner either refuses the input in one line naming itself and
    # the column or row, or predicts finite survival values in [0, 1]; no
    # numpy warning escapes either way
    data, queries = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = fit(spec, data).predict_values(queries, [0.0, 0.5, 1.0, 2.0, np.inf])
        except ValueError as exc:
            assert re.fullmatch(rf"{spec.kind}: (column '\w+'|row \d+): [^\n]+", str(exc)), str(exc)
            return
    assert values.shape == (queries.shape[0], 5)
    assert ((values >= 0.0) & (values <= 1.0)).all()  # NaN fails both
