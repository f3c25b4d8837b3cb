import numpy as np
import pytest

from survcobra.cobra import CobraParams, fit_cobra, predict_cobra_batch
from survcobra.curves import evaluate, kaplan_meier
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic, kfold_split
from survcobra.exceptions import TuningError
from survcobra.learners import LearnerSpec
from survcobra.metrics import concordance_td, integrated_brier
from survcobra.seeds import derive_seed
from survcobra.tuning import SearchSpace, evaluate_params, random_search

from test_metrics import survival_array

ROSTER = (
    LearnerSpec("knn_survival", {"k": 5}),
    LearnerSpec("survival_tree", {"max_depth": 3, "min_leaf": 4}),
)


def small_train(seed=0, n=90):
    return generate_synthetic(SyntheticConfig(n=n, censor_fraction=0.3, dim=4, seed=seed))


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(trials=0)
        with pytest.raises(ValueError):
            SearchSpace(trials=1, objective="accuracy")
        with pytest.raises(ValueError):
            SearchSpace(trials=1, epsilon_range=(0.0, 0.9))

    def test_benchmark_defaults(self):
        space = SearchSpace(trials=5)
        assert space.alpha_choices == (0.2, 0.4, 0.6, 0.8, 1.0)
        assert space.l_fraction_choices == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        assert space.epsilon_range == (1e-300, 0.9)


class TestEvaluateParams:
    def test_matches_direct_fit_and_metric(self):
        # the documented seed scheme makes the scores reproducible by hand
        train = small_train(seed=1, n=100)
        params = CobraParams(0.05, 0.5, 0.4, ROSTER)
        seed = 7
        folds = kfold_split(train, 3, derive_seed(seed, 0))
        by_hand = []
        for fold_train, fold_val in folds:
            model = fit_cobra(
                fold_train, params, derive_seed(seed, 1, int(round(params.l_fraction * 1e9)))
            )
            survival = survival_array(predict_cobra_batch(model, fold_val.x), fold_val.time)
            by_hand.append(integrated_brier(survival, fold_val.time, fold_val.event))
        got = evaluate_params(params, train, 3, objective="ibs", seed=seed)
        assert got == pytest.approx(np.mean(by_hand), abs=1e-12)

    def test_neg_concordance_objective(self):
        train = small_train(seed=2, n=100)
        params = CobraParams(0.05, 0.5, 0.4, ROSTER)
        seed = 3
        folds = kfold_split(train, 3, derive_seed(seed, 0))
        by_hand = []
        for fold_train, fold_val in folds:
            model = fit_cobra(
                fold_train, params, derive_seed(seed, 1, int(round(params.l_fraction * 1e9)))
            )
            survival = survival_array(predict_cobra_batch(model, fold_val.x), fold_val.time)
            by_hand.append(-concordance_td(survival, fold_val.time, fold_val.event))
        got = evaluate_params(params, train, 3, objective="neg_concordance", seed=seed)
        assert got == pytest.approx(np.mean(by_hand), abs=1e-12)

    def test_identical_halves_give_identical_fold_objectives(self):
        # fold scoring is a pure function of the fold data: with two folds
        # that mirror the same records, the objectives agree exactly
        base = generate_synthetic(SyntheticConfig(n=40, censor_fraction=0.2, dim=4, seed=5))
        copy = SurvivalDataset(base.x, base.time, base.event, base.feature_names)
        params = CobraParams(0.1, 0.5, 0.5, ROSTER)
        from survcobra.tuning import _evaluate

        folds = [(base, copy), (copy, base)]
        _, fold_values = _evaluate(params, folds, seed=3, objective="ibs", cache={})
        assert fold_values[0] == pytest.approx(fold_values[1], abs=1e-12)


class TestRandomSearch:
    def test_single_trial(self):
        train = small_train(seed=3)
        space = SearchSpace(trials=1, seed=11)
        best, trace = random_search(space, train, inner_folds=2, roster=ROSTER)
        assert len(trace) == 1
        assert best is trace[0]
        assert best.trial_index == 0

    def test_determinism(self):
        train = small_train(seed=4)
        space = SearchSpace(trials=8, seed=21)
        best_a, trace_a = random_search(space, train, inner_folds=2, roster=ROSTER)
        best_b, trace_b = random_search(space, train, inner_folds=2, roster=ROSTER)
        assert best_a.params == best_b.params
        for a, b in zip(trace_a, trace_b):
            assert a.params == b.params
            assert a.failed == b.failed
            if not a.failed:
                assert a.objective_value == b.objective_value

    def test_parameters_stay_inside_the_space(self):
        train = small_train(seed=5)
        space = SearchSpace(trials=12, seed=31)
        _, trace = random_search(space, train, inner_folds=2, roster=ROSTER)
        lo, hi = space.epsilon_range
        for result in trace:
            assert lo <= result.params.epsilon <= hi
            assert result.params.alpha in space.alpha_choices
            assert result.params.l_fraction in space.l_fraction_choices

    def test_running_best_is_monotone(self):
        train = small_train(seed=6)
        space = SearchSpace(trials=10, seed=41)
        _, trace = random_search(space, train, inner_folds=2, roster=ROSTER)
        best_so_far = np.inf
        prefix_best = []
        for result in trace:
            if not result.failed:
                best_so_far = min(best_so_far, result.objective_value)
            prefix_best.append(best_so_far)
        assert all(a >= b for a, b in zip(prefix_best, prefix_best[1:]))

    def test_saturating_trial_scores_like_population_km(self):
        # with a huge epsilon every prediction collapses to the calibration
        # KM, so the objective equals the population-KM baseline
        train = small_train(seed=7, n=120)
        params = CobraParams(10.0, 1.0, 0.5, ROSTER)
        seed = 13
        folds = kfold_split(train, 2, derive_seed(seed, 0))
        baseline = []
        for fold_train, fold_val in folds:
            model = fit_cobra(
                fold_train, params, derive_seed(seed, 1, int(round(params.l_fraction * 1e9)))
            )
            pop = kaplan_meier(model.split.d_l.time, model.split.d_l.event)
            survival = np.tile(evaluate(pop, fold_val.time), (fold_val.n, 1))
            baseline.append(integrated_brier(survival, fold_val.time, fold_val.event))
        got = evaluate_params(params, train, 2, objective="ibs", seed=seed)
        assert got == pytest.approx(np.mean(baseline), abs=1e-12)

    def test_all_failures_raise_with_trace(self):
        # k exceeding every fold-train size makes each trial fail
        train = small_train(seed=8, n=30)
        bad_roster = (LearnerSpec("knn_survival", {"k": 29}),)
        space = SearchSpace(trials=3, seed=51)
        with pytest.raises(TuningError) as err:
            random_search(space, train, inner_folds=2, roster=bad_roster)
        assert len(err.value.trace) == 3
        assert all(t.failed for t in err.value.trace)
