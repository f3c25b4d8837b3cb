import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from survcobra.cobra import CobraParams, _aggregate, _survival_matrix, fit_cobra, predict_cobra_batch
from survcobra.curves import evaluate, kaplan_meier
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic, kfold_split
from survcobra.exceptions import ConvergenceError, TuningError
from survcobra.learners import LearnerSpec
from survcobra.metrics import concordance_td, integrated_brier
from survcobra.seeds import derive_seed
from survcobra import tuning
from survcobra.tuning import SearchSpace, _score_trials, draw_trials, evaluate_params, random_search

from helpers import (
    reference_aggregate,
    reference_fold_objective,
    reference_product_limit,
    reference_random_search,
    reference_survival_rows,
    same_bits,
)
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
        with pytest.raises(ValueError, match="epsilon_range"):
            SearchSpace(trials=2, epsilon_range=(0.1, float("inf")))

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
        folds = [(base, copy), (copy, base)]
        [fold_values] = _score_trials([params], folds, seed=3, objective="ibs")
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


class TestObjectiveMemo:
    """Trials whose (epsilon, alpha) give a fold the same proximity sets
    share one scored objective."""

    def test_trace_equals_scoring_every_trial_afresh(self):
        train = small_train(seed=9)
        space = SearchSpace(trials=12, seed=5, epsilon_range=(1e-3, 0.9), l_fraction_choices=(0.4, 0.6))
        _, trace = random_search(space, train, inner_folds=2, roster=ROSTER)
        folds = kfold_split(train, 2, derive_seed(space.seed, 0))
        for result in trace:
            [fold_values] = _score_trials([result.params], folds, space.seed, space.objective)
            value = evaluate_params(result.params, train, 2, space.objective, space.seed)
            assert np.array(result.fold_values).tobytes() == np.array(fold_values).tobytes()
            assert np.float64(result.objective_value).tobytes() == np.float64(value).tobytes()

    def test_each_distinct_member_mask_is_scored_once(self, monkeypatch):
        train = small_train(seed=10)
        # most log-uniform draws on (1e-300, 0.9) select the same sets
        space = SearchSpace(trials=16, seed=3, l_fraction_choices=(0.5,))
        calls = []
        score = tuning._fold_objective

        def counted(prepared, params, objective):
            calls.append(params)
            return score(prepared, params, objective)

        monkeypatch.setattr(tuning, "_fold_objective", counted)
        random_search(space, train, inner_folds=2, roster=ROSTER)

        # the distinct masks, from the definition on unsorted distances; an
        # empty or a full mask is the same objective at every consensus count
        folds = kfold_split(train, 2, derive_seed(space.seed, 0))
        draws = draw_trials(space, ROSTER)
        stack_seed = derive_seed(space.seed, 1, int(round(0.5 * 1e9)))
        distinct = set()
        for i, (fold_train, fold_val) in enumerate(folds):
            model = fit_cobra(fold_train, draws[0], stack_seed)
            distances = model.stack.query_distances(fold_val.x)
            for params in draws:
                need = params.consensus_count
                mask = (distances <= params.epsilon).sum(axis=0) >= need
                trivial = not mask.any() or mask.all()
                distinct.add((i, None if trivial else need, mask.tobytes()))
        assert len(calls) == len(distinct) < space.trials * len(folds)

    def test_equal_counts_at_other_consensus_counts_are_kept_apart(self, monkeypatch):
        # few distinct distances, so the count within epsilon often matches
        # across consensus counts while the member masks differ; the stand-in
        # objective encodes the mask, and an empty or full mask counts once
        def mask_of(prepared, params):
            return (prepared.distances <= params.epsilon).sum(axis=0) >= params.consensus_count

        def code(mask):
            return float(mask.ravel() @ (2 ** np.arange(mask.size)))

        calls = []
        monkeypatch.setattr(
            tuning,
            "_fold_objective",
            lambda prepared, params, objective: calls.append(params) or code(mask_of(prepared, params)),
        )
        roster = ROSTER + (LearnerSpec("cox_ridge", {"penalty": 1.0}),)
        rng = np.random.default_rng(0)
        for _ in range(50):
            distances = np.sort(rng.choice([0.0, 0.1, 0.2, 0.3], size=(3, 2, 3)), axis=0)
            prepared = tuning._PreparedFold(distances, None, None, None, None)
            cache, distinct = {}, set()
            calls.clear()
            for _ in range(10):
                epsilon = float(rng.choice([0.05, 0.1, 0.15, 0.2, 0.25, 0.35]))
                params = CobraParams(epsilon, float(rng.choice([0.2, 0.6, 1.0])), 0.5, roster)
                mask = mask_of(prepared, params)
                trivial = not mask.any() or mask.all()
                distinct.add((None if trivial else params.consensus_count, mask.tobytes()))
                assert tuning._scored_objective(prepared, params, "ibs", cache) == code(mask)
            assert len(calls) == len(distinct)

    def test_failing_objective_replays_its_message_on_a_hit(self, monkeypatch):
        train = small_train(seed=11)
        calls = []

        def failing(prepared, params, objective):
            calls.append(params)
            raise ValueError(f"objective failed on call {len(calls)}")

        monkeypatch.setattr(tuning, "_fold_objective", failing)
        # one consensus count, and every epsilon below every nonzero distance
        space = SearchSpace(
            trials=5, seed=3, epsilon_range=(1e-300, 1e-200), alpha_choices=(1.0,), l_fraction_choices=(0.5,)
        )
        with pytest.raises(TuningError) as err:
            random_search(space, train, inner_folds=2, roster=ROSTER)
        assert len(calls) == 1
        assert [t.error for t in err.value.trace] == ["objective failed on call 1"] * space.trials


def _outcome(search, *args):
    try:
        return search(*args)
    except TuningError as exc:
        return exc


def assert_matches_reference(space, train, inner_folds, roster):
    """`random_search` and the trial-by-trial reference agree bit for bit:
    every trace entry, the best trial, or the `TuningError` message."""
    got = _outcome(random_search, space, train, inner_folds, roster)
    want = _outcome(reference_random_search, space, train, inner_folds, roster)
    assert type(got) is type(want)
    if isinstance(want, TuningError):
        assert str(got) == str(want)
        trace, want_trace = got.trace, want.trace
    else:
        (best, trace), (want_best, want_trace) = got, want
        assert best.trial_index == want_best.trial_index
    assert len(trace) == len(want_trace) == space.trials
    for a, b in zip(trace, want_trace):
        assert (a.trial_index, a.params, a.error) == (b.trial_index, b.params, b.error)
        assert np.array(a.fold_values).tobytes() == np.array(b.fold_values).tobytes()
        assert np.float64(a.objective_value).tobytes() == np.float64(b.objective_value).tobytes()
    return trace


def _fold_index(folds, part, array):
    """Which fold's training (part 0) or validation (part 1) part holds `array`."""
    return next(i for i, fold in enumerate(folds) if np.array_equal(fold[part].time, array))


class TestFoldByFold:
    """Scoring each l_fraction group fold by fold gives the trace of scoring
    trial by trial, failures included."""

    SPACE = dict(trials=10, epsilon_range=(1e-3, 0.9), l_fraction_choices=(0.3, 0.5, 0.7))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_equals_the_trial_by_trial_reference(self, seed):
        objective = tuning.OBJECTIVES[seed % 2]
        space = SearchSpace(seed=seed, objective=objective, **self.SPACE)
        assert_matches_reference(space, small_train(seed=20 + seed, n=120), 3, ROSTER)

    def test_each_fold_is_prepared_once_and_scored_as_often(self, monkeypatch):
        counts = Counter()

        def counted(name):
            original = getattr(tuning, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(tuning, name, wrapper)

        space, train = SearchSpace(seed=4, **self.SPACE), small_train(seed=24, n=120)
        for name in ("_fit_stack", "_fold_objective", "_prepare_fold"):
            counted(name)
        reference_random_search(space, train, 3, ROSTER)
        want = dict(counts)
        counts.clear()
        random_search(space, train, 3, ROSTER)
        assert "_prepare_fold" not in want
        assert counts["_prepare_fold"] == counts["_fit_stack"] == want["_fit_stack"]
        assert counts["_fold_objective"] == want["_fold_objective"]

    def test_an_objective_failing_on_a_later_fold(self, monkeypatch):
        space, train = SearchSpace(seed=5, **self.SPACE), small_train(seed=25, n=120)
        folds = tuning._inner_folds(train, 3, space.seed)
        score = tuning._fold_objective

        def failing(prepared, params, objective):
            fold = _fold_index(folds, 1, prepared.val_times)
            if fold > 0 and params.alpha < 0.7:
                raise ValueError(f"objective failed on fold {fold} at alpha {params.alpha}")
            return score(prepared, params, objective)

        monkeypatch.setattr(tuning, "_fold_objective", failing)
        trace = assert_matches_reference(space, train, 3, ROSTER)
        assert 0 < sum(t.failed for t in trace) < space.trials
        assert {t.error for t in trace if t.failed} <= {
            f"objective failed on fold 1 at alpha {a}" for a in space.alpha_choices
        }

    def test_a_fold_whose_preparation_fails(self, monkeypatch):
        space, train = SearchSpace(seed=6, **self.SPACE), small_train(seed=26, n=120)
        folds = tuning._inner_folds(train, 3, space.seed)
        fit_stack = tuning._fit_stack

        def failing(fold_train, roster, l_fraction, seed):
            fold = _fold_index(folds, 0, fold_train.time)
            if (fold, l_fraction) == (2, 0.5):
                raise ConvergenceError("step halving exhausted", learner="cox_ridge")
            if (fold, l_fraction) == (1, 0.3):
                raise ValueError("calibration part without events")
            return fit_stack(fold_train, roster, l_fraction, seed)

        monkeypatch.setattr(tuning, "_fit_stack", failing)
        trace = assert_matches_reference(space, train, 3, ROSTER)
        errors = {t.params.l_fraction: t.error for t in trace}
        assert errors == {
            0.3: "calibration part without events",
            0.5: "cox_ridge: step halving exhausted",
            0.7: None,
        }

    def test_every_trial_failing_names_the_same_causes(self, monkeypatch):
        space, train = SearchSpace(seed=7, **self.SPACE), small_train(seed=27, n=120)
        folds = tuning._inner_folds(train, 3, space.seed)
        fit_stack = tuning._fit_stack

        def failing_fit(fold_train, roster, l_fraction, seed):
            if l_fraction == 0.7 and _fold_index(folds, 0, fold_train.time) == 1:
                raise ConvergenceError("ridge solver did not converge", learner="cox_ridge")
            return fit_stack(fold_train, roster, l_fraction, seed)

        def failing_objective(prepared, params, objective):
            fold = _fold_index(folds, 1, prepared.val_times)
            if fold == 2 or params.alpha < 0.5:
                raise ValueError(f"objective failed on fold {fold} at alpha {params.alpha}")
            return 0.0

        monkeypatch.setattr(tuning, "_fit_stack", failing_fit)
        monkeypatch.setattr(tuning, "_fold_objective", failing_objective)
        trace = assert_matches_reference(space, train, 3, ROSTER)
        assert all(t.failed for t in trace)
        assert len({t.error for t in trace}) > 2


def test_search_holds_one_prepared_fold_at_a_time():
    # one l_fraction and three inner folds: a search that kept every
    # prepared fold of the group alive would hold three distance tensors
    train = generate_synthetic(SyntheticConfig(n=600, censor_fraction=0.3, dim=4, seed=3))
    roster = (LearnerSpec("cox_ridge", {"penalty": 1.0}), LearnerSpec("survival_tree", {"max_depth": 3}))
    space = SearchSpace(trials=4, seed=2, l_fraction_choices=(0.9,))
    folds = tuning._inner_folds(train, 3, space.seed)
    tensor = tuning._prepare_fold(folds, 0, roster, 0.9, space.seed).distances.nbytes
    tracemalloc.start()
    try:
        random_search(space, train, 3, roster)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * tensor, peak / tensor


def test_a_failed_trial_does_not_keep_its_fold_alive(monkeypatch):
    # a failed trial keeps its exception until the search ends, but not
    # the prepared fold that the exception was raised on
    refs, alive = [], []
    prepare, score = tuning._prepare_fold, tuning._fold_objective

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in refs))
        prepared = prepare(*args)
        refs.append(weakref.ref(prepared))
        return prepared

    def failing(prepared, params, objective):
        if params.alpha < 0.5:
            raise ValueError("objective failed")
        return score(prepared, params, objective)

    monkeypatch.setattr(tuning, "_prepare_fold", tracked)
    monkeypatch.setattr(tuning, "_fold_objective", failing)
    space = SearchSpace(trials=8, seed=3, l_fraction_choices=(0.5,))
    _, trace = random_search(space, small_train(seed=12, n=120), 3, ROSTER)
    assert 0 < sum(t.failed for t in trace) < space.trials
    assert alive == [0, 0, 0]


def test_evaluate_params_names_an_event_free_inner_split():
    # two events in 30 rows: three inner folds leave a part without any
    rng = np.random.default_rng(0)
    events = (np.arange(30) < 2).astype(int)
    data = SurvivalDataset(rng.uniform(size=(30, 2)), rng.uniform(0.1, 5.0, 30), events, ["a", "b"])
    pattern = r"tuning inner 3-fold split: fold [123] of 3, (test|training) part: a dataset needs at least one observed event"
    with pytest.raises(ValueError, match=pattern):
        evaluate_params(CobraParams(0.1, 0.5, 0.5, ROSTER), data, inner_folds=3)


@pytest.fixture(scope="module")
def tune_folds():
    """The prepared folds of the `tune` benchmark's data at seed 1 (400
    records, nine covariates, three inner folds) at l_fraction 0.5."""
    data = generate_synthetic(SyntheticConfig(n=400, censor_fraction=0.4, dim=9, seed=derive_seed(1, 0)))
    roster = (
        LearnerSpec("survival_tree", {}),
        LearnerSpec("cox_ridge", {"penalty": 1.0}),
        LearnerSpec("knn_survival", {}),
    )
    seed = derive_seed(1, 3)
    folds = tuning._inner_folds(data, 3, seed)
    return roster, [tuning._prepare_fold(folds, i, roster, 0.5, seed) for i in range(3)]


def test_fold_objective_matches_the_reference_chain_bitwise(tune_folds):
    roster, prepared_folds = tune_folds
    cases = 0
    for prepared in prepared_folds:
        km_times, km_values = reference_product_limit(prepared.d_l.time, prepared.d_l.event)
        assert same_bits(prepared.pop_km.times, km_times) and same_bits(prepared.pop_km.values, km_values)
        for alpha in (0.2, 0.6, 1.0):
            order = prepared.distances[CobraParams(0.1, alpha, 0.5, roster).consensus_count - 1]
            for epsilon in (1e-300, *np.quantile(order[order > 0.0], [0.001, 0.02, 0.1, 0.5]), 10.0):
                params = CobraParams(float(epsilon), alpha, 0.5, roster)
                args = (prepared.d_l, prepared.pop_km, prepared.distances, params.epsilon, params.consensus_count)
                curves, want = _aggregate(*args), reference_aggregate(*args)
                assert [c is prepared.pop_km for c in curves] == [c is prepared.pop_km for c in want]
                assert same_bits(
                    _survival_matrix(*args, prepared.val_times),
                    reference_survival_rows(want, prepared.pop_km, prepared.val_times),
                )
                for objective in tuning.OBJECTIVES:
                    got = tuning._fold_objective(prepared, params, objective)
                    assert same_bits(got, reference_fold_objective(prepared, params, objective))
                cases += 1
    assert cases == 3 * 3 * 6
