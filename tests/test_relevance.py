import dataclasses
import warnings

import numpy as np
import pytest

from survcobra import cobra, relevance
from survcobra.cobra import CobraModel, CobraParams, fit_cobra
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic
from survcobra.exceptions import ConvergenceError
from survcobra.learners import LearnerSpec
from survcobra.relevance import _irls, fit_logistic, relevance_study
import helpers
from helpers import logistic_gradient, logistic_penalized_loglik, relevance_for_query


def fd_gradient(features, labels, l2, beta, h=1e-5):
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        up, down = beta.copy(), beta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (
            logistic_penalized_loglik(features, labels, l2, up)
            - logistic_penalized_loglik(features, labels, l2, down)
        ) / (2 * h)
    return grad


class TestFitLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            p = int(rng.integers(1, 5))
            x = rng.normal(size=(n, p))
            y = rng.integers(0, 2, size=n).astype(float)
            beta = rng.normal(scale=0.5, size=p + 1)
            l2 = float(rng.uniform(0.0, 1.0))
            assert np.max(
                np.abs(logistic_gradient(x, y, l2, beta) - fd_gradient(x, y, l2, beta))
            ) < 1e-6

    def test_independent_labels_give_near_zero_slopes(self):
        estimates = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(200, 1))
            y = rng.integers(0, 2, size=200).astype(float)
            estimates.append(fit_logistic(x, y, l2=1e-8)[1])
        estimates = np.asarray(estimates)
        stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean()) < 3 * stderr

    def test_symmetric_data_forces_zero_intercept(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(float)
        x_full = np.vstack([x, -x])
        y_full = np.concatenate([y, 1.0 - y])
        coef = fit_logistic(x_full, y_full, l2=1e-3)
        assert abs(coef[0]) < 1e-6

    def test_duplicated_column_shares_weight_under_ridge(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(100, 1))
        y = (base[:, 0] > 0).astype(float)
        x = np.column_stack([base, base])
        coef = fit_logistic(x, y, l2=1.0)
        assert coef[1] == pytest.approx(coef[2], abs=1e-4)

    def test_separation_without_ridge_advises_penalty(self):
        x = np.linspace(-1, 1, 20)[:, None]
        y = (x[:, 0] > 0).astype(float)
        with pytest.raises(ConvergenceError, match="l2 > 0"):
            fit_logistic(x, y, l2=0.0)

    def test_constant_labels_rejected_without_ridge(self):
        x = np.ones((5, 1))
        with pytest.raises(ValueError, match="constant"):
            fit_logistic(x, np.ones(5), l2=0.0)

    def test_row_shuffle_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 3))
        y = (x[:, 0] > 0).astype(float)
        perm = rng.permutation(80)
        a = fit_logistic(x, y, l2=0.01)
        b = fit_logistic(x[perm], y[perm], l2=0.01)
        assert np.allclose(a, b, atol=1e-8)

    def test_irls_objective_is_monotone(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = r.normal(size=(50, 3))
            y = (x @ np.array([1.0, -0.5, 0.2]) + r.normal(size=50) > 0).astype(float)
            design = np.column_stack([np.ones(50), x])
            _, trace = _irls(design, y, 0.1)
            assert np.all(np.diff(np.asarray(trace)) >= -1e-9)


def small_relevance_model(seed=0, epsilon=0.08, n=120, dim=5):
    train = generate_synthetic(SyntheticConfig(n=n, censor_fraction=0.3, dim=dim, seed=seed))
    roster = (
        LearnerSpec("knn_survival", {"k": 7}),
        LearnerSpec("cox_ridge", {"penalty": 1.0}),
    )
    params = CobraParams(epsilon=epsilon, alpha=0.5, l_fraction=0.5, roster=roster)
    return fit_cobra(train, params, seed=seed)


class TestQueryRelevance:
    def test_saturated_epsilon_is_degenerate(self):
        model = small_relevance_model(epsilon=1.5)
        out = relevance_for_query(model, np.full(5, 0.5))
        assert out.degenerate
        assert np.array_equal(out.coefficients, np.zeros(6))

    def test_informative_query_has_finite_coefficients(self):
        model = small_relevance_model(seed=2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            out = relevance_for_query(model, rng.uniform(0.01, 1.0, size=5))
            if not out.degenerate:
                assert np.all(np.isfinite(out.coefficients))
                return
        pytest.fail("no informative query found")


class TestRelevanceStudy:
    def test_identical_queries_give_identical_rows(self):
        model = small_relevance_model(seed=3)
        q = np.full(5, 0.4)
        result = relevance_study(model, np.stack([q, q, q]))
        assert np.array_equal(result.per_query[0], result.per_query[1])
        assert np.array_equal(result.per_query[0], result.per_query[2])

    def test_feature_permutation_equivariance(self):
        seed = 4
        train = generate_synthetic(SyntheticConfig(n=120, censor_fraction=0.3, dim=5, seed=seed))
        perm = np.array([2, 0, 4, 1, 3])
        permuted = SurvivalDataset(
            train.x[:, perm], train.time, train.event, [train.feature_names[i] for i in perm]
        )
        roster = (LearnerSpec("knn_survival", {"k": 7}), LearnerSpec("cox_ridge", {"penalty": 1.0}))
        params = CobraParams(epsilon=0.08, alpha=0.5, l_fraction=0.5, roster=roster)
        rng = np.random.default_rng(1)
        queries = rng.uniform(0.05, 1.0, size=(15, 5))
        a = relevance_study(fit_cobra(train, params, seed=seed), queries)
        b = relevance_study(fit_cobra(permuted, params, seed=seed), queries[:, perm])
        assert np.allclose(a.aggregate[perm], b.aggregate, atol=1e-6)

    def test_all_degenerate_fails(self):
        model = small_relevance_model(epsilon=1.5)  # saturated: labels constant
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="constant proximity labels"):
            relevance_study(model, rng.uniform(size=(5, 5)))

    def test_all_degenerate_message_says_why(self):
        queries = np.random.default_rng(2).uniform(size=(5, 5))
        tiny = small_relevance_model(epsilon=1e-300)  # no calibration record is close
        with pytest.raises(ValueError, match=r"epsilon 1e-300, consensus 1 of 2 machines\): 5 queries had no member and 0 had every"):
            relevance_study(tiny, queries)
        saturated = small_relevance_model(epsilon=1.5)
        with pytest.raises(ValueError, match="0 queries had no member and 5 had every calibration record"):
            relevance_study(saturated, queries)

    def test_ranking_orders_by_aggregate(self):
        model = small_relevance_model(seed=5)
        rng = np.random.default_rng(3)
        result = relevance_study(model, rng.uniform(0.01, 1.0, size=(20, 5)))
        ranked = result.aggregate[result.ranking()]
        assert np.all(np.diff(ranked) <= 0)

    def test_rows_equal_per_query_relevance_with_five_learners(self, monkeypatch):
        train = generate_synthetic(SyntheticConfig(n=150, censor_fraction=0.3, dim=5, seed=8))
        roster = (
            LearnerSpec("survival_tree", {"max_depth": 3, "min_leaf": 5}),
            LearnerSpec("random_survival_forest", {"n_trees": 5, "min_leaf": 5, "seed": 1}),
            LearnerSpec("cox_ridge", {"penalty": 1.0}),
            LearnerSpec("cox_lasso", {"penalty": 1.0}),
            LearnerSpec("knn_survival", {"k": 7}),
        )
        model = fit_cobra(train, CobraParams(0.05, 0.6, 0.5, roster), seed=8)
        queries = np.random.default_rng(9).uniform(0.01, 1.0, size=(12, 5))
        # three queries per chunk, so the study crosses four chunks
        per_query_bytes = len(roster) * model.split.d_l.n * 8
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", 3 * per_query_bytes)
        result = relevance_study(model, queries)
        assert result.query_count == 12
        assert not result.degenerate.all()
        for i, q in enumerate(queries):
            single = relevance_for_query(model, q)
            assert np.array_equal(result.per_query[i], single.coefficients)
            assert result.degenerate[i] == single.degenerate

    def test_overflowing_column_is_refused_by_name(self):
        # the tree fits a column of 1e308s; standardizing it for the
        # regressions overflows, which is a data fault, not an IRLS failure
        train = generate_synthetic(SyntheticConfig(n=120, censor_fraction=0.3, dim=5, seed=5))
        x = train.x.copy()
        x[:, 2] = 1e308
        roster = (LearnerSpec("survival_tree", {"max_depth": 3, "min_leaf": 5}),)
        overflowing = SurvivalDataset(x, train.time, train.event, train.feature_names)
        model = fit_cobra(overflowing, CobraParams(0.05, 1.0, 0.5, roster), seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^relevance: column 'x2': its mean or sd overflows$"):
                relevance_study(model, x[:4])

    def test_dimension_mismatch_rejected(self):
        model = small_relevance_model(seed=6)
        with pytest.raises(ValueError, match="features"):
            relevance_study(model, np.zeros((3, 4)))

    def test_empty_query_set_rejected(self):
        model = small_relevance_model(seed=6)
        with pytest.raises(ValueError, match="^the query set is empty: relevance needs at least one query$"):
            relevance_study(model, np.zeros((0, 5)))
        with pytest.raises(ValueError, match="features"):  # the columns are checked first
            relevance_study(model, np.zeros((0, 4)))


def _irls_outcome(solve, x, y, l2):
    """An IRLS run as comparable bytes: ("fit", coefficients, trace) or
    ("error", message, trace)."""
    try:
        beta, trace = solve(x, y, l2)
    except ConvergenceError as exc:
        return "error", str(exc), np.array(exc.trace).tobytes()
    return "fit", beta.tobytes(), np.array(trace).tobytes()


def _logistic_sample(seed, n=60, p=3, noise=1.0):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, p))
    y = (x @ r.normal(size=p) + noise * r.normal(size=n) > 0).astype(float)
    return np.column_stack([np.ones(n), x]), y


class TestIrlsMatchesReference:
    """The IRLS solver gives the bits of its former inline step-halving
    loop: coefficients, objective trace, and any error's text and trace."""

    def test_fits_are_bitwise_equal(self):
        for seed in range(6):
            design, y = _logistic_sample(seed)
            for l2 in (0.0, 1e-4, 0.1, 10.0):
                got = _irls_outcome(_irls, design, y, l2)
                assert got == _irls_outcome(helpers.reference_irls, design, y, l2)
                assert got[0] == "fit"

    def test_separable_labels_raise_the_same_error(self):
        design, y = _logistic_sample(1, n=40, p=2, noise=0.0)
        got = _irls_outcome(_irls, design, y, 0.0)
        assert got == _irls_outcome(helpers.reference_irls, design, y, 0.0)
        assert got[:2] == ("error", "logistic fit did not converge (labels may be separable); set l2 > 0")

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_stalled_search_stops_as_before(self, monkeypatch, l2):
        # every try away from zero is NaN: the search stops at zero, which
        # without a penalty is reported as not converged
        design, y = _logistic_sample(2)
        objective = relevance._objective

        def stalling(x, y, ridge, beta):
            return objective(x, y, ridge, beta) if not beta.any() else float("nan")

        monkeypatch.setattr(relevance, "_objective", stalling)
        monkeypatch.setattr(helpers, "_objective", stalling)
        got = _irls_outcome(_irls, design, y, l2)
        assert got == _irls_outcome(helpers.reference_irls, design, y, l2)
        zero = np.zeros(design.shape[1]).tobytes()
        assert got[:2] == (("error", "logistic fit did not converge (labels may be separable); set l2 > 0")
                           if l2 == 0.0 else ("fit", zero))
