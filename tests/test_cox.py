import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcobra.curves import evaluate
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic, kfold_split
from survcobra.exceptions import ConvergenceError
from survcobra.learners import fit_cox
from survcobra.learners import cox
from survcobra.seeds import derive_seed
import helpers
from helpers import (
    breslow_baseline,
    cox_gradient,
    cox_log_partial_likelihood,
    nelson_aalen,
    random_dataset,
    same_bits,
    slow_curvature,
    slow_cv_penalty,
)


def fd_gradient(x, times, events, beta, h=1e-5):
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        up, down = beta.copy(), beta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (
            cox_log_partial_likelihood(x, times, events, up)
            - cox_log_partial_likelihood(x, times, events, down)
        ) / (2 * h)
    return grad


def two_group_data(rng, n, hazard_ratio=np.e):
    """Exponential two-sample data: group 1 hazard = hazard_ratio * group 0."""
    group = (rng.uniform(size=n) < 0.5).astype(float)
    rate = np.where(group == 1.0, hazard_ratio, 1.0)
    times = rng.exponential(1.0 / rate)
    times = np.maximum(times, 1e-9)
    return SurvivalDataset(group[:, None], times, np.ones(n, dtype=int), ["g"])


def risk_set_score(x, times, events, b):
    """The one-covariate partial-likelihood score at `b`, each event's term
    summed over its explicit risk set (quadratic in the record count)."""
    flat = x[:, 0]
    total = 0.0
    for i in range(len(times)):
        if events[i] != 1:
            continue
        at_risk = times >= times[i]
        w = np.exp(b * flat[at_risk])
        total += flat[i] - float((w * flat[at_risk]).sum() / w.sum())
    return total


def two_group_score(x, times, events):
    """`risk_set_score` of a 0/1 covariate as a function of b, from counts.

    One stable sort and a suffix count of the covariate give each event's
    group-1 and group-0 counts at risk, n1 and n0, so that
    score(b) = sum over events of g_i - e^b n1_i / (n0_i + e^b n1_i).
    """
    flat = x[:, 0]
    assert np.isin(flat, (0.0, 1.0)).all(), "the count form needs a 0/1 covariate"
    order = np.argsort(times, kind="stable")
    ones_from = np.append(np.cumsum(flat[order][::-1])[::-1], 0.0)  # group-1 count from each position on
    is_event = np.asarray(events) == 1
    first = np.searchsorted(times[order], times[is_event], side="left")  # first record at risk
    n1 = ones_from[first]
    n0 = (len(times) - first) - n1
    g = flat[is_event]

    def score(b):
        eb = np.exp(b)
        return float(np.sum(g - eb * n1 / (n0 + eb * n1)))

    return score


def two_group_score_root(x, times, events):
    """Bisection root of the one-covariate partial-likelihood score,
    computed from risk-set counts."""
    score = two_group_score(x, times, events)
    lo, hi = -5.0, 5.0
    assert score(lo) > 0 > score(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if score(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed", range(4))
def test_two_group_score_counts_match_the_risk_set_loop(seed):
    """The count form of the score oracle against its definition, with
    tied times and censored records."""
    rng = np.random.default_rng(seed)
    ds = two_group_data(rng, 200)
    times = np.ceil(ds.time * 10.0) / 10.0  # one decimal: many ties
    events = (rng.uniform(size=200) < 0.7).astype(int)
    score = two_group_score(ds.x, times, events)
    for b in (-4.0, -1.0, 0.0, 0.5, 1.0, 3.0):
        assert score(b) == pytest.approx(risk_set_score(ds.x, times, events, b), rel=1e-12, abs=1e-9)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(5, 31))
            p = int(rng.integers(1, 6))
            ds = random_dataset(rng, n, p)
            beta = rng.normal(scale=0.5, size=p)
            analytic = cox_gradient(ds.x, ds.time, ds.event, beta)
            numeric = fd_gradient(ds.x, ds.time, ds.event, beta)
            assert np.max(np.abs(analytic - numeric)) < 1e-6


def tied_sample(rng, n, p):
    """Standard-normal covariates with integer times, so most event times are tied."""
    x = rng.normal(size=(n, p))
    times = rng.integers(1, max(2, n // 4), size=n).astype(float)
    events = (rng.uniform(size=n) < 0.6).astype(float)
    events[0] = 1.0
    return x, times, events


class TestCurvature:
    @pytest.mark.parametrize("p", [1, 3, 9])
    @pytest.mark.parametrize("scale", [0.3, 8.0])  # 8.0: |beta . x| in the tens
    def test_matches_slow_oracle(self, p, scale):
        rng = np.random.default_rng(p)
        for _ in range(5):
            x, times, events = tied_sample(rng, int(rng.integers(2, 80)), p)
            beta = rng.normal(scale=scale, size=p)
            got = cox._PartialLikelihood(x, times, events).gradient_and_curvature(beta)[1]
            want = slow_curvature(x, times, events, beta)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_row_blocks_carry_the_suffix_sum(self):
        rng = np.random.default_rng(2)
        x, times, events = tied_sample(rng, 60, 3)
        beta = rng.normal(size=3)
        pl = cox._PartialLikelihood(x, times, events)
        whole = pl.gradient_and_curvature(beta)[1]
        for rows in (1, 7):
            with mock.patch.object(cox, "_CURVATURE_BUDGET_BYTES", rows * 8 * 3 * 3):
                assert np.allclose(pl.gradient_and_curvature(beta)[1], whole, rtol=1e-13, atol=0.0)

    def test_matches_central_difference_of_gradient(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for p in (1, 3, 9):
            x, times, events = tied_sample(rng, 50, p)
            beta = rng.normal(scale=0.5, size=p)
            curvature = cox._PartialLikelihood(x, times, events).gradient_and_curvature(beta)[1]
            for j in range(p):
                step = np.eye(p)[j] * h
                up = cox_gradient(x, times, events, beta + step)
                down = cox_gradient(x, times, events, beta - step)
                numeric = -(up - down) / (2 * h)
                assert np.allclose(curvature[:, j], numeric, rtol=1e-5, atol=1e-6)


class TestRidge:
    def test_huge_penalty_kills_coefficients(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 60, 3)
        model = fit_cox(ds, "ridge", penalty=1e6)
        assert np.linalg.norm(model.beta_standardized) < 1e-3

    def test_monotone_ascent(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            ds = random_dataset(np.random.default_rng(seed), 50, 3)
            model = fit_cox(ds, "ridge", penalty=0.1)
            trace = np.asarray(model.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_independent_covariate_shrinks_to_zero(self):
        # simulation oracle: the mean fitted coefficient of a noise covariate
        # stays within 3 standard errors of zero
        estimates = []
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            n = 120
            signal = rng.uniform(size=n)
            noise = rng.uniform(size=n)
            times = np.maximum(rng.exponential(1.0 / np.exp(signal)), 1e-9)
            ds = SurvivalDataset(
                np.column_stack([signal, noise]), times, np.ones(n, dtype=int), ["s", "n"]
            )
            estimates.append(fit_cox(ds, "ridge", penalty=1e-6).beta[1])
        estimates = np.asarray(estimates)
        stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean()) < 3 * stderr

    def test_unpenalized_fit_on_perfectly_ordered_times_raises(self):
        # the covariate orders the times perfectly, so the partial likelihood
        # has no maximum; step halving shrinks the Newton steps towards zero
        # long before the gradient vanishes
        rng = np.random.default_rng(0)
        covariate = [float(f"{c:.6f}") for c in np.sort(rng.uniform(size=60))]
        data = SurvivalDataset(np.c_[covariate], np.arange(1.0, 61.0), np.ones(60, dtype=int), ["x"])
        for train, _ in kfold_split(data, 2, derive_seed(1, 1)):
            with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
                fit_cox(train, "ridge", penalty=0)


class TestLasso:
    def test_agrees_with_ridge_at_zero_penalty(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            ds = random_dataset(np.random.default_rng(seed + 50), 60, 3)
            ridge = fit_cox(ds, "ridge", penalty=0.0)
            lasso = fit_cox(ds, "lasso", penalty=0.0)
            assert np.max(np.abs(ridge.beta_standardized - lasso.beta_standardized)) < 1e-4

    def test_two_group_log_hazard_ratio_recovery(self):
        rng = np.random.default_rng(29)
        ds = two_group_data(rng, 5000)
        model = fit_cox(ds, "lasso", penalty=1e-8)
        root = two_group_score_root(ds.x, ds.time, ds.event)
        assert abs(model.beta[0] - root) < 1e-3  # optimizer finds the score root
        assert abs(root - 1.0) < 0.1  # and the root recovers the truth
        assert abs(model.beta[0] - 1.0) < 0.1

    def test_support_shrinks_along_the_path(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 80, 5)
        nonzeros = []
        for lam in [0.0, 0.5, 2.0, 8.0, 32.0, 128.0]:
            model = fit_cox(ds, "lasso", penalty=lam)
            nonzeros.append(int(np.sum(np.abs(model.beta_standardized) > 1e-10)))
        assert all(a >= b for a, b in zip(nonzeros, nonzeros[1:]))

    def test_monotone_ascent(self):
        for seed in range(5):
            ds = random_dataset(np.random.default_rng(seed + 200), 50, 4)
            model = fit_cox(ds, "lasso", penalty=0.3)
            trace = np.asarray(model.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9)


class TestBaselineAndPrediction:
    def test_zero_beta_baseline_equals_nelson_aalen(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 40, 2)
        model = fit_cox(ds, "ridge", penalty=1e12)  # beta effectively zero
        na_times, na = nelson_aalen(ds.time, ds.event)
        assert np.array_equal(model.baseline_times, na_times)
        assert np.allclose(model.baseline_cumhaz, na, atol=1e-9)

    def test_single_record_baseline_jump(self):
        ds = SurvivalDataset([[0.7]], [2.0], [1], ["x"])
        model = fit_cox(ds, "ridge", penalty=1.0)
        assert np.array_equal(model.baseline_times, [2.0])
        # the lone record sits at the feature mean, so its weight is exp(0)
        assert model.baseline_cumhaz[0] == pytest.approx(1.0)

    def test_prediction_at_feature_means_is_baseline_survival(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 50, 3)
        model = fit_cox(ds, "ridge", penalty=0.5)
        curve = model.predict_curve(model.feature_means)
        assert np.allclose(curve.values, np.exp(-model.baseline_cumhaz))

    def test_non_finite_breslow_baseline_refused(self):
        # every weight exp(beta . x) underflows to 0, so each jump d / 0 is inf
        pl = cox._PartialLikelihood(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with np.errstate(divide="ignore", under="ignore"), pytest.raises(ValueError) as err:
            pl.breslow(np.array([-1000.0]))
        assert str(err.value) == "curve times and values must be finite"

    def test_breslow_recompute_matches_fit(self):
        rng = np.random.default_rng(33)
        ds = random_dataset(rng, 45, 2)
        model = fit_cox(ds, "ridge", penalty=0.2)
        times, cumhaz = breslow_baseline(model, ds)
        assert np.array_equal(times, model.baseline_times) and np.array_equal(cumhaz, model.baseline_cumhaz)

    def test_predict_values_matches_predict_curve(self):
        # at p = 9 a matrix-vector product and a one-row dot product round
        # differently, so batch and single rows must share one summation
        grid = np.linspace(0.0, 4.0, 9)
        for seed, n, p in ((35, 40, 3), (35, 60, 9), (36, 60, 9), (37, 60, 9)):
            rng = np.random.default_rng(seed)
            ds = random_dataset(rng, n, p)
            queries = rng.uniform(size=(30, p))
            for kind, penalty in (("ridge", 1.0), ("lasso", 0.1)):
                model = fit_cox(ds, kind, penalty=penalty)
                batch = model.predict_values(queries, grid)
                for i, q in enumerate(queries):
                    assert np.array_equal(batch[i], evaluate(model.predict_curve(q), grid))

    def test_overflowing_risk_survives_exactly_before_the_first_jump(self):
        ds = generate_synthetic(SyntheticConfig(n=60, censor_fraction=0.3, dim=4, seed=1))
        train = SurvivalDataset(ds.x[:40, :2], ds.time[:40], ds.event[:40], ds.feature_names[:2])
        model = fit_cox(train, "ridge", penalty=1.0)
        jumps = model.baseline_times
        with np.errstate(over="ignore"):  # the risk exp(beta . z) overflows to inf
            values = model.predict_values([[-1e300, -1e300]], [jumps[0] / 2, jumps[0], jumps[-1]])
        assert values.tolist() == [[1.0, 0.0, 0.0]]

    def test_nan_linear_predictor_names_the_learner_and_row(self):
        ds = generate_synthetic(SyntheticConfig(n=60, censor_fraction=0.3, dim=4, seed=1))
        train = SurvivalDataset(ds.x[:40, :2], ds.time[:40], ds.event[:40], ds.feature_names[:2])
        model = fit_cox(train, "ridge", penalty=1.0)
        # finite covariates whose standardized terms overflow to +inf and -inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as err:
            model.predict_values([[0.5, 0.5], [1e308, -1e308]], [0.5, 1.0, 3.0])
        assert str(err.value) == "cox_ridge: row 1: the linear predictor is NaN"

    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    def test_overflowing_query_rows_get_their_limits_without_a_warning(self, kind):
        ds = generate_synthetic(SyntheticConfig(n=60, censor_fraction=0.3, dim=4, seed=1))
        model = fit_cox(ds.subset(np.arange(40)), kind, penalty=1.0)
        queries = ds.x[40:44].copy()
        queries[2, 0] = -1e300  # the risk exp(beta . z) overflows, or underflows to 0
        queries[3, 0] = 1e308  # the standardized term overflows
        jumps = model.baseline_times
        grid = [jumps[0] / 2, jumps[0], jumps[-1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = model.predict_values(queries, grid)
        assert values[:2].tobytes() == model.predict_values(queries[:2], grid).tobytes()
        for row in values[2:].tolist():
            assert row in ([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(37)
        model = fit_cox(random_dataset(rng, 30, 2), "ridge", penalty=1.0)
        with pytest.raises(ValueError, match="shape"):
            model.predict_curve([1.0, 2.0, 3.0])


class TestOverflowingColumn:
    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    @pytest.mark.parametrize("penalty", [1.0, None])
    @pytest.mark.parametrize("column", [np.full(40, 1e308), np.tile([1e200, -1e200], 20)])
    def test_refused_at_fit_by_name(self, kind, penalty, column):
        # a mean of 1e308s, or a spread of +-1e200s, overflows to infinity: a
        # data fault named by learner and column, not a solver failure
        ds = generate_synthetic(SyntheticConfig(n=60, censor_fraction=0.3, dim=4, seed=1))
        x = ds.x[:40].copy()
        x[:, 2] = column
        overflowing = SurvivalDataset(x, ds.time[:40], ds.event[:40], ds.feature_names)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^cox_{kind}: column 'x2': its mean or sd overflows$"):
                fit_cox(overflowing, kind, penalty=penalty)


class TestPenaltyCV:
    def test_default_penalty_is_selected_and_fits(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, 90, 3)
        model = fit_cox(ds, "ridge")
        assert model.penalty > 0.0
        assert model.n_features == 3


def cv_sample(seed, n, p, censor):
    """Proportional-hazards data on a coarse time grid (many tied times)
    with about `censor` of the records censored."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
    beta = rng.normal(size=p) * (rng.uniform(size=p) < 0.6) / x.std(axis=0)
    times = np.ceil(rng.exponential(np.exp(-(x @ beta))) * 5.0) / 5.0 + 0.2
    events = (rng.uniform(size=n) >= censor).astype(int)
    events[0] = 1
    return SurvivalDataset(x, times, events, [f"v{j}" for j in range(p)])


def cv_penalty(data, kind, folds, seed):
    """`cox._cv_penalty` with the likelihood `fit_cox` builds on all of
    `data` and hands to it."""
    full = cox._PartialLikelihood(*cox._standardized(data, kind)[:3])
    return cox._cv_penalty(data, full, kind, folds, seed)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    p=st.integers(1, 3),
    span=st.integers(1, 8),
    event_rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    tail=st.integers(0, 3),
)
def test_property_risk_sets_and_baselines_match_the_references(seed, n, p, span, event_rate, tail):
    # integer times: tied event times, records censored at an event time,
    # `tail` records censored after every event, and (rate 0) one event
    rng = np.random.default_rng(seed)
    times = np.concatenate([rng.integers(1, span + 1, size=n), np.full(tail, span + 1)]).astype(float)
    events = np.concatenate([rng.uniform(size=n) < event_rate, np.zeros(tail, dtype=bool)]).astype(float)
    events[int(rng.integers(n))] = 1.0
    x = rng.normal(size=(n + tail, p))
    pl = cox._PartialLikelihood(x, times, events)
    _, ys, es, u, d, pos = helpers.reference_risk_structure(times, events)
    for got, want in ((pl.ys, ys), (pl.es, es), (pl.u, u), (pl.d, d), (pl.pos, pos)):
        assert same_bits(got, want)
    beta = rng.normal(size=p)
    assert same_bits(pl.breslow(beta), helpers.reference_breslow_from_arrays(beta, x, times, events)[1])
    data = SurvivalDataset(x, times, events.astype(int), [f"x{j}" for j in range(p)])
    for kind, penalty in (("ridge", 1.0), ("lasso", 0.1), ("ridge", None), ("lasso", None)):
        try:
            model = fit_cox(data, kind, penalty)
        except (ConvergenceError, ValueError):  # too few records or events to fit or split
            continue
        z = (x - model.feature_means) / model.feature_sds
        want = helpers.reference_breslow_from_arrays(model.beta_standardized, z, times, events)
        for got in ((model.baseline_times, model.baseline_cumhaz), breslow_baseline(model, data)):
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("kind", ["ridge", "lasso"])
def test_cv_fit_builds_one_full_sample_likelihood(kind):
    # the full sample's likelihood anchors the penalty grid, fits at the
    # chosen penalty and gives the Breslow baseline
    ds = cv_sample(11, 120, 4, 0.5)
    sizes = []

    class Counting(cox._PartialLikelihood):
        def __init__(self, x, times, events):
            sizes.append(len(times))
            super().__init__(x, times, events)

    with mock.patch.object(cox, "_PartialLikelihood", Counting):
        fit_cox(ds, kind)
    assert sizes.count(ds.n) == 1
    assert len(sizes) == 1 + 2 * 3  # and each fold's training and held-out parts


# (seed, n, p, censored share); the chosen grid index runs from 0 to 5
CV_CASES = [
    (1, 60, 3, 0.7),
    (2, 60, 5, 0.2),
    (3, 80, 4, 0.5),
    (4, 100, 2, 0.7),
    (5, 120, 6, 0.4),
    (6, 150, 3, 0.3),
    (7, 200, 5, 0.6),
    (8, 90, 9, 0.5),
]


class TestPenaltyPath:
    """The warm-started CV path chooses exactly the penalty of the cold loop,
    and the final fit stays the cold fit at that penalty."""

    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    def test_chooses_the_cold_loop_penalty(self, kind):
        for seed, n, p, censor in CV_CASES:
            ds = cv_sample(seed, n, p, censor)
            assert cv_penalty(ds, kind, 3, seed) == slow_cv_penalty(ds, kind, 3, seed)

    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    def test_default_fit_is_the_cold_fit_at_the_chosen_penalty(self, kind):
        ds = cv_sample(11, 120, 4, 0.5)
        chosen = fit_cox(ds, kind)
        cold = fit_cox(ds, kind, penalty=chosen.penalty)
        assert np.array_equal(chosen.beta_standardized, cold.beta_standardized)
        assert np.array_equal(chosen.beta, cold.beta)
        assert np.array_equal(chosen.baseline_times, cold.baseline_times)
        assert np.array_equal(chosen.baseline_cumhaz, cold.baseline_cumhaz)
        assert chosen.objective_trace == cold.objective_trace

    def test_solver_iterates_are_pinned(self):
        # literals from the zero-start solvers with numpy-scalar coordinate
        # sweeps; the solver loops must reproduce them bit for bit
        rng = np.random.default_rng(909)
        x = rng.normal(size=(70, 3))
        times = rng.integers(1, 25, size=70).astype(float)
        events = (rng.uniform(size=70) < 0.6).astype(int)
        ds = SurvivalDataset(x, times, events, ["a", "b", "c"])
        ridge = fit_cox(ds, "ridge", penalty=0.5)
        assert ridge.beta_standardized.tolist() == [
            0.16047611362117314, 0.03825877298869943, 0.08707073223971809
        ]
        assert ridge.objective_trace == (
            -135.3506350777629, -134.73870883591135, -134.7384194966326,
            -134.73841949652297, -134.73841949652288,
        )
        lasso = fit_cox(ds, "lasso", penalty=2.0)
        assert lasso.beta_standardized.tolist() == [0.10058122643551007, 0.0, 0.02002960572489711]
        assert lasso.objective_trace == (
            -135.3506350777629, -135.11476637487556, -135.1145090010885,
            -135.1145087438184, -135.11450874354892, -135.11450874354864,
            -135.1145087435486,
        )

    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    def test_each_fold_starts_from_its_fit_at_the_last_penalty_that_fitted(self, kind):
        # the second fold fails at the third penalty, so the whole penalty
        # fails and the fourth starts from the second's fits
        name = "_newton_ridge" if kind == "ridge" else "_coordinate_descent_lasso"
        solver = getattr(cox, name)
        calls, fits = [], {}

        def spy(pl, lam, start=None):
            calls.append((pl, lam, start))
            if len(calls) == 8:
                raise ConvergenceError("injected")
            fits[id(pl), lam] = solver(pl, lam, start)[0]
            return fits[id(pl), lam], ()

        with mock.patch.object(cox, name, spy):
            cv_penalty(cv_sample(5, 120, 6, 0.4), kind, 3, 5)
        failed = calls[7][1]
        assert len(calls) == 29 and len({lam for _, lam, _ in calls}) == 10
        for pl, lam, start in calls:
            fitted = [other for _, other, _ in calls if other > lam and other != failed]
            if fitted:
                assert start is fits[id(pl), min(fitted)]
            else:
                assert start is None

    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    def test_warm_start_reaches_the_cold_optimum(self, kind):
        ds = cv_sample(12, 100, 4, 0.4)
        z, times, events, _, _ = cox._standardized(ds, kind)
        pl = cox._PartialLikelihood(z, times, events)
        solve = cox._newton_ridge if kind == "ridge" else cox._coordinate_descent_lasso
        cold, _ = solve(pl, 1.0)
        warm, trace = solve(pl, 1.0, solve(pl, 4.0)[0])
        assert np.all(np.diff(trace) >= -1e-9)
        assert np.max(np.abs(warm - cold)) < 1e-5


def _fold(x, times, events):
    """A CV part as the plain arrays the likelihoods read; a
    `SurvivalDataset` cannot hold a part without events."""
    names = tuple(f"v{j}" for j in range(x.shape[1]))
    return SimpleNamespace(x=x, time=times, event=np.asarray(events), feature_names=names)


class TestPenaltyCVEdges:
    """A CV part without events fails at every penalty, on the path as in
    the cold loop."""

    @pytest.mark.parametrize("part", ["train", "held_out"])
    @pytest.mark.parametrize("kind", ["ridge", "lasso"])
    def test_part_without_events_fails_every_penalty(self, part, kind):
        ds = cv_sample(13, 30, 2, 0.3)
        events = ds.event.copy()
        if part == "train":
            events[:20] = 0
        else:
            events[20:] = 0
        train = _fold(ds.x[:20], ds.time[:20], events[:20])
        test = _fold(ds.x[20:], ds.time[20:], events[20:])
        pairs = [(train, test)] * 3
        with mock.patch.object(cox, "kfold_split", return_value=pairs), mock.patch.object(
            helpers, "kfold_split", return_value=pairs
        ):
            with pytest.raises(ConvergenceError) as fast:
                cv_penalty(ds, kind, 3, 0)
            with pytest.raises(ConvergenceError) as slow:
                slow_cv_penalty(ds, kind, 3, 0)
        assert str(fast.value).startswith("no penalty in the CV grid produced a fit (grid max ")
        assert str(fast.value) == str(slow.value)

    def test_fold_without_events_is_rejected_by_the_split(self):
        # through `kfold_split` such a part is never built: the dataset of
        # an event-free part raises before any penalty is tried
        x = np.random.default_rng(4).normal(size=(30, 2))
        events = np.zeros(30, dtype=int)
        events[0] = 1
        ds = SurvivalDataset(x, np.arange(1.0, 31.0), events, ["a", "b"])
        with pytest.raises(ValueError, match="at least one observed event"):
            fit_cox(ds, "ridge")


def _outcome(solve, pl, lam, start=None):
    """A solver run as comparable bytes: ("fit", beta, trace) or
    ("error", message, trace)."""
    try:
        beta, trace = solve(pl, lam, None if start is None else start.copy())
    except ConvergenceError as exc:
        return "error", str(exc), np.array(exc.trace).tobytes()
    return "fit", beta.tobytes(), np.array(trace).tobytes()


class _StallingLikelihood(cox._PartialLikelihood):
    """The partial likelihood at `anchor`, and NaN anywhere else, so every
    step-halving search from `anchor` fails."""

    def __init__(self, x, times, events, anchor):
        super().__init__(x, times, events)
        self.anchor = anchor

    def value(self, beta):
        return super().value(beta) if np.array_equal(beta, self.anchor) else float("nan")


SOLVERS = [
    ("_newton_ridge", helpers.reference_newton_ridge),
    ("_coordinate_descent_lasso", helpers.reference_coordinate_descent_lasso),
]
SOLVER_KINDS = {"_newton_ridge": "ridge", "_coordinate_descent_lasso": "lasso"}


class TestSolversMatchReference:
    """Both Cox solvers give the bits of their former inline step-halving
    loops: coefficients, objective trace, and any error's text and trace."""

    @pytest.mark.parametrize("name, reference", SOLVERS)
    def test_cold_and_warm_fits_are_bitwise_equal(self, name, reference):
        solve = getattr(cox, name)
        for seed, n, p, censor in CV_CASES:
            z, times, events, _, _ = cox._standardized(cv_sample(seed, n, p, censor), SOLVER_KINDS[name])
            pl = cox._PartialLikelihood(z, times, events)
            for lam in (0.0, 0.1, 1.0, 10.0):
                cold = _outcome(solve, pl, lam)
                assert cold == _outcome(reference, pl, lam)
                warm_start = reference(pl, 4.0 * lam + 1.0)[0]
                assert _outcome(solve, pl, lam, warm_start) == _outcome(reference, pl, lam, warm_start)

    @pytest.mark.parametrize("kind, name, reference", [("ridge", *SOLVERS[0]), ("lasso", *SOLVERS[1])])
    def test_penalty_path_is_bitwise_equal(self, kind, name, reference):
        # every (penalty, fold) solve of the CV path, warm starts included
        solve, runs = getattr(cox, name), []

        def both(pl, lam, start=None):
            got = _outcome(solve, pl, lam, start)
            assert got == _outcome(reference, pl, lam, start)
            runs.append(got[0])
            return solve(pl, lam, start)

        with mock.patch.object(cox, name, both):
            for seed, n, p, censor in CV_CASES[:4]:
                cv_penalty(cv_sample(seed, n, p, censor), kind, 3, seed)
        assert runs == ["fit"] * 4 * 3 * 10

    def test_exhausted_ridge_search_raises_the_same_error(self):
        # the covariate orders the times, so the unpenalized search stalls
        rng = np.random.default_rng(0)
        covariate = [float(f"{c:.6f}") for c in np.sort(rng.uniform(size=60))]
        data = SurvivalDataset(np.c_[covariate], np.arange(1.0, 61.0), np.ones(60, dtype=int), ["x"])
        for train, _ in kfold_split(data, 2, derive_seed(1, 1)):
            pl = cox._PartialLikelihood(*cox._standardized(train, "ridge")[:3])
            with np.errstate(all="ignore"):
                got = _outcome(cox._newton_ridge, pl, 0.0)
                assert got == _outcome(helpers.reference_newton_ridge, pl, 0.0)
            assert got[:2] == ("error", "step halving exhausted")

    @pytest.mark.parametrize("name, reference", SOLVERS)
    def test_stalled_search_raises_or_stops_as_before(self, name, reference):
        # from zero every try fails and the gradient is not small: the same
        # error; from the optimum every try fails too, and the fit stops there
        z, times, events, _, _ = cox._standardized(cv_sample(3, 80, 4, 0.5), SOLVER_KINDS[name])
        solve = getattr(cox, name)
        zero = np.zeros(4)
        pl = _StallingLikelihood(z, times, events, zero)
        stalled = _outcome(solve, pl, 0.5, zero)
        assert stalled == _outcome(reference, pl, 0.5, zero)
        assert stalled[:2] == ("error", "step halving exhausted")
        optimum = solve(cox._PartialLikelihood(z, times, events), 0.5)[0]
        pl = _StallingLikelihood(z, times, events, optimum)
        stopped = _outcome(solve, pl, 0.5, optimum)
        assert stopped == _outcome(reference, pl, 0.5, optimum)
        assert stopped[:2] == ("fit", optimum.tobytes())
