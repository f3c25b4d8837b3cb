import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from survcobra.curves import CUMULATIVE, StepCurve, censoring_km, evaluate, kaplan_meier
from survcobra.metrics import (
    MetricReport,
    concordance_td,
    d_calibration,
    d_calibration_masses,
    integrated_brier,
)

from helpers import (
    brier_censored,
    reference_brier_from_values,
    reference_evaluate,
    reference_integrated_brier,
    same_bits,
)


def survival_array(curves, times):
    """`survival[i, k]` = curves[i] at times[k]: the array every metric reads."""
    return np.stack([evaluate(c, np.asarray(times, dtype=float)) for c in curves])


def survival_at(curves, t):
    """Each curve's value at the single time `t`, as `brier_censored` reads it."""
    return survival_array(curves, [t])[:, 0]


def constant_curve(value):
    return StepCurve([0.0], [value]) if value < 1.0 else StepCurve(np.empty(0), np.empty(0))


def slow_concordance(curves, times, events):
    num = 0.0
    den = 0
    n = len(times)
    for i in range(n):
        if events[i] != 1:
            continue
        for j in range(n):
            if j == i or not times[i] < times[j]:
                continue
            si = evaluate(curves[i], times[i])
            sj = evaluate(curves[j], times[i])
            den += 1
            if si < sj:
                num += 1.0
            elif si == sj:
                num += 0.5
    return num / den


def random_curves(rng, n):
    curves = []
    for _ in range(n):
        k = int(rng.integers(1, 6))
        jumps = np.unique(rng.uniform(0.1, 5.0, size=k))
        values = np.sort(rng.uniform(0.0, 1.0, size=jumps.size))[::-1]
        curves.append(StepCurve(jumps, values))
    return curves


class TestConcordance:
    def test_perfect_ranking_scores_one(self):
        times = [1.0, 2.0, 3.0, 4.0]
        curves = [constant_curve(v) for v in [0.1, 0.3, 0.5, 0.7]]
        assert concordance_td(survival_array(curves, times), times, [1, 1, 1, 1]) == 1.0

    def test_identical_curves_score_half(self):
        times = [1.0, 2.0, 3.0]
        assert concordance_td(np.full((3, 3), 0.5), times, [1, 1, 1]) == 0.5

    def test_three_subject_hand_case(self):
        curves = [
            StepCurve([1.0, 3.0], [0.6, 0.2]),
            StepCurve([2.0], [0.8]),
            StepCurve([1.5], [0.4]),
        ]
        times = [1.0, 2.0, 3.0]
        events = [1, 1, 0]
        assert concordance_td(survival_array(curves, times), times, events) == pytest.approx(
            slow_concordance(curves, times, events)
        )

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(3, 31))
            times = rng.uniform(0.1, 5.0, size=n)
            events = rng.integers(0, 2, size=n)
            events[int(rng.integers(n))] = 1
            curves = random_curves(rng, n)
            try:
                fast = concordance_td(survival_array(curves, times), times, events)
            except ValueError:
                with pytest.raises(ValueError):
                    slow_concordance(curves, times, events)  # zero division
                continue
            assert fast == slow_concordance(curves, times, events)
            assert 0.0 <= fast <= 1.0

    def test_invariant_under_monotone_value_transform(self):
        rng = np.random.default_rng(1)
        n = 20
        times = rng.uniform(0.1, 5.0, size=n)
        events = np.ones(n, dtype=int)
        survival = survival_array(random_curves(rng, n), times)
        assert concordance_td(survival, times, events) == concordance_td(survival**2, times, events)

    def test_no_comparable_pairs_fails(self):
        with pytest.raises(ValueError, match="comparable"):
            concordance_td(np.full((3, 3), 0.5), [1.0, 2.0, 3.0], [0, 0, 1])

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        n = 15
        times = rng.uniform(0.1, 5.0, size=n)
        events = rng.integers(0, 2, size=n)
        events[0] = 1
        survival = survival_array(random_curves(rng, n), times)
        perm = rng.permutation(n)
        a = concordance_td(survival, times, events)
        b = concordance_td(survival[np.ix_(perm, perm)], times[perm], events[perm])
        assert a == pytest.approx(b)

    def test_survival_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            concordance_td(np.full((3, 2), 0.5), [1.0, 2.0, 3.0], [1, 1, 1])


class TestBrier:
    def test_perfect_predictor_scores_zero(self):
        times = [1.0, 2.0, 3.0]
        curves = [StepCurve([t], [0.0]) for t in times]
        g = censoring_km(times, [1, 1, 1])
        for t in [0.5, 1.5, 2.5, 3.5]:
            assert brier_censored(survival_at(curves, t), times, [1, 1, 1], t, g) == 0.0

    def test_constant_half_scores_quarter(self):
        times = [1.0, 2.0, 3.0, 4.0]
        g = censoring_km(times, [1, 1, 1, 1])
        for t in [0.5, 2.5, 5.0]:
            assert brier_censored(np.full(4, 0.5), times, [1, 1, 1, 1], t, g) == pytest.approx(0.25)

    def test_hand_case_with_censoring(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 0, 1, 1])
        g = censoring_km(times, events)
        t = 2.5
        # record 0: event before t, weight 1/G(1.0); record 1 censored before t: 0
        # records 2,3 at risk: (1-0.7)^2 / G(2.5)
        g1 = evaluate(g, 1.0)
        gt = evaluate(g, 2.5)
        expected = (0.7**2 / g1 + 2 * (0.3**2 / gt)) / 4
        assert brier_censored(np.full(4, 0.7), times, events, t, g) == pytest.approx(expected)

    def test_matches_plain_brier_without_censoring(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            times = rng.uniform(0.1, 5.0, size=n)
            events = np.ones(n, dtype=int)
            curves = random_curves(rng, n)
            g = censoring_km(times, events)
            t = float(rng.uniform(0.2, 4.5))
            s = np.array([evaluate(c, t) for c in curves])
            outcome = (times > t).astype(float)
            plain = float(((outcome - s) ** 2).mean())
            assert brier_censored(s, times, events, t, g) == pytest.approx(plain, abs=1e-12)


class TestIntegratedBrier:
    def test_constant_score_integrates_to_itself(self):
        times = [1.0, 2.0, 3.0, 4.0]
        events = [1, 1, 1, 1]
        assert integrated_brier(np.full((4, 4), 0.5), times, events) == pytest.approx(0.25)

    def test_two_point_grid_is_the_average(self):
        times = [1.0, 3.0]
        events = [1, 1]
        curves = [StepCurve([2.0], [0.4]), StepCurve([2.5], [0.6])]
        g = censoring_km(times, events)
        u = brier_censored(survival_at(curves, 1.0), times, events, 1.0, g)
        v = brier_censored(survival_at(curves, 3.0), times, events, 3.0, g)
        got = integrated_brier(survival_array(curves, times), times, events)
        assert got == pytest.approx((u + v) / 2)

    def test_grid_columns_with_tied_and_censored_times(self):
        # event times are tied, and censored records share them (one sits
        # first at its time); the gathered columns must give the trapezoid
        # over the distinct event times of brier_censored at each one
        times = np.array([2.0, 1.0, 2.0, 2.0, 3.0, 3.0, 1.0, 4.0, 3.5, 4.0, 5.0, 2.0])
        events = np.array([0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0])
        curves = random_curves(np.random.default_rng(10), times.size)
        g = censoring_km(times, events)
        grid = np.unique(times[events == 1])
        scores = np.array(
            [brier_censored(survival_at(curves, t), times, events, t, g) for t in grid]
        )
        by_hand = float((0.5 * (scores[:-1] + scores[1:]) * np.diff(grid)).sum()) / (
            grid[-1] - grid[0]
        )
        got = integrated_brier(survival_array(curves, times), times, events)
        assert got == pytest.approx(by_hand, abs=1e-12)

    def test_close_to_fine_grid_integration(self):
        # without censoring the score is a step function between event times,
        # so the event-grid trapezoid tracks a dense Riemann sum closely;
        # the oracle vectorizes BS(t) = mean((1{y>t} - S(t))^2) directly
        rng = np.random.default_rng(4)
        n = 500
        times = rng.uniform(0.5, 5.0, size=n)
        events = np.ones(n, dtype=int)
        curves = random_curves(rng, n)
        grid = np.unique(times)
        fine = np.linspace(grid[0], grid[-1], 20001)
        survival = survival_array(curves, fine)
        outcome = (times[:, None] > fine[None, :]).astype(float)
        scores = ((outcome - survival) ** 2).mean(axis=0)
        riemann = float(scores[:-1].mean())  # equal spacing: left-Riemann mean
        got = integrated_brier(survival_array(curves, times), times, events)
        assert got == pytest.approx(riemann, abs=1e-3)

    def test_short_grid_fails(self):
        with pytest.raises(ValueError, match="two time points"):
            integrated_brier(np.full((1, 1), 0.5), [1.0], [1])


def tied_sample(rng, n):
    """Times on a coarse grid, so events tie with events and censorings."""
    times = np.round(rng.uniform(0.1, 5.0, size=n), 1)
    events = (rng.uniform(size=n) < rng.uniform(0.2, 0.9)).astype(np.int64)
    events[0] = 1
    return times, events


class TestBitwiseReference:
    """`brier_censored` and `integrated_brier` against the per-column Brier
    loop they replaced, kept verbatim in `helpers`: equal bit for bit."""

    CENSORING = {
        "km": None,
        "reaches zero": StepCurve([1.0, 2.0, 3.0], [0.6, 0.2, 0.0]),
        "zero at once": StepCurve([0.0], [0.0]),
        "constant one": StepCurve(np.empty(0), np.empty(0)),
        "cumulative": StepCurve([1.0, 2.0], [0.5, 2.0], kind=CUMULATIVE),
    }

    @pytest.mark.parametrize("name", CENSORING)
    def test_brier_censored(self, name):
        rng = np.random.default_rng(5)
        checked = 0
        for n in (1, 2, 5, 30, 133):
            for _ in range(4):
                times, events = tied_sample(rng, n)
                curve = self.CENSORING[name] or censoring_km(times, events)
                s = rng.uniform(size=n)
                for t in (0.0, 0.05, float(times[0]), 1.0, 2.0, 2.5, 3.0, 9.0):
                    g_at_times = reference_evaluate(curve, times)
                    g_at_t = reference_evaluate(curve, t)
                    try:
                        want = reference_brier_from_values(s, times, events, t, g_at_times, g_at_t)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as err:
                            brier_censored(s, times, events, t, curve)
                        assert str(err.value) == str(exc)
                        continue
                    assert same_bits(brier_censored(s, times, events, t, curve), want)
                    checked += 1
        assert checked

    def test_every_record_losing_its_weight_is_an_error(self):
        # G is zero from t = 1: the event at 2 and the record at risk at 2.5
        # both lose their weight
        times, events = np.array([2.0, 3.0]), np.array([1, 0])
        zero_after_one = StepCurve([1.0], [0.0])
        for brier in (
            lambda: brier_censored(np.full(2, 0.5), times, events, 2.5, zero_after_one),
            lambda: reference_brier_from_values(np.full(2, 0.5), times, events, 2.5, np.zeros(2), 0.0),
        ):
            with pytest.raises(ValueError) as err:
                brier()
            assert str(err.value) == "every record lost its censoring weight at t=2.5"
        # a record censored before t keeps the sample alive, scoring zero
        times, events = np.array([0.5, 2.0, 3.0]), np.array([0, 1, 0])
        assert brier_censored(np.full(3, 0.5), times, events, 2.5, zero_after_one) == 0.0

    def test_integrated_brier(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 8, 40, 133, 300):
            for _ in range(4):
                times, events = tied_sample(rng, n)
                survival = np.sort(rng.uniform(size=(n, n)), axis=1)[:, ::-1]
                try:
                    want = reference_integrated_brier(survival, times, events)
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        integrated_brier(survival, times, events)
                    assert str(err.value) == str(exc)
                    continue
                assert same_bits(integrated_brier(survival, times, events), want)

    def test_integrated_brier_when_censoring_weights_reach_zero(self):
        # the last record is censored alone, so G drops to zero at t = 6
        times = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 6.0])
        events = np.array([1, 1, 0, 1, 1, 0])
        assert evaluate(censoring_km(times, events), 6.0) == 0.0
        survival = np.random.default_rng(7).uniform(size=(6, 6))
        assert same_bits(
            integrated_brier(survival, times, events), reference_integrated_brier(survival, times, events)
        )


class TestDCalibration:
    def test_uniform_probabilities_pass(self):
        # predictions land exactly on bin midpoints, evenly
        n = 1000
        times = np.arange(1.0, n + 1.0)
        values = np.tile(np.arange(0.05, 1.0, 0.1), n // 10)
        curves = [StepCurve([t], [v]) for t, v in zip(times, values)]
        passed, pvalue = d_calibration(survival_array(curves, times), times, np.ones(n, dtype=int))
        assert passed
        assert pvalue > 0.999

    def test_constant_one_predictor_fails(self):
        n = 1000
        times = np.arange(1.0, n + 1.0)
        passed, pvalue = d_calibration(np.ones((n, n)), times, np.ones(n, dtype=int))
        assert not passed
        assert pvalue < 1e-10

    def test_km_on_own_uncensored_sample_passes(self):
        rng = np.random.default_rng(5)
        times = rng.weibull(2.0, 1000) * 4.0
        km = kaplan_meier(times, np.ones(1000, dtype=int))
        survival = np.tile(evaluate(km, times), (1000, 1))  # one shared curve
        passed, _ = d_calibration(survival, times, np.ones(1000, dtype=int))
        assert passed

    def test_censored_mass_spreads_below(self):
        # one censored record with p = 0.25 on a 4-bin edge: nothing stays in
        # its own bin, the single lower bin receives all the mass
        masses = _masses([0.25], [0], bins=4)
        assert masses[0] == pytest.approx(1.0)
        assert masses[1] == pytest.approx(0.0)

    def test_censored_partial_mass(self):
        # p = 0.95: own bin keeps 0.05/0.95, each lower bin gets 0.1/0.95
        masses = _masses([0.95], [0], bins=10)
        assert masses[9] == pytest.approx(0.05 / 0.95)
        for b in range(9):
            assert masses[b] == pytest.approx(0.1 / 0.95)

    def test_zero_probability_censored_goes_to_lowest_bin(self):
        masses = _masses([0.0], [0], bins=10)
        assert masses[0] == 1.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(6)
        n = 200
        p = rng.uniform(size=n)
        events = rng.integers(0, 2, size=n)
        masses = _masses(p, events, bins=10)
        assert masses.sum() == pytest.approx(n, abs=1e-9)

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            d_calibration(np.full((1, 1), 0.5), [1.0], [1], bins=1)

    @pytest.mark.parametrize("bins", [2, 5, 10, 20])
    def test_pvalue_is_the_chi_square_survival_function(self, bins):
        # the package computes the p-value without scipy.stats; it must equal
        # chi2.sf bit for bit on seeded, perfectly and badly calibrated inputs
        n = 50 * bins
        times = np.arange(1.0, n + 1.0)
        everyone = np.ones(n, dtype=int)
        cases = [
            (np.diag(np.tile((np.arange(bins) + 0.5) / bins, n // bins)), everyone),
            (np.ones((n, n)), everyone),
        ]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cases.append((rng.uniform(size=(n, n)), rng.integers(0, 2, size=n)))
        pvalues = []
        for survival, events in cases:
            expected = n / bins
            masses = d_calibration_masses(survival, times, events, bins)
            stat = float(((masses - expected) ** 2 / expected).sum())
            pvalue = d_calibration(survival, times, events, bins=bins)[1]
            assert pvalue == float(chi2.sf(stat, bins - 1))
            pvalues.append(pvalue)
        assert pvalues[0] == 1.0  # equal masses: the statistic is 0
        assert pvalues[1] < 1e-10  # every mass in the top bin


def _masses(probabilities, events, bins):
    """Bin masses via the production path, with each record's prediction at
    its own time (the diagonal) pinned at p."""
    survival = np.diag(np.asarray(probabilities, dtype=float))
    times = np.ones(len(probabilities))
    return d_calibration_masses(survival, times, events, bins=bins)


class TestOrderInvariance:
    def test_all_metrics_ignore_record_order(self):
        rng = np.random.default_rng(9)
        n = 25
        times = rng.uniform(0.1, 5.0, size=n)
        events = rng.integers(0, 2, size=n)
        events[:3] = 1
        curves = random_curves(rng, n)
        survival = survival_array(curves, times)
        perm = rng.permutation(n)
        shuffled = survival[np.ix_(perm, perm)]
        assert integrated_brier(survival, times, events) == pytest.approx(
            integrated_brier(shuffled, times[perm], events[perm]), abs=1e-12
        )
        assert d_calibration(survival, times, events)[1] == pytest.approx(
            d_calibration(shuffled, times[perm], events[perm])[1], abs=1e-12
        )
        g = censoring_km(times, events)
        at_two = survival_at(curves, 2.0)
        assert brier_censored(at_two, times, events, 2.0, g) == pytest.approx(
            brier_censored(at_two[perm], times[perm], events[perm], 2.0, g), abs=1e-12
        )


class TestMetricReport:
    def test_fields(self):
        report = MetricReport(0.7, 0.15, True, 0.4, fold_id=2)
        assert report.concordance == 0.7
        assert report.fold_id == 2


TIMES = st.sampled_from([0.5, 1.0, 1.5, 2.0])  # few values, so times tie


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 9))
def test_property_integrated_brier_lies_in_unit_interval(data, n):
    values = st.floats(0.0, 1.0, allow_nan=False)
    survival = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    times = np.array(data.draw(st.lists(TIMES, min_size=n, max_size=n)))
    events = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(np.unique(times[events == 1]).size >= 2)
    assert 0.0 <= integrated_brier(survival, times, events) <= 1.0


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 9))
def test_property_reversed_ranking_gives_one_minus_concordance(data, n):
    # distinct survival values leave no prediction ties, so every comparable
    # pair that S ranks correctly 1 - S ranks wrongly, and the other way round
    order = data.draw(st.permutations(range(n * n)))
    survival = (np.array(order, dtype=float).reshape(n, n) + 1.0) / (n * n + 1.0)
    times = np.array(data.draw(st.lists(TIMES, min_size=n, max_size=n)))
    events = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    comparable = (events[:, None] == 1) & (times[:, None] < times[None, :])
    assume(comparable.any())
    c = concordance_td(survival, times, events)
    assert concordance_td(1.0 - survival, times, events) == pytest.approx(1.0 - c, abs=1e-12)


METRICS = {
    "concordance_td": concordance_td,
    "integrated_brier": integrated_brier,
    "d_calibration": d_calibration,
    "d_calibration_masses": d_calibration_masses,
    "brier_censored": lambda s, times, events: brier_censored(s[:, 0], times, events, 2.0, censoring_km(times, events)),
}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.25])
def test_survival_values_outside_the_unit_interval_rejected(metric, bad):
    # at one time an all-NaN matrix gave a concordance of 0.0, D-calibration
    # failed converting NaN to a bin index, and 1.5 landed in the top bin
    times, events = [1.0, 2.0, 3.0], [1, 0, 1]
    for survival in (np.full((3, 3), bad), np.where(np.eye(3) == 1, bad, 0.5)):
        with pytest.raises(ValueError) as err:
            METRICS[metric](survival, times, events)
        assert str(err.value) == "survival values must be finite and lie in [0, 1]"
