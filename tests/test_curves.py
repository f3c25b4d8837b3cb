import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survcobra.curves import (
    CUMULATIVE,
    SURVIVAL,
    StepCurve,
    _event_counts,
    censoring_km,
    evaluate,
    kaplan_meier,
    product_limit,
    product_limit_rows,
)

from helpers import (
    area_distance,
    distance_grid,
    nelson_aalen,
    reference_event_counts,
    reference_evaluate,
    reference_event_table,
    reference_product_limit,
    same_bits,
    slow_km,
    slow_na,
)

# few distinct times, so events tie with events and with censorings
TIED_RECORDS = st.lists(
    st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.integers(0, 1)),
    min_size=1,
    max_size=20,
)


def random_survival_curve(rng, max_jumps=8):
    k = int(rng.integers(1, max_jumps + 1))
    times = np.sort(rng.uniform(0.1, 10.0, size=k))
    times = np.unique(times)
    values = np.sort(rng.uniform(0.0, 1.0, size=times.size))[::-1]
    return StepCurve(times, values)


class TestStepCurve:
    def test_evaluate_before_first_jump(self):
        c = StepCurve([2.0], [0.5])
        assert evaluate(c, 1.9) == 1.0

    def test_evaluate_right_continuous_at_jump(self):
        c = StepCurve([2.0], [0.5])
        assert evaluate(c, 2.0) == 0.5

    def test_evaluate_constant_tail(self):
        c = StepCurve([2.0, 4.0], [0.5, 0.25])
        assert evaluate(c, 1e9) == 0.25

    def test_evaluate_vectorized(self):
        c = StepCurve([1.0, 3.0], [0.8, 0.2])
        out = evaluate(c, [0.0, 1.0, 2.9, 3.0, 100.0])
        assert np.array_equal(out, [1.0, 0.8, 0.8, 0.2, 0.2])

    def test_cumulative_baseline_is_zero(self):
        c = StepCurve([1.0], [0.7], kind=CUMULATIVE)
        assert evaluate(c, 0.5) == 0.0

    def test_empty_curve_is_constant_baseline(self):
        c = StepCurve(np.empty(0), np.empty(0))
        assert evaluate(c, 123.0) == 1.0

    def test_negative_time_rejected(self):
        c = StepCurve([1.0], [0.5])
        with pytest.raises(ValueError):
            evaluate(c, -0.1)

    def test_invalid_curves_rejected(self):
        with pytest.raises(ValueError):
            StepCurve([2.0, 1.0], [0.5, 0.4])  # non-increasing times
        with pytest.raises(ValueError):
            StepCurve([1.0, 2.0], [0.4, 0.5])  # increasing survival values
        with pytest.raises(ValueError):
            StepCurve([1.0], [1.5])  # above 1
        with pytest.raises(ValueError):
            StepCurve([1.0, 2.0], [0.5, 0.4], kind=CUMULATIVE)  # decreasing hazard

    def test_does_not_freeze_caller_arrays(self):
        times = np.array([1.0, 2.0])
        StepCurve(times, [0.5, 0.25])
        times[0] = 0.5  # must still be writeable


EMPTY = np.empty(0)

INVALID_CURVES = [
    ([[1.0]], [0.5], SURVIVAL, "times and values must be 1-d arrays of equal length"),
    ([1.0, 2.0], [0.5], SURVIVAL, "times and values must be 1-d arrays of equal length"),
    ([1.0], [0.5], "hazard", "unknown curve kind 'hazard'"),
    ([np.nan], [0.5], SURVIVAL, "curve times and values must be finite"),
    ([1.0, np.inf], [0.5, 0.4], SURVIVAL, "curve times and values must be finite"),
    ([1.0], [np.nan], SURVIVAL, "curve times and values must be finite"),
    ([2.0, 1.0], [np.nan, 1.5], SURVIVAL, "curve times and values must be finite"),
    ([1.0], [-np.inf], CUMULATIVE, "curve times and values must be finite"),
    ([-1.0, 2.0], [0.5, 0.4], SURVIVAL, "jump times must be nonnegative"),
    ([-1.0, -2.0], [1.5, 0.4], SURVIVAL, "jump times must be nonnegative"),
    ([2.0, 1.0], [0.5, 0.4], SURVIVAL, "jump times must be strictly increasing"),
    ([1.0, 1.0], [0.5, 0.4], SURVIVAL, "jump times must be strictly increasing"),
    ([1.0, -1.0], [0.5, 0.4], SURVIVAL, "jump times must be strictly increasing"),
    ([1.0, 2.0, 2.0], [0.5, 0.6, 1.5], SURVIVAL, "jump times must be strictly increasing"),
    ([1.0], [1.5], SURVIVAL, "survival values must lie in [0, 1]"),
    ([1.0], [-0.1], SURVIVAL, "survival values must lie in [0, 1]"),
    ([1.0, 2.0], [0.5, 1.5], SURVIVAL, "survival values must lie in [0, 1]"),
    ([1.0, 2.0], [0.4, 0.5], SURVIVAL, "survival values must be non-increasing"),
    ([0.0, 1.0, 2.0], [1.0, 0.0, 1e-300], SURVIVAL, "survival values must be non-increasing"),
    ([1.0], [-0.5], CUMULATIVE, "cumulative values must be nonnegative"),
    ([1.0, 2.0], [-1.0, -2.0], CUMULATIVE, "cumulative values must be nonnegative"),
    ([1.0, 2.0], [0.5, 0.4], CUMULATIVE, "cumulative values must be non-decreasing"),
    ([1.0, 2.0, 3.0], [2.0, 5.0, 4.999], CUMULATIVE, "cumulative values must be non-decreasing"),
]


@pytest.mark.parametrize("times, values, kind, message", INVALID_CURVES)
def test_invalid_curve_gets_its_message(times, values, kind, message):
    with pytest.raises(ValueError) as err:
        StepCurve(times, values, kind)
    assert str(err.value) == message


SAMPLES = {
    "tied": ([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 0.5], [1, 1, 0, 1, 0, 1, 0]),
    "all censored": ([0.5, 1.0, 2.0, 2.0], [0, 0, 0, 0]),
    "one event": ([1.5], [1]),
    "one censored": ([1.5], [0]),
    "ties at zero": ([0.0, 0.0, 1.0, 0.0], [1, 1, 0, 0]),
    "all events tied": ([2.0, 2.0, 2.0], [1, 1, 1]),
}


class TestBitwiseReference:
    """The product-limit counts and curve evaluation against the code they
    replaced, kept verbatim in `helpers`: equal bit for bit."""

    def check_sample(self, times, events):
        t, e = np.asarray(times, dtype=float), np.asarray(events)
        for got, want in zip(_event_counts(t, e), reference_event_counts(t, e)):
            assert same_bits(got, want)
        curve = product_limit(times, events)
        want_times, want_values = reference_product_limit(times, events)
        assert same_bits(curve.times, want_times) and same_bits(curve.values, want_values)
        u, d, r = reference_event_table(times, events)
        hazard = nelson_aalen(times, events)
        assert same_bits(hazard.times, u) and same_bits(hazard.values, np.cumsum(d / r) if u.size else u)

    @pytest.mark.parametrize("name", SAMPLES)
    def test_product_limit_on_edge_samples(self, name):
        self.check_sample(*SAMPLES[name])

    def test_product_limit_on_random_samples(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 40, 63, 200):
            for _ in range(5):
                times = np.round(rng.uniform(0.0, 4.0, size=n), int(rng.integers(0, 3)))
                self.check_sample(times, (rng.uniform(size=n) < rng.uniform()).astype(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(TIED_RECORDS)
    def test_product_limit_on_tied_records(self, records):
        times, events = zip(*records)
        self.check_sample(list(times), list(events))

    def test_event_counts_of_an_empty_sample(self):
        for got in _event_counts(EMPTY, EMPTY.astype(np.int64)):
            assert same_bits(got, EMPTY)

    @pytest.mark.parametrize(
        "curve",
        [
            StepCurve([2.0], [0.5]),
            StepCurve([0.0, 1.0, 3.0], [0.9, 0.8, 0.0]),
            StepCurve(EMPTY, EMPTY),
            StepCurve([1.0, 2.5], [0.7, 1.2], kind=CUMULATIVE),
            StepCurve(EMPTY, EMPTY, kind=CUMULATIVE),
        ],
        ids=["one jump", "jump at zero", "empty", "cumulative", "empty cumulative"],
    )
    @pytest.mark.parametrize(
        "t",
        [0.0, 1.0, 1.9, 2.0, 3.0, 1e9, np.float64(2.5), np.nan, [0.0, 1.0, 2.9, 3.0, 100.0],
         np.array([[0.5, 2.0], [3.0, 0.0]]), EMPTY, [np.nan, 1.0], np.inf, [0.0, np.inf]],
        ids=["0", "1", "1.9", "2", "3", "1e9", "float64", "nan", "list", "2-d", "empty", "nan in list",
             "inf", "inf in list"],
    )
    def test_evaluate(self, curve, t):
        if np.isnan(t).any():
            # the reference read a NaN as past the last jump; it is rejected
            with pytest.raises(ValueError, match="^evaluation times must be nonnegative$"):
                evaluate(curve, t)
        else:
            assert same_bits(evaluate(curve, t), reference_evaluate(curve, t))

    @pytest.mark.parametrize("t", [-0.1, [1.0, -1e-300], np.array([[0.0], [-np.inf]])])
    def test_evaluate_rejects_negative_times(self, t):
        for fn in (evaluate, reference_evaluate):
            with pytest.raises(ValueError, match="^evaluation times must be nonnegative$"):
                fn(StepCurve([1.0], [0.5]), t)


class TestKaplanMeier:
    def test_hand_product_limit(self):
        # events at 3 and 7, censored at 5
        c = kaplan_meier([3.0, 5.0, 7.0], [1, 0, 1])
        assert np.array_equal(c.times, [3.0, 7.0])
        assert np.allclose(c.values, [2.0 / 3.0, 0.0])
        assert c.values[0] == 1.0 - 1.0 / 3.0

    def test_single_event_exhausts_risk_set(self):
        c = kaplan_meier([1.0], [1])
        assert np.array_equal(c.times, [1.0])
        assert np.array_equal(c.values, [0.0])

    def test_no_censoring_equals_empirical_survival(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            times = rng.uniform(0.1, 5.0, size=n)
            c = kaplan_meier(times, np.ones(n, dtype=int))
            for t in rng.uniform(0.0, 6.0, size=10):
                assert evaluate(c, t) == pytest.approx(np.mean(times > t), abs=1e-12)

    def test_censored_only_times_add_no_jump(self):
        c = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        assert np.array_equal(c.times, [1.0, 3.0])

    def test_requires_an_event(self):
        with pytest.raises(ValueError):
            kaplan_meier([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError):
            kaplan_meier([], [])

    def test_order_invariance(self):
        rng = np.random.default_rng(11)
        times = rng.uniform(0.1, 4.0, size=25)
        events = rng.integers(0, 2, size=25)
        events[0] = 1
        perm = rng.permutation(25)
        assert kaplan_meier(times, events) == kaplan_meier(times[perm], events[perm])


@settings(max_examples=25, deadline=None)
@given(records=TIED_RECORDS)
def test_property_kaplan_meier_matches_sequential_oracle(records):
    times, events = map(list, zip(*records))
    assume(any(events))
    curve = kaplan_meier(times, events)
    oracle_times, oracle_values = slow_km(times, events)
    assert curve.times.tolist() == oracle_times
    assert curve.values.tolist() == oracle_values


@settings(max_examples=25, deadline=None)
@given(records=TIED_RECORDS)
def test_property_nelson_aalen_matches_sequential_oracle(records):
    times, events = map(list, zip(*records))
    curve = nelson_aalen(times, events)
    oracle_times, oracle_values = slow_na(times, events)
    assert curve.times.tolist() == oracle_times
    assert curve.values.tolist() == oracle_values


@settings(max_examples=30, deadline=None)
@given(records=TIED_RECORDS, members=st.sampled_from(["one", "all", "some"]), data=st.data())
def test_property_product_limit_rows_match_per_row_curves(records, members, data):
    # each row is a k-member set drawn from the records, as a neighbourhood
    # is; k = 1 and k = n are drawn on purpose, and the grid reaches before
    # the first event and past the last
    times, events = (np.array(v) for v in zip(*records))
    n = times.size
    k = {"one": 1, "all": n}.get(members) or data.draw(st.integers(1, n))
    orders = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    rows = np.array(orders)[:, :k]
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
    got = product_limit_rows(times[rows], events[rows], grid)
    assert got.shape == (rows.shape[0], grid.size)
    for row, nb in zip(got, rows):
        expected = evaluate(product_limit(times[nb], events[nb]), grid)
        assert row.tobytes() == expected.tobytes()
        if not events[nb].any():
            assert np.all(row == 1.0)


class TestProductLimitRows:
    def test_hand_rows(self):
        times = np.array([[1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 4.0, 5.0]])
        events = np.array([[1, 1, 0, 1], [0, 1, 1, 0]])
        got = product_limit_rows(times, events, [0.0, 1.0, 2.0, 3.0, 4.0, 6.0])
        # row 0: 3/4 at 1, times 2/3 at 2 (the censoring at 2 is at risk), 0 at 3
        assert np.allclose(got[0], [1.0, 0.75, 0.5, 0.0, 0.0, 0.0])
        # row 1: 3/4 at 2, times 1/2 at 4
        assert np.allclose(got[1], [1.0, 1.0, 0.75, 0.75, 0.375, 0.375])

    def test_no_event_anywhere_is_constant_one(self):
        got = product_limit_rows(np.ones((3, 2)), np.zeros((3, 2), dtype=int), [0.0, 2.0])
        assert np.array_equal(got, np.ones((3, 2)))

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            product_limit_rows(np.ones((1, 2)), np.ones((1, 2), dtype=int), [-1.0])

    @pytest.mark.parametrize("grid", [[np.nan], [1.0, np.nan]], ids=["nan", "nan in list"])
    def test_nan_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="^evaluation times must be nonnegative$"):
            product_limit_rows(np.ones((1, 2)), np.ones((1, 2), dtype=int), grid)

    def test_infinite_grid_point_reads_past_the_last_event(self):
        got = product_limit_rows(np.array([[1.0, 2.0]]), np.array([[1, 0]]), [0.0, np.inf])
        assert got.tolist() == [[1.0, 0.5]]


class TestNelsonAalen:
    def test_hand_sum(self):
        c = nelson_aalen([3.0, 5.0, 7.0], [1, 0, 1])
        assert np.array_equal(c.times, [3.0, 7.0])
        assert np.allclose(c.values, [1.0 / 3.0, 1.0 / 3.0 + 1.0])
        assert c.kind == CUMULATIVE

    def test_no_events_is_zero(self):
        c = nelson_aalen([1.0, 2.0], [0, 0])
        assert c.times.size == 0
        assert evaluate(c, 5.0) == 0.0

    def test_single_event(self):
        c = nelson_aalen([1.0], [1])
        assert np.array_equal(c.times, [1.0])
        assert np.array_equal(c.values, [1.0])

    def test_exp_minus_na_dominates_km(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            times = rng.uniform(0.1, 5.0, size=n)
            events = rng.integers(0, 2, size=n)
            events[int(rng.integers(n))] = 1
            km = kaplan_meier(times, events)
            na = nelson_aalen(times, events)
            grid = np.unique(times)
            assert np.all(np.exp(-evaluate(na, grid)) >= evaluate(km, grid) - 1e-12)


class TestCensoringKM:
    def test_no_censoring_gives_constant_one(self):
        c = censoring_km([1.0, 2.0], [1, 1])
        assert c.times.size == 0
        assert evaluate(c, 100.0) == 1.0

    def test_flipped_flag_hand_case(self):
        c = censoring_km([3.0, 5.0], [1, 0])
        assert np.array_equal(c.times, [5.0])
        assert np.array_equal(c.values, [0.0])

    def test_all_censored_two_distinct_times(self):
        c = censoring_km([2.0, 4.0], [0, 0])
        assert np.array_equal(c.times, [2.0, 4.0])
        assert np.allclose(c.values, [0.5, 0.0])


class TestAreaDistance:
    def test_identity(self):
        c = StepCurve([1.0, 2.0], [0.6, 0.3])
        grid = distance_grid(c, c, 5.0)
        assert area_distance(c, c, grid) == 0.0

    def test_constant_curves(self):
        a = StepCurve(np.empty(0), np.empty(0))
        b = StepCurve([0.0], [0.5])
        assert area_distance(a, b, [0.0, 10.0]) == pytest.approx(0.5)

    def test_hand_left_riemann(self):
        a = StepCurve([2.0], [0.5])  # 1 on [0,2), 0.5 after
        b = StepCurve(np.empty(0), np.empty(0))  # constant 1
        assert area_distance(a, b, [0.0, 2.0, 4.0]) == pytest.approx(0.25)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            a = random_survival_curve(rng)
            b = random_survival_curve(rng)
            c = random_survival_curve(rng)
            t_max = 12.0
            grid = np.unique(np.concatenate(([0.0, t_max], a.times, b.times, c.times)))
            dab = area_distance(a, b, grid)
            dba = area_distance(b, a, grid)
            assert dab == dba
            assert dab >= 0.0
            assert dab <= 1.0 + 1e-12
            assert area_distance(a, c, grid) <= dab + area_distance(b, c, grid) + 1e-12

    def test_degenerate_grid_rejected(self):
        a = StepCurve([1.0], [0.5])
        with pytest.raises(ValueError):
            area_distance(a, a, [2.0])
        with pytest.raises(ValueError):
            area_distance(a, a, [2.0, 2.0])

    def test_grid_union_contains_endpoints(self):
        a = StepCurve([1.0], [0.5])
        b = StepCurve([2.5], [0.25])
        grid = distance_grid(a, b, 7.0)
        assert np.array_equal(grid, [0.0, 1.0, 2.5, 7.0])


class TestProductLimit:
    def test_no_events_constant_one(self):
        c = product_limit([1.0, 2.0], [0, 0])
        assert c.times.size == 0
        assert evaluate(c, 9.0) == 1.0

    def test_matches_kaplan_meier_when_events_exist(self):
        assert product_limit([3.0, 5.0, 7.0], [1, 0, 1]) == kaplan_meier(
            [3.0, 5.0, 7.0], [1, 0, 1]
        )
