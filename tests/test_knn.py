import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survcobra import curves
from survcobra.curves import evaluate, kaplan_meier, product_limit
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic
from survcobra.learners import KNNSurvivalModel, base, fit_knn_survival, knn
from helpers import random_dataset, slow_km

# few distinct times and covariates, so events tie with events and with
# censorings, and distances tie
TIED_RECORDS = st.lists(
    st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.integers(0, 1), st.integers(0, 3), st.integers(0, 3)),
    min_size=1,
    max_size=20,
)


class TestKNNSurvival:
    def test_k_equals_n_gives_population_km(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 30, p=2)
        model = fit_knn_survival(ds, k=ds.n)
        for q in rng.uniform(size=(5, 2)):
            assert model.predict_curve(q) == kaplan_meier(ds.time, ds.event)

    def test_k_one_event_neighbor(self):
        ds = SurvivalDataset(
            [[0.0], [10.0]], [4.0, 9.0], [1, 1], ["x"]
        )
        model = fit_knn_survival(ds, k=1)
        curve = model.predict_curve(np.array([0.1]))
        assert np.array_equal(curve.times, [4.0])
        assert np.array_equal(curve.values, [0.0])

    def test_hand_placed_neighbors_match_brute_force(self):
        x = np.array([[0.0], [1.0], [2.0], [5.0], [6.0]])
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        events = np.array([1, 0, 1, 1, 0])
        ds = SurvivalDataset(x, times, events, ["x"])
        model = fit_knn_survival(ds, k=3)
        query = np.array([1.4])
        # brute force on standardized coordinates (one feature: order preserved)
        sd = x[:, 0].std()
        dist = np.abs((x[:, 0] - x[:, 0].mean()) / sd - (query[0] - x[:, 0].mean()) / sd)
        expected = np.argsort(dist, kind="stable")[:3]
        assert np.array_equal(model._neighbor_rows(query[None, :])[0], expected)
        t_oracle, v_oracle = slow_km(times[expected], events[expected])
        curve = model.predict_curve(query)
        assert np.array_equal(curve.times, t_oracle)
        assert np.array_equal(curve.values, v_oracle)

    def test_distance_ties_break_toward_lower_index(self):
        x = np.array([[0.0], [2.0], [2.0], [2.0]])
        ds = SurvivalDataset(x, [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], ["x"])
        model = fit_knn_survival(ds, k=2)
        nb = model._neighbor_rows(np.array([[2.0]]))[0]
        assert np.array_equal(nb, [1, 2])

    def test_duplicate_of_non_neighbor_changes_nothing(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0]])
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        events = np.array([1, 1, 0, 1, 1])
        base = SurvivalDataset(x, times, events, ["a", "b"])
        dup = SurvivalDataset(
            np.vstack([x, x[4]]),
            np.append(times, times[4]),
            np.append(events, events[4]),
            ["a", "b"],
        )
        query = np.array([0.05, 0.05])
        a = fit_knn_survival(base, k=3).predict_curve(query)
        b = fit_knn_survival(dup, k=3).predict_curve(query)
        assert np.array_equal(a.times, b.times)
        assert np.allclose(a.values, b.values)

    def test_all_censored_neighborhood_is_constant_one(self):
        ds = SurvivalDataset(
            [[0.0], [0.1], [9.0]], [1.0, 2.0, 3.0], [0, 0, 1], ["x"]
        )
        model = fit_knn_survival(ds, k=2)
        curve = model.predict_curve(np.array([0.0]))
        assert curve.times.size == 0
        # the sample's event at 3 is a column of the neighbourhood's counts
        assert np.array_equal(model.predict_values([[0.0], [0.05]], [0.0, 2.0, 3.0, 4.0]), np.ones((2, 4)))

    def test_training_sample_with_no_event_reads_one(self):
        # no dataset holds such a sample, but the model's counting has no
        # event time column at all here
        x = np.array([[0.0], [1.0], [2.0]])
        model = KNNSurvivalModel(x, np.array([1.0, 2.0, 3.0]), np.zeros(3, dtype=int), 2, np.zeros(1), np.ones(1))
        assert model.u.size == 0
        assert np.array_equal(model.predict_values([[0.0], [2.5], [9.0]], [0.0, 1.5, np.inf]), np.ones((3, 3)))
        assert model.predict_curve([1.0]).times.size == 0

    def test_hand_neighbourhoods(self):
        # two neighbourhoods of four; a record censored at an event time is
        # at risk at that time
        x = np.array([[0.0], [0.1], [0.2], [0.3], [10.0], [10.1], [10.2], [10.3]])
        times = np.array([1.0, 2.0, 2.0, 3.0, 2.0, 2.0, 4.0, 5.0])
        events = np.array([1, 1, 0, 1, 0, 1, 1, 0])
        model = fit_knn_survival(SurvivalDataset(x, times, events, ["x"]), k=4)
        got = model.predict_values([[0.15], [10.15]], [0.0, 1.0, 2.0, 3.0, 4.0, 6.0])
        # row 0: 3/4 at 1, times 2/3 at 2 (the censoring at 2 is at risk), 0 at 3
        assert np.allclose(got[0], [1.0, 0.75, 0.5, 0.0, 0.0, 0.0])
        # row 1: 3/4 at 2, times 1/2 at 4
        assert np.allclose(got[1], [1.0, 1.0, 0.75, 0.75, 0.375, 0.375])

    def test_infinite_grid_point_reads_past_the_last_event(self):
        model = fit_knn_survival(SurvivalDataset([[0.0], [1.0]], [1.0, 2.0], [1, 0], ["x"]), k=2)
        assert model.predict_values([[0.5]], [0.0, np.inf]).tolist() == [[1.0, 0.5]]

    @pytest.mark.parametrize(
        "events, want", [([1, 0, 0, 1, 0], [0.5, 1.0]), ([0, 0, 0, 0, 1], [1.0, 1.0])], ids=["events", "no event"]
    )
    def test_one_point_grid_gives_one_value_per_row(self, events, want):
        # two neighbourhoods of two, and a far record whose time 1.2 is a
        # column of both neighbourhoods' counts where it is an event
        x = [[0.0], [0.1], [5.0], [5.1], [50.0]]
        ds = SurvivalDataset(x, [1.0, 2.0, 1.0, 3.0, 1.2], events, ["x"])
        got = fit_knn_survival(ds, k=2).predict_values([[0.05], [5.05]], [1.5])
        assert got.shape == (2, 1) and got[:, 0].tolist() == want

    @pytest.mark.parametrize("grid", [[-1.0], [np.nan], [1.0, np.nan]], ids=["negative", "nan", "nan in list"])
    def test_negative_or_nan_grid_rejected(self, grid):
        model = fit_knn_survival(SurvivalDataset([[0.0], [1.0]], [1.0, 2.0], [1, 1], ["x"]), k=2)
        with pytest.raises(ValueError, match="^evaluation times must be nonnegative$"):
            model.predict_values([[0.5]], grid)

    def test_predict_values_match_row_by_row_curves_across_chunks(self, monkeypatch):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 40, p=3)
        model = fit_knn_survival(ds, k=5)
        queries = np.vstack([rng.uniform(size=(9, 3)), ds.x[:2]])
        grid = np.unique(np.concatenate(([0.0], ds.time, [4.0])))
        # room for four queries' (training records, features) difference blocks
        monkeypatch.setattr(knn, "_NEIGHBOR_CHUNK_BYTES", 4 * model.z.size * 8)
        values = model.predict_values(queries, grid)
        for i, q in enumerate(queries):
            assert np.array_equal(values[i], evaluate(model.predict_curve(q), grid))

    def test_predict_values_builds_no_per_row_curve(self, monkeypatch):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 30, p=2)
        model = fit_knn_survival(ds, k=4)
        queries = rng.uniform(size=(6, 2))
        grid = np.unique(np.concatenate(([0.0], ds.time)))
        expected = model.predict_values(queries, grid)

        def refuse(*_args, **_kwargs):
            raise AssertionError("predict_values built a per-row curve")

        monkeypatch.setattr(base, "StepCurve", refuse)
        monkeypatch.setattr(curves, "StepCurve", refuse)
        with pytest.raises(AssertionError):
            model.predict_curve(queries[0])  # the patch is live
        assert np.array_equal(model.predict_values(queries, grid), expected)

    @pytest.mark.parametrize("k", [1, 30])
    def test_predict_values_at_extreme_k(self, k):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 30, p=2)
        model = fit_knn_survival(ds, k=k)
        queries = rng.uniform(size=(5, 2))
        grid = np.unique(np.concatenate(([0.0], ds.time, [9.0])))
        values = model.predict_values(queries, grid)
        for i, q in enumerate(queries):
            assert values[i].tobytes() == evaluate(model.predict_curve(q), grid).tobytes()
        if k == ds.n:
            population = evaluate(kaplan_meier(ds.time, ds.event), grid)
            assert np.array_equal(values, np.tile(population, (5, 1)))

    def test_default_k_is_sqrt_n(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 30, p=2)
        assert fit_knn_survival(ds).k == 6

    def test_k_validation(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 10, p=2)
        with pytest.raises(ValueError):
            fit_knn_survival(ds, k=0)
        with pytest.raises(ValueError):
            fit_knn_survival(ds, k=11)


@settings(max_examples=30, deadline=None)
@given(records=TIED_RECORDS, members=st.sampled_from(["one", "all", "some"]), data=st.data())
def test_property_predict_values_match_neighbourhood_curves(records, members, data):
    # k = 1 and k = n are drawn on purpose; the queries are the training
    # points and points between and beyond them, split into chunks of a
    # drawn size, and the grid reaches before the first event and past the last
    times, events, a, b = (np.array(v) for v in zip(*records))
    assume(events.any())
    ds = SurvivalDataset(np.column_stack((a, b)), times, events, ["a", "b"])
    k = {"one": 1, "all": ds.n}.get(members) or data.draw(st.integers(1, ds.n))
    model = fit_knn_survival(ds, k=k)
    extra = data.draw(st.lists(st.tuples(*[st.sampled_from([-1.0, 0.5, 1.5, 4.0])] * 2), max_size=4))
    queries = np.vstack([ds.x, np.array(extra).reshape(-1, 2)])
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
    chunk = data.draw(st.integers(1, queries.shape[0]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knn, "_NEIGHBOR_CHUNK_BYTES", chunk * model.z.size * 8)
        got = model.predict_values(queries, grid)
    assert got.shape == (queries.shape[0], grid.size)
    for row, q in zip(got, queries):
        nb = model._neighbor_rows(q[None, :])[0]
        expected = evaluate(product_limit(times[nb], events[nb]), grid)
        assert row.tobytes() == expected.tobytes()
        if not events[nb].any():
            assert np.all(row == 1.0)


class TestNonFiniteDistances:
    """A distance that is not finite ties every neighbour, so k-NN refuses
    it, naming the query row or the training column, and warns of nothing."""

    @pytest.fixture(autouse=True)
    def _no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def records():
        return generate_synthetic(SyntheticConfig(n=60, censor_fraction=0.3, dim=4, seed=1))

    def test_overflowing_query_is_refused_by_its_row(self, monkeypatch):
        data = self.records()
        model = fit_knn_survival(data.subset(np.arange(40)), k=5)
        queries = data.x[40:46].copy()
        queries[5, 0] = 1e300  # every distance of row 5 overflows
        monkeypatch.setattr(knn, "_NEIGHBOR_CHUNK_BYTES", 2 * model.z.size * 8)  # row 5 is in the third chunk
        with pytest.raises(ValueError, match=r"^knn_survival: row 5: a distance is not finite$"):
            model.predict_values(queries, [0.5, 1.0, 3.0])
        for call in (model.predict_curve, lambda q: model._neighbor_rows(q[None, :])):
            with pytest.raises(ValueError, match=r"^knn_survival: row 0: a distance is not finite$"):
                call(queries[5])

    def test_rows_with_finite_distances_keep_their_values(self):
        data = self.records()
        model = fit_knn_survival(data.subset(np.arange(40)), k=5)
        queries = data.x[40:46].copy()
        expected = model.predict_values(queries[:5], [0.5, 1.0, 3.0])
        queries[5, 0] = 1e150  # finite distances, tied in float
        got = model.predict_values(queries, [0.5, 1.0, 3.0])
        assert got[:5].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("column", [np.full(40, 1e308), np.tile([1e200, -1e200], 20)])
    def test_overflowing_training_column_is_refused_at_fit(self, column):
        # a mean of 1e308s, or a spread of +-1e200s, overflows to infinity
        train = self.records().subset(np.arange(40))
        x = train.x.copy()
        x[:, 2] = column
        overflowing = SurvivalDataset(x, train.time, train.event, train.feature_names)
        with pytest.raises(ValueError, match=r"^knn_survival: column 'x2': its mean or sd overflows$"):
            fit_knn_survival(overflowing, k=5)
