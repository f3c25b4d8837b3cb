import warnings

import numpy as np
import pytest

from survcobra import curves
from survcobra.curves import evaluate, kaplan_meier
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic
from survcobra.learners import base, fit_knn_survival, knn
from helpers import random_dataset, slow_km


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
