import collections
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from survcobra import cobra
from survcobra.cobra import (
    CobraModel,
    CobraParams,
    _CobraStack,
    _member_mask,
    fit_cobra,
    gamma_labels,
    predict_cobra,
    predict_cobra_batch,
)
from survcobra.curves import StepCurve, evaluate, kaplan_meier
from survcobra.learners import LearnerSpec
from helpers import oracle_cobra_curve, proximity_aggregate, random_dataset, reference_member_mask, same_bits

TINY_ROSTER = (
    LearnerSpec("knn_survival", {"k": 3}),
    LearnerSpec("survival_tree", {"max_depth": 2, "min_leaf": 2}),
)

FIVE_ROSTER = (
    LearnerSpec("survival_tree", {"max_depth": 3, "min_leaf": 3}),
    LearnerSpec("random_survival_forest", {"n_trees": 5, "min_leaf": 3, "seed": 1}),
    LearnerSpec("cox_ridge", {"penalty": 1.0}),
    LearnerSpec("cox_lasso", {"penalty": 1.0}),
    LearnerSpec("knn_survival", {"k": 5}),
)


def small_model(seed=0, n=60, epsilon=0.1, alpha=0.5, l_fraction=0.4, roster=TINY_ROSTER):
    rng = np.random.default_rng(seed)
    train = random_dataset(rng, n, p=2, event_rate=0.7)
    params = CobraParams(epsilon=epsilon, alpha=alpha, l_fraction=l_fraction, roster=roster)
    return fit_cobra(train, params, seed=seed)


class TestParams:
    def test_fractional_consensus_rounds_up(self):
        assert CobraParams(0.1, 0.5, 0.4, FIVE_ROSTER).consensus_count == 3  # ceil(2.5)
        assert CobraParams(0.1, 0.6, 0.4, FIVE_ROSTER).consensus_count == 3

    def test_grid_alphas_round_cleanly(self):
        for i, alpha in enumerate([0.2, 0.4, 0.6, 0.8, 1.0], start=1):
            params = CobraParams(0.1, alpha, 0.5, FIVE_ROSTER)
            assert params.consensus_count == i

    def test_consensus_is_at_least_the_fraction_alpha(self):
        # ceil(5 * alpha - 1e-9) gave 1 here, but 1 of 5 machines is less than alpha
        assert CobraParams(0.1, 0.2000000001, 0.5, FIVE_ROSTER).consensus_count == 2
        for machines in range(1, 21):  # the table alphas keep their counts
            roster = (FIVE_ROSTER * 4)[:machines]
            for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
                need = CobraParams(0.1, alpha, 0.5, roster).consensus_count
                assert need == min(max(math.ceil(machines * alpha - 1e-9), 1), machines)

    def test_epsilon_and_fraction_validation(self):
        with pytest.raises(ValueError):
            CobraParams(0.0, 0.5, 0.4, TINY_ROSTER)
        with pytest.raises(ValueError):
            CobraParams(0.1, 0.5, 1.0, TINY_ROSTER)
        with pytest.raises(ValueError):
            CobraParams(0.1, 0.0, 0.4, TINY_ROSTER)


class TestFit:
    def test_calibration_cache_dimensions(self):
        model = small_model(n=100, l_fraction=0.4, alpha=0.6, roster=FIVE_ROSTER)
        assert model.split.d_l.n == 40
        stack = model.stack
        assert len(stack.cal_weighted) == 5
        for machine, held in zip(model.machines, stack.cal_weighted):
            assert held.shape == (40, stack.grid.size - 1)
            want = machine.predict_values(model.split.d_l.x, stack.grid)[:, :-1] * stack.widths
            assert same_bits(held, want)

    def test_constant_machine_gives_identical_cached_curves(self):
        rng = np.random.default_rng(5)
        train = random_dataset(rng, 50, p=2)
        k_all = LearnerSpec("knn_survival", {"k": 30})  # k = |D_k|: population KM for any x
        params = CobraParams(0.1, 1.0, 0.4, (k_all,))
        model = fit_cobra(train, params, seed=2)
        stack = model.stack
        held = stack.cal_weighted[0]
        assert np.all(held == held[0])
        want = model.machines[0].predict_values(model.split.d_l.x, stack.grid)[:, :-1] * stack.widths
        assert same_bits(held, want)

    def test_seeded_determinism(self):
        a = small_model(seed=7, alpha=0.6, roster=FIVE_ROSTER)
        b = small_model(seed=7, alpha=0.6, roster=FIVE_ROSTER)
        assert a.split.d_k == b.split.d_k
        assert a.split.d_l == b.split.d_l
        rng = np.random.default_rng(0)
        for q in rng.uniform(size=(5, 2)):
            assert predict_cobra(a, q) == predict_cobra(b, q)

    def test_cached_curves_match_direct_predictions(self):
        model = small_model(seed=3, roster=TINY_ROSTER)
        d_l, grid, widths = model.split.d_l, model.stack.grid, model.stack.widths
        for m, machine in enumerate(model.machines):
            held = model.stack.cal_weighted[m]
            assert same_bits(held, machine.predict_values(d_l.x, grid)[:, :-1] * widths)
            for j in [0, d_l.n // 2, d_l.n - 1]:
                want = evaluate(machine.predict_curve(d_l.x[j]), grid)[:-1] * widths
                assert same_bits(held[j], want)


class TestGamma:
    def test_query_equal_to_calibration_point(self):
        model = small_model(seed=1, epsilon=1e-12, alpha=1.0)
        d_l = model.split.d_l
        for j in range(min(5, d_l.n)):
            assert gamma_labels(model, d_l.x[j])[j] == 1

    def test_direct_count_example(self):
        # five machines, three of five distances within epsilon, need 3 -> member
        distances = np.sort(np.array([[0.01], [0.02], [0.5], [0.6], [0.03]]), axis=0)
        assert _member_mask(distances, epsilon=0.1, need=3)[0]
        assert not _member_mask(distances, epsilon=0.1, need=4)[0]

    def test_saturating_epsilon_includes_everyone(self):
        model = small_model(seed=4, epsilon=1.5, alpha=1.0)
        rng = np.random.default_rng(8)
        for q in rng.uniform(size=(5, 2)):
            assert gamma_labels(model, q).all()

    def test_monotone_in_epsilon_and_alpha(self):
        model = small_model(seed=9, epsilon=0.05, alpha=0.5)
        rng = np.random.default_rng(10)
        for q in rng.uniform(size=(8, 2)):
            small = set(np.flatnonzero(gamma_labels(model, q)))
            wider = CobraModel(
                dataclasses.replace(model.params, epsilon=0.2), model.stack
            )
            large = set(np.flatnonzero(gamma_labels(wider, q)))
            assert small <= large
            stricter = CobraModel(
                dataclasses.replace(model.params, alpha=1.0), model.stack
            )
            strict = set(np.flatnonzero(gamma_labels(stricter, q)))
            assert strict <= small


class TestMembershipRule:
    """The consensus rule is one order statistic of the machine-sorted
    distances, pinned to the count over machines it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        machines=st.integers(1, 5),
        queries=st.integers(1, 3),
        records=st.integers(1, 6),
    )
    def test_property_order_statistic_equals_the_count(self, data, machines, queries, records):
        # a few distinct values, exact zeros among them, so ties are common
        values = st.sampled_from([0.0, 0.0, 1e-300, 0.05, 0.1, 0.1, 0.3, 1.0])
        cells = data.draw(st.lists(values, min_size=machines * queries * records,
                                   max_size=machines * queries * records))
        distances = np.array(cells).reshape(machines, queries, records)
        epsilon = data.draw(st.sampled_from([0.0, 1e-300, 0.05, 0.1, 0.2, 1.0]))
        ordered = np.sort(distances, axis=0)
        for need in range(1, machines + 1):
            want = reference_member_mask(distances, epsilon, need)
            assert same_bits(_member_mask(ordered, epsilon, need), want)
            for i in range(queries):
                assert same_bits(_member_mask(ordered[:, i, :], epsilon, need), want[i])

    def test_query_distances_are_the_machines_distances_sorted(self):
        model = small_model(seed=8, alpha=0.6, roster=FIVE_ROSTER, n=80)
        stack = model.stack
        queries = np.vstack([np.random.default_rng(3).uniform(size=(6, 2)), model.split.d_l.x[:3]])
        got = stack.query_distances(queries)
        assert np.all(np.diff(got, axis=0) >= 0.0)
        per_machine = np.stack([
            cdist(m.predict_values(queries, stack.grid)[:, :-1] * stack.widths, held, metric="cityblock")
            / stack.span
            for m, held in zip(model.machines, stack.cal_weighted)
        ])
        assert same_bits(got, np.sort(per_machine, axis=0))


class TestProximityAggregate:
    def test_saturated_counts_equal_population_inputs(self):
        model = small_model(seed=6, epsilon=1.5, alpha=1.0)
        d_l = model.split.d_l
        agg = proximity_aggregate(model, np.array([0.5, 0.5]))
        assert np.array_equal(agg.member_indices, np.arange(d_l.n))
        assert np.array_equal(agg.event_times, np.unique(d_l.time[d_l.event == 1]))
        for t, d, r in zip(agg.event_times, agg.event_counts, agg.risk_counts):
            assert d == ((d_l.time == t) & (d_l.event == 1)).sum()
            assert r == (d_l.time >= t).sum()
            assert r >= d >= 0
        assert np.all(np.diff(agg.risk_counts) <= 0)

    def test_hand_counts_for_three_members(self):
        from survcobra.data import SurvivalDataset

        # craft a split whose calibration half is exactly {(3,1),(5,0),(7,1)}
        times = np.array([3.0, 5.0, 7.0, 1.0, 2.0, 4.0])
        events = np.array([1, 0, 1, 1, 1, 1])
        x = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        train = SurvivalDataset(x, times, events, ["x"])
        target = {(3.0, 1), (5.0, 0), (7.0, 1)}
        seed = next(
            s
            for s in range(200)
            if {
                (float(t), int(e))
                for t, e in zip(*_split_arrays(train, s))
            }
            == target
        )
        params = CobraParams(1.5, 1.0, 0.5, TINY_ROSTER)
        model = fit_cobra(train, params, seed=seed)
        agg = proximity_aggregate(model, np.array([0.5]))
        lookup = dict(zip(agg.event_times, zip(agg.event_counts, agg.risk_counts)))
        assert lookup[3.0] == (1, 3)
        assert lookup[7.0] == (1, 1)

    def test_no_event_members_empty_event_times(self):
        model = _model_with_censored_calibration_point()
        d_l = model.split.d_l
        j = int(np.flatnonzero(d_l.event == 0)[0])
        agg = proximity_aggregate(model, d_l.x[j])
        assert np.array_equal(agg.member_indices, [j])
        assert agg.event_times.size == 0


def _split_arrays(train, seed):
    from survcobra.data import cobra_split

    split = cobra_split(train, 0.5, seed)
    return split.d_l.time, split.d_l.event


def _model_with_censored_calibration_point(seed_start=0):
    """A model plus a censored calibration record with unique covariates,
    so a tiny epsilon captures exactly that record."""
    for seed in range(seed_start, seed_start + 50):
        model = small_model(seed=seed, epsilon=1e-12, alpha=1.0, n=40)
        d_l = model.split.d_l
        censored = np.flatnonzero(d_l.event == 0)
        if censored.size == 0:
            continue
        j = int(censored[0])
        if gamma_labels(model, d_l.x[j]).sum() == 1:
            return model
    raise AssertionError("no suitable seed found")


class TestPredict:
    def test_saturated_prediction_is_population_km(self):
        model = small_model(seed=2, epsilon=1.5, alpha=1.0)
        d_l = model.split.d_l
        expected = kaplan_meier(d_l.time, d_l.event)
        rng = np.random.default_rng(3)
        for q in rng.uniform(size=(10, 2)):
            assert predict_cobra(model, q) == expected

    def test_fallback_on_event_free_proximity_set(self):
        model = _model_with_censored_calibration_point()
        d_l = model.split.d_l
        j = int(np.flatnonzero(d_l.event == 0)[0])
        assert predict_cobra(model, d_l.x[j]) == model.stack.pop_km

    def test_fallback_on_empty_proximity_set(self):
        # a continuous-response machine maps distinct queries to distinct
        # curves, so a tiny epsilon leaves the proximity set empty
        model = small_model(
            seed=12, epsilon=1e-300, alpha=1.0, roster=(LearnerSpec("cox_ridge", {"penalty": 0.5}),)
        )
        q = np.array([0.123456, 0.654321])  # not a calibration point
        assert not gamma_labels(model, q).any()
        assert predict_cobra(model, q) == model.stack.pop_km

    def test_matches_oracle_on_small_instances(self):
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            eps_exponent = rng.uniform(np.log(1e-300), np.log(0.9))
            mix_informative = seed % 2 == 0
            epsilon = float(np.exp(rng.uniform(np.log(5e-3), np.log(0.9)))) if mix_informative else float(np.exp(eps_exponent))
            alpha = float(rng.choice([0.5, 1.0]))
            try:
                model = small_model(
                    seed=seed,
                    n=int(rng.integers(16, 40)),
                    epsilon=epsilon,
                    alpha=alpha,
                    l_fraction=float(rng.uniform(0.3, 0.7)),
                )
            except ValueError:
                continue  # a degenerate random split: no events in one half
            if model.split.d_l.n > 20:
                continue
            queries = [rng.uniform(size=2) for _ in range(3)]
            queries.append(model.split.d_l.x[0])
            for q in queries:
                got = predict_cobra(model, np.asarray(q))
                times, values = oracle_cobra_curve(model, np.asarray(q))
                assert np.array_equal(got.times, times)
                assert np.array_equal(got.values, values)
                checked += 1
        assert checked >= 80


class TestBatch:
    def test_singleton_batch(self):
        model = small_model(seed=5)
        q = np.array([0.4, 0.6])
        assert predict_cobra_batch(model, q[None, :])[0] == predict_cobra(model, q)

    def test_duplicate_queries_identical(self):
        model = small_model(seed=5)
        q = np.array([0.4, 0.6])
        out = predict_cobra_batch(model, np.stack([q, q]))
        assert out[0] == out[1]

    def test_permuted_batch_permutes_outputs(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(1)
        queries = rng.uniform(size=(6, 2))
        perm = rng.permutation(6)
        straight = predict_cobra_batch(model, queries)
        shuffled = predict_cobra_batch(model, queries[perm])
        for i, j in enumerate(perm):
            assert shuffled[i] == straight[j]

    def test_batch_equals_sequential(self):
        model = small_model(seed=8, alpha=0.6, roster=FIVE_ROSTER, n=80)
        rng = np.random.default_rng(2)
        queries = rng.uniform(size=(5, 2))
        batch = predict_cobra_batch(model, queries)
        for i, q in enumerate(queries):
            assert batch[i] == predict_cobra(model, q)


def _tensor_bytes(model, queries):
    """Bytes of the (machines, queries, n_l) float64 distance tensor."""
    return len(model.machines) * model.split.d_l.n * 8 * queries


def _budget_for(model, queries_per_chunk):
    """A distance budget that fits exactly `queries_per_chunk` queries: their
    distance tensor and three (queries, grid) curve matrices."""
    curves = 3 * model.stack.grid.size * 8 * queries_per_chunk
    return _tensor_bytes(model, queries_per_chunk) + curves


def _distance_pass_peak(model, queries, step, *extra) -> int:
    """The `tracemalloc` peak of one chunked pass of `step` over `queries`
    whose outputs are dropped as they come."""

    def distance_pass():
        collections.deque(cobra._step_chunks(model, queries, step, *extra), maxlen=0)

    distance_pass()  # warm any lazy state
    tracemalloc.start()
    try:
        distance_pass()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _step_peaks(model, queries) -> dict:
    """`_distance_pass_peak` of a no-op step and of each real step (the
    survival matrix on the model's distance grid), by name."""
    steps = {
        "no-op": (lambda *_: None,),
        "aggregate": (cobra._aggregate,),
        "survival_matrix": (cobra._survival_matrix, model.stack.grid),
        "labels": (cobra._labels,),
    }
    return {name: _distance_pass_peak(model, queries, *step) for name, step in steps.items()}


def _record_chunk_sizes(monkeypatch) -> list:
    """Route `query_distances` through a spy that records each chunk's size."""
    sizes = []
    original = _CobraStack.query_distances

    def spy(stack, x_matrix):
        sizes.append(x_matrix.shape[0])
        return original(stack, x_matrix)

    monkeypatch.setattr(_CobraStack, "query_distances", spy)
    return sizes


class TestChunkedPass:
    def test_batch_spanning_chunks_equals_sequential(self, monkeypatch):
        model = small_model(seed=8, alpha=0.6, roster=FIVE_ROSTER, n=80)
        rng = np.random.default_rng(4)
        queries = np.vstack([rng.uniform(size=(6, 2)), model.split.d_l.x[:3]])
        sequential = [predict_cobra(model, q) for q in queries]
        sizes = _record_chunk_sizes(monkeypatch)
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", _budget_for(model, 2))
        batch = predict_cobra_batch(model, queries)
        assert sizes == [2, 2, 2, 2, 1]
        assert batch == sequential

    def test_budget_below_one_query_takes_one_query_per_chunk(self, monkeypatch):
        model = small_model(seed=5)
        queries = np.random.default_rng(6).uniform(size=(3, 2))
        expected = predict_cobra_batch(model, queries)
        sizes = _record_chunk_sizes(monkeypatch)
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", 1)
        assert predict_cobra_batch(model, queries) == expected
        assert sizes == [1, 1, 1]

    def test_label_chunks_equal_per_query_labels(self, monkeypatch):
        model = small_model(seed=9, epsilon=0.05, alpha=0.5)
        queries = np.random.default_rng(7).uniform(size=(5, 2))
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", _budget_for(model, 2))
        chunks = list(cobra._step_chunks(model, queries, cobra._labels))
        assert [c.shape[0] for c in chunks] == [2, 2, 1]
        labels = np.concatenate(chunks)
        for q, row in zip(queries, labels):
            assert np.array_equal(row, gamma_labels(model, q))

    def test_query_feature_count_checked(self):
        model = small_model(seed=5)
        with pytest.raises(ValueError, match="features"):
            predict_cobra_batch(model, np.zeros((2, 3)))

    @pytest.mark.parametrize("per_chunk", [1, 3, None])  # None: every query in one chunk
    def test_predict_values_equal_the_batch_curves_bitwise(self, monkeypatch, per_chunk):
        # at this epsilon the uniform queries fall back to the population KM
        # and the calibration records, at distance 0 from themselves, do not
        model = small_model(seed=8, epsilon=1e-9, alpha=0.6, roster=FIVE_ROSTER, n=80)
        rng = np.random.default_rng(4)
        queries = np.vstack([rng.uniform(size=(4, 2)), model.split.d_l.x[model.split.d_l.event == 1][:3]])
        times = np.concatenate([[0.0], np.sort(model.split.d_l.time), [np.inf]])
        if per_chunk is not None:
            monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", _budget_for(model, per_chunk))
        sizes = _record_chunk_sizes(monkeypatch)
        curves = predict_cobra_batch(model, queries)
        fallback = [c is model.stack.pop_km for c in curves]
        assert any(fallback) and not all(fallback)
        got = model.predict_values(queries, times)
        size = per_chunk or len(queries)
        chunks = [min(size, len(queries) - start) for start in range(0, len(queries), size)]
        assert sizes == chunks + chunks  # the batch's pass, then this one's
        assert same_bits(got, np.stack([evaluate(c, times) for c in curves]))

    def test_predict_values_builds_no_curve(self):
        # the calibration records with events, at distance 0 from
        # themselves, aggregate their own proximity sets
        model = small_model(seed=8, epsilon=1e-9, alpha=0.6, roster=FIVE_ROSTER, n=80)
        queries = model.split.d_l.x[model.split.d_l.event == 1][:3]
        assert not any(c is model.stack.pop_km for c in predict_cobra_batch(model, queries))
        with mock.patch.object(StepCurve, "__post_init__", autospec=True, side_effect=StepCurve.__post_init__) as built:
            model.predict_values(queries, np.sort(model.split.d_l.time))
        assert built.call_count == 0

    def test_predict_values_of_no_query_is_an_empty_matrix(self):
        model = small_model(seed=5)
        got = model.predict_values(np.empty((0, 2)), [0.5, 1.0, 2.0])
        assert got.shape == (0, 3) and got.dtype == np.float64


    def test_chunk_budget_covers_the_curve_matrices(self, monkeypatch):
        # at a small l_fraction the grid is wider than the calibration part,
        # so the machines' (chunk, grid) curves outweigh the distance tensor
        rng = np.random.default_rng(3)
        roster = (LearnerSpec("cox_ridge", {"penalty": 1.0}), LearnerSpec("cox_ridge", {"penalty": 10.0}))
        model = fit_cobra(random_dataset(rng, 400, p=6), CobraParams(0.05, 0.5, 0.1, roster), seed=0)
        assert model.stack.grid.size > 2 * model.split.d_l.n
        budget = 64 * 2**10
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", budget)
        peaks = _step_peaks(model, rng.uniform(size=(200, 6)))
        assert max(peaks.values()) < 2 * budget, {name: peak / budget for name, peak in peaks.items()}

    def test_chunk_budget_covers_the_distance_output(self, monkeypatch):
        # at a large l_fraction the distance tensor is most of a chunk's
        # work, so a cdist result held beside it would double the peak
        rng = np.random.default_rng(3)
        roster = (LearnerSpec("cox_ridge", {"penalty": 1.0}),)
        model = fit_cobra(random_dataset(rng, 400, p=6), CobraParams(0.05, 0.5, 0.9, roster), seed=0)
        assert model.stack.grid.size < model.split.d_l.n / 10
        budget = 64 * 2**10
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", budget)
        queries = rng.uniform(size=(200, 6))
        peaks = _step_peaks(model, queries)
        # on the calibration part's sorted times a (chunk, n_l) survival
        # matrix is as large as the tensor's machine slice
        peaks["survival_matrix_at_calibration_times"] = _distance_pass_peak(
            model, queries, cobra._survival_matrix, np.sort(model.split.d_l.time)
        )
        ratios = {name: peak / budget for name, peak in peaks.items()}
        # `_aggregate` also holds the curves of the chunk's queries, of up to
        # n_l jumps each, `_survival_matrix` its output, and the bool labels
        # add an eighth of the tensor; a tensor copied by any step (0.8 of
        # the budget here) would still take its peak past its bound
        bounds = {
            "no-op": 1.5,
            "labels": 1.5,
            "aggregate": 2.0,
            "survival_matrix": 2.0,
            "survival_matrix_at_calibration_times": 2.0,
        }
        assert all(ratios[name] < bound for name, bound in bounds.items()), ratios

    def test_transient_memory_does_not_grow_with_the_query_count(self, monkeypatch):
        # the peak above the held model, less what the returned curves keep
        # alive, is one chunk's work however many chunks the batch spans
        model = small_model(seed=2, n=400, l_fraction=0.5, alpha=0.6, roster=FIVE_ROSTER)
        per_chunk = 8
        monkeypatch.setattr(cobra, "_DISTANCE_BUDGET_BYTES", _budget_for(model, per_chunk))
        queries = np.random.default_rng(5).uniform(size=(4 * per_chunk, 2))
        predict_cobra_batch(model, queries[:per_chunk])  # warm any lazy state

        def transient(q):
            tracemalloc.start()
            try:
                curves = predict_cobra_batch(model, q)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(curves) == q.shape[0]
            return peak - kept

        one, four = transient(queries[:per_chunk]), transient(queries)
        chunk_tensor = _tensor_bytes(model, per_chunk)
        assert one >= chunk_tensor
        assert four <= one + chunk_tensor // 4, (one, four)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(24, 48),
    log_epsilon=st.floats(np.log(1e-3), np.log(0.9)),
    alpha=st.sampled_from([0.5, 1.0]),
    n_queries=st.integers(1, 7),
    per_chunk=st.integers(1, 4),
)
def test_property_batch_equals_sequential_and_saturation_gives_km(
    seed, n, log_epsilon, alpha, n_queries, per_chunk
):
    try:
        model = small_model(seed=seed, n=n, epsilon=float(np.exp(log_epsilon)), alpha=alpha)
    except ValueError:
        assume(False)  # a random split left one part without events
    rng = np.random.default_rng(seed)
    queries = np.vstack([rng.uniform(size=(n_queries, 2)), model.split.d_l.x[:1]])
    with mock.patch.object(cobra, "_DISTANCE_BUDGET_BYTES", _budget_for(model, per_chunk)):
        batch = predict_cobra_batch(model, queries)
        assert batch == [predict_cobra(model, q) for q in queries]
        largest = max(float(model.stack.query_distances(queries).max()), 1e-300)
        saturated = CobraModel(dataclasses.replace(model.params, epsilon=largest), model.stack)
        assert all(c == model.stack.pop_km for c in predict_cobra_batch(saturated, queries))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    log_epsilons=st.lists(st.floats(np.log(1e-3), np.log(0.9)), min_size=2, max_size=2),
    alphas=st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]), min_size=2, max_size=2),
)
def test_property_proximity_set_grows_with_epsilon_and_shrinks_with_alpha(
    seed, log_epsilons, alphas
):
    roster = TINY_ROSTER + (LearnerSpec("knn_survival", {"k": 6}),)  # need 1, 2 or 3
    (epsilon, wider), (alpha, stricter) = np.exp(sorted(log_epsilons)), sorted(alphas)
    try:
        model = small_model(seed=seed, n=40, epsilon=epsilon, alpha=alpha, roster=roster)
    except ValueError:
        assume(False)  # a random split left one part without events
    grown = CobraModel(dataclasses.replace(model.params, epsilon=wider), model.stack)
    shrunk = CobraModel(dataclasses.replace(model.params, alpha=stricter), model.stack)
    rng = np.random.default_rng(seed)
    for q in np.vstack([rng.uniform(size=(4, 2)), model.split.d_l.x[:1]]):
        labels = gamma_labels(model, q)
        assert np.all(labels <= gamma_labels(grown, q))
        assert np.all(gamma_labels(shrunk, q) <= labels)
