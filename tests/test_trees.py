import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survcobra.curves import evaluate, kaplan_meier, product_limit
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic
from survcobra.learners import fit_random_survival_forest, fit_survival_tree
from survcobra.learners.tree import fit_survival_tree_arrays
from helpers import all_splits_logrank, random_dataset, slow_logrank

# (feature, threshold) of every split in preorder, for the first three trees
# of the forest in `test_split_sequences_are_pinned`
PINNED_SPLITS = [
    [
        (3, 0.191885868641763),
        (2, 0.7175917389281351),
        (1, 0.8849770608186331),
        (2, 0.5248195183386672),
        (3, 0.6432067011129989),
        (3, 0.4317094597487268),
        (2, 0.7948097607719922),
    ],
    [
        (0, 0.7844607859885081),
        (0, 0.11238565695121278),
        (2, 0.5062238203476539),
        (2, 0.3599649934590512),
        (2, 0.21835741682778637),
        (1, 0.5775864741257599),
        (2, 0.7938904363928367),
        (0, 0.31692184844520327),
        (1, 0.5285427269515717),
    ],
    [
        (3, 0.3558121325383561),
        (3, 0.2709586012972668),
        (3, 0.1884298631537759),
        (0, 0.6518520593519398),
        (0, 0.9255826739221105),
        (3, 0.40542781357535784),
        (0, 0.6130682040132629),
        (2, 0.23275155791517382),
        (1, 0.5600593212304972),
    ],
]

# records on a coarse grid of covariates and times, so ties in both, and
# censoring at event times, are common
TREE_SAMPLES = st.integers(1, 24).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=n, max_size=n),
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


def clustered_dataset(rng, n_per_side=20):
    """Events near t=1 for x1 <= 0.5, near t=10 for x1 > 0.5; x0 is noise."""
    n = 2 * n_per_side
    x = rng.uniform(size=(n, 2))
    x[:n_per_side, 1] = rng.uniform(0.0, 0.45, size=n_per_side)
    x[n_per_side:, 1] = rng.uniform(0.55, 1.0, size=n_per_side)
    times = np.concatenate(
        [rng.uniform(0.8, 1.2, size=n_per_side), rng.uniform(9.5, 10.5, size=n_per_side)]
    )
    return SurvivalDataset(x, times, np.ones(n, dtype=int), ["x0", "x1"])


class TestSurvivalTree:
    def test_homogeneous_times_give_root_only_tree(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(30, 2))
        ds = SurvivalDataset(x, np.full(30, 2.0), np.ones(30, dtype=int), ["a", "b"])
        tree = fit_survival_tree(ds, max_depth=5, min_leaf=2)
        assert tree.root.is_leaf
        assert tree.predict_curve(x[0]) == kaplan_meier(ds.time, ds.event)

    def test_perfect_separation_splits_on_informative_feature(self):
        rng = np.random.default_rng(1)
        ds = clustered_dataset(rng)
        tree = fit_survival_tree(ds, max_depth=1, min_leaf=5)
        root = tree.root
        assert not root.is_leaf
        assert root.feature == 1
        assert root.threshold == pytest.approx(0.5, abs=0.06)
        # brute force: the chosen split attains the maximal log-rank statistic
        splits = all_splits_logrank(ds.x, ds.time, ds.event, min_leaf=5)
        best_stat = max(s for _, _, s in splits)
        left = ds.x[:, root.feature] <= root.threshold
        chosen_stat = slow_logrank(
            ds.time[left], ds.event[left], ds.time[~left], ds.event[~left]
        )
        assert chosen_stat == pytest.approx(best_stat, rel=1e-9)

    def test_split_is_argmax_on_random_data(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            ds = random_dataset(rng, 25, p=3)
            tree = fit_survival_tree(ds, max_depth=1, min_leaf=3)
            splits = all_splits_logrank(ds.x, ds.time, ds.event, min_leaf=3)
            positive = [s for _, _, s in splits if s > 0.0]
            if tree.root.is_leaf:
                assert not positive
                continue
            left = ds.x[:, tree.root.feature] <= tree.root.threshold
            chosen = slow_logrank(
                ds.time[left], ds.event[left], ds.time[~left], ds.event[~left]
            )
            assert chosen == pytest.approx(max(positive), rel=1e-9)

    def test_leaf_curve_is_hand_km(self):
        # a node that cannot split keeps the product-limit of its records
        ds = SurvivalDataset(
            [[1.0], [1.0], [1.0]], [3.0, 5.0, 7.0], [1, 0, 1], ["x"]
        )
        tree = fit_survival_tree(ds, max_depth=3, min_leaf=1)
        curve = tree.predict_curve(np.array([1.0]))
        assert np.array_equal(curve.times, [3.0, 7.0])
        assert np.allclose(curve.values, [2.0 / 3.0, 0.0])

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 40, p=2)
        tree = fit_survival_tree(ds, max_depth=8, min_leaf=10)

        def check(node, x, times, events):
            if node.is_leaf:
                assert times.size >= 10
                return
            mask = x[:, node.feature] <= node.threshold
            check(node.left, x[mask], times[mask], events[mask])
            check(node.right, x[~mask], times[~mask], events[~mask])

        check(tree.root, ds.x, ds.time, ds.event)

    def test_record_order_invariance(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 35, p=2)
        perm = rng.permutation(ds.n)
        shuffled = SurvivalDataset(ds.x[perm], ds.time[perm], ds.event[perm], ds.feature_names)
        a = fit_survival_tree(ds, max_depth=4, min_leaf=4)
        b = fit_survival_tree(shuffled, max_depth=4, min_leaf=4)
        for q in rng.uniform(size=(10, 2)):
            assert a.predict_curve(q) == b.predict_curve(q)

    def test_predict_values_matches_predict_curve(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 30, p=2)
        tree = fit_survival_tree(ds, max_depth=3, min_leaf=3)
        grid = np.linspace(0.0, 4.0, 7)
        queries = rng.uniform(size=(8, 2))
        batch = tree.predict_values(queries, grid)
        for i, q in enumerate(queries):
            assert np.array_equal(batch[i], evaluate(tree.predict_curve(q), grid))


class TestRandomSurvivalForest:
    def test_degenerate_forest_equals_single_tree(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 40, p=2)
        forest = fit_random_survival_forest(
            ds, n_trees=1, mtry=2, min_leaf=5, seed=1, bootstrap=False
        )
        tree = fit_survival_tree(ds, max_depth=10, min_leaf=5)
        for q in rng.uniform(size=(5, 2)):
            assert forest.predict_curve(q) == tree.predict_curve(q)

    def test_identical_trees_average_to_tree(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 30, p=2)
        forest = fit_random_survival_forest(
            ds, n_trees=7, mtry=2, min_leaf=4, seed=2, bootstrap=False
        )
        tree = fit_survival_tree(ds, max_depth=10, min_leaf=4)
        q = ds.x[0]
        assert np.allclose(
            evaluate(forest.predict_curve(q), [0.5, 1.0, 2.0]),
            evaluate(tree.predict_curve(q), [0.5, 1.0, 2.0]),
        )

    def test_prediction_is_valid_survival_curve(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 50, p=3, event_rate=0.5)
        forest = fit_random_survival_forest(ds, n_trees=12, min_leaf=4, seed=3)
        for q in rng.uniform(size=(10, 3)):
            curve = forest.predict_curve(q)  # constructor enforces the invariants
            assert curve.kind == "survival"
            assert evaluate(curve, 0.0) <= 1.0

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 40, p=2)
        a = fit_random_survival_forest(ds, n_trees=10, min_leaf=4, seed=11)
        b = fit_random_survival_forest(ds, n_trees=10, min_leaf=4, seed=11)
        for q in rng.uniform(size=(6, 2)):
            assert a.predict_curve(q) == b.predict_curve(q)

    def test_variance_shrinks_with_more_trees(self):
        base = np.random.default_rng(10)
        ds = random_dataset(base, 60, p=2)
        q = np.array([0.5, 0.5])

        def spread(n_trees):
            preds = [
                evaluate(
                    fit_random_survival_forest(
                        ds, n_trees=n_trees, min_leaf=5, seed=s
                    ).predict_curve(q),
                    float(np.median(ds.time)),
                )
                for s in range(8)
            ]
            return np.var(preds)

        assert spread(200) < spread(10)

    def test_predict_values_matches_predict_curve(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 40, p=2)
        forest = fit_random_survival_forest(ds, n_trees=9, min_leaf=4, seed=5)
        grid = np.linspace(0.0, 4.0, 6)
        queries = rng.uniform(size=(7, 2))
        batch = forest.predict_values(queries, grid)
        for i, q in enumerate(queries):
            assert np.array_equal(batch[i], evaluate(forest.predict_curve(q), grid))

    def test_mtry_validation(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 20, p=2)
        with pytest.raises(ValueError):
            fit_random_survival_forest(ds, n_trees=2, mtry=5)


def preorder(node):
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold)] + preorder(node.left) + preorder(node.right)


def test_split_sequences_are_pinned():
    data = generate_synthetic(SyntheticConfig(n=120, censor_fraction=0.4, dim=4, seed=3))
    forest = fit_random_survival_forest(data, n_trees=3, min_leaf=10, seed=5)
    assert [preorder(tree.root) for tree in forest.trees] == PINNED_SPLITS


@settings(max_examples=40, deadline=None)
@given(sample=TREE_SAMPLES, max_depth=st.integers(1, 4), min_leaf=st.integers(1, 4))
@example(sample=([[0, 0]] * 4, [2, 2, 3, 5], [0, 0, 0, 0]), max_depth=3, min_leaf=1)  # no event
@example(sample=([[0, 0], [0, 0], [3, 1], [3, 1]], [1, 2, 4, 4], [1, 1, 0, 0]), max_depth=2, min_leaf=1)
def test_property_leaves_are_product_limit_curves_of_their_records(sample, max_depth, min_leaf):
    x, times, events = (np.array(v, dtype=float) for v in sample)
    tree = fit_survival_tree_arrays(x, times, events.astype(int), max_depth, min_leaf)
    ids = tree.leaf_ids(x)
    assert set(ids.tolist()) == set(range(tree.n_leaves))
    for leaf in range(tree.n_leaves):
        rows = np.flatnonzero(ids == leaf)
        assert tree.predict_curve(x[rows[0]]) == product_limit(times[rows], events[rows])
    # before the first event, on and between the event times, past the last
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 9.0])
    queries = np.array([[a, b] for a in range(-1, 5) for b in range(-1, 5)], dtype=float)
    values = tree.predict_values(queries, grid)
    for q, row in zip(queries, values):
        assert np.array_equal(row, evaluate(tree.predict_curve(q), grid))
