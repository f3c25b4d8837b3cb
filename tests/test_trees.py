import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survcobra.curves import evaluate, kaplan_meier, product_limit
from survcobra.data import SurvivalDataset, SyntheticConfig, generate_synthetic
from survcobra.learners import fit_random_survival_forest, fit_survival_tree
from survcobra.learners import tree as tree_module
from survcobra.learners.tree import fit_survival_tree_arrays
from helpers import all_splits_logrank, random_dataset, reference_node_split, slow_logrank

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

# (feature, threshold) of every split in preorder of the first tree in
# `test_large_tree_split_sequence_is_pinned`: nodes of up to 1,600 rows
PINNED_SPLITS_LARGE = [
    (0, 0.1887030848354646), (8, 0.45216159148301877),
    (6, 0.6872769543778721), (0, 0.15404236013773953),
    (1, 0.6236005250236187), (4, 0.46374296714599234),
    (5, 0.7591313216925364), (7, 0.2384693918803804),
    (5, 0.62996051243541), (2, 0.39802077089974197),
    (4, 0.46267944224262886), (8, 0.6164188118854949),
    (7, 0.18725817464878963), (7, 0.14974633408861038),
    (2, 0.9580737354377298), (3, 0.28828010518804825),
    (2, 0.32474166963524703), (2, 0.82702094333873),
    (4, 0.6014459859529757), (7, 0.12478716306027526),
    (5, 0.6108620990385916), (4, 0.3733699914495809),
    (2, 0.2500685669675174), (5, 0.5383232800081212),
    (7, 0.16909670623694895), (3, 0.18673694260485613),
    (4, 0.9153492158878294), (2, 0.24712179073670848),
    (4, 0.47242549080973484), (5, 0.7854921415583153),
    (2, 0.8485652750807745), (1, 0.7879087095228144),
    (2, 0.7759654391815464), (8, 0.6870731973487223),
    (7, 0.6677895933942122), (0, 0.5902901061165917),
    (6, 0.27658459451777195), (6, 0.20458284231765655),
    (4, 0.8818690216769199), (4, 0.24792566073288796),
    (0, 0.3642620952036224), (3, 0.4709184224733402),
    (3, 0.26577467883902683), (4, 0.9270256644712669),
    (7, 0.2936928643250476), (0, 0.5075415077857526),
    (8, 0.12461811577709447), (4, 0.46251310217141584),
    (7, 0.29488658330412115), (3, 0.9807698106492244),
    (4, 0.25054231423212014), (8, 0.5100576508287262),
    (2, 0.5065292607558982), (7, 0.7150362434572637),
    (4, 0.102241103206335), (2, 0.5828481295868826),
    (4, 0.5243376889939799), (4, 0.3645227364167322),
    (8, 0.4861007328366036), (4, 0.4152025501956928),
    (4, 0.9487798783238818), (0, 0.9319912435129247),
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

    @pytest.mark.parametrize(
        "low, high",
        [(2.697867137638703, np.nextafter(2.697867137638703, 3.0)), (1e308, 1.5e308), (-1.5e308, -1e308)],
        ids=["neighbouring floats", "midpoint overflows", "midpoint overflows below"],
    )
    def test_threshold_separates_its_two_values(self, low, high):
        # ten early and ten late records at two values whose rounded midpoint
        # is `high` or infinite: the threshold is `low`, and each group gets
        # its own curve
        x = np.repeat([low, high], 10)[:, None]
        times = np.concatenate([np.linspace(0.1, 1.0, 10), np.linspace(2.0, 3.0, 10)])
        ds = SurvivalDataset(x, times, np.ones(20, dtype=int), ["x"])
        tree = fit_survival_tree(ds, max_depth=1, min_leaf=2)
        assert tree.root.threshold == low
        assert tree.leaf_ids(np.array([[low], [high]])).tolist() == [0, 1]
        for group, value in ((slice(0, 10), low), (slice(10, 20), high)):
            assert tree.predict_curve([value]) == kaplan_meier(times[group], np.ones(10))

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

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"min_leaf": 0}, "min_leaf must be at least 1"),
            ({"min_leaf": -3}, "min_leaf must be at least 1"),
            ({"max_depth": 0}, "max_depth must be at least 1"),
        ],
    )
    def test_tree_settings_validated(self, setting, message):
        # the forest grows its trees through the same checks as a single tree
        ds = random_dataset(np.random.default_rng(14), 20, p=2)
        with pytest.raises(ValueError, match=message):
            fit_random_survival_forest(ds, n_trees=2, **setting)
        with pytest.raises(ValueError, match=message):
            fit_survival_tree(ds, **setting)


def preorder(node):
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold)] + preorder(node.left) + preorder(node.right)


def test_split_sequences_are_pinned():
    data = generate_synthetic(SyntheticConfig(n=120, censor_fraction=0.4, dim=4, seed=3))
    forest = fit_random_survival_forest(data, n_trees=3, min_leaf=10, seed=5)
    assert [preorder(tree.root) for tree in forest.trees] == PINNED_SPLITS


def test_large_tree_split_sequence_is_pinned():
    data = generate_synthetic(SyntheticConfig(n=1600, censor_fraction=0.4, dim=9, seed=3))
    forest = fit_random_survival_forest(data, n_trees=1, seed=3)
    assert preorder(forest.trees[0].root) == PINNED_SPLITS_LARGE


def test_pinned_splits_hold_with_int32_counts(monkeypatch):
    # every node takes the int32 path; the counts, and so the trees, are the same
    monkeypatch.setattr(tree_module, "_INT16_ROWS", 0)
    test_split_sequences_are_pinned()
    test_large_tree_split_sequence_is_pinned()


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


def searched_nodes(x, times, events, max_depth, min_leaf, mtry=None, rng=None):
    """Grow a tree and return, for every node whose split was searched, the
    search's arguments and its (statistic, feature, threshold) or None."""
    calls = []
    search = tree_module._best_split

    def record(*args):
        found = search(*args)
        calls.append((args, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_best_split", record)
        fit_survival_tree_arrays(x, times, events, max_depth, min_leaf, mtry, rng)
    return calls


def assert_nodes_match_reference(x, events, calls):
    """Each node's split equals the former search's: the feature, and the
    threshold and statistic to the bit."""

    def bits(found):
        return None if found is None else (found[0].hex(), found[1], found[2].hex())

    for (_xt, _is_event, rows, ranks, cols, d, r, candidates, min_leaf), found in calls:
        expected = reference_node_split(x, events, rows, ranks, cols, d, r, candidates, min_leaf)
        assert bits(found) == bits(expected)


# one root search each: x, times, events, min_leaf, and the root's
# (feature, threshold), or None for no split
SPLIT_CASES = {
    "tied values": (
        [[0, 0], [0, 1], [1, 0], [1, 1], [1, 0], [2, 1], [2, 0], [3, 1], [3, 0], [3, 1]],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        [1] * 10,
        2,
        (0, 0.5),
    ),
    "all values of a feature tied": (
        [[5, 0], [5, 1], [5, 2], [5, 3], [5, 4], [5, 5], [5, 6], [5, 7]],
        [1, 2, 3, 4, 5, 6, 7, 8],
        [1] * 8,
        2,
        (1, 1.5),
    ),
    "no admissible cut": ([[2, 2]] * 6, [1, 2, 3, 4, 5, 6], [1] * 6, 2, None),
    # 6 rows and min_leaf 3: the only cut puts 3 rows on each side
    "one admissible cut": ([[0], [0], [1], [2], [2], [3]], [1, 2, 3, 7, 8, 9], [1] * 6, 3, (0, 1.5)),
    "min_leaf 1": (
        [[0, 1], [1, 0], [2, 1], [3, 0], [4, 1], [5, 0]],
        [2, 1, 4, 3, 6, 5],
        [1, 1, 0, 1, 1, 0],
        1,
        (0, 1.5),
    ),
    # the cuts at 1.5, 2.5 and 3.5 leave no event on the left
    "event-free part": (
        [[0], [1], [2], [3], [4], [5], [6], [7]],
        [1, 2, 3, 4, 5, 6, 7, 8],
        [0, 0, 0, 0, 1, 1, 1, 1],
        2,
        (0, 4.5),
    ),
    # the cuts at 1.5 and 2.5 leave both records at risk at t=1 on the left:
    # zero variance, so only the cut at 0.5 counts
    "variance at or below 1e-12": ([[0], [1], [2], [3]], [1, 2, 0.5, 0.5], [1, 0, 0, 0], 1, (0, 0.5)),
    # the one event time has one record at risk: no variance anywhere
    "only event alone at risk": ([[0], [1], [2], [3]], [0.5, 0.6, 0.7, 2.0], [0, 0, 0, 1], 1, None),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_search_edge_cases_match_reference(case):
    x, times, events, min_leaf, expected = SPLIT_CASES[case]
    x, times, events = np.array(x, dtype=float), np.array(times, dtype=float), np.array(events)
    calls = searched_nodes(x, times, events, 1, min_leaf)
    assert len(calls) == 1
    found = calls[0][1]
    assert (found if found is None else found[1:]) == expected
    assert_nodes_match_reference(x, events, calls)


@settings(max_examples=60, deadline=None)
@given(sample=TREE_SAMPLES, max_depth=st.integers(1, 4), min_leaf=st.integers(1, 4))
def test_property_split_search_matches_reference(sample, max_depth, min_leaf):
    x, times, events = (np.array(v, dtype=float) for v in sample)
    events = events.astype(int)
    assert_nodes_match_reference(x, events, searched_nodes(x, times, events, max_depth, min_leaf))


@pytest.mark.parametrize("seed", range(4))
def test_forest_nodes_match_reference(seed):
    # sampled features, tied covariates and bootstrap-sized nodes
    data = generate_synthetic(SyntheticConfig(n=160, censor_fraction=0.4, dim=5, seed=seed))
    x = np.round(data.x, 1)
    rng = np.random.default_rng(seed)
    for min_leaf in (1, 5):
        calls = searched_nodes(x, data.time, data.event, 10, min_leaf, mtry=2, rng=rng)
        assert len(calls) > 10
        assert_nodes_match_reference(x, data.event, calls)
