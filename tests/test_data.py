import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcobra.data import (
    RawTable,
    SurvivalDataset,
    SyntheticConfig,
    cobra_split,
    generate_synthetic,
    kfold_split,
    load_csv,
    load_raw_csv,
    preprocess,
)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


class TestDataset:
    def test_basic_construction(self):
        ds = SurvivalDataset([[1.0], [2.0]], [3.0, 4.0], [1, 0], ["x1"])
        assert ds.n == 2
        assert ds.n_features == 1
        assert ds.event[1] == 0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SurvivalDataset([[1.0]], [0.0], [1], ["x1"])  # time must be positive
        with pytest.raises(ValueError):
            SurvivalDataset([[1.0]], [1.0], [2], ["x1"])  # event flag domain
        with pytest.raises(ValueError):
            SurvivalDataset([[1.0]], [1.0], [0], ["x1"])  # needs an event
        with pytest.raises(ValueError):
            SurvivalDataset([[1.0, 2.0]], [1.0], [1], ["x1"])  # name count

    @pytest.mark.parametrize(
        "x, time, event, names, message",
        [
            (np.empty((2, 0)), [1.0, 2.0], [1, 0], [], "a dataset needs at least one covariate column"),
            (np.empty((0, 1)), [], [], ["x1"], "empty input: at least one record is required"),
            ([[1.0], [2.0]], [1.0], [1], ["x1"], "time and event must be 1-d arrays matching the record count"),
            ([[1.0]], [0.0], [1], ["x1"], "times must be strictly positive"),
            ([[1.0]], [1.0], [0], ["x1"], "a dataset needs at least one observed event"),
        ],
        ids=["no-covariate", "no-record", "row-count", "zero-time", "no-event"],
    )
    def test_own_rules_give_their_messages(self, x, time, event, names, message):
        with pytest.raises(ValueError) as err:
            SurvivalDataset(x, time, event, names)
        assert str(err.value) == message

    def test_pickle_rebuilds_read_only_arrays(self):
        ds = SurvivalDataset([[1.0], [2.0]], [3.0, 4.0], [1, 0], ["x1"])
        again = pickle.loads(pickle.dumps(ds))
        assert again == ds and again is not ds
        assert not any(arr.flags.writeable for arr in (again.x, again.time, again.event))

    def test_caller_arrays_stay_writable(self):
        x, time, event = np.ones((2, 1)), np.array([1.0, 2.0]), np.array([1, 0])
        SurvivalDataset(x, time, event, ["x1"])
        assert all(arr.flags.writeable for arr in (x, time, event))

    def test_immutability(self):
        ds = SurvivalDataset([[1.0]], [1.0], [1], ["x1"])
        with pytest.raises(AttributeError):
            ds.x = None
        with pytest.raises(ValueError):
            ds.time[0] = 2.0


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        p = tmp_path / "tiny.csv"
        write_csv(p, ["x1", "time", "event"], [[0.5, 1.0, 1], [0.2, 2.0, 0], [0.9, 3.0, 1]])
        ds = load_csv(p, "time", "event")
        assert ds.n == 3
        assert ds.n_features == 1
        assert ds.feature_names == ("x1",)
        assert np.array_equal(ds.time, [1.0, 2.0, 3.0])

    def test_recid_shaped_file(self, tmp_path):
        # same shape as the recidivism benchmark: 1445 rows, 14 feature columns
        rng = np.random.default_rng(0)
        p = tmp_path / "recid.csv"
        header = [f"f{i}" for i in range(14)] + ["week", "arrest"]
        rows = [
            list(np.round(rng.uniform(0, 1, 14), 4)) + [int(rng.integers(1, 82)), int(rng.integers(0, 2))]
            for _ in range(1445)
        ]
        rows[0][-1] = 1
        write_csv(p, header, rows)
        ds = load_csv(p, "week", "arrest")
        assert ds.n == 1445
        assert ds.n_features == 14

    def test_bad_event_value_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, ["x1", "time", "event"], [[0.5, 1.0, 1], [0.2, 2.0, 2]])
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p, "time", "event")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        write_csv(p, ["x1", "time"], [[0.5, 1.0]])
        with pytest.raises(ValueError, match="event"):
            load_csv(p, "time", "event")

    def test_non_numeric_time_names_row(self, tmp_path):
        p = tmp_path / "time.csv"
        write_csv(p, ["x1", "time", "event"], [[0.5, "soon", 1]])
        with pytest.raises(ValueError, match="row 1"):
            load_csv(p, "time", "event")

    def test_nonpositive_time_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        write_csv(p, ["x1", "time", "event"], [[0.5, -1.0, 1]])
        with pytest.raises(ValueError, match="positive"):
            load_csv(p, "time", "event")

    def test_empty_feature_cell_names_row(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_csv(p, ["x1", "time", "event"], [[0.5, 1.0, 1], ["", 2.0, 0]])
        with pytest.raises(ValueError, match=r"column 'x1', row 2: missing value$"):
            load_csv(p, "time", "event")

    def test_nan_covariate_cell_is_refused_not_imputed(self, tmp_path):
        p = tmp_path / "nan.csv"
        write_csv(p, ["x1", "time", "event"], [[0.5, 1.0, 1], ["-nan", 2.0, 0], ["", 3.0, 1]])
        with pytest.raises(ValueError) as err:
            load_csv(p, "time", "event")
        assert str(err.value) == f"{p}: column 'x1', row 2: missing value, got '-nan'"


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("time", "soon", "non-numeric value 'soon'"),
        ("time", "", "missing value"),
        ("time", "inf", "time must be finite and positive, got 'inf'"),
        ("time", "0", "time must be finite and positive, got '0'"),
        ("time", "-1.5", "time must be finite and positive, got '-1.5'"),
        ("event", "2", "event flag must be 0 or 1, got '2'"),
        ("event", "NA", "missing value"),
        ("x1", "abc", "non-numeric value 'abc'"),
        ("x1", "", "missing value"),  # load_csv only: preprocess imputes it
    ],
    ids=["time-text", "time-missing", "time-inf", "time-zero", "time-negative", "event-two", "event-missing",
         "covariate-text", "covariate-missing"],
)
def test_both_csv_paths_name_a_bad_cell_alike(tmp_path, column, cell, message):
    header = ["x1", "time", "event", "x2"]
    rows = [["0.5", "1.0", "1", "3"], ["0.2", "2.0", "0", "4"], ["0.9", "3.0", "1", "5"]]
    rows[1][header.index(column)] = cell
    path = tmp_path / "bad.csv"
    write_csv(path, header, rows)
    with pytest.raises(ValueError) as err:
        load_csv(path, "time", "event")
    assert str(err.value) == f"{path}: column {column!r}, row 2: {message}"
    table = load_raw_csv(path)
    if column == "x1" and not cell:
        assert preprocess(table, numeric=["x1", "x2"], categorical=[], time_col="time", event_col="event").x[1, 0] == 0.7
        return
    with pytest.raises(ValueError) as err:
        preprocess(table, numeric=["x1", "x2"], categorical=[], time_col="time", event_col="event")
    assert str(err.value) == f"column {column!r}, row 2: {message}"


@pytest.mark.parametrize("flags", [["1", "1", "1"], ["1", "0", "1"]], ids=["all-events", "with-censoring"])
def test_load_csv_refuses_one_column_as_time_and_event(tmp_path, flags):
    path = tmp_path / "same.csv"
    write_csv(path, ["x1", "event"], [["0.5", flags[0]], ["0.2", flags[1]], ["0.9", flags[2]]])
    with pytest.raises(ValueError) as err:
        load_csv(path, "event", "event")
    assert str(err.value) == f"{path}: columns declared more than once (as time, event, numeric or categorical): ['event']"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file, expected a header row"),
        ("a,a,time,event\n1,2,3,1\n", "duplicate column names in header"),
        # stripped, "a " would read column "a" twice and lose its own cells
        ("a,a ,time,event\n1,5,1.0,1\n2,6,2.0,0\n", "duplicate column names in header"),
        ("a,time,event\n1,2,1\n1,2\n", "row 2 has 2 cells, expected 3"),
        ("a,time,event\n", "no data rows"),
    ],
    ids=["empty", "duplicate", "duplicate-after-strip", "ragged", "header-only"],
)
def test_both_loaders_reject_a_bad_file_alike(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    for load in (lambda: load_csv(path, "time", "event"), lambda: load_raw_csv(path)):
        with pytest.raises(ValueError) as err:
            load()
        assert str(err.value) == f"{path}: {message}"


def _table_bytes(header, rows, bom, newline):
    text = newline.join(",".join(line) for line in [header, *rows]) + newline
    return ("\ufeff" if bom else "").encode() + text.encode("utf-8")


def _load_raw(path, covariates):
    table = load_raw_csv(path)
    return preprocess(table, numeric=covariates, categorical=[], time_col="time", event_col="event")


_cell = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), p=st.integers(1, 3))
def test_property_csv_round_trip_ignores_bom_and_line_ends(tmp_path_factory, data, n, p):
    names = [f"x{j}" for j in range(p)]
    header = data.draw(st.permutations([*names, "time", "event"]))
    covariates = [h for h in header if h in names]
    x = data.draw(st.lists(st.lists(_cell, min_size=p, max_size=p), min_size=n, max_size=n))
    times = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n))
    events = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    events[0] = 1
    cells = [
        dict(zip(covariates, map(repr, xi)), time=repr(t), event=str(e))
        for xi, t, e in zip(x, times, events)
    ]
    rows = [[row[h] for h in header] for row in cells]
    want = SurvivalDataset(x, times, events, covariates)
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    for bom in (False, True):
        for newline in ("\n", "\r\n"):
            path.write_bytes(_table_bytes(header, rows, bom, newline))
            assert load_csv(path, "time", "event") == want
            assert _load_raw(path, covariates) == want
    # an infinite time or covariate is rejected by both loaders
    i = data.draw(st.integers(0, n - 1))
    col = data.draw(st.sampled_from([*covariates, "time"]))
    cells[i][col] = data.draw(st.sampled_from(["inf", "-inf", "Infinity"]))
    bad = [[row[h] for h in header] for row in cells]
    path.write_bytes(_table_bytes(header, bad, data.draw(st.booleans()), "\n"))
    with pytest.raises(ValueError):
        load_csv(path, "time", "event")
    with pytest.raises(ValueError):
        _load_raw(path, covariates)


class TestPreprocess:
    def test_mean_imputation(self):
        table = RawTable(
            ("v", "time", "event"),
            (("1", "1.0", "1"), ("", "2.0", "0"), ("3", "3.0", "1")),
        )
        ds = preprocess(table, numeric=["v"], categorical=[], time_col="time", event_col="event")
        assert np.array_equal(ds.x[:, 0], [1.0, 2.0, 3.0])

    def test_one_hot(self):
        table = RawTable(
            ("g", "time", "event"),
            (("a", "1.0", "1"), ("b", "2.0", "0"), ("a", "3.0", "1")),
        )
        ds = preprocess(table, numeric=[], categorical=["g"], time_col="time", event_col="event")
        assert ds.feature_names == ("g=a", "g=b")
        assert np.array_equal(ds.x, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_categorical_mode_imputation(self):
        table = RawTable(
            ("g", "time", "event"),
            (("a", "1.0", "1"), ("", "2.0", "0"), ("a", "3.0", "1"), ("b", "4.0", "1")),
        )
        ds = preprocess(table, numeric=[], categorical=["g"], time_col="time", event_col="event")
        assert np.array_equal(ds.x[1], [1.0, 0.0])  # imputed to the mode 'a'

    def test_single_level_dropped_with_warning(self):
        table = RawTable(
            ("g", "v", "time", "event"),
            (("a", "1", "1.0", "1"), ("a", "2", "2.0", "1")),
        )
        with pytest.warns(UserWarning, match="single-level"):
            ds = preprocess(
                table, numeric=["v"], categorical=["g"], time_col="time", event_col="event"
            )
        assert ds.feature_names == ("v",)

    def test_all_missing_column_fails(self):
        table = RawTable(("v", "time", "event"), (("", "1.0", "1"), ("na", "2.0", "1")))
        with pytest.raises(ValueError, match="entirely missing"):
            preprocess(table, numeric=["v"], categorical=[], time_col="time", event_col="event")

    @pytest.mark.parametrize(
        "roles, repeated",
        [
            (dict(numeric=["v"], categorical=["g"], time_col="event", event_col="event"), "['event']"),
            (dict(numeric=["v", "time"], categorical=["g"], time_col="time", event_col="event"), "['time']"),
            (dict(numeric=["v", "v"], categorical=["g"], time_col="time", event_col="event"), "['v']"),
            (dict(numeric=["v", "g"], categorical=["g"], time_col="time", event_col="event"), "['g']"),
        ],
        ids=["time-is-event", "numeric-time", "numeric-twice", "numeric-and-categorical"],
    )
    def test_declared_roles_name_distinct_columns(self, roles, repeated):
        table = RawTable(("v", "g", "time", "event"), (("1", "a", "1.0", "1"), ("2", "b", "2.0", "1")))
        with pytest.raises(ValueError) as err:
            preprocess(table, **roles)
        assert str(err.value) == f"columns declared more than once (as time, event, numeric or categorical): {repeated}"

    def test_undeclared_column_fails(self):
        table = RawTable(("v", "time", "event"), (("1", "1.0", "1"),))
        with pytest.raises(ValueError, match="declared"):
            preprocess(table, numeric=[], categorical=[], time_col="time", event_col="event")

    def test_idempotent_on_clean_numeric_table(self, tmp_path):
        p = tmp_path / "clean.csv"
        write_csv(p, ["a", "b", "time", "event"], [[1.0, 2.0, 1.0, 1], [3.0, 4.0, 2.0, 0]])
        direct = load_csv(p, "time", "event")
        table = load_raw_csv(p)
        cooked = preprocess(
            table, numeric=["a", "b"], categorical=[], time_col="time", event_col="event"
        )
        assert cooked == direct


class TestKfold:
    def test_even_split(self):
        ds = SurvivalDataset(np.ones((10, 1)), np.arange(1.0, 11.0), np.ones(10, dtype=int), ["x"])
        pairs = kfold_split(ds, 5, seed=0)
        assert len(pairs) == 5
        assert all(test.n == 2 and train.n == 8 for train, test in pairs)

    def test_remainder_distribution(self):
        ds = SurvivalDataset(np.ones((11, 1)), np.arange(1.0, 12.0), np.ones(11, dtype=int), ["x"])
        sizes = [test.n for _, test in kfold_split(ds, 5, seed=1)]
        assert sizes == [3, 2, 2, 2, 2]

    def test_determinism(self):
        ds = SurvivalDataset(np.ones((10, 1)), np.arange(1.0, 11.0), np.ones(10, dtype=int), ["x"])
        a = kfold_split(ds, 5, seed=42)
        b = kfold_split(ds, 5, seed=42)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert tr1 == tr2 and te1 == te2

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        ds = SurvivalDataset(
            rng.uniform(size=(23, 2)), rng.uniform(0.1, 5.0, 23), np.ones(23, dtype=int), ["a", "b"]
        )
        pairs = kfold_split(ds, 4, seed=5)
        seen = np.concatenate([test.time for _, test in pairs])
        assert np.array_equal(np.sort(seen), np.sort(ds.time))
        for train, test in pairs:
            assert train.n + test.n == ds.n
            assert not set(test.time.tolist()) & set(train.time.tolist())

    def test_too_many_folds(self):
        ds = SurvivalDataset(np.ones((3, 1)), [1.0, 2.0, 3.0], [1, 1, 1], ["x"])
        with pytest.raises(ValueError):
            kfold_split(ds, 4, seed=0)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_property_kfold_is_a_partition(data, n, seed):
    folds = data.draw(st.integers(2, n))
    ids = np.arange(n, dtype=float)  # the one covariate names the record
    ds = SurvivalDataset(ids[:, None], ids + 1.0, np.ones(n, dtype=int), ["id"])
    pairs = kfold_split(ds, folds, seed)
    assert len(pairs) == folds
    held_out = np.concatenate([test.x[:, 0] for _, test in pairs])
    assert np.array_equal(np.sort(held_out), ids)  # every record in one test part
    for train, test in pairs:
        assert np.array_equal(np.sort(np.concatenate((train.x[:, 0], test.x[:, 0]))), ids)


class TestCobraSplit:
    def test_sizes(self):
        ds = SurvivalDataset(
            np.ones((100, 1)), np.arange(1.0, 101.0), np.ones(100, dtype=int), ["x"]
        )
        split = cobra_split(ds, 0.4, seed=3)
        assert split.d_k.n == 60
        assert split.d_l.n == 40

    def test_boundary_two_records(self):
        ds = SurvivalDataset(np.ones((2, 1)), [1.0, 2.0], [1, 1], ["x"])
        split = cobra_split(ds, 0.5, seed=0)
        assert split.d_k.n == 1 and split.d_l.n == 1

    def test_partition(self):
        rng = np.random.default_rng(9)
        ds = SurvivalDataset(
            rng.uniform(size=(31, 2)), rng.uniform(0.1, 5.0, 31), np.ones(31, dtype=int), ["a", "b"]
        )
        split = cobra_split(ds, 0.3, seed=7)
        merged = np.sort(np.concatenate([split.d_k.time, split.d_l.time]))
        assert np.array_equal(merged, np.sort(ds.time))

    def test_grid_fractions_valid(self):
        ds = SurvivalDataset(
            np.ones((50, 1)), np.arange(1.0, 51.0), np.ones(50, dtype=int), ["x"]
        )
        for frac in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            split = cobra_split(ds, frac, seed=1)
            assert split.d_l.n == round(frac * 50)

    def test_degenerate_fraction_rejected(self):
        ds = SurvivalDataset(np.ones((4, 1)), [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], ["x"])
        with pytest.raises(ValueError):
            cobra_split(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            cobra_split(ds, 1.0, seed=0)


class TestSynthetic:
    def test_link_rule_at_ones(self):
        # scale(1,1,1,1,...) = 2 + log(25) + 1
        cfg = SyntheticConfig(n=1, censor_fraction=0.0, dim=4, seed=0)
        from survcobra.data import _link_scale

        assert _link_scale(np.ones((1, 4))) == pytest.approx(2.0 + np.log(25.0) + 1.0)
        assert _link_scale(np.ones((1, 4)))[0] == pytest.approx(6.2189, abs=5e-5)
        assert generate_synthetic(cfg).n == 1

    def test_population_shape_and_censor_count(self):
        ds = generate_synthetic(SyntheticConfig(n=2000, censor_fraction=0.4, dim=9, seed=11))
        assert ds.n == 2000
        assert ds.n_features == 9
        assert int((ds.event == 0).sum()) == 800

    def test_censored_strictly_below_event_time(self):
        cfg = SyntheticConfig(n=500, censor_fraction=0.5, dim=4, seed=23)
        rng = np.random.default_rng(cfg.seed)
        x = 1.0 - rng.random((cfg.n, cfg.dim))
        from survcobra.data import _link_scale

        t = _link_scale(x) * rng.weibull(2.0, cfg.n)
        ds = generate_synthetic(cfg)
        censored = ds.event == 0
        assert np.array_equal(ds.x, x)  # same draw order: covariates first
        assert np.all(ds.time[censored] < t[censored])
        assert np.array_equal(ds.time[~censored], t[~censored])

    def test_determinism(self):
        cfg = SyntheticConfig(n=300, censor_fraction=0.25, dim=5, seed=99)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a == b

    def test_covariate_support(self):
        ds = generate_synthetic(SyntheticConfig(n=1000, censor_fraction=0.0, dim=4, seed=1))
        assert np.all(ds.x > 0.0)
        assert np.all(ds.x <= 1.0)

    def test_event_time_increases_with_first_covariate(self):
        # the conditional mean event time rises with x0; raw times are noisy
        # (Weibull shape 2), so check binned means plus the raw rank correlation
        ds = generate_synthetic(SyntheticConfig(n=6000, censor_fraction=0.0, dim=4, seed=5))
        from scipy.stats import spearmanr

        rho, _ = spearmanr(ds.x[:, 0], ds.time)
        assert rho > 0.05
        order = np.argsort(ds.x[:, 0])
        bin_means = [chunk.mean() for chunk in np.array_split(ds.time[order], 6)]
        bin_rho, _ = spearmanr(np.arange(6), bin_means)
        assert bin_rho >= 0.8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n=10, censor_fraction=1.0, dim=4)
        with pytest.raises(ValueError):
            SyntheticConfig(n=10, censor_fraction=0.2, dim=3)
