"""Dataset representation, CSV ingestion, splitting, and synthetic data.

A `SurvivalDataset` stores right-censored records: a covariate matrix, a
positive observed time per record, and a 0/1 event flag (1 = the event was
observed, 0 = the record is right-censored).  All types here are immutable
after construction and safe to share across threads.  The covariate checks
here serve the datasets, the learners and the ensemble, and `_named`
prefixes the error of every failed split or CSV parse with where it happened.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import _checked_sample

log = logging.getLogger(__name__)

#: Cell contents treated as missing by `preprocess` (case-insensitive).
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?"})


def _check_vector(x, p: int) -> np.ndarray:
    """`x` as a float vector of `p` finite covariates."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p,):
        raise ValueError(f"covariate vector has shape {x.shape}, expected ({p},)")
    return _check_matrix(x, p)[0]


def _check_matrix(x, p: int) -> np.ndarray:
    """`x` as a float matrix of rows of `p` finite covariates."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != p:
        raise ValueError(f"covariate matrix has shape {x.shape}, expected {p} features per row")
    if not np.isfinite(x).all():
        raise ValueError("covariates must be finite (no NaN or infinity)")
    return x


@dataclass(frozen=True, eq=False, repr=False)
class SurvivalDataset:
    """Immutable array-backed collection of survival records.

    Parameters
    ----------
    x : (n, p) array of finite covariates, p >= 1
    time : (n,) array of positive finite observed times
    event : (n,) array of 0/1 event flags; at least one must be 1
    feature_names : p column names
    """

    x: np.ndarray
    time: np.ndarray
    event: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(str(n) for n in self.feature_names)
        if not names:
            raise ValueError("a dataset needs at least one covariate column")
        x = _check_matrix(np.array(self.x, dtype=float), len(names))
        time, event = _checked_sample(np.array(self.time, dtype=float), self.event)
        if time.shape != (x.shape[0],):
            raise ValueError("time and event must be 1-d arrays matching the record count")
        if not (time > 0.0).all():
            raise ValueError("times must be strictly positive")
        event = event.astype(np.int64)
        if not event.any():
            raise ValueError("a dataset needs at least one observed event")
        for name, arr in (("x", x), ("time", time), ("event", event)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.n

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    def subset(self, indices) -> "SurvivalDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return SurvivalDataset(self.x[idx], self.time[idx], self.event[idx], self.feature_names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurvivalDataset):
            return NotImplemented
        return (
            self.feature_names == other.feature_names
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.time, other.time)
            and np.array_equal(self.event, other.event)
        )

    __hash__ = None

    def __reduce__(self):
        # rebuilt through the checks, so unpickled arrays stay read-only
        return (SurvivalDataset, (self.x, self.time, self.event, self.feature_names))

    def __repr__(self) -> str:
        return (
            f"SurvivalDataset(n={self.n}, features={self.n_features}, "
            f"events={self.n_events})"
        )


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint split of a training set into a machine-training part `d_k`
    and a calibration part `d_l`."""

    d_k: SurvivalDataset
    d_l: SurvivalDataset


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration for the nonlinear Weibull generator.

    The first four covariates drive the event time through
    scale(x) = 2 + log(13*x0 + 5*x1 + 7*x2) + x3; any further covariates
    are pure noise.  Exactly round(censor_fraction * n) records are
    censored uniformly below their latent event time.
    """

    n: int
    censor_fraction: float
    dim: int = 9
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.censor_fraction < 1.0:
            raise ValueError("censor_fraction must lie in [0, 1)")
        if self.dim < 4:
            raise ValueError("dim must be at least 4 (the link rule reads four covariates)")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def load_csv(path, time_col: str, event_col: str) -> SurvivalDataset:
    """`preprocess` a CSV read by `load_raw_csv`, every column but `time_col`
    and `event_col` numeric in header order, after refusing a missing or NaN
    covariate cell (which it would impute); cell errors start with the path."""
    table = load_raw_csv(path)
    numeric = [c for c in table.columns if c not in (time_col, event_col)]
    for col in numeric:
        _named(path, _parse_numeric_column, col, table.column(col), "missing value", lambda v: not math.isnan(v))
    columns = _named(path, _parse_table, table, numeric=numeric, categorical=(),
                     time_col=time_col, event_col=event_col)
    return SurvivalDataset(*columns)


@dataclass(frozen=True)
class RawTable:
    """Unparsed table: column names plus string cells, one tuple per row."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column(self, name: str) -> list[str]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def load_raw_csv(path) -> RawTable:
    """Read a CSV (comma-separated, header row, UTF-8 with or without a
    byte-order mark) into stripped string cells; the one check of the file
    format for both loaders."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        columns = tuple(h.strip() for h in header)
        if len(set(columns)) != len(columns):
            raise ValueError(f"{path}: duplicate column names in header")
        rows = []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(columns):
                raise ValueError(f"{path}: row {rownum} has {len(row)} cells, expected {len(columns)}")
            rows.append(tuple(cell.strip() for cell in row))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return RawTable(columns, tuple(rows))


def _is_missing(cell: str) -> bool:
    return cell.casefold() in MISSING_TOKENS


def _parse_numeric_column(name: str, cells: list[str], rule: str = "", valid=None) -> np.ndarray:
    """The cells as floats, NaN where missing; a non-numeric cell, and given
    `valid` a missing cell or one it rejects, is named by its 1-based row."""
    out = np.full(len(cells), np.nan)
    for row, cell in enumerate(cells, start=1):
        if _is_missing(cell):
            if valid is not None:
                raise ValueError(f"column {name!r}, row {row}: missing value")
            continue
        try:
            out[row - 1] = float(cell)
        except ValueError:
            raise ValueError(f"column {name!r}, row {row}: non-numeric value {cell!r}") from None
        if valid is not None and not valid(out[row - 1]):
            raise ValueError(f"column {name!r}, row {row}: {rule}, got {cell!r}")
    return out


def preprocess(table: RawTable, *, numeric, categorical, time_col: str, event_col: str) -> SurvivalDataset:
    """Turn a mixed-type table into a numeric dataset.

    Missing numeric cells are imputed with the column mean, missing
    categorical cells with the column mode (ties broken toward the
    lexicographically smallest level).  Each categorical column with c
    levels expands to c indicator columns named ``col=level``; single-level
    columns are dropped with a warning.  Column types must be declared:
    any feature column that is neither numeric nor categorical is an error.
    Times must be finite and positive and event flags 0 or 1.  The first bad
    cell (covariate columns in header order, time, event) is named by column
    and row.
    """
    columns = _parse_table(table, numeric=numeric, categorical=categorical, time_col=time_col, event_col=event_col)
    return SurvivalDataset(*columns)


def _parse_table(table: RawTable, *, numeric, categorical, time_col: str, event_col: str):
    """The (x, times, events, feature names) that `preprocess` builds its
    dataset from; x is (n, 0) when no feature column is left."""
    numeric = list(numeric)
    declared = (time_col, event_col, *numeric, *categorical)
    repeated = sorted({col for col in declared if declared.count(col) > 1})
    if repeated:
        raise ValueError(f"columns declared more than once (as time, event, numeric or categorical): {repeated}")
    for col in declared:
        if col not in table.columns:
            raise ValueError(f"declared column {col!r} not present in the table")
    undeclared = [c for c in table.columns if c not in declared]
    if undeclared:
        raise ValueError(f"feature columns without a declared type: {undeclared}")

    columns: list[np.ndarray] = []
    names: list[str] = []
    for col in table.columns:
        if col in (time_col, event_col):
            continue
        cells = table.column(col)
        if col in numeric:
            vals = _parse_numeric_column(col, cells)
            mask = np.isnan(vals)
            if mask.all():
                raise ValueError(f"column {col!r} is entirely missing")
            if mask.any():
                vals = np.where(mask, vals[~mask].mean(), vals)
            columns.append(vals)
            names.append(col)
        else:
            observed = [c for c in cells if not _is_missing(c)]
            if not observed:
                raise ValueError(f"column {col!r} is entirely missing")
            levels, counts = np.unique(observed, return_counts=True)
            mode = levels[np.argmax(counts)]  # argmax takes the first max: lexicographic tie-break
            filled = [c if not _is_missing(c) else str(mode) for c in cells]
            if len(levels) == 1:
                warnings.warn(f"dropping single-level categorical column {col!r}")
                continue
            for level in levels:
                columns.append(np.array([1.0 if c == level else 0.0 for c in filled]))
                names.append(f"{col}={level}")
    x = np.column_stack(columns) if columns else np.empty((len(table.rows), 0))
    times = _parse_numeric_column(time_col, table.column(time_col), "time must be finite and positive",
                                  lambda t: math.isfinite(t) and t > 0.0)
    events = _parse_numeric_column(event_col, table.column(event_col), "event flag must be 0 or 1",
                                   lambda e: e in (0.0, 1.0))
    log.info("preprocessing produced %d feature columns from %d raw columns", x.shape[1], len(table.columns) - 2)
    return x, times, events, names


def kfold_split(data: SurvivalDataset, folds: int, seed: int):
    """Partition into `folds` near-equal disjoint test sets.

    The first ``n mod folds`` folds receive one extra test record.  Returns
    a list of (train, test) dataset pairs, deterministic for a fixed seed.
    An event-free part is rejected as "fold 2 of 3, test part: ...".
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if folds > data.n:
        raise ValueError(f"folds ({folds}) exceeds the record count ({data.n})")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    base, extra = divmod(data.n, folds)
    pairs = []
    start = 0
    for fold in range(folds):
        size = base + (1 if fold < extra else 0)
        test_idx = np.sort(perm[start : start + size])
        train_idx = np.sort(np.concatenate((perm[:start], perm[start + size :])))
        name = f"fold {fold + 1} of {folds}"
        train = _named(f"{name}, training part", data.subset, train_idx)
        pairs.append((train, _named(f"{name}, test part", data.subset, test_idx)))
        start += size
    return pairs


def cobra_split(train: SurvivalDataset, l_fraction: float, seed: int) -> DatasetSplit:
    """Split a training set into machine-training and calibration parts.

    The calibration part receives l = round(l_fraction * n) records
    (half values round up), assigned uniformly at random by `seed`.
    """
    if not 0.0 < l_fraction < 1.0:
        raise ValueError("l_fraction must lie strictly between 0 and 1")
    n = train.n
    l = _round_half_up(l_fraction * n)
    k = n - l
    if l < 1 or k < 1:
        raise ValueError(f"degenerate split: n={n}, l_fraction={l_fraction} gives k={k}, l={l}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    d_l = _named("calibration part", train.subset, np.sort(perm[:l]))
    d_k = _named("machine-training part", train.subset, np.sort(perm[l:]))
    return DatasetSplit(d_k=d_k, d_l=d_l)


def _named(where, build, *args, **kwargs):
    """`build(*args, **kwargs)`, its `ValueError` prefixed with where it
    happened: the one rule that names a failed split, part or file."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def generate_synthetic(cfg: SyntheticConfig) -> SurvivalDataset:
    """Draw the nonlinear Weibull benchmark population.

    Covariates are i.i.d. uniform on (0, 1]; event times follow a Weibull
    with shape 2 and scale 2 + log(13*x0 + 5*x1 + 7*x2) + x3.  Exactly
    round(censor_fraction * n) records, chosen uniformly, are censored at
    a time drawn uniformly from (0, T) strictly below the event time.
    """
    rng = np.random.default_rng(cfg.seed)
    x = 1.0 - rng.random((cfg.n, cfg.dim))  # support (0, 1] keeps the log finite
    scale = _link_scale(x)
    bad = np.flatnonzero(scale <= 0.0)
    while bad.size:  # ~1e-6 per record; redraw keeps the scale positive
        x[bad] = 1.0 - rng.random((bad.size, cfg.dim))
        scale = _link_scale(x)
        bad = np.flatnonzero(scale <= 0.0)
    t = scale * rng.weibull(2.0, cfg.n)
    zero = np.flatnonzero(t <= 0.0)
    while zero.size:
        t[zero] = scale[zero] * rng.weibull(2.0, zero.size)
        zero = np.flatnonzero(t <= 0.0)

    n_censor = _round_half_up(cfg.censor_fraction * cfg.n)
    event = np.ones(cfg.n, dtype=np.int64)
    time = t.copy()
    if n_censor:
        censored = rng.permutation(cfg.n)[:n_censor]
        u = rng.random(n_censor)
        zero = np.flatnonzero(u == 0.0)
        while zero.size:
            u[zero] = rng.random(zero.size)
            zero = np.flatnonzero(u == 0.0)
        time[censored] = u * t[censored]
        event[censored] = 0
    names = [f"x{i}" for i in range(cfg.dim)]
    return SurvivalDataset(x, time, event, names)


def _link_scale(x: np.ndarray) -> np.ndarray:
    return 2.0 + np.log(13.0 * x[:, 0] + 5.0 * x[:, 1] + 7.0 * x[:, 2]) + x[:, 3]
