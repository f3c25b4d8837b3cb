"""Span tracer that wraps survcobra's layer functions from outside the package.

The package binds names with `from ... import`, so a function is replaced
in every loaded `survcobra` module that holds it, not only where it is
defined.  Learner methods are replaced on their classes.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it opened; self times and call counts are summed
per name, and the seconds each child name took inside each parent name are
kept as edges.  Nothing is written until the traced command has returned.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

class Recorder:
    """Open-span stack plus per-name totals."""

    def __init__(self):
        self.stack = []  # [name, start, child seconds]
        self.models = []  # learner instance of each open learner-method span
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.edges = defaultdict(float)  # (parent, child) -> child duration

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.counts[name + ".calls"] += 1
        parent = self.stack[-1][0] if self.stack else "cli.main"
        self.edges[(parent, name)] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name, fn, args, kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()


def _replace_everywhere(module, attr, wrapper):
    """Rebind `module.attr` in every loaded survcobra module holding it."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if name == "survcobra" or name.startswith("survcobra."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _rebind(owner, attr, wrapper):
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    else:
        _replace_everywhere(owner, attr, wrapper)


def _wrap_function(rec, owner, attr, name, after=None):
    """Span `name` (a string, or a callable of the call's arguments) around
    `owner.attr`; `after(result, *args)` runs once the span has closed."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        result = rec.span(label, original, args, kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    _rebind(owner, attr, wrapper)


def _count_calls(owner, attr, after):
    """Run `after(result, *args)` behind `owner.attr`, opening no span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        after(result, *args, **kwargs)
        return result

    _rebind(owner, attr, wrapper)


def _wrap_method(rec, cls, attr, kind_of, after=None):
    """Span `learners.<attr>.<kind>` around a learner method.

    A call that another model makes on its parts (a forest on its trees)
    is left unspanned, so its time stays with the model the caller used.
    """
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        if rec.models and rec.models[-1] is not self:
            return original(self, *args, **kwargs)
        rec.models.append(self)
        try:
            result = rec.span(f"learners.{attr}.{kind_of(self)}", original, (self,) + args, kwargs)
        finally:
            rec.models.pop()
        if after is not None:
            after(result, self, *args, **kwargs)
        return result

    setattr(cls, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every traced layer of an imported survcobra."""
    import survcobra.cli as cli
    import survcobra.cobra as cobra
    import survcobra.curves as curves
    import survcobra.data as data
    import survcobra.experiments as experiments
    import survcobra.learners as learners
    import survcobra.metrics as metrics
    import survcobra.relevance as relevance
    import survcobra.tuning as tuning
    from survcobra.learners.cox import CoxModel
    from survcobra.learners.forest import RandomSurvivalForestModel
    from survcobra.learners.knn import KNNSurvivalModel
    from survcobra.learners.tree import SurvivalTreeModel

    counts = rec.counts

    # learners
    _wrap_function(rec, learners, "fit", lambda spec, *_a, **_k: f"learners.fit.{spec.kind}")
    kinds = {
        SurvivalTreeModel: lambda m: "survival_tree",
        RandomSurvivalForestModel: lambda m: "random_survival_forest",
        CoxModel: lambda m: f"cox_{m.penalty_kind}",
        KNNSurvivalModel: lambda m: "knn_survival",
    }

    def count_rows(values, model, *_a, **_k):
        counts[f"learners.predict_values.{kinds[type(model)](model)}.rows"] += values.shape[0]

    for cls, kind_of in kinds.items():
        _wrap_method(rec, cls, "predict_curve", kind_of)
        _wrap_method(rec, cls, "predict_values", kind_of, after=count_rows)

    # cobra
    def count_cells(distances, *_a, **_k):
        counts["cobra.query_distances.cells"] += distances.size

    def count_aggregate(curve, d_l, pop_km, distances_mq, epsilon, need):
        counts["cobra.aggregate.queries"] += 1
        counts["cobra.aggregate.fallbacks"] += curve is pop_km
        counts["cobra.aggregate.members"] += int(
            ((distances_mq <= epsilon).sum(axis=0) >= need).sum()
        )

    _wrap_function(
        rec, cobra._CobraStack, "query_distances", "cobra.query_distances", after=count_cells
    )
    _wrap_function(rec, cobra, "_predict_one", "cobra.aggregate", after=count_aggregate)

    # curves
    _wrap_function(rec, curves, "product_limit", "curves.product_limit")
    _wrap_function(rec, curves, "evaluate", "curves.evaluate")

    def count_created(*_a, **_k):
        counts["curves.stepcurve.created"] += 1

    _count_calls(curves.StepCurve, "__post_init__", count_created)

    # metrics
    for fname in ("integrated_brier", "concordance_td", "d_calibration"):
        _wrap_function(rec, metrics, fname, f"metrics.{fname}")

    # relevance
    def count_degenerate(labels, *_a, **_k):
        counts["relevance.degenerate"] += bool(labels.min() == labels.max())

    _wrap_function(rec, cobra, "gamma_labels", "relevance.gamma_labels", after=count_degenerate)
    _wrap_function(rec, relevance, "fit_logistic", "relevance.fit_logistic")

    # tuning: every stack that tuning fits is a miss of its fold cache
    # (fit_cobra in survcobra.cobra binds the same _fit_stack, so only the
    # tuning module's name is replaced)
    fit_stack = tuning._fit_stack

    def counted_fit_stack(*args, **kwargs):
        counts["tuning.prepare_fold.misses"] += 1
        return fit_stack(*args, **kwargs)

    def count_failed(result, *_a, **_k):
        counts["tuning.trials_failed"] += sum(t.failed for t in result[1])

    tuning._fit_stack = counted_fit_stack
    _wrap_function(rec, tuning, "_prepare_fold", "tuning.prepare_fold")
    _wrap_function(rec, tuning, "_fold_objective", "tuning.fold_objective")
    _count_calls(tuning, "random_search", count_failed)

    # data and experiments
    for fname in ("generate_synthetic", "kfold_split", "cobra_split"):
        _wrap_function(rec, data, fname, f"data.{fname}")
    _wrap_function(rec, experiments, "load_dataset", "experiments.load_dataset")
    for fname in (
        "write_bench_reports",
        "write_tune_reports",
        "write_relevance_reports",
        "write_run_metadata",
    ):
        _wrap_function(rec, cli, fname, "experiments.write_reports")
