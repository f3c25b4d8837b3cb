"""The benchmark's layer tracer wraps survcobra functions by name; these
names must stay importable with the call shapes it expects, and the metric
spans must still see one call per scored fold."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {benchmarks!r}]
import numpy as np
import tracer
rec = tracer.Recorder()
tracer.install(rec)
from survcobra import CobraParams, LearnerSpec, evaluate_params, fit_cobra, predict_cobra_batch
from survcobra.data import SyntheticConfig, generate_synthetic
train = generate_synthetic(SyntheticConfig(n=60, censor_fraction=0.3, dim=4, seed=0))
roster = (LearnerSpec("knn_survival", {{"k": 5}}), LearnerSpec("cox_ridge", {{"penalty": 1.0}}))
params = CobraParams(0.05, 0.5, 0.5, roster)
predict_cobra_batch(fit_cobra(train, params, seed=0), train.x[:4])
assert rec.counts["cobra.aggregate.queries"] == 4, dict(rec.counts)
evaluate_params(params, train, inner_folds=2)
assert rec.counts["tuning.fold_objective.calls"] == 2, dict(rec.counts)
assert rec.counts["metrics.integrated_brier.calls"] == 2, dict(rec.counts)
assert rec.counts["cobra.aggregate.queries"] == 4 + 60, dict(rec.counts)
"""


def test_tracer_installs_and_counts_the_aggregation_step():
    script = SCRIPT.format(src=str(ROOT / "src"), benchmarks=str(ROOT / "benchmarks"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
