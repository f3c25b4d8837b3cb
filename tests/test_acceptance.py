"""Acceptance gate.

Each test implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`
to see them).  The criteria are numerical: oracles, identities and
byte-identical reruns.  No criterion runs a tuning search or a relevance
study, and none gates the paper's simulation-study or dominance claims.
"""

import json
import time

import numpy as np

from survcobra.cli import main as cli_main
from survcobra.cobra import CobraParams, fit_cobra, predict_cobra
from survcobra.curves import censoring_km, evaluate, kaplan_meier
from survcobra.data import SyntheticConfig, generate_synthetic
from survcobra.learners import LearnerSpec, fit_cox
from survcobra.metrics import concordance_td, d_calibration, integrated_brier
from survcobra.seeds import derive_seed

from helpers import brier_censored, cox_gradient, oracle_cobra_curve, random_dataset
from test_cox import fd_gradient, two_group_data, two_group_score_root
from test_metrics import random_curves, slow_concordance, survival_array

MASTER = 20240810

ORACLE_ROSTER = (
    LearnerSpec("knn_survival", {"k": 3}),
    LearnerSpec("survival_tree", {"max_depth": 2, "min_leaf": 2}),
)


def verdict(name: str, ok: bool) -> bool:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    return ok


class TestCobraOracle:
    def test_500_small_instances_bitwise(self):
        start = time.monotonic()
        rng = np.random.default_rng(MASTER)
        checked = 0
        instance_seed = 0
        while checked < 500:
            instance_seed += 1
            r = np.random.default_rng(derive_seed(MASTER, 10, instance_seed))
            if instance_seed % 2 == 0:
                epsilon = float(np.exp(r.uniform(np.log(1e-300), np.log(0.9))))
            else:
                epsilon = float(np.exp(r.uniform(np.log(5e-3), np.log(0.9))))
            alpha = float(r.choice([0.5, 1.0]))
            params = CobraParams(epsilon, alpha, float(r.uniform(0.3, 0.7)), ORACLE_ROSTER)
            try:
                train = random_dataset(r, int(r.integers(16, 40)), p=2, event_rate=0.7)
                model = fit_cobra(train, params, seed=instance_seed)
            except ValueError:
                continue  # degenerate random split: one half without events
            if model.split.d_l.n > 20:
                continue
            queries = [r.uniform(size=2), model.split.d_l.x[int(r.integers(model.split.d_l.n))]]
            for q in queries:
                got = predict_cobra(model, np.asarray(q))
                times, values = oracle_cobra_curve(model, np.asarray(q))
                assert np.array_equal(got.times, times), f"instance {instance_seed}"
                assert np.array_equal(got.values, values), f"instance {instance_seed}"
            checked += 1
        elapsed = time.monotonic() - start
        ok = checked >= 500 and elapsed < 60.0
        assert verdict(f"cobra-oracle (500 instances, {elapsed:.1f}s)", ok)


class TestSaturationIdentity:
    def test_grid_max_epsilon_reduces_to_population_km(self):
        data = generate_synthetic(
            SyntheticConfig(n=400, censor_fraction=0.4, dim=9, seed=derive_seed(MASTER, 11))
        )
        roster = (
            LearnerSpec("survival_tree"),
            LearnerSpec("random_survival_forest", {"n_trees": 30, "seed": 0}),
            LearnerSpec("cox_ridge", {"penalty": 1.0}),
            LearnerSpec("cox_lasso", {"penalty": 1.0}),
            LearnerSpec("knn_survival"),
        )
        params = CobraParams(0.9, 1.0, 0.4, roster)  # epsilon at the grid maximum
        model = fit_cobra(data, params, seed=derive_seed(MASTER, 12))
        expected = kaplan_meier(model.split.d_l.time, model.split.d_l.event)
        rng = np.random.default_rng(derive_seed(MASTER, 13))
        ok = True
        for _ in range(100):
            q = 1.0 - rng.random(9)
            ok = ok and predict_cobra(model, q) == expected
        assert verdict("saturation-identity (100 queries, exact)", ok)


class TestMetricsOracles:
    def test_concordance_bruteforce_500(self):
        rng = np.random.default_rng(derive_seed(MASTER, 14))
        checked = 0
        exact = True
        while checked < 500:
            n = int(rng.integers(3, 31))
            times = rng.uniform(0.1, 5.0, size=n)
            events = rng.integers(0, 2, size=n)
            events[int(rng.integers(n))] = 1
            curves = random_curves(rng, n)
            try:
                fast = concordance_td(survival_array(curves, times), times, events)
            except ValueError:
                continue  # no comparable pairs
            exact = exact and fast == slow_concordance(curves, times, events)
            checked += 1
        assert verdict("metrics-oracle concordance (500 instances, exact)", exact)

    def test_brier_equals_plain_brier_without_censoring(self):
        rng = np.random.default_rng(derive_seed(MASTER, 15))
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(5, 40))
            times = rng.uniform(0.1, 5.0, size=n)
            events = np.ones(n, dtype=int)
            curves = random_curves(rng, n)
            g = censoring_km(times, events)
            t = float(rng.uniform(0.2, 4.5))
            s = np.array([evaluate(c, t) for c in curves])
            plain = float((((times > t).astype(float) - s) ** 2).mean())
            worst = max(worst, abs(brier_censored(s, times, events, t, g) - plain))
        assert verdict(f"metrics-oracle brier (max dev {worst:.2e})", worst < 1e-12)

    def test_ibs_tracks_fine_grid(self):
        rng = np.random.default_rng(derive_seed(MASTER, 16))
        worst = 0.0
        for _ in range(3):
            n = 500
            times = rng.uniform(0.5, 5.0, size=n)
            events = np.ones(n, dtype=int)
            curves = random_curves(rng, n)
            grid = np.unique(times)
            fine = np.linspace(grid[0], grid[-1], 20001)
            survival = survival_array(curves, fine)
            outcome = (times[:, None] > fine[None, :]).astype(float)
            riemann = float(((outcome - survival) ** 2).mean(axis=0)[:-1].mean())
            got = integrated_brier(survival_array(curves, times), times, events)
            worst = max(worst, abs(got - riemann))
        assert verdict(f"metrics-oracle ibs (max dev {worst:.2e})", worst < 1e-3)


class TestCoxNumerics:
    def test_gradient_recovery_and_monotone_ascent(self):
        rng = np.random.default_rng(derive_seed(MASTER, 17))
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(5, 31))
            p = int(rng.integers(1, 6))
            ds = random_dataset(rng, n, p)
            beta = rng.normal(scale=0.5, size=p)
            dev = np.max(
                np.abs(
                    cox_gradient(ds.x, ds.time, ds.event, beta)
                    - fd_gradient(ds.x, ds.time, ds.event, beta)
                )
            )
            worst = max(worst, float(dev))
        grad_ok = worst < 1e-6

        recovery = two_group_data(np.random.default_rng(derive_seed(MASTER, 18)), 5000)
        model = fit_cox(recovery, "ridge", penalty=1e-8)
        root = two_group_score_root(recovery.x, recovery.time, recovery.event)
        recovery_ok = abs(model.beta[0] - 1.0) < 0.1 and abs(root - 1.0) < 0.1

        traces = [model.objective_trace]
        fit_rng = np.random.default_rng(derive_seed(MASTER, 19))
        for i in range(10):
            ds = random_dataset(np.random.default_rng(int(fit_rng.integers(2**62))), 50, 3)
            traces.append(fit_cox(ds, "ridge", penalty=0.1).objective_trace)
            traces.append(fit_cox(ds, "lasso", penalty=0.1).objective_trace)
        ascent_ok = all(np.all(np.diff(np.asarray(t)) >= -1e-9) for t in traces)

        assert verdict(f"cox-gradient (max dev {worst:.2e})", grad_ok)
        assert verdict(f"cox-recovery (beta {model.beta[0]:.3f})", recovery_ok)
        assert verdict(f"cox-monotone-ascent ({len(traces)} runs)", ascent_ok)


class TestDCalibrationSanity:
    def test_km_passes_and_constant_fails(self):
        km_passes = 0
        constant_fails = 0
        for seed in range(20):
            rng = np.random.default_rng(derive_seed(MASTER, 20, seed))
            times = rng.weibull(2.0, 1000) * 4.0
            events = np.ones(1000, dtype=int)
            km = kaplan_meier(times, events)
            # every record shares one curve: the KM, then a constant 1
            passed, _ = d_calibration(np.tile(evaluate(km, times), (1000, 1)), times, events)
            km_passes += int(passed)
            passed, _ = d_calibration(np.ones((1000, 1000)), times, events)
            constant_fails += int(not passed)
        ok = km_passes >= 18 and constant_fails == 20
        assert verdict(
            f"d-calibration sanity (km {km_passes}/20 pass, constant {constant_fails}/20 fail)", ok
        )


class TestDeterminism:
    def test_bench_reports_are_byte_identical(self, tmp_path):
        cfg = {
            "dataset": {"kind": "synthetic", "n": 150, "censor_fraction": 0.3, "dim": 4},
            "roster": [
                {"kind": "survival_tree", "max_depth": 3, "min_leaf": 5},
                {"kind": "random_survival_forest", "n_trees": 6, "min_leaf": 5, "seed": 0},
                {"kind": "cox_ridge", "penalty": 1.0},
                {"kind": "cox_lasso", "penalty": 1.0},
                {"kind": "knn_survival", "k": 6},
            ],
            "params": {"epsilon": 0.05, "alpha": 0.6, "l_fraction": 0.4},
            "folds": 3,
            "seed": MASTER,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        names = ["metrics.csv", "concordance.csv", "ibs.csv", "dcalibration.csv", "run.json"]
        ok = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
        assert verdict("cli-determinism (bench reruns byte-identical)", ok)
