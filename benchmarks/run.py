"""Benchmark of the survcobra CLI: bench, tune and simulate.

    python3 benchmarks/run.py --workload bench --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root; the program is imported from ./src.  Each
CLI invocation runs in a fresh child process with BLAS and OpenMP pinned
to one thread.  A run first makes one discarded warm-up invocation (the
workload's smoke config), then invokes the workload again and again with
the same seed for about `--seconds` seconds, one invocation at a time,
and checks the report files of the first timed invocation.  Every timed
invocation must write byte-identical reports.

With `--trace 0` the last line of standard output is a JSON object with
the medians of wall_s, setup_s and peak_rss_mb.  With `--trace 1` one more
invocation runs with the layer tracer installed, and the object holds the
per-layer metrics instead.  `--smoke` runs tiny configs of all three
workloads once untraced and once traced, with their checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench-out"
WORKLOADS = ("bench", "tune", "simulate")
RUN_LIMIT_S = 170.0  # a run ends well within 180 s
MIN_TIMED = 3
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LEARNER_KINDS = ("survival_tree", "random_survival_forest", "cox_ridge", "cox_lasso", "knn_survival")


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def timed(span, *counters):
        out.append((f"{span}.s", "s", "lower"))
        out.extend((f"{span}.{c}", "count", "lower") for c in counters)

    for kind in LEARNER_KINDS:
        timed(f"learners.fit.{kind}", "calls")
        timed(f"learners.predict_values.{kind}", "rows")
        timed(f"learners.predict_curve.{kind}", "calls")
    timed("cobra.query_distances", "cells")
    timed("cobra.aggregate", "queries", "fallbacks", "members")
    timed("curves.product_limit", "calls")
    timed("curves.evaluate", "calls")
    out.append(("curves.stepcurve.created", "count", "lower"))
    for name in ("integrated_brier", "concordance_td", "d_calibration"):
        timed(f"metrics.{name}", "calls")
    timed("relevance.gamma_labels", "calls")
    timed("relevance.fit_logistic", "calls")
    out.append(("relevance.degenerate", "count", "lower"))
    timed("tuning.prepare_fold", "misses")
    out.append(("tuning.prepare_fold.hits", "count", "higher"))
    timed("tuning.fold_objective", "calls")
    out.append(("tuning.trials_failed", "count", "lower"))
    for name in ("data.generate_synthetic", "data.kfold_split", "data.cobra_split"):
        timed(name)
    timed("experiments.load_dataset")
    timed("experiments.write_reports")
    timed("setup.import")
    for name in ("process.cpu_s", "trace.overhead_s", "trace.wall_s", "trace.unattributed_s"):
        out.append((name, "s", "lower"))
    return out


class RunFailed(Exception):
    """The run cannot produce a result (program missing, child timed out)."""


def _config_path(workload: str, smoke: bool) -> Path:
    return HERE / "configs" / (f"smoke-{workload}.json" if smoke else f"{workload}.json")


def _invoke(workload, config, seed, out: Path, trace: bool, deadline: float) -> dict:
    """One CLI invocation in a fresh child; returns the child's JSON record."""
    cmd = [
        sys.executable, str(HERE / "child.py"), str(SRC), "1" if trace else "0",
        workload, "--config", str(config), "--seed", str(seed), "--out", str(out),
    ]  # fmt: skip
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before an invocation")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} invocation did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(
            f"child printed no result (exit {proc.returncode}): {proc.stderr[-2000:]}"
        ) from None
    if record["exit_code"] != 0:
        sys.stderr.write(proc.stderr[-2000:])
    print(
        f"{workload} {out.name}: exit {record['exit_code']} wall {record['wall_s']:.3f} s"
        f" setup {record['setup_s']:.3f} s rss {record['peak_rss_mb']:.1f} MB",
        file=sys.stderr,
    )
    return record


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _layer_metrics(traced: dict, untraced: list[dict]) -> dict:
    self_s, counts = traced["self_s"], traced["counts"]
    wall = statistics.median(r["wall_s"] for r in untraced)
    derived = {
        "setup.import.s": traced["import_s"],
        "tuning.prepare_fold.hits": counts.get("tuning.prepare_fold.calls", 0)
        - counts.get("tuning.prepare_fold.misses", 0),
        "process.cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "trace.overhead_s": traced["wall_s"] - wall,
        "trace.wall_s": traced["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - sum(self_s.values()),
    }
    out = {}
    for name, unit, _ in per_layer_catalogue():
        if name in derived:
            value = derived[name]
        elif name.endswith(".s"):
            value = self_s.get(name[:-2], 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Returns (correct, attempted, failed, metrics, verdicts); the metrics
    are the end-to-end ones, plus the per-layer ones when `trace` is set."""
    deadline = time.monotonic() + RUN_LIMIT_S
    config = _config_path(workload, smoke)
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT))
    try:
        if not smoke:
            _invoke(workload, _config_path(workload, True), seed, work / "warmup", False, deadline)
        timed, digests = [], set()
        start = time.monotonic()
        while True:
            out = work / f"run{len(timed)}"
            record = _invoke(workload, config, seed, out, False, deadline)
            timed.append(record)
            if record["exit_code"] == 0:
                digests.add(_digest(out))
            if len(timed) > 1:
                shutil.rmtree(out, ignore_errors=True)
            # stop where one more invocation would end further past `seconds`
            # than stopping now falls short of it
            elapsed = time.monotonic() - start
            enough = len(timed) >= (1 if smoke else MIN_TIMED)
            if enough and elapsed + 0.5 * elapsed / len(timed) >= seconds:
                break
        ok_runs = [r for r in timed if r["exit_code"] == 0]
        failed = len(timed) - len(ok_runs)
        if not ok_runs:
            raise RunFailed(f"every {workload} invocation failed")

        verdicts = [("reruns_byte_identical", len(digests) == 1, f"{len(digests)} distinct report sets")]
        if timed[0]["exit_code"] == 0:
            cfg = json.loads(config.read_text(encoding="utf-8"))
            started = time.monotonic()
            verdicts += checks.CHECKS[workload](work / "run0", cfg, seed)
            print(f"{workload} checks: {time.monotonic() - started:.1f} s", file=sys.stderr)
        else:
            verdicts.append(("first_invocation_succeeded", False, ""))

        metrics = {
            name: {"value": statistics.median(r[name] for r in ok_runs), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        if trace:
            out = work / "traced"
            traced = _invoke(workload, config, seed, out, True, deadline)
            timed.append(traced)
            if traced["exit_code"] != 0:
                raise RunFailed(f"the traced {workload} invocation failed")
            verdicts.append(("traced_reports_identical", _digest(out) == next(iter(digests)), ""))
            layers = _layer_metrics(traced, ok_runs)
            rest = layers["trace.unattributed_s"]["value"]
            verdicts.append(("self_times_within_wall", rest >= 0.0, f"unattributed {rest:.4f} s"))
            metrics.update(layers)
            dump = OUT_ROOT / f"trace-{workload}{'-smoke' if smoke else ''}-seed{seed}.json"
            dump.write_text(json.dumps(traced, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        correct = all(passed is not False for _, passed, _ in verdicts)
        return correct, len(timed), failed, metrics, verdicts
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_verdicts(workload, verdicts):
    for name, passed, detail in verdicts:
        label = {True: "PASS", False: "FAIL", None: "INFO"}[passed]
        print(f"{workload}: {label} {name} {detail}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs of every workload")
    args = parser.parse_args(argv)
    os.environ.update(ONE_THREAD)  # children inherit it; set before numpy loads here
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "survcobra" / "cli.py").is_file():
        print(f"benchmark: no survcobra sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks fit models with the program under test
    try:
        if args.smoke:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "checks": {}}
            for workload in WORKLOADS:
                ok, attempted, failed, metrics, verdicts = run_workload(
                    workload, args.seed, 0.0, True, smoke=True
                )
                _print_verdicts(workload, verdicts)
                result["correct"] &= ok
                result["attempted"] += attempted
                result["failed"] += failed
                result["metrics"].update({f"{workload}.{k}": v for k, v in metrics.items()})
                result["checks"].update(
                    {f"{workload}.{n}": p for n, p, _ in verdicts if p is not None}
                )
        else:
            ok, attempted, failed, metrics, verdicts = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), smoke=False
            )
            _print_verdicts(args.workload, verdicts)
            if args.trace:
                metrics = {k: v for k, v in metrics.items() if k not in END_TO_END}
            result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
