"""Smoke test of the benchmark: schema and check verdicts, never timings.

    python3 -m pytest benchmarks/test_benchmark.py -q     (from the repository root)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_run_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_catalogue()


def test_smoke_run_passes_its_checks_and_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics", "checks"}
    failing = sorted(name for name, passed in result["checks"].items() if not passed)
    assert failing == [] and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 2 * len(run.WORKLOADS)
    expected = dict(run.END_TO_END)
    expected.update((name, unit) for name, unit, _ in run.per_layer_catalogue())
    for workload in run.WORKLOADS:
        for name, unit in expected.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    assert len(result["metrics"]) == len(run.WORKLOADS) * len(expected)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bench", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
