"""End-to-end smoke runs of the benchmark and its result contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import report, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_reported_metrics():
    bench = _benchmark_json()
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, _, _ in report.END_TO_END
    ]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        report.per_layer_units()
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(name, tmp_path):
    plain = run.run(name, 5, seconds=0.0, trace=False, smoke=True,
                    out_dir=tmp_path)
    result = plain["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPERATIONS
    assert set(result["metrics"]) == {n for n, _, _ in report.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    machine = plain["machine"]
    for key in ("nproc", "cpu_model", "python", "numpy"):
        assert machine[key]

    traced = run.run(name, 5, seconds=0.0, trace=True, smoke=True,
                     out_dir=tmp_path)
    assert traced["result"]["correct"]
    assert [op["traced"] for op in traced["operations"]] == [False, True]
    assert set(traced["result"]["metrics"]) == set(report.per_layer_units())
    assert (tmp_path / f"{name}-seed5.spans.npz").is_file()
    digests = {op["outputs_digest"] for op in traced["operations"]}
    assert len(digests) == 1


def test_differing_operations_fail_the_run():
    records = [
        {"fingerprint": {"a": "1"}, "traced": False},
        {"fingerprint": {"a": "2"}, "traced": True},
    ]
    failures = run.consistency_failures("fleet-slo", 5, records)
    assert failures == ["operation 1 (traced) outputs differ from operation 0"]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-slo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
