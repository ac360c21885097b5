"""Smoke tests of the benchmark at toy size (``--quick``).

    PYTHONPATH=src python -m pytest bench -q

Each workload runs once untraced and once traced through ``run.py``: the
command must pass its own output checks and print exactly the metrics
``BENCHMARK.json`` declares, with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_declared_metrics(workload, trace):
    done = run_bench("--workload", workload, "--trace", str(trace), "--quick", "--seed", "1")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    # The layer map's predicted zeros.
    elif workload != "fit_detect":
        assert values["nn.backward_s"] == 0.0
        assert values["core.train_encoder_s"] == 0.0
    if trace and workload in ("serve_stream", "bulk_job"):
        assert all(v == 0.0 for name, v in values.items() if name.startswith("discord."))


def test_rounds_keep_the_minimum_and_end_inside_the_phase():
    run = workloads.Run(0, workloads.FULL, traced=False, seconds=0.2)
    assert sum(1 for _ in run.rounds(3, seconds=0.0)) == 3
    start = time.perf_counter()
    count = sum(1 for _ in run.rounds(2) if time.sleep(0.03) is None)
    assert 2 <= count <= 7
    assert time.perf_counter() - start < 0.4


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _run_file(tmp_path: Path, name: str, latency_ms: float, quartiles=None) -> str:
    metrics = {
        m["name"]: {"value": 1.0, "q1": 1.0, "q3": 1.0, "n": 1} for m in SPEC["end_to_end"]
    }
    q1, q3 = quartiles or (latency_ms, latency_ms)
    metrics["latency_ms"] = {"value": latency_ms, "q1": q1, "q3": q3, "n": 8}
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"fit_detect": {"end_to_end": metrics}}}))
    return str(path)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    base = _run_file(tmp_path, "a.json", 100.0)
    assert compare.main([base, _run_file(tmp_path, "b.json", 101.0)]) == 0
    assert compare.main([base, _run_file(tmp_path, "c.json", 150.0)]) == 1
    verdicts = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert verdicts.count("worse") == 1


def test_compare_calls_a_noisy_metric_unresolved(tmp_path, capsys):
    noisy = [_run_file(tmp_path, f"a{i}.json", v) for i, v in enumerate((60.0, 100.0, 140.0))]
    steady = [_run_file(tmp_path, f"b{i}.json", 100.0) for i in range(3)]
    assert compare.main(noisy + ["--"] + steady) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_uses_a_single_runs_own_quartiles(tmp_path, capsys):
    noisy = _run_file(tmp_path, "a.json", 100.0, quartiles=(70.0, 130.0))
    assert compare.main([noisy, _run_file(tmp_path, "b.json", 101.0)]) == 0
    assert "unresolved" in capsys.readouterr().out
