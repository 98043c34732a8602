"""The benchmark's own tests: every workload at smoke size, through the CLI.

Each run goes through ``perfbench/run.py`` exactly as a measurement does, only
with ``--smoke`` shapes and a one-second budget, and must print every metric
the benchmark defines with a correct result.  The negative cases check that a
wrong body fails the run and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]


def _run(*arguments: str, cwd: Path = ROOT, code: str | None = None):
    command = [sys.executable]
    command += ["-c", code] if code else [str(BENCH / "run.py")]
    command += list(arguments)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    if not trace:
        assert all(result["metrics"][metric["name"]]["value"] > 0
                   for metric in expected), result["metrics"]
    assert "host {" in completed.stdout
    assert "failed_share" in completed.stdout


# Runs the benchmark in-process with one expected body corrupted.
_CORRUPTED = """
import sys
sys.argv[0] = {run!r}
sys.path[:0] = [{src!r}, {bench!r}]
import run, wire_bench
original = wire_bench.expected_bodies
def corrupted(spec, keys, puts):
    bodies = original(spec, keys, puts)
    first = keys[0]
    bodies[first] = bytes([bodies[first][0] ^ 0xFF]) + bodies[first][1:]
    return bodies
wire_bench.expected_bodies = corrupted
sys.exit(run.main(sys.argv[1:]))
"""


def test_wrong_body_fails_the_run():
    code = _CORRUPTED.format(run=str(BENCH / "run.py"), src=str(ROOT / "src"),
                             bench=str(BENCH))
    completed = _run("--workload", "wire-agar", "--seed", "3", "--seconds",
                     "1", "--trace", "0", "--smoke", code=code)
    assert completed.returncode != 0
    result = _result(completed)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "1 wrong" in completed.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
