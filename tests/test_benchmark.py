"""Every oracle-checked benchmark workload still runs clean."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _smoke(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--smoke"],
        cwd=RUN.parents[1],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_smooth_scan_benchmark_smoke():
    _smoke("smooth-scan")


def test_delta_scan_benchmark_smoke():
    _smoke("delta-scan")


def test_trace_formula_benchmark_smoke():
    _smoke("trace-formula")


def test_cli_parallel_benchmark_smoke():
    _smoke("cli-parallel")
