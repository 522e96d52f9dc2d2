"""Tests of the benchmark itself: its oracles and a smoke run of each workload.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import oracle
import workloads
from conftest import BENCH_DIR, REPO_ROOT
from tests.oracles import interval_delta_secular, roots_on


def _bench_config():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_neumann_interval_roots_are_integers():
    roots = oracle.star_roots([(math.pi, {"type": "zero"})], 0.5, 10.5, 1e-3)
    assert np.allclose(roots, np.arange(1, 11), atol=1e-12, rtol=0)


@pytest.mark.parametrize("strength,position", [(2.0, 1.0), (0.7, 0.4), (-1.5, 2.5)])
def test_interval_with_a_delta_matches_the_test_suite_oracle(strength, position):
    length = math.pi
    pot = {"type": "delta", "strength": strength, "position": position}
    ours = oracle.star_roots([(length, pot)], 0.5, 12.0, 1e-3)
    ref = roots_on(interval_delta_secular(length, strength, position), 0.5, 12.0, samples=20001)
    assert len(ours) == len(ref)
    assert np.allclose(ours, ref, atol=1e-11, rtol=0)


def test_batched_smooth_arm_reduces_to_the_free_arm():
    ks = np.linspace(0.5, 12.0, 50)
    a, b = oracle._smooth_arm(ks, 1.3, lambda x: 0.0)
    assert np.allclose(a, np.cos(1.3 * ks), atol=1e-10)
    assert np.allclose(b, ks * np.sin(1.3 * ks), atol=1e-9)


def test_star_scattering_derivative_and_orbit_density():
    arms = [(L, {"type": "delta", "strength": D, "position": x0})
            for L, D, x0 in workloads.TRACE_ARMS]
    k, h = 7.3, 1e-5
    S, dS = oracle.delta_star_S(arms, k)
    fd = (oracle.delta_star_S(arms, k + h)[0] - oracle.delta_star_S(arms, k - h)[0]) / (2 * h)
    assert np.allclose(dS, fd, atol=1e-8)
    assert np.allclose(S.conj().T @ S, np.eye(S.shape[0]), atol=1e-12)
    # Im tr(S^{n-1} S') = (1/n) Im d/dk tr S^n
    dens = oracle.orbit_density(arms, [k], 4)[:, 0]
    for n in range(1, 5):
        tr = [oracle.trace_powers(arms, kk, n)[-1] for kk in (k + h, k - h)]
        assert dens[n - 1] == pytest.approx(((tr[0] - tr[1]) / (2 * h) / n).imag, abs=1e-6)
    # the phase density is d/dk arg det T; det S = det T here (det Sigma = 1)
    phase = [np.angle(np.linalg.det(oracle.delta_star_S(arms, kk)[0])) for kk in (k + h, k - h)]
    dphase = math.remainder(phase[0] - phase[1], 2 * math.pi) / (2 * h)
    assert oracle.delta_theta_prime(arms, [k])[0] == pytest.approx(dphase, abs=1e-6)


def test_relabelling_keeps_the_graph():
    arms = [(L, {"type": "delta", "strength": D, "position": x0})
            for L, D, x0 in workloads.delta_arms(3, 6)]
    desc = workloads.relabelled_star(arms, np.random.default_rng(5))
    back = workloads.canonical_arms(desc)
    key = lambda a: (a[0], a[1]["strength"])  # noqa: E731
    for (L1, p1), (L2, p2) in zip(sorted(arms, key=key), sorted(back, key=key)):
        assert L1 == L2 and p1["strength"] == p2["strength"]
        assert p1["position"] == pytest.approx(p2["position"], abs=1e-14)
    assert oracle.star_roots(back, 0.5, 8.0, 1e-3) == pytest.approx(
        oracle.star_roots(arms, 0.5, 8.0, 1e-3), abs=1e-12)


def test_scan_check_matches_over_the_requested_range():
    op = {"k_lo": 1.0, "k_hi": 5.0}
    # a scan that raised its start past an eigenvalue must not be excused
    produced = {"roots": [[4.5, 1, 0.0]], "k_lo": 2.0, "k_hi": 5.0}
    lost, problems = checks.check_scan(op, produced, [1.5, 4.5])
    assert lost == [1.5]
    assert any("requested [1.0, 5.0]" in p for p in problems)
    lost, problems = checks.check_scan(op, dict(produced, k_lo=1.0), [1.5, 4.5])
    assert lost == [1.5] and problems == []


def _run(args, cwd):
    cmd = [sys.executable, os.path.join("bench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "2", "--seconds", "0.01",
                 "--trace", str(trace), "--smoke"], REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    cfg = _bench_config()
    wanted = cfg["per_layer"] if trace else cfg["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    else:
        spans = os.path.join(BENCH_DIR, "out", workload, "spans.csv")
        with open(spans, encoding="utf-8") as f:
            assert f.readline().strip() == "id,name,start_s,end_s,parent"
            assert f.readline()


def test_traced_counts_repeat():
    runs = []
    for _ in range(2):
        proc = _run(["--workload", "delta-scan", "--seed", "4", "--seconds", "0.01",
                     "--trace", "1", "--smoke"], REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    counts = [{n: m["value"] for n, m in r.items() if m["unit"] in ("count", "B", "evals/root")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["spectrum.det_evals.bisect"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "delta-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
