"""qgspectra benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload delta-scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  The operations run in a fresh process
(worker.py) against ``src/qgspectra``; this process never imports the
package.  It makes the inputs from the seed, times set-up in several fresh
processes, computes the oracle values, checks every output, and prints as
its last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  ``--smoke`` shrinks the inputs,
for the benchmark's own tests.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads, so the two pool
# workers of cli-parallel stay within the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 5     # fresh processes timed for set-up, the runner included
RUN_DEADLINE_S = 170  # the whole run ends within 180 s


def _units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchError(Exception):
    pass


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    return ap.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(job: dict, job_path: str, result_path: str, timeout: float) -> dict:
    with open(job_path, "w", encoding="utf-8") as f:
        json.dump(job, f)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path, result_path]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=REPO_ROOT, timeout=max(timeout, 1.0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def _nominal_setup(result: dict) -> float:
    return result["setup_s"] * calib.scale(result["setup_kernel"])


def _expectations(workload: str, ops):
    import checks

    if workload == "trace-formula":
        return [checks.trace_expectation(op) for op in ops]
    return [checks.oracle_roots(op, op["k_lo"], op["k_hi"]) for op in ops]


def _check(workload: str, ops, expected, rounds):
    import checks

    check = {"delta-scan": checks.check_scan, "smooth-scan": checks.check_scan,
             "cli-parallel": checks.check_cli_spectrum,
             "trace-formula": checks.check_cli_trace}[workload]
    failed, problems, lost_report = 0, [], {}
    for r, rnd in enumerate(rounds):
        for i, (op, produced) in enumerate(zip(ops, rnd["outputs"])):
            lost, probs = check(op, produced, expected[i])
            if lost:
                failed += 1
                lost_report[op["panel"]] = lost
            problems += [f"op {i} (panel {op['panel']}): {p}" for p in probs]
            if "error" in produced:
                problems.append(f"op {i}: {produced['error']}")
            if r > 0 and not checks.same_output(produced, rounds[0]["outputs"][i]):
                problems.append(f"op {i}: output of round {r} differs from round 0")
    return failed, problems, lost_report


def _nominal_times(rnd: dict):
    """Op times of a round scaled to the host's nominal speed (calib.py)."""
    return [t * calib.scale(k) for t, k in zip(rnd["times"], rnd["kernel"])]


def _end_to_end(result: dict, setup: list, ops) -> dict:
    rounds = [_nominal_times(r) for r in result["rounds"] if not r["traced"]]
    run_s = statistics.median(sum(r) for r in rounds)
    workers = max([op.get("workers", 1) for op in ops])
    rss_kb = result["rss_self_kb"] + (workers * result["rss_child_kb"] if workers > 1 else 0)
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "op_p50_s": statistics.median(t for r in rounds for t in r),
        "eigenvalues_per_s": result["rounds"][0]["eigenvalues"] / run_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _per_layer(result: dict) -> dict:
    base = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    # per-layer seconds are scaled by the factor of their round as a whole
    factor = [sum(_nominal_times(r)) / sum(r["times"]) for r in traced]
    first = traced[0]["layers"]
    out = {}
    for name in _units("per_layer"):
        if name in first and name.endswith("_s"):
            out[name] = statistics.median(r["layers"][name] * f for r, f in zip(traced, factor))
        elif name in first:
            out[name] = first[name]
    eigen = traced[0]["eigenvalues"]
    out["spectrum.det_evals_per_root"] = first["spectrum.det_evals_total"] / eigen if eigen else 0.0
    out["trace.run_s"] = statistics.median(sum(_nominal_times(r)) for r in traced)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(
        sum(_nominal_times(r)) for r in base)
    return out


def run(args) -> dict:
    import workloads

    if not os.path.isfile(os.path.join(SRC_DIR, "qgspectra", "__init__.py")):
        raise BenchError(f"no qgspectra package under {SRC_DIR}; run from a full checkout")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if not args.seconds > 0:
        raise BenchError("--seconds must be positive")
    started = time.perf_counter()
    ops = workloads.make_operations(args.workload, args.seed, smoke=args.smoke)

    out_dir = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    compileall.compile_dir(os.path.join(SRC_DIR, "qgspectra"), quiet=1)
    job = {"ops": ops, "out_dir": out_dir, "seconds": args.seconds, "trace": bool(args.trace)}
    job_path = os.path.join(out_dir, "job.json")
    result_path = os.path.join(out_dir, "result.json")

    setup = []
    samples = 1 if args.smoke else SETUP_SAMPLES
    for _ in range(samples - 1):
        left = RUN_DEADLINE_S - (time.perf_counter() - started)
        setup.append(_nominal_setup(_run_worker(dict(job, setup_only=True), job_path,
                                                result_path, left)))
    left = RUN_DEADLINE_S - (time.perf_counter() - started)
    result = _run_worker(job, job_path, result_path, left)
    setup.append(_nominal_setup(result))

    expected = _expectations(args.workload, ops)
    failed, problems, lost = _check(args.workload, ops, expected, result["rounds"])
    attempted = sum(len(r["times"]) for r in result["rounds"])
    if args.trace:
        values = _per_layer(result)
        units = _units("per_layer")
    else:
        values = _end_to_end(result, setup, ops)
        units = _units("end_to_end")

    for p in problems[:20]:
        print(f"PROBLEM {p}")
    for panel, roots in sorted(lost.items()):
        shown = ", ".join(f"{x:.6f}" if isinstance(x, float) else str(x) for x in roots)
        print(f"lost roots (panel graph {panel}): {shown}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, BENCH_DIR)
    try:
        line = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
