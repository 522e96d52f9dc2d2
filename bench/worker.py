"""Runs one workload's operations in a fresh process (started by run.py).

Usage: python3 worker.py JOB_JSON RESULT_JSON

The set-up time covers importing numpy, scipy and qgspectra and writing the
CLI input files.  A job with "setup_only" stops there.  Otherwise whole
rounds of operations run until "seconds" have passed; with "trace" the
first round runs untraced, to give the tracing overhead, and every later
round is traced.  The calibration kernel of calib.py runs during set-up
and serial operations (in a signal handler, left out of their times), after
set-up and between operations; its times travel with the raw ones.
"""

import contextlib
import json
import os
import resource
import sys
import time

import calib

SPAN_BUDGET = 200_000  # spans kept from the first traced round


def _setup(job):
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import qgspectra
    import qgspectra.cli  # noqa: F401

    for i, op in enumerate(job["ops"]):
        if op["kind"].startswith("cli-"):
            op_dir = os.path.join(job["out_dir"], f"op{i}")
            os.makedirs(op_dir, exist_ok=True)
            op["input"] = os.path.join(op_dir, "graph.json")
            op["out"] = os.path.join(op_dir, "result")
            with open(op["input"], "w", encoding="utf-8") as f:
                json.dump(op["graph"], f, indent=1)
    return qgspectra


def _run_op(q, op, clock):
    """Run one operation; returns its time on ``clock`` and what it produced."""
    if op["kind"] == "scan":
        t = clock()
        g = q.build_graph(op["graph"])
        res = q.scan_spectrum(g, op["k_lo"], op["k_hi"], q.ScanConfig(workers=1))
        dt = clock() - t
        return dt, {
            "roots": [[r.k, r.multiplicity, r.residual] for r in res.roots],
            "threshold": res.threshold,
            "k_lo": res.k_lo,
            "k_hi": res.k_hi,
            "diagnostics": list(res.diagnostics),
        }
    if op["kind"] == "cli-spectrum":
        argv = ["spectrum", "--input", op["input"], "--out", op["out"],
                "--kmin", repr(op["k_lo"]), "--kmax", repr(op["k_hi"]),
                "--workers", str(op["workers"])]
        files = ("spectrum.csv", "meta.json")
    else:
        argv = ["trace-check", "--input", op["input"], "--out", op["out"],
                "--phi-center", repr(op["center"]), "--phi-sigma", repr(op["sigma"]),
                "--nmax", str(op["n_max"]), "--workers", "1"]
        files = ("trace_report.json", "orbit_table.csv")
    for name in files:
        path = os.path.join(op["out"], name)
        if os.path.exists(path):
            os.remove(path)
    t = clock()
    code = q.cli.main(argv)
    dt = clock() - t
    out = {"exit_code": code, "files": {}}
    for name in files:
        path = os.path.join(op["out"], name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                out["files"][name] = f.read()
    return dt, out


def _eigenvalues(op, produced):
    """Eigenvalues an operation reported, counted with multiplicity."""
    if "roots" in produced:
        return sum(m for _, m, _ in produced["roots"])
    files = produced.get("files", {})
    if "meta.json" in files:
        return json.loads(files["meta.json"])["total_multiplicity"]
    if "trace_report.json" in files:
        return json.loads(files["trace_report.json"])["report"]["eigenvalue_count"]
    return 0


def _round(q, ops, failures):
    """One pass over the operations, with the calibration samples of each."""
    times, kernel, outputs, eigen = [], [], [], 0
    before = calib.samples()
    for op in ops:
        with contextlib.ExitStack() as stack:
            sampler = None
            if op.get("workers", 1) == 1:
                sampler = stack.enter_context(calib.Sampler())
            try:
                dt, produced = _run_op(q, op, sampler.clock if sampler else time.perf_counter)
            except Exception as exc:  # recorded and reported as a failed operation
                dt, produced = float("nan"), {"error": f"{type(exc).__name__}: {exc}"}
                failures.append(produced["error"])
        after = calib.samples()
        kernel.append(before + (sampler.taken if sampler else []) + after)
        before = after
        times.append(dt)
        outputs.append(produced)
        eigen += _eigenvalues(op, produced)
    return times, kernel, outputs, eigen


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    with calib.Sampler() as sampler:
        t0 = sampler.clock()
        q = _setup(job)
        result = {"setup_s": sampler.clock() - t0}
    result["setup_kernel"] = sampler.taken + calib.samples(15)
    if job.get("setup_only"):
        with open(result_path, "w", encoding="utf-8") as f:
            json.dump(result, f)
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer, write_spans

        tracer = Tracer()

    ops, failures = job["ops"], []
    rounds = []
    start = time.perf_counter()
    while True:
        # the first round of a traced run runs unwrapped: it is the baseline
        # of the tracing overhead
        traced = tracer is not None and len(rounds) > 0
        if traced and len(rounds) == 1:
            tracer.install(q)
        if traced:
            tracer.start(SPAN_BUDGET if len(rounds) == 1 else 0)
        times, kernel, outputs, eigen = _round(q, ops, failures)
        entry = {"times": times, "kernel": kernel, "outputs": outputs,
                 "eigenvalues": eigen, "traced": traced}
        if traced:
            tracer.stop()
            entry["layers"] = tracer.summary()
            if len(rounds) == 1:
                write_spans(os.path.join(job["out_dir"], "spans.csv"), tracer.spans())
        rounds.append(entry)
        elapsed = time.perf_counter() - start
        enough_rounds = tracer is None or len(rounds) >= 2
        if elapsed >= job["seconds"] and enough_rounds:
            break

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update({
        "rounds": rounds,
        "errors": failures,
        "rss_self_kb": self_kb,
        "rss_child_kb": child_kb,
    })
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
