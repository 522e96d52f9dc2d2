"""Checks of the program's outputs against the oracles in oracle.py.

Each check returns (lost, problems): ``lost`` lists oracle eigenvalues the
program did not report (the operation then counts as failed), ``problems``
lists anything else that is wrong (the run is then not correct).
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Sequence, Tuple

import numpy as np

import oracle
from workloads import canonical_arms

ROOT_TOL = 1e-8     # |k_program - k_oracle|; measured gaps are <= 1e-9
MATCH_TOL = 1e-5    # farther than this, an eigenvalue counts as not reported
TRACE_TOL = 1e-8    # trace-formula terms, relative to max(1, |value|)
ORBIT_TOL = 1e-9    # sum of class weights against tr S^n
EDGE_TOL = 1e-9     # oracle roots this close to a scan end are not required

DELTA_GRID = 2e-4   # oracle sign-change grid for delta stars
SMOOTH_GRID = 5e-3  # and for the smooth star (its closest pair is 0.017 apart)

_HASH_LINE = re.compile(r"^# config_hash=[0-9a-f]{64}$")


def oracle_roots(op: dict, lo: float, hi: float) -> List[float]:
    arms = canonical_arms(op["graph"])
    smooth = any(p["type"] == "expr" for _, p in arms)
    return oracle.star_roots(arms, lo, hi, SMOOTH_GRID if smooth else DELTA_GRID)


def match_roots(reported: Sequence[Tuple[float, int]], expected: Sequence[float],
                lo: float, hi: float):
    """Pair reported roots with oracle roots; returns (lost, problems)."""
    problems: List[str] = []
    ks = np.array([k for k, _ in reported], dtype=float)
    used = np.zeros(ks.size, dtype=bool)
    lost = []
    for x in expected:
        if ks.size:
            j = int(np.argmin(np.abs(ks - x) + used * 1e300))
            if not used[j] and abs(ks[j] - x) <= MATCH_TOL:
                used[j] = True
                if abs(ks[j] - x) > ROOT_TOL:
                    problems.append(f"root {x:.12f} reported at {ks[j]:.12f}")
                continue
        if x - lo > EDGE_TOL and hi - x > EDGE_TOL:
            lost.append(x)
    for j in np.nonzero(~used)[0]:
        problems.append(f"root {ks[j]:.12f} has no oracle counterpart")
    for k, m in reported:
        if m < 1:
            problems.append(f"root {k:.12f} has multiplicity {m}")
        elif m != 1:
            problems.append(f"simple oracle root at {k:.12f} reported with multiplicity {m}")
    return lost, problems


def _csv_rows(text: str, header: str) -> Tuple[List[List[str]], List[str]]:
    lines = text.splitlines()
    problems = []
    if not lines or not _HASH_LINE.match(lines[0]):
        problems.append("CSV does not start with a '# config_hash=' line")
    if len(lines) < 2 or lines[1] != header:
        problems.append(f"CSV header is not {header!r}")
    return [ln.split(",") for ln in lines[2:]], problems


def _range_problems(op: dict, k_lo, k_hi) -> List[str]:
    """The scan must cover the requested range: every workload's range lies
    above the threshold K and the k floor, so nothing may raise its start."""
    if k_lo == op["k_lo"] and k_hi == op["k_hi"]:
        return []
    return [f"scanned [{k_lo}, {k_hi}], requested [{op['k_lo']}, {op['k_hi']}]"]


def check_scan(op: dict, produced: dict, expected: Sequence[float]):
    if "error" in produced:
        return list(expected), []
    reported = [(k, m) for k, m, _ in produced["roots"]]
    lost, problems = match_roots(reported, expected, op["k_lo"], op["k_hi"])
    return lost, _range_problems(op, produced["k_lo"], produced["k_hi"]) + problems


def check_cli_spectrum(op: dict, produced: dict, expected: Sequence[float]):
    if "error" in produced or produced.get("exit_code") != 0:
        return list(expected), [f"spectrum exited with {produced.get('exit_code')}"]
    files = produced["files"]
    rows, problems = _csv_rows(files.get("spectrum.csv", ""), "k,multiplicity,residual")
    meta = json.loads(files.get("meta.json", "{}"))
    reported = [(float(r[0]), int(r[1])) for r in rows]
    if meta.get("n_roots") != len(rows):
        problems.append("meta.json n_roots differs from the CSV")
    if meta.get("total_multiplicity") != sum(m for _, m in reported):
        problems.append("meta.json total_multiplicity differs from the CSV")
    if files.get("spectrum.csv", "").split("\n", 1)[0] != f"# config_hash={meta.get('config_hash')}":
        problems.append("CSV and meta.json carry different config hashes")
    problems += _range_problems(op, meta.get("k_lo"), meta.get("k_hi"))
    lost, more = match_roots(reported, expected, op["k_lo"], op["k_hi"])
    return lost, problems + more


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_cli_trace(op: dict, produced: dict, expected: Dict[str, object]):
    if "error" in produced or produced.get("exit_code") != 0:
        return ["trace-check"], [f"trace-check exited with {produced.get('exit_code')}"]
    files = produced["files"]
    rep = json.loads(files.get("trace_report.json", "{}")).get("report", {})
    problems: List[str] = []
    quad = rep.get("quadrature", {})
    if not (_close(quad.get("k_lo", math.nan), expected["lo"], 1e-12)
            and _close(quad.get("k_hi", math.nan), expected["hi"], 1e-12)):
        problems.append(f"quadrature range {quad} is not the test function's support")
    roots = expected["roots"]
    if rep.get("eigenvalue_count") != len(roots):
        missing = len(roots) - int(rep.get("eigenvalue_count", 0))
        if missing > 0:
            return [f"{missing} eigenvalue(s)"], problems
        problems.append(f"eigenvalue_count {rep.get('eigenvalue_count')} != {len(roots)}")
    if not _close(rep.get("lhs", math.nan), expected["lhs"], TRACE_TOL):
        problems.append(f"lhs {rep.get('lhs')} != oracle {expected['lhs']}")
    if not _close(rep.get("rhs_weyl", math.nan), expected["rhs_weyl"], TRACE_TOL):
        problems.append(f"rhs_weyl {rep.get('rhs_weyl')} != oracle {expected['rhs_weyl']}")
    rows = {row["n_max"]: row["value"] for row in rep.get("rhs_orbits", [])}
    for n, want in enumerate(expected["rhs_orbits"]):
        if not _close(rows.get(n, math.nan), want, TRACE_TOL):
            problems.append(f"rhs_orbits[{n}] {rows.get(n)} != oracle {want}")

    table, more = _csv_rows(files.get("orbit_table.csv", ""),
                            "id,n,n_primitive,repetitions,states,kinds,weight_re,weight_im")
    problems += more
    sums = [0j] * len(expected["traces"])
    for r in table:
        n = int(r[1])
        if 1 <= n <= len(sums):
            sums[n - 1] += int(r[2]) * complex(float(r[6]), float(r[7]))
    for n, (got, want) in enumerate(zip(sums, expected["traces"]), start=1):
        if abs(got - want) > ORBIT_TOL * max(1.0, abs(want)):
            problems.append(f"orbit weights of length {n} sum to {got}, tr S^n = {want}")
    return [], problems


def trace_expectation(op: dict) -> Dict[str, object]:
    """Oracle values for one trace-check operation."""
    arms = canonical_arms(op["graph"])
    c, s = op["center"], op["sigma"]
    lo, hi = c - 8.0 * s, c + 8.0 * s  # TestFunction's default support
    roots = oracle.star_roots(arms, lo, hi, DELTA_GRID)
    terms = oracle.trace_terms(arms, c, s, lo, hi, op["n_max"], roots)
    terms.update(lo=lo, hi=hi, roots=roots,
                 traces=oracle.trace_powers(arms, c, op["n_max"]))
    return terms


def without_timing(text: str) -> dict:
    payload = json.loads(text)
    payload.pop("timing", None)
    return payload


def same_output(a: dict, b: dict) -> bool:
    """Two runs of one operation produced the same result (timing aside)."""
    if "files" in a and "files" in b:
        fa, fb = a["files"], b["files"]
        if fa.keys() != fb.keys():
            return False
        for name in fa:
            if name.endswith(".json"):
                if without_timing(fa[name]) != without_timing(fb[name]):
                    return False
            elif fa[name] != fb[name]:
                return False
        return True
    return a == b
