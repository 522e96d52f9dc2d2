"""Benchmark inputs, generated from a seed without importing ``qgspectra``.

Every workload is a fixed list of operations (one *round*).  A run repeats
whole rounds, so the share of failed operations is the same in every run.

The graph panels are fixed; the seed draws a relabelling of each graph: the
order of its arms, the orientation of each arm (a point interaction at x0
becomes one at L - x0 when the arm is reversed), the vertex and edge names
and the order in which vertices are listed.  A relabelling leaves the
spectrum unchanged, so every run measures the same amount of work, while the
program still receives a different description on every seed.  Relabelling
cannot hide a fault either: a root lost on a panel graph is lost on every
relabelling of it (checked over 20 relabellings of each panel graph).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

WORKLOADS = ("delta-scan", "smooth-scan", "trace-formula", "cli-parallel")

# delta-scan / cli-parallel: 10-arm delta stars drawn with
# numpy.random.default_rng(panel_seed), per arm L ~ U(0.6, 1.4),
# D ~ U(0.3, 3.0), x0 ~ U(0.1, 0.9) * L, each scanned on [0.5, 30].
# Panel graph 1 loses the root 17.183413 to the close-root fault of
# spectrum._scan_window on every relabelling; it stays in the panel.
DELTA_PANEL = tuple(range(5))
DELTA_ARMS = 10
DELTA_RANGE = (0.5, 30.0)

# smooth-scan: arms cos(2x), cos(3x), cos(4x) of length 1, scanned on a
# window that holds one close pair of roots (4.706, 4.742) and nothing else.
# The window is fixed: where the scan grid falls relative to the pair sets
# how many determinants the refinement needs, so a seeded window would make
# the work differ between seeds.
SMOOTH_EXPRS = ("cos(2*x)", "cos(3*x)", "cos(4*x)")
SMOOTH_RANGE = (4.4, 5.0)

# trace-formula: the 3-arm delta star of the test suite, a Gaussian of
# width 0.5 centred in [19.75, 20.25] and orbits up to length 5.  The orbit
# sums dominate and do not depend on the centre.
TRACE_ARMS = ((1.0, 2.0, 0.5), (1.0, 0.7, 0.3), (1.0, 1.3, 0.8))
TRACE_CENTER = (19.75, 20.25)
TRACE_SIGMA = 0.5
TRACE_NMAX = 5

CLI_WORKERS = 2


def delta_arms(panel_seed: int, n_arms: int = DELTA_ARMS) -> List[Tuple[float, float, float]]:
    """(L, D, x0) per arm, drawn as the FOUND line in CHANGES.md states."""
    rng = np.random.default_rng(panel_seed)
    arms = []
    for _ in range(n_arms):
        L = float(rng.uniform(0.6, 1.4))
        D = float(rng.uniform(0.3, 3.0))
        x0 = float(rng.uniform(0.1, 0.9)) * L
        arms.append((L, D, x0))
    return arms


def relabelled_star(arms: Sequence[Tuple[float, dict]], rng: np.random.Generator,
                    allow_flip: bool = True) -> dict:
    """Star description with arms permuted, optionally reversed, and renamed."""
    n = len(arms)
    names = [f"n{int(x)}" for x in rng.permutation(10 * (n + 1))[: n + 1]]
    centre, leaves = names[0], names[1:]
    perm = rng.permutation(n)
    flips = rng.integers(0, 2, n) if allow_flip else np.zeros(n, dtype=int)
    edges = []
    for j, i in enumerate(perm):
        length, pot = arms[i]
        ends = {"from": centre, "to": leaves[j]}
        if flips[j]:
            ends = {"from": leaves[j], "to": centre}
            if pot["type"] == "delta":
                pot = dict(pot, position=length - pot["position"])
        edges.append({"id": f"a{j}-{leaves[j]}", **ends, "length": length, "potential": pot})
    vertices = [names[int(i)] for i in rng.permutation(n + 1)]
    return {"vertices": vertices, "edges": edges}


def canonical_arms(desc: dict) -> List[Tuple[float, dict]]:
    """Undo a relabelling: arms oriented centre -> leaf, as the oracle wants."""
    degree: Dict[str, int] = {v: 0 for v in desc["vertices"]}
    for e in desc["edges"]:
        degree[e["from"]] += 1
        degree[e["to"]] += 1
    centre = max(degree, key=degree.get)
    arms = []
    for e in desc["edges"]:
        length, pot = float(e["length"]), dict(e["potential"])
        if e["to"] == centre:
            if pot["type"] == "delta":
                pot["position"] = length - pot["position"]
            elif pot["type"] != "zero":
                raise ValueError("reversed smooth arms are not generated")
        arms.append((length, pot))
    return arms


def _delta_pot(D: float, x0: float) -> dict:
    return {"type": "delta", "strength": D, "position": x0}


def make_operations(workload: str, seed: int, smoke: bool = False) -> List[dict]:
    """The operations of one round.  ``smoke`` shrinks every size for tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: List[dict] = []
    if workload in ("delta-scan", "cli-parallel"):
        panel, n_arms, (lo, hi) = DELTA_PANEL, DELTA_ARMS, DELTA_RANGE
        if smoke:
            panel, n_arms, (lo, hi) = (0, 1), 4, (0.5, 6.0)
        for p in panel:
            arms = [(L, _delta_pot(D, x0)) for L, D, x0 in delta_arms(p, n_arms)]
            op = {"kind": "scan", "panel": p, "graph": relabelled_star(arms, rng),
                  "k_lo": lo, "k_hi": hi}
            if workload == "cli-parallel":
                op.update(kind="cli-spectrum", workers=CLI_WORKERS)
            ops.append(op)
    elif workload == "smooth-scan":
        arms = [(1.0, {"type": "expr", "expr": e}) for e in SMOOTH_EXPRS]
        ops.append({"kind": "scan", "panel": 0,  # already small: no smoke size
                    "graph": relabelled_star(arms, rng, allow_flip=False),
                    "k_lo": SMOOTH_RANGE[0], "k_hi": SMOOTH_RANGE[1]})
    else:
        arms = [(L, _delta_pot(D, x0)) for L, D, x0 in TRACE_ARMS]
        ops.append({"kind": "cli-trace", "panel": 0, "graph": relabelled_star(arms, rng),
                    "center": float(rng.uniform(*TRACE_CENTER)), "sigma": TRACE_SIGMA,
                    "n_max": 2 if smoke else TRACE_NMAX})
    return ops
