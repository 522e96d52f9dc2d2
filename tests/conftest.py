"""Shared graph fixtures for the test suite."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from qgspectra import edge
from qgspectra.graph import MetricGraph, build_graph
from qgspectra.orbits import TestFunction

# keep pytest from trying to collect the library's Gaussian window class
TestFunction.__test__ = False

ZERO = {"type": "zero"}


def interval(length: float, potential: dict | None = None) -> MetricGraph:
    return build_graph(
        {
            "vertices": ["a", "b"],
            "edges": [
                {
                    "from": "a",
                    "to": "b",
                    "length": length,
                    "potential": potential or ZERO,
                }
            ],
        }
    )


def star(arms: list[tuple[float, dict]]) -> MetricGraph:
    vertices = ["c"] + [f"v{i + 1}" for i in range(len(arms))]
    edges = [
        {"from": "c", "to": f"v{i + 1}", "length": length, "potential": pot}
        for i, (length, pot) in enumerate(arms)
    ]
    return build_graph({"vertices": vertices, "edges": edges})


@pytest.fixture(scope="session")
def g_interval_pi() -> MetricGraph:
    return interval(math.pi)


@pytest.fixture(scope="session")
def g_interval_delta_pi() -> MetricGraph:
    return interval(math.pi, {"type": "delta", "strength": 2.0, "position": math.pi / 2})


@pytest.fixture(scope="session")
def g_interval_delta_neg() -> MetricGraph:
    return interval(1.0, {"type": "delta", "strength": -1.0, "position": 0.5})


@pytest.fixture(scope="session")
def g_delta_star() -> MetricGraph:
    return star(
        [
            (1.0, {"type": "delta", "strength": 2.0, "position": 0.5}),
            (1.0, {"type": "delta", "strength": 0.7, "position": 0.3}),
            (1.0, {"type": "delta", "strength": 1.3, "position": 0.8}),
        ]
    )


@pytest.fixture(scope="session")
def g_star3() -> MetricGraph:
    return star([(1.0, ZERO), (math.sqrt(2.0), ZERO), (math.pi / 3.0, ZERO)])


@pytest.fixture(scope="session")
def g_star3_eq() -> MetricGraph:
    return star([(1.0, ZERO), (1.0, ZERO), (1.0, ZERO)])


@pytest.fixture(scope="session")
def g_triangle() -> MetricGraph:
    return build_graph(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"from": "a", "to": "b", "length": 1.0, "potential": ZERO},
                {"from": "b", "to": "c", "length": 1.2, "potential": ZERO},
                {"from": "c", "to": "a", "length": 0.8, "potential": ZERO},
            ],
        }
    )


@pytest.fixture(scope="session")
def g_smooth() -> MetricGraph:
    return interval(1.0, {"type": "expr", "expr": "2*cos(3*x)"})


@pytest.fixture(scope="session")
def g_const() -> MetricGraph:
    return interval(math.pi, {"type": "constant", "value": 4.0})


@pytest.fixture(scope="session")
def g_star_fd() -> MetricGraph:
    return star(
        [
            (1.0, {"type": "delta", "strength": 2.0, "position": 0.25}),
            (1.3, ZERO),
            (0.7, ZERO),
        ]
    )


@pytest.fixture(scope="session")
def g_divergent() -> MetricGraph:
    return interval(1.0, {"type": "expr", "expr": "50*cos(20*x)"})


@pytest.fixture(scope="session")
def g_smooth_star() -> MetricGraph:
    return star(
        [
            (1.0, {"type": "expr", "expr": "cos(2*x)"}),
            (1.0, {"type": "expr", "expr": "cos(3*x)"}),
            (1.0, {"type": "expr", "expr": "cos(4*x)"}),
        ]
    )


def random_delta_star(seed: int, n_arms: int = 10) -> MetricGraph:
    """Star of n_arms delta arms drawn with numpy default_rng(seed): per arm
    L ~ U(0.6, 1.4), D ~ U(0.3, 3.0), x0 ~ U(0.1, 0.9) * L."""
    rng = np.random.default_rng(seed)
    arms = []
    for _ in range(n_arms):
        length = float(rng.uniform(0.6, 1.4))
        strength = float(rng.uniform(0.3, 3.0))
        position = float(rng.uniform(0.1, 0.9)) * length
        pot = {"type": "delta", "strength": strength, "position": position}
        arms.append((length, pot))
    return star(arms)


def _record_calls(monkeypatch, original, entries=lambda g, x: [x], calls=None):
    """List (``calls``, or a new one) that records ``entries(g, x)`` of every
    call ``original(g, x, ...)``, seen under every qgspectra module global
    that names the function; by default the second argument itself."""
    calls = [] if calls is None else calls

    def counted(g, x, *args, **kwargs):
        calls.extend(entries(g, x))
        return original(g, x, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "qgspectra" or name.startswith("qgspectra."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture
def solve_edge_calls(monkeypatch):
    """Edge index of every edge solve, one per edge and wavenumber: each
    solve_edge call, and each (k, edge) point of a _solve_edges batch."""
    calls = _record_calls(monkeypatch, edge.solve_edge)
    return _record_calls(
        monkeypatch,
        edge._solve_edges,
        lambda g, ks: [e for _ in np.ravel(ks) for e in range(g.num_edges)],
        calls,
    )


@pytest.fixture
def assembled_ks(monkeypatch):
    """Every wavenumber at which the edges are evaluated together, one entry
    per k point: each _solve_edges batch, which assemble_T and the secular
    path's edge entries both go through."""
    return _record_calls(
        monkeypatch, edge._solve_edges, lambda g, ks: np.ravel(ks).tolist()
    )


@pytest.fixture
def magnus_calls(monkeypatch):
    """One entry (the interval's left end) per Magnus kernel call."""
    return _record_calls(monkeypatch, edge._magnus)


@pytest.fixture
def magnus_steps(monkeypatch):
    """(step count, number of wavenumbers) of every Magnus kernel call."""
    calls = []
    original = edge._magnus

    def counted(w, a, b, ks, n, *args):
        calls.append((n, len(ks)))
        return original(w, a, b, ks, n, *args)

    monkeypatch.setattr(edge, "_magnus", counted)
    return calls


@pytest.fixture
def threshold_points(monkeypatch):
    """(edge index, complex k) of every grid point the threshold scan
    evaluates."""
    points = []
    moduli = edge._max_moduli

    def recorded(g, e, ks):
        points.extend((e, k) for k in ks.tolist())
        return moduli(g, e, ks)

    monkeypatch.setattr(edge, "_max_moduli", recorded)
    return points
