"""Shared graph fixtures for the test suite."""
from __future__ import annotations

import math
import sys

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


@pytest.fixture
def solve_edge_calls(monkeypatch):
    """List that records the edge index of every solve_edge call, seen
    under every qgspectra module global that names the function."""
    calls = []
    original = edge.solve_edge

    def counted(g, e, *args, **kwargs):
        calls.append(e)
        return original(g, e, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "qgspectra" or name.startswith("qgspectra."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
