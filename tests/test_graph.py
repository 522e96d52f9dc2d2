"""Graph construction, direction bookkeeping, and the auxiliary doubling."""
from __future__ import annotations

import gc
import logging
import math
import weakref

import numpy as np
import pytest

from qgspectra.edge import subunitarity_threshold
from qgspectra.errors import GraphError
from qgspectra.graph import MetricGraph, build_graph
from qgspectra.scattering import big_sigma
from qgspectra.spectrum import scan_spectrum

from .conftest import ZERO, interval, star


def test_direction_maps_on_fixtures(g_triangle, g_delta_star):
    for g in (g_triangle, g_delta_star):
        n_dir = 2 * len(g.edges)
        for e, edge in enumerate(g.edges):
            assert g.iota(2 * e) == edge.u
            assert g.tau(2 * e) == edge.v
            assert g.iota(2 * e + 1) == edge.v
            assert g.tau(2 * e + 1) == edge.u
        for d in range(n_dir):
            r = MetricGraph.reverse(d)
            assert r == d ^ 1
            assert MetricGraph.reverse(r) == d
            assert g.iota(r) == g.tau(d)
            assert g.direction_length(d) == g.edge_of(d).length


def test_direction_maps_random_paths():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        lengths = rng.uniform(0.3, 2.5, size=n - 1)
        vertices = [f"p{i}" for i in range(n)]
        edges = [
            {"from": vertices[i], "to": vertices[i + 1], "length": float(lengths[i]), "potential": ZERO}
            for i in range(n - 1)
        ]
        g = build_graph({"vertices": vertices, "edges": edges})
        assert sum(len(g.out_directions(v)) for v in vertices) == 2 * len(g.edges)
        for v in vertices:
            for d in g.out_directions(v):
                assert g.iota(d) == v
        for e, length in enumerate(lengths):
            assert g.direction_length(2 * e) == pytest.approx(float(length))


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(
            {
                "vertices": ["a"],
                "edges": [{"from": "a", "to": "a", "length": 1.0, "potential": ZERO}],
            }
        )


def test_unknown_vertex_rejected():
    with pytest.raises(GraphError, match="unknown vertex"):
        build_graph(
            {
                "vertices": ["a"],
                "edges": [{"from": "a", "to": "zz", "length": 1.0, "potential": ZERO}],
            }
        )


def test_parallel_edges_allowed():
    g = build_graph(
        {
            "vertices": ["a", "b"],
            "edges": [
                {"from": "a", "to": "b", "length": 1.0, "potential": ZERO},
                {"from": "a", "to": "b", "length": 2.0, "potential": ZERO},
            ],
        }
    )
    assert len(g.edges) == 2
    assert len(g.out_directions("a")) == 2
    assert len(g.out_directions("b")) == 2


def test_degrees_on_star(g_delta_star):
    assert g_delta_star.out_directions("c") == [0, 2, 4]
    for leaf in ("v1", "v2", "v3"):
        assert len(g_delta_star.out_directions(leaf)) == 1


def test_potential_helpers(g_delta_star, g_smooth, g_triangle):
    assert g_delta_star.delta_strengths() == [2.0, 0.7, 1.3]
    assert g_smooth.delta_strengths() == g_triangle.delta_strengths() == []


def test_oriented_potential_mirrors_position(g_delta_star):
    # Edge e1 carries its interaction at 0.3 from the departure end; seen
    # from the opposite end it sits at length - 0.3.
    fwd = g_delta_star.oriented_potential(2)
    bwd = g_delta_star.oriented_potential(3)
    assert fwd.position == pytest.approx(0.3)
    assert bwd.position == pytest.approx(0.7)
    assert fwd.strength == bwd.strength == 0.7


def test_vertex_value_mismatch_logged(caplog):
    data = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "length": 1.0, "potential": {"type": "expr", "expr": "x"}},
            {"from": "b", "to": "c", "length": 1.0, "potential": {"type": "expr", "expr": "5+x"}},
        ],
    }
    with caplog.at_level(logging.WARNING, logger="qgspectra.graph"):
        build_graph(data)
    assert "potential values disagree at vertex b" in caplog.text


def test_matching_vertex_values_stay_silent(caplog):
    data = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "length": 1.0, "potential": {"type": "expr", "expr": "x"}},
            {"from": "b", "to": "c", "length": 1.0, "potential": {"type": "expr", "expr": "x+1"}},
        ],
    }
    with caplog.at_level(logging.WARNING, logger="qgspectra.graph"):
        build_graph(data)
    assert "disagree" not in caplog.text


def test_total_length_additive(g_star3):
    total = sum(e.length for e in g_star3.edges)
    assert total == pytest.approx(1.0 + math.sqrt(2.0) + math.pi / 3.0)


def test_derived_data_is_cached_off_the_graph():
    # Sigma and the threshold are computed once per graph, without writing
    # attributes on it and without keeping it alive
    g = star([(1.0, {"type": "constant", "value": 2.0}), (1.3, ZERO)])
    before = dict(vars(g))
    info = subunitarity_threshold(g, detailed=True)
    sigma = big_sigma(g)
    scan_spectrum(g, 3.0, 5.0)
    assert vars(g).keys() == before.keys()
    assert subunitarity_threshold(g, detailed=True) is info
    assert big_sigma(g) is sigma
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
