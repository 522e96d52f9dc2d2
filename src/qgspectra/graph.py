"""Metric graphs with directed-edge indexing.

Edge e owns two directed edges: 2e runs from->to, 2e+1 runs to->from, so
reversal is XOR with 1.  iota(d) is the vertex d leaves from, tau(d) the
vertex it arrives at; iota(d) == tau(d^1) always.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence, Tuple

from .errors import GraphError
from .potential import Potential, orient

__all__ = ["Edge", "MetricGraph", "build_graph"]

_CONTINUITY_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Edge:
    index: int
    eid: str
    u: str  # "from" endpoint
    v: str  # "to" endpoint
    length: float
    potential: Potential


class MetricGraph:
    """Immutable metric graph; all operations elsewhere are pure in it."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        self.vertices: Tuple[str, ...] = tuple(vertices)
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self.num_edges = len(self.edges)
        self.num_directed = 2 * self.num_edges

        self._iota: List[str] = []
        self._tau: List[str] = []
        for e in self.edges:
            self._iota += [e.u, e.v]
            self._tau += [e.v, e.u]

        self._out: Dict[str, List[int]] = {v: [] for v in self.vertices}
        for d in range(self.num_directed):
            self._out[self._iota[d]].append(d)
        self.degree: Dict[str, int] = {v: len(ds) for v, ds in self._out.items()}
        self.total_length = math.fsum(e.length for e in self.edges)

    # -- directed-edge table -------------------------------------------------

    def iota(self, d: int) -> str:
        return self._iota[d]

    def tau(self, d: int) -> str:
        return self._tau[d]

    @staticmethod
    def reverse(d: int) -> int:
        return d ^ 1

    def direction_length(self, d: int) -> float:
        return self.edges[d // 2].length

    def edge_of(self, d: int) -> Edge:
        return self.edges[d // 2]

    def out_directions(self, v: str) -> List[int]:
        return list(self._out[v])

    def oriented_potential(self, d: int) -> Potential:
        e = self.edges[d // 2]
        return orient(e.potential, reverse=bool(d & 1), length=e.length)

    def delta_strengths(self) -> List[float]:
        return [e.potential.strength for e in self.edges if e.potential.kind == "delta"]


def build_graph(data: dict) -> MetricGraph:
    """Validate a declarative graph description and build the MetricGraph.

    Expected shape::

        {"vertices": [ids...],
         "edges": [{"id": ..., "from": ..., "to": ..., "length": L,
                    "potential": {"type": ...}}, ...]}
    """
    if not isinstance(data, dict):
        raise GraphError("graph description must be a mapping")
    try:
        vertex_ids = [str(v) for v in data["vertices"]]
        edge_specs = list(data["edges"])
    except (KeyError, TypeError):
        raise GraphError("graph description needs 'vertices' and 'edges' lists")
    if not vertex_ids:
        raise GraphError("graph needs at least one vertex")
    if len(set(vertex_ids)) != len(vertex_ids):
        raise GraphError("duplicate vertex id")
    if not edge_specs:
        raise GraphError("graph needs at least one edge")

    vertex_set = set(vertex_ids)
    edges: List[Edge] = []
    seen_ids = set()
    for i, spec in enumerate(edge_specs):
        try:
            eid = str(spec.get("id", f"e{i}"))
            u, v = str(spec["from"]), str(spec["to"])
            length = float(spec["length"])
            pot = Potential.from_dict(spec.get("potential", {"type": "zero"}))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed edge entry {i}: {exc}")
        if eid in seen_ids:
            raise GraphError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        if u not in vertex_set or v not in vertex_set:
            raise GraphError(f"edge {eid!r} references an unknown vertex")
        if u == v:
            raise GraphError(
                f"edge {eid!r} is a self-loop; subdivide it with an extra "
                "vertex instead"
            )
        if not (length > 0) or not math.isfinite(length):
            raise GraphError(f"edge {eid!r} must have positive finite length")
        pot.validate_for_length(length)
        edges.append(Edge(i, eid, u, v, length, pot))

    g = MetricGraph(vertex_ids, edges)
    if any(deg < 1 for deg in g.degree.values()):
        bad = [v for v, deg in g.degree.items() if deg < 1]
        raise GraphError(f"isolated vertices: {bad}")
    _warn_on_vertex_discontinuity(g)
    return g


def _warn_on_vertex_discontinuity(g: MetricGraph) -> None:
    # Values of non-delta potentials at a shared vertex should agree; this is
    # the caller's responsibility, so mismatches only warn.  Each is read off
    # the edge's own expression, at x = 0 for direction 2e, x = L for 2e + 1.
    for v in g.vertices:
        vals = []
        for d in g.out_directions(v):
            e = g.edge_of(d)
            if e.potential.kind != "delta":
                vals.append(float(e.potential.callable(e.length)(e.length if d & 1 else 0.0)))
        if vals and max(vals) - min(vals) > _CONTINUITY_TOL:
            import logging  # only here: the package import stays without it

            logging.getLogger(__name__).warning(
                "potential values disagree at vertex %s (range %.3e); the "
                "operator is still well defined but the smoothness assumption "
                "is violated",
                v,
                max(vals) - min(vals),
            )

