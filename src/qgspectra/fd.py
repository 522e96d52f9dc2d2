"""Finite-difference eigenvalues for cross-validation.

Each edge gets a uniform grid; the operator -psi'' + w psi is assembled
as a symmetric quadratic form with second-order stencils, lumped mass,
vertex continuity (shared endpoint nodes) and discrete Kirchhoff
conditions (which emerge from the form: the vertex row sums one-sided
differences).  Point interactions add their strength at the nearest
grid node, the standard D/h single-node lumping.

This is deliberately a slow, dense, robust solver: its only job is to
give eigenvalues the secular scan can be checked against, at oracle
accuracy (three decimal places), by an entirely different method.  One
eigensolve (``_eig_band``) serves ``fd_spectrum`` and ``fd_modes``: it
takes the smallest eigenpairs in a window that widens until it holds the
requested number of nonnegative eigenvalues, so a deep well, whose
negative eigenvalues fill the first window, loses no mode.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InputError, NumericalError, _index
from .graph import MetricGraph

__all__ = [
    "DiscretizedGraph",
    "FdResult",
    "build_discretization",
    "fd_modes",
    "fd_spectrum",
    "kirchhoff_defect",
]

_NEG_TOL = 1e-8


@dataclasses.dataclass
class DiscretizedGraph:
    """Assembled symmetric discretization of one graph.

    `form` is the stiffness-plus-potential quadratic form, `mass` the
    lumped mass diagonal; `matrix` is the symmetrized operator
    M^{-1/2} (K + P) M^{-1/2} whose eigenvalues approximate k^2.
    """

    graph: MetricGraph
    h: float
    form: np.ndarray
    mass: np.ndarray
    matrix: np.ndarray
    vertex_nodes: Dict[str, int]
    edge_nodes: Dict[str, List[int]]
    edge_steps: Dict[str, float]

    @property
    def n_nodes(self) -> int:
        return self.mass.shape[0]


def build_discretization(g: MetricGraph, h: float) -> DiscretizedGraph:
    """Assemble the discrete operator with per-edge step at most h.

    Requires h <= min edge length / 16 so every edge carries a
    resolved grid.
    """
    if np.iscomplexobj(h):
        raise InputError(f"grid step h={h} must be real")
    min_len = min(e.length for e in g.edges)
    if not (0 < h <= min_len / 16.0):
        raise InputError(
            f"grid step h={h:g} must satisfy 0 < h <= min edge length/16 "
            f"= {min_len / 16.0:g}"
        )

    vertex_nodes = {v: i for i, v in enumerate(g.vertices)}
    n_nodes = len(g.vertices)
    edge_nodes: Dict[str, List[int]] = {}
    edge_steps: Dict[str, float] = {}

    for e in g.edges:
        n_cells = int(math.ceil(e.length / h))
        he = e.length / n_cells
        interior = list(range(n_nodes, n_nodes + n_cells - 1))
        n_nodes += n_cells - 1
        edge_nodes[e.eid] = [vertex_nodes[e.u]] + interior + [vertex_nodes[e.v]]
        edge_steps[e.eid] = he

    form = np.zeros((n_nodes, n_nodes))
    mass = np.zeros(n_nodes)

    for e in g.edges:
        nodes = edge_nodes[e.eid]
        he = edge_steps[e.eid]
        inv = 1.0 / he
        for a, b in zip(nodes[:-1], nodes[1:]):
            form[a, a] += inv
            form[b, b] += inv
            form[a, b] -= inv
            form[b, a] -= inv
        # Lumped mass: full cell for interior nodes, half cells at ends.
        mass[nodes[0]] += he / 2.0
        mass[nodes[-1]] += he / 2.0
        for idx in nodes[1:-1]:
            mass[idx] += he

        pot = e.potential
        if pot.kind == "zero":
            continue
        if pot.kind == "delta":
            j = int(round(pot.position / he))
            j = min(max(j, 0), len(nodes) - 1)
            form[nodes[j], nodes[j]] += pot.strength
            continue
        w = pot.callable(e.length)
        xs = np.arange(len(nodes)) * he
        vals = np.asarray(w(xs), dtype=float)
        form[nodes[0], nodes[0]] += (he / 2.0) * vals[0]
        form[nodes[-1], nodes[-1]] += (he / 2.0) * vals[-1]
        for idx, val in zip(nodes[1:-1], vals[1:-1]):
            form[idx, idx] += he * val

    inv_sqrt = 1.0 / np.sqrt(mass)
    matrix = form * inv_sqrt[:, None] * inv_sqrt[None, :]
    matrix = 0.5 * (matrix + matrix.T)
    return DiscretizedGraph(
        graph=g,
        h=h,
        form=form,
        mass=mass,
        matrix=matrix,
        vertex_nodes=vertex_nodes,
        edge_nodes=edge_nodes,
        edge_steps=edge_steps,
    )


@dataclasses.dataclass
class FdResult:
    """Eigenvalues of one discretization (k = sqrt(lambda) for the
    nonnegative band; negative lambdas listed separately)."""

    ks: np.ndarray
    negative: np.ndarray
    h: float
    n_nodes: int
    extrapolated: bool = False


def _eig_band(
    disc: DiscretizedGraph, count: int, want_vectors: bool = False
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The first `count` nonnegative eigenvalues as k values, every negative
    eigenvalue and, with ``want_vectors``, the eigenvectors of the k values
    (else None).  The smallest eigenpairs are taken from a window of count
    + 16 that widens until it holds `count` nonnegative ones or the whole
    spectrum, so no negative eigenvalue crowds a mode out."""
    import scipy.linalg

    n = disc.n_nodes
    want = min(count + 16, n)
    while True:
        try:
            out = scipy.linalg.eigh(
                disc.matrix, eigvals_only=not want_vectors, subset_by_index=[0, want - 1]
            )
        except Exception as exc:  # pragma: no cover - eigensolver failure
            raise NumericalError(f"eigensolver failed: {exc}") from exc
        lam, vec = out if want_vectors else (out, None)
        nonneg = lam >= -_NEG_TOL
        if np.count_nonzero(nonneg) >= count or want == n:
            break
        want = min(2 * want + 32, n)
    ks = np.sqrt(np.clip(lam[nonneg], 0.0, None))[:count]
    return ks, lam[~nonneg], None if vec is None else vec[:, nonneg][:, :count]


def fd_spectrum(
    g: MetricGraph,
    h: float,
    count: int,
    richardson: bool = False,
) -> FdResult:
    """First `count` nonnegative eigenvalues as k values.

    With richardson=True the solve is repeated at h/2 and the usual
    second-order extrapolation (4 k_{h/2} - k_h) / 3 is returned, which
    cancels the leading h^2 error of the stencil.
    """
    count = _index(count, 1, "count must be a positive integer")
    disc = build_discretization(g, h)
    ks, neg, _ = _eig_band(disc, count)
    if not richardson:
        return FdResult(ks=ks, negative=neg, h=h, n_nodes=disc.n_nodes)
    disc2 = build_discretization(g, h / 2.0)
    ks2, neg2, _ = _eig_band(disc2, count)
    if len(ks) != len(ks2):
        raise NumericalError(
            "grid refinement changed the eigenvalue count; "
            "Richardson pairing is unsafe here"
        )
    extr = (4.0 * ks2 - ks) / 3.0
    return FdResult(
        ks=extr, negative=neg2, h=h, n_nodes=disc2.n_nodes, extrapolated=True
    )


def fd_modes(
    g: MetricGraph, h: float, count: int
) -> Tuple[FdResult, np.ndarray, DiscretizedGraph]:
    """Like fd_spectrum but also returns eigenvectors (mass-space, i.e.
    nodal values) for discrete boundary-condition checks."""
    disc = build_discretization(g, h)
    ks, neg, vec = _eig_band(disc, count, want_vectors=True)
    # Back to nodal values: v = M^{-1/2} y.
    nodal = vec / np.sqrt(disc.mass)[:, None]
    return FdResult(ks=ks, negative=neg, h=h, n_nodes=disc.n_nodes), nodal, disc


def kirchhoff_defect(disc: DiscretizedGraph, nodal: np.ndarray) -> float:
    """Max over vertices of |sum of outgoing one-sided derivatives|.

    For a converged eigenvector this vanishes to O(h); it is the
    discrete image of the vertex derivative condition.
    """
    g = disc.graph
    sup = float(np.max(np.abs(nodal)))
    worst = 0.0
    for v, vi in disc.vertex_nodes.items():
        total = 0.0
        for e in g.edges:
            nodes = disc.edge_nodes[e.eid]
            he = disc.edge_steps[e.eid]
            if e.u == v:
                total += (nodal[nodes[1]] - nodal[nodes[0]]) / he
            if e.v == v:
                total += (nodal[nodes[-2]] - nodal[nodes[-1]]) / he
        worst = max(worst, abs(total))
    return worst / max(sup, 1e-300)
