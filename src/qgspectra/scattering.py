"""Global scattering assembly and the secular function.

The 2E x 2E vertex scattering matrix Sigma is block diagonal over vertices
when directed edges are grouped by their origin: the block at a vertex of
degree nu is (2/nu) J - I (J the all-ones matrix), i.e. backscatter
2/nu - 1 and cross-scattering 2/nu.  The edge transition matrix T(k) couples
only the direction pair {2e, 2e+1} of each edge:

    T[2e, 2e]     = r_from    T[2e, 2e+1]   = trans
    T[2e+1, 2e]   = trans     T[2e+1, 2e+1] = r_to

S(k) = Sigma T(k) is unitary for real k, and the eigenvalue condition is
det(I - S(k)) = 0.  The secular function

    zeta(k) = (det S)^(-1/2) det(I - S)

is real on the real axis once the square root's branch is fixed by
continuous unwrapping of the det S phase along the evaluation path; only its
zeros (not its global sign) carry meaning.  Theta(k) is the continuously
unwrapped phase of det T; its derivative is the Wigner delay.

``assemble_T`` takes one k or a 1-D array of k.  Over an array the edge
layer evaluates every edge at every k at once (zero, constant and
point-interaction edges in closed form over (k, edge), each smooth edge
by one batched Magnus propagation), and T and T' come out stacked.

The secular function along a path (``_track``) never forms S: it is
computed from the per-edge entries (trans, r_from, r_to), each of shape
(n, E).  det S = det Sigma prod_e det t_e, with det Sigma = +-1 cached
beside Sigma.  det(I - S) (``_det_w``) is the Schur complement over the
block-diagonal I + T: Sigma = 2 B D^-1 B^T - I for the out-incidence B and
the vertex degrees D, so

    det(I - S) = prod_e det(I + t_e) * det(I_V - 2 D^-1 B^T T (I + T)^-1 B),

a V x V determinant assembled from the closed-form 2 x 2 blocks of
T (I + T)^-1 (Berkolaiko & Kuchment, Introduction to Quantum Graphs, AMS
2013, ch. 2).  A point where some |det(I + t_e)| is below _SCHUR_FLOOR,
such as an equilateral zero-potential star at k = pi, takes the dense
2E x 2E determinant instead; the choice depends on that point alone.

``secular`` is the one public evaluator: a scalar k gives one value, a
1-D array the path's values in order.  The branch is fixed by a value,
not by mutable state: a path continues from the evaluated value
``after``, or is anchored at its first point, so two continuations from
one value are two calls.  A scan's path also takes the eigenvalue count
at each point (``_count``) from the same edge solutions: the inertia of
the real symmetric vertex Dirichlet-to-Neumann matrix, built from the
fundamental matrices M of the edges, plus Sturm counts on the edges.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import weakref
from typing import List, Optional, Tuple, Union

import numpy as np

from .edge import _entries, _solve_edges, unitarity_defect
from .errors import NumericalError, PhaseTrackingError
from .graph import Edge, MetricGraph
from .potential import Potential, orient

__all__ = [
    "vertex_sigma",
    "big_sigma",
    "assemble_T",
    "assemble_S",
    "SecularValue",
    "secular",
    "theta_prime",
    "unitarity_defect",
]

_PHASE_STEP_LIMIT = 0.9 * math.pi
# An eigenvalue of the vertex Dirichlet-to-Neumann matrix within this
# fraction of k, plus 64 rounding units of the sum of the moduli of its
# entries, is 0: a root at k.
_KERNEL_TOL = 1e-12
# A point where an edge of the core has |k m12| at or below this fraction of
# max(|m11|, |m22|) (near a Dirichlet eigenvalue; or, for an arm of a core
# of several vertices, |m| at its leaf end below this fraction of
# max(|k m12|, |m21| / k)) is near a pole of the matrix, whose entries grow
# like 1 / m12 and whose rounding swamps the small eigenvalues.  The count
# is taken on the cut graph there (``_cut``).
_POLE_BAND = 1e-6
# A point where some |det(I + t_e)| is below this takes det(I - S) densely.
# The vertex-space determinant's error grows like eps / min |det(I + t_e)|:
# over 2.1e5 random real k on three 10-arm delta stars it stayed below
# 2.5e-14 of the largest |det(I - S)| above this floor, and reached 8e-12
# below 1e-5.
_SCHUR_FLOOR = 1e-3


@dataclasses.dataclass(frozen=True)
class _Layout:
    """Sigma of a graph, det Sigma (+-1), and the scatter table of the
    vertex-space determinant: per edge, the factor 2 / deg of the vertex
    of each entry's row, (E, 4), and the flat float index in a complex V x
    V matrix of the real and imaginary part of each entry, (E, 4, 2), for
    the entries (x00, x01, x10, x11) of the edge's block of T (I + T)^-1.
    For ``_count``: the number of core vertices, each edge's role (0 in the
    core, 1 or 2 an arm whose x = L or x = 0 end is a leaf) and the flat
    index of its entries (uu, uv, vu, vv) in the core's matrix."""

    sigma: np.ndarray
    det_sigma: float
    target: np.ndarray
    weight: np.ndarray
    n_core: int
    role: np.ndarray
    dtn_target: np.ndarray


# the layout of each live graph, built on first use
_SIGMAS: "weakref.WeakKeyDictionary[MetricGraph, _Layout]" = (
    weakref.WeakKeyDictionary()
)
# the cut graph of each live graph (see ``_cut``), and None for a cut graph
_CUTS: "weakref.WeakKeyDictionary[MetricGraph, Optional[MetricGraph]]" = (
    weakref.WeakKeyDictionary()
)
_CUT = (math.sqrt(5.0) - 1.0) / 2.0  # where an edge is cut, as a fraction


def vertex_sigma(g: MetricGraph, v: str) -> np.ndarray:
    """deg x deg scattering block at vertex v: (2/deg) J - I."""
    deg = g.degree[v]
    return (2.0 / deg) * np.ones((deg, deg)) - np.eye(deg)


def big_sigma(g: MetricGraph) -> np.ndarray:
    """k-independent 2E x 2E vertex scattering matrix.

    Row d and column d' are coupled iff they leave the same vertex; the
    coupling maps the wave arriving along the reversal of d' into the wave
    leaving along d.
    """
    return _layout(g).sigma


def _layout(g: MetricGraph) -> _Layout:
    layout = _SIGMAS.get(g)
    if layout is not None:
        return layout
    # the vertex each direction leaves, and its degree
    index = {v: i for i, v in enumerate(g.vertices)}
    origin = np.empty(g.num_directed, dtype=int)
    for v in g.vertices:
        origin[g.out_directions(v)] = index[v]
    deg = np.array([g.degree[v] for v in g.vertices])[origin]
    same = origin[:, None] == origin[None, :]
    sigma = np.where(same, 2.0 / deg[:, None], 0.0) - np.eye(g.num_directed)
    # rows and columns of the entries (x00, x01, x10, x11) of each edge's
    # block, which couples its directions (2e, 2e+1)
    pairs = np.arange(g.num_directed).reshape(-1, 2)
    rows, cols = pairs[:, [0, 0, 1, 1]], pairs[:, [0, 1, 0, 1]]
    nv = len(index)
    target = 2 * (origin[rows] * nv + origin[cols])[..., None] + np.arange(2)
    det_sigma = float(np.sign(np.linalg.det(sigma)))
    # the core: every vertex but those of degree 1 (a one-edge graph keeps
    # its "from" end); an arm adds only to the diagonal entry of its core end
    leaves = {v for v in g.vertices if g.degree[v] == 1}
    leaves -= {e.u for e in g.edges if e.v in leaves}
    core = {v: i for i, v in enumerate(v for v in g.vertices if v not in leaves)}
    role = np.array([(e.v in leaves) + 2 * (e.u in leaves) for e in g.edges])
    nc = len(core)
    u, v = np.array(
        [(core.get(e.u, core.get(e.v)), core.get(e.v, core.get(e.u))) for e in g.edges]
    ).T
    dtn_target = np.stack([u * nc + u, u * nc + v, v * nc + u, v * nc + v], axis=-1)
    layout = _SIGMAS[g] = _Layout(
        sigma, det_sigma, target, 2.0 / deg[rows], nc, role, dtn_target
    )
    return layout


def _place(t, n: int) -> np.ndarray:
    """Stacked T (or T') from the per-edge entries (trans, r_from, r_to),
    each of shape (n_k, E)."""
    trans, r_from, r_to = t
    M = np.zeros((trans.shape[0], n, n), dtype=complex)
    d = np.arange(0, n, 2)
    M[:, d, d] = r_from
    M[:, d + 1, d + 1] = r_to
    M[:, d, d + 1] = trans
    M[:, d + 1, d] = trans
    return M


def _edge_entries(g: MetricGraph, ks: np.ndarray):
    """(trans, r_from, r_to) of every edge at every k of the 1-D complex
    array ``ks``, each of shape (len(ks), E)."""
    t, _ = _entries(_solve_edges(g, ks))
    return t


def assemble_T(g: MetricGraph, k, want_dk: bool = False):
    """T(k), or the pair (T(k), T'(k)) when ``want_dk``, from one pass of the
    edge layer over every k.  A scalar k gives 2E x 2E matrices; a 1-D array
    of k gives them stacked, shape (len(k), 2E, 2E)."""
    ks = np.asarray(k, dtype=complex)
    t, dt = _entries(_solve_edges(g, ks.reshape(-1), want_dk))
    out = [_place(t, g.num_directed)]
    if want_dk:
        out.append(_place(dt, g.num_directed))
    if ks.ndim == 0:
        out = [M[0] for M in out]
    return tuple(out) if want_dk else out[0]


def assemble_S(g: MetricGraph, k) -> np.ndarray:
    return big_sigma(g) @ assemble_T(g, k)


@dataclasses.dataclass
class SecularValue:
    k: complex
    zeta: complex
    det_s_phase: float  # unwrapped
    theta: float  # unwrapped phase of det T

    @property
    def zeta_real(self) -> float:
        return self.zeta.real


def _det_s(g: MetricGraph, t) -> np.ndarray:
    """det S = det Sigma prod_e det t_e at each point, from the edge entries
    t = (trans, r_from, r_to), each (n, E)."""
    trans, r_from, r_to = t
    return _layout(g).det_sigma * np.prod(r_from * r_to - trans * trans, axis=-1)


def _det_w(g: MetricGraph, k, t=None):
    """det(I - S(k)) for a scalar k, or their array for a 1-D array of k,
    from the edge entries t = (trans, r_from, r_to), each (len(k), E),
    which are evaluated unless given.

    Sigma = 2 B D^-1 B^T - I, with B the 2E x V out-incidence and D the
    vertex degrees, so the Schur complement over the block-diagonal I + T
    gives det(I - S) = det(I + T) det(I_V - 2 D^-1 B^T X B), X = T (I +
    T)^-1.  Per edge, det(I + t_e) = 1 + r_from + r_to + det t_e, and the
    block of X is [[r_from + det t_e, trans], [trans, r_to + det t_e]] /
    det(I + t_e).  A point where some |det(I + t_e)| is below _SCHUR_FLOOR
    takes the dense 2E x 2E determinant instead.
    """
    ks = np.asarray(k, dtype=complex)
    if t is None:
        t = _edge_entries(g, ks.reshape(-1))
    layout = _layout(g)
    trans, r_from, r_to = t
    det_t = r_from * r_to - trans * trans
    det_1t = 1.0 + r_from + r_to + det_t
    dense = np.abs(det_1t).min(axis=-1) < _SCHUR_FLOOR
    x = np.stack((r_from + det_t, trans, trans, r_to + det_t), axis=-1)
    x *= layout.weight / np.where(dense[:, None], 1.0, det_1t)[..., None]
    # sum the real and imaginary parts of the entries into their V x V
    # slots, point by point, in one bincount over the interleaved floats
    n, nv = len(x), len(g.vertices)
    slots = (2 * nv * nv * np.arange(n))[:, None, None, None] + layout.target
    m = np.bincount(slots.ravel(), x.view(float).ravel(), 2 * n * nv * nv)
    a = np.eye(nv) - m.view(complex).reshape(n, nv, nv)
    w = np.prod(det_1t, axis=-1) * np.linalg.det(a)
    if dense.any():
        S = layout.sigma @ _place(tuple(c[dense] for c in t), g.num_directed)
        w[dense] = np.linalg.det(np.eye(g.num_directed) - S)
    return complex(w[0]) if ks.ndim == 0 else w


def _count(g: MetricGraph, ks, sol=None) -> Tuple[np.ndarray, np.ndarray]:
    """The eigenvalue count at each real k > 0 of the 1-D array ``ks``: N,
    the eigenvalues k_j <= k with multiplicity, and n0, those at k.
    ``sol`` is the boundary data of every edge at ``ks`` with its zeros
    (evaluated unless given).

    N = N_E + n_+(Lambda) + n_0(Lambda) (Friedlander, Ann. Inst. Fourier
    55, 2005; Berkolaiko, Cox & Marzuola, Lett. Math. Phys. 106, 2016), for
    Lambda(k) the real symmetric Dirichlet-to-Neumann matrix of the core
    vertices: an edge of the core from u (x = 0) to v (x = L) adds -m11/m12
    to Lambda_uu, -m22/m12 to Lambda_vv and 1/m12 to Lambda_uv and Lambda_vu.
    Each degree-1 vertex is eliminated in closed form (Haynsworth inertia
    additivity): an arm whose leaf is at x = L adds -m21/m22 to its core
    end, one whose leaf is at x = 0 adds -m21/m11.  N_E adds up what each
    edge holds alone below k^2: its Dirichlet eigenvalues for an edge of
    the core, its Dirichlet (core) - Neumann (leaf) ones for an arm, by the
    Sturm counts ``edge._zeros``.  These read their last zero off the same
    m12, m11 or m22 as Lambda, so the two terms agree up to a pole of an
    arm's entry, which is taken as +inf there, its limit from below.  An
    eigenvalue of Lambda within the kernel tolerance (_KERNEL_TOL) is a
    root at k.  A star's core is its centre, so its count costs O(E) per
    point; a larger core takes a dense eigvalsh, and a point near one of
    its poles (_POLE_BAND) is counted on the cut graph.
    """
    ks = np.asarray(ks, dtype=float).reshape(-1)
    if sol is None:
        sol = _solve_edges(g, ks, want_count=True)
    layout = _layout(g)
    m11, m12, m21, m22 = (np.real(x) for x in sol.m)
    z_n, z_d = sol.zeros
    core, to_leaf = layout.role == 0, layout.role == 1
    leaf_m = np.where(to_leaf, m22, m11)
    arm = np.where(to_leaf, z_d + (m12 * m22 < 0), z_n - (m11 == 0))
    own = np.where(core, z_d - (m12 == 0), arm)
    k = ks[:, None]
    pole = np.where(
        core,
        k * np.abs(m12) <= _POLE_BAND * np.maximum(np.abs(m11), np.abs(m22)),
        (layout.n_core > 1)
        & (np.abs(leaf_m) <= _POLE_BAND * np.maximum(k * np.abs(m12), np.abs(m21) / k)),
    ).any(axis=-1)
    # the entries (uu, uv, vu, vv) of each edge: (-m11, 1, 1, -m22) / m12 in
    # the core, (-m21, 0, 0, 0) / m at the leaf for an arm; unused at a pole
    den = np.where(core, m12, leaf_m)
    x = np.broadcast_arrays(np.where(core, -m11, -m21), core, core, core * -m22)
    x = np.stack(x, axis=-1) / np.where(den == 0, 1.0, den)[..., None]
    x[..., 0] = np.where(~core & (den == 0), np.inf, x[..., 0])
    x[pole] = 0.0
    n, nc = len(ks), layout.n_core
    slots = (nc * nc * np.arange(n))[:, None, None] + layout.dtn_target
    lam = np.bincount(slots.ravel(), x.ravel(), n * nc * nc).reshape(n, nc, nc)
    eig = lam.reshape(n, 1) if nc == 1 else np.linalg.eigvalsh(lam)
    entries = np.abs(np.where(np.isinf(x), 0.0, x)).sum(axis=(1, 2))
    tol = (_KERNEL_TOL * ks + 64 * np.finfo(float).eps * entries)[:, None]
    at = (np.abs(eig) <= tol).sum(axis=-1)
    count = own.sum(axis=-1) + (eig >= -tol).sum(axis=-1)
    if pole.any():
        cut = _cut(g)
        if cut is None:
            raise NumericalError(
                f"no eigenvalue count at k={ks[pole][0]:.9g}: a pole of the "
                "vertex matrix of the graph and of its cut"
            )
        count[pole], at[pole] = _count(cut, ks[pole])
    return count, at


def _cut(g: MetricGraph) -> Optional[MetricGraph]:
    """The graph the count of ``g`` takes at its poles: each edge cut in two
    at _CUT of its length by a new vertex of degree 2, which leaves the
    spectrum as it is and moves the Dirichlet eigenvalues of the pieces off
    those of the edge; None for a cut graph."""
    if g in _CUTS:
        return _CUTS[g]
    vertices, edges = list(g.vertices), []
    for e in g.edges:
        pot, x, w = e.potential, _CUT * e.length, f"\0{e.index}"
        first = second = pot
        if pot.kind == "delta":
            first, second = (
                (pot, Potential.zero())
                if pot.position <= x
                else (Potential.zero(), Potential.delta(pot.strength, pot.position - x))
            )
        elif pot.kind == "smooth":
            # w(x + s) on the second piece: reflected on the edge, then on it
            second = orient(orient(pot, True, e.length), True, e.length - x)
        vertices.append(w)
        edges.append(Edge(len(edges), e.eid + "<", e.u, w, x, first))
        edges.append(Edge(len(edges), e.eid + ">", w, e.v, e.length - x, second))
    cut = _CUTS[g] = MetricGraph(vertices, edges)
    _CUTS[cut] = None
    return cut


@dataclasses.dataclass
class _Track:
    """det(I - S), zeta and the unwrapped det S phase along a k path, one
    row per point; theta = phase + theta_offset; and, when counted, the
    count N and the roots n0 at each point (``_count``)."""

    ks: np.ndarray
    det_w: np.ndarray
    zeta: np.ndarray
    phase: np.ndarray
    theta_offset: float
    count: Optional[np.ndarray] = None
    at: Optional[np.ndarray] = None

    def values(self) -> List[SecularValue]:
        """The SecularValue at each point."""
        return [
            SecularValue(complex(k), complex(z), float(p), float(p + self.theta_offset))
            for k, z, p in zip(self.ks, self.zeta, self.phase)
        ]


def _track(
    g: MetricGraph, ks, after: Optional[SecularValue] = None, count: bool = False
) -> _Track:
    """The secular function along the points ``ks`` in order, from the edge
    entries, continuing the branch from the evaluated value ``after`` or,
    without it, anchored at the first point; with ``count``, also the
    eigenvalue count at each (real) point, from the same edge solutions.

    det S = det Sigma prod_e det t_e, with det Sigma = +-1 independent of k,
    so theta, the phase of det T, is the det S phase plus an offset, fixed
    at a fresh path's first point.  Each step of the det S phase, from
    ``after`` on, must stay below 0.9 pi (PhaseTrackingError otherwise).
    The modulus factor |det S|^(-1/2) is 1 on the real axis and restores
    conjugate symmetry zeta(conj k) = conj zeta(k) off it.
    """
    ks = np.asarray(ks, dtype=complex).reshape(-1)
    sol = _solve_edges(g, ks, want_count=count)
    t, _ = _entries(sol)
    det_s = _det_s(g, t)
    det_w = _det_w(g, ks, t)
    det_sigma = _layout(g).det_sigma
    if after is None:
        prev, offset = 0.0, None
    else:
        prev, offset = after.det_s_phase, after.theta - after.det_s_phase
    phase = np.empty(len(ks))
    for i, d in enumerate(det_s.tolist()):
        if d == 0:
            raise NumericalError(f"det S vanishes at k={ks[i]}; prefactor undefined")
        step = math.remainder(cmath.phase(d) - prev, 2.0 * math.pi)
        if offset is None:
            offset = cmath.phase(det_sigma * d) - cmath.phase(d)  # det T = det Sigma det S
        elif abs(step) >= _PHASE_STEP_LIMIT:
            raise PhaseTrackingError(f"phase step {step:+.3f} too large; refine the k grid")
        prev += step
        phase[i] = prev
    zeta = np.abs(det_s) ** -0.5 * np.exp(-0.5j * phase) * det_w
    tr = _Track(ks, det_w, zeta, phase, offset)
    if count:
        tr.count, tr.at = _count(g, ks.real, sol)
    return tr


def secular(
    g: MetricGraph, k, after: Optional[SecularValue] = None
) -> Union[SecularValue, List[SecularValue]]:
    """zeta(k) for a scalar k, or the list of values along a 1-D array of
    k in order; the branch continues from the evaluated value ``after``,
    or is anchored at the first point.

    Consecutive points, ``after`` included, must be close enough that the
    det S phase moves less than 0.9 pi between them.
    """
    vals = _track(g, k, after).values()
    return vals[0] if np.ndim(k) == 0 else vals


def theta_prime(g: MetricGraph, k: float) -> float:
    """d Theta / dk at real k, via the per-edge trace identity."""
    return float(_theta_prime(*assemble_T(g, k, want_dk=True)))


def _theta_prime(T: np.ndarray, dT: np.ndarray):
    """d/dk log det T / i from T and T', per matrix of a stack.

    d/dk log det T = sum_e tr(t_e^{-1} t_e') over the 2x2 edge blocks, here
    read in the display layout [[trans, r_to], [r_from, trans]].  The result
    is real for real k; the imaginary residue is a numerical check discarded
    here.
    """
    d = np.arange(0, T.shape[-1], 2)
    trans, r_from, r_to = T[..., d, d + 1], T[..., d, d], T[..., d + 1, d + 1]
    dtrans, dr_from, dr_to = dT[..., d, d + 1], dT[..., d, d], dT[..., d + 1, d + 1]
    det = trans * trans - r_to * r_from
    tr_adj_dt = trans * dtrans - r_to * dr_from - r_from * dr_to + trans * dtrans
    total = (tr_adj_dt / det).sum(axis=-1)
    return (total / 1j).real
