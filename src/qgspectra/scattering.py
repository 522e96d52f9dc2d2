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

is real on the real axis; only its zeros (not its global sign) carry
meaning.  The square root's branch is fixed pointwise by theta(k), the
phase of det T, a function of k alone: at real k > 0

    theta = sum_e arg det t_e,  arg det t_e = -2 arg den_e,

with arg den_e continued along the edge from psi_plus(0) = 1 (``_theta``),
so a free edge of length L adds pi + 2kL.  Off the axis theta is continued
from Re k by the principal phase of det T(k) / det T(Re k).  Its
derivative is the Wigner delay, and theta / 2 pi the trace formula's Weyl
term.

``assemble_T`` takes one k or a 1-D array of k.  Over an array the edge
layer evaluates every edge at every k at once (zero, constant and
point-interaction edges in closed form over (k, edge), each smooth edge
by one batched Magnus propagation), and T and T' come out stacked.

``secular``, the one public evaluator of zeta and theta, never forms S:
det S and det(I - S) come from the fundamental matrices M of the edges,
one edge solve per point (and one more at Re k off the axis).  With den_e
= m21 - ik (m11 + m22) - k^2 m12, the denominator of t_e, and den+_e =
m21 + ik (m11 + m22) - k^2 m12, det t_e = den+_e / den_e, so det S = det
Sigma prod_e den+_e / den_e (det Sigma = +-1, cached beside Sigma).
det(I - S) and the vertex determinant F below are characteristic
determinants of the same vertex conditions (Berkolaiko & Kuchment,
Introduction to Quantum Graphs, AMS 2013, chs. 2-3), so (``_det_w``)

    det(I - S) = F prod_e (-4k / den_e) (-1)^A i^-V / (k prod_v deg(v)),

for A the arms eliminated from the core and V the vertices.  The factor
is formed from the ratios -4k / den_e, each of order one on the real
axis, so it does not overflow where prod_e den_e would.  A pole of some
t_e (den_e = 0, off the real axis only) raises SingularPointError.

A scan reads neither theta nor det S.  It reads the real symmetric vertex
Dirichlet-to-Neumann matrix Lambda, built from the fundamental matrices M
of the edges, in one assembly (``_vertex_det``): its inertia plus Sturm
counts on the edges give the eigenvalue count at each point,
and its determinant times the product of the edges' denominators and a
power of k gives the real, pole-free vertex determinant F(k), whose zeros
are those of det(I - S).  The scan brackets and refines roots on F.  At a
complex k the same assembly gives a complex F, and no count.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from typing import List, Optional, Union

import numpy as np

from .edge import _den, _entries, _refuse_singular, _solve_edges, unitarity_defect
from .errors import InputError, NumericalError
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

# An eigenvalue of the vertex Dirichlet-to-Neumann matrix within this
# fraction of k, plus 64 rounding units of the sum of the moduli of its
# entries, is 0: a root at k.
_KERNEL_TOL = 1e-12
# A point where an edge of the core has |k m12| at or below this fraction of
# max(|m11|, |m22|) (near a Dirichlet eigenvalue; or, for an arm of a core
# of several vertices, |m| at its leaf end below this fraction of
# max(|k m12|, |m21| / k)) is near a pole of the matrix, whose entries grow
# like 1 / m12 and whose rounding swamps the small eigenvalues.  The count,
# and F off a star, are taken on the cut graph there (``_cut``).
_POLE_BAND = 1e-6


@dataclasses.dataclass(frozen=True)
class _Layout:
    """Sigma of a graph and det Sigma (+-1).  For ``_vertex_det``: the
    number of core vertices, each edge's role (0 in the core, 1 or 2 an arm
    whose x = L or x = 0 end is a leaf) and the flat index of its entries
    (uu, uv, vu, vv) in the core's matrix.  For ``_det_w``: the constant
    (-1)^A i^-V / prod_v deg(v) of k det(I - S) / F."""

    sigma: np.ndarray
    det_sigma: float
    n_core: int
    role: np.ndarray
    dtn_target: np.ndarray
    w_factor: complex


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
    degrees = np.array([g.degree[v] for v in g.vertices])
    deg = degrees[origin]
    same = origin[:, None] == origin[None, :]
    sigma = np.where(same, 2.0 / deg[:, None], 0.0) - np.eye(g.num_directed)
    # each vertex block (2/d) J - I has eigenvalues 1 (once) and -1 (d - 1
    # times), so det Sigma = (-1)^(2E - V) = (-1)^V
    det_sigma = float((-1) ** len(index))
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
    arms = int(np.count_nonzero(role))  # A, and (-i)^V = i^-V
    w_factor = (-1) ** arms * (-1j) ** (len(index) % 4) / np.prod(degrees, dtype=float)
    layout = _SIGMAS[g] = _Layout(sigma, det_sigma, nc, role, dtn_target, w_factor)
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


def assemble_T(g: MetricGraph, k, want_dk: bool = False):
    """T(k), or the pair (T(k), T'(k)) when ``want_dk``, from one pass of the
    edge layer over every k.  A scalar k gives 2E x 2E matrices; a 1-D array
    of k gives them stacked, shape (len(k), 2E, 2E).  A real k is evaluated
    in float64, with cosh and sinh on classically forbidden Magnus steps; a
    complex k is evaluated in complex arithmetic.  T is complex either
    way."""
    ks = np.asarray(k)
    t, dt = _entries(_solve_edges(g, ks.reshape(-1), want_dk))
    out = [_place(t, g.num_directed)]
    if want_dk:
        out.append(_place(dt, g.num_directed))
    if ks.ndim == 0:
        out = [M[0] for M in out]
    return tuple(out) if want_dk else out[0]


def assemble_S(g: MetricGraph, k) -> np.ndarray:
    return big_sigma(g) @ assemble_T(g, k)


@dataclasses.dataclass(frozen=True)
class SecularValue:
    """zeta and theta, the phase of det T, at one k (see ``secular``)."""

    k: complex
    zeta: complex
    theta: float

    @property
    def zeta_real(self) -> float:
        return self.zeta.real


def _dens(sol):
    """den_e and den+_e = m21 + ik (m11 + m22) - k^2 m12 of every edge at
    every point, (n, E), from the fundamental matrices M of ``sol``; a pole
    of some t_e raises SingularPointError."""
    den, singular = _den(sol)
    _refuse_singular(sol, singular)
    m11, m12, m21, m22 = sol.m
    return den, m21 + 1j * sol.k * (m11 + m22) - sol.k * sol.k * m12


def _det_s(g: MetricGraph, den, den_plus) -> np.ndarray:
    """det S = det Sigma prod_e den+_e / den_e at each point, from the
    ``_dens`` of every edge there, (n, E) each."""
    return _layout(g).det_sigma * np.prod(den_plus / den, axis=-1)


def _det_w(g: MetricGraph, ks, sol=None, den=None, f=None):
    """det(I - S) and the vertex determinant F at each k of the 1-D array
    ``ks``, from the fundamental matrices ``sol`` of every edge at ``ks``,
    their denominators ``den`` (``edge._den``) and F (``_vertex_det`` of
    ``sol``), each evaluated unless given:

        det(I - S) = F prod_e (-4k / den_e) (-1)^A i^-V / (k prod_v deg(v))

    (see the module docstring).  A pole of some t_e raises
    SingularPointError.
    """
    ks = np.asarray(ks).reshape(-1)
    if sol is None:
        sol = _solve_edges(g, ks)
    if den is None:
        den, singular = _den(sol)
        _refuse_singular(sol, singular)
    if f is None:
        f = _vertex_det(g, ks, sol)
    w = f * np.prod(-4.0 * ks[:, None] / den, axis=-1) * _layout(g).w_factor / ks
    return w, f


def _vertex_det(g: MetricGraph, ks, sol=None, want_count: bool = False):
    """The vertex determinant F at each k of the 1-D array ``ks``, or (N,
    n0, F) with ``want_count``, from one assembly of Lambda.  ``sol`` is the
    fundamental matrices M of every edge at ``ks``, with their zeros when
    counted (evaluated unless given).  A path on the real axis, k > 0,
    gives a real F in real arithmetic; a complex path gives a complex F,
    and no count.

    N is the eigenvalue count at each real k > 0, the eigenvalues k_j <= k
    with multiplicity, and n0 those at k: N = N_E + n_+(Lambda) +
    n_0(Lambda) (Friedlander, Ann. Inst. Fourier 55, 2005; Berkolaiko, Cox
    & Marzuola, Lett. Math. Phys. 106, 2016), for Lambda(k) the real
    symmetric Dirichlet-to-Neumann matrix of the core vertices: an edge of
    the core from u (x = 0) to v (x = L) adds -m11/m12 to Lambda_uu,
    -m22/m12 to Lambda_vv and 1/m12 to Lambda_uv and Lambda_vu.  Each
    degree-1 vertex is eliminated in closed form (Haynsworth inertia
    additivity): an arm whose leaf is at x = L adds -m21/m22 to its core
    end, one whose leaf is at x = 0 adds -m21/m11.  N_E adds up what each
    edge holds alone below k^2: its Dirichlet eigenvalues for an edge of
    the core, its Dirichlet (core) - Neumann (leaf) ones for an arm, by the
    Sturm counts of ``sol`` (``edge._segment_zeros``, which ``edge._closed``
    applies to the two pieces of a closed-form edge and ``edge._zeros`` to
    a smooth edge's Magnus steps).  These read their last zero off the same
    m12, m11 or m22 as Lambda, so the two terms agree up to a pole of an
    arm's entry, which is taken as +inf there, its limit from below.  An
    eigenvalue of Lambda within the kernel tolerance (_KERNEL_TOL) is a
    root at k.  A star's core is its centre, so Lambda is one number per
    point, its edges' entries added in their order, and its count costs
    O(E) per point; a larger core scatters the entries into dense matrices
    and takes their eigvalsh, and a point near one of its poles
    (_POLE_BAND) is counted on the cut graph.

    F = k^(1 - n_core) det Lambda prod_e den_e, den_e the denominator of
    the edge's entries of Lambda (k m12 for an edge of the core, m22 or m11
    at the leaf end of an arm), is real and pole-free on the real axis,
    and its zeros are the eigenvalues with their multiplicities (Berkolaiko
    & Kuchment, Introduction to Quantum Graphs, AMS 2013, chs. 2-3).  The
    powers of k move no sign and no root: they keep |F| near k at large k,
    where the entries of Lambda grow like k, and near k^b at small k, b =
    core edges - n_core + 1.  A star's core is its centre: F = sum_e num_e
    prod_{e' != e} den_e', with num_e = -m21 for an arm and k (2 - m11 -
    m22) for a loop, from prefix and suffix products, so no point is a
    pole.  A larger core takes det Lambda in logarithms, since det Lambda
    overflows at large k on a core of many vertices and prod_e den_e
    underflows at small k, and at a pole the cut graph's F: cutting an
    edge M = M2 M1 gives -(M2 M1)_12 = -m12 and -(M2 M1)_22 = -m22, and the
    cut graph has E more core vertices and E more core edges, so F =
    (-1)^E F(cut).
    """
    ks = np.asarray(ks).reshape(-1)
    real = not np.any(np.imag(ks))
    ks = np.real(ks).astype(float) if real else ks
    if sol is None:
        sol = _solve_edges(g, ks, want_count=want_count)
    layout = _layout(g)
    n, nc = len(ks), layout.n_core
    m11, m12, m21, m22 = (np.real(x) for x in sol.m) if real else sol.m
    core, to_leaf = layout.role == 0, layout.role == 1
    leaf_m = np.where(to_leaf, m22, m11)
    k, ak = ks[:, None], np.abs(ks)[:, None]
    scaled = np.where(core, k * m12, leaf_m)
    if nc == 1:
        # every entry lands on the centre, so num_e is their sum times den_e.
        # num, k (2 - m11 - m22) on a loop and -m21 on an arm, is formed and
        # multiplied by the products of the scaled den before e and after it
        # in place on the real axis, which keeps a large batch's temporaries
        # few (numpy may round a complex product formed in place differently)
        num = 2.0 - m11
        num -= m22
        num = np.multiply(k, num, out=num if real else None)
        np.negative(m21, out=num, where=~core)
        part = np.ones_like(scaled)
        np.cumprod(scaled[:, :-1], axis=-1, out=part[:, 1:])
        num = np.multiply(num, part, out=num if real else None)
        part[:, -1] = 1.0
        np.cumprod(scaled[:, :0:-1], axis=-1, out=part[:, -2::-1])
        num = np.multiply(num, part, out=num if real else None)
        f = num.sum(axis=-1)
        if not want_count:
            return f
    den = np.where(core, m12, leaf_m)
    pole = core & (ak * np.abs(m12) <= _POLE_BAND * np.maximum(np.abs(m11), np.abs(m22)))
    if nc > 1:
        leaf = np.abs(leaf_m) <= _POLE_BAND * np.maximum(ak * np.abs(m12), np.abs(m21) / ak)
        pole |= ~core & leaf
    pole = pole.any(axis=-1)
    if nc == 1:
        # each edge's entry on the centre, -m21 / m at the leaf for an arm
        # and (2 - m11 - m22) / m12 for a loop (unused at a pole), added in
        # their order
        x = np.where(core, 2.0 - m11 - m22, -m21) / np.where(den == 0, 1.0, den)
        x = np.where(~core & (den == 0), np.inf, x)
        x[pole] = 0.0
        lam = np.add.accumulate(x, axis=-1)[:, -1:]
    else:
        # the entries (uu, uv, vu, vv) of each edge: (-m11, 1, 1, -m22) / m12
        # in the core, (-m21, 0, 0, 0) / m at the leaf for an arm; unused at
        # a pole
        x = np.broadcast_arrays(np.where(core, -m11, -m21), core, core, core * -m22)
        x = np.stack(x, axis=-1) / np.where(den == 0, 1.0, den)[..., None]
        x[..., 0] = np.where(~core & (den == 0), np.inf, x[..., 0])
        x[pole] = 0.0
        slots = ((nc * nc * np.arange(n))[:, None, None] + layout.dtn_target).ravel()
        lam = np.bincount(slots, x.real.ravel(), n * nc * nc)
        if not real:
            lam = lam + 1j * np.bincount(slots, x.imag.ravel(), n * nc * nc)
        lam = lam.reshape(n, nc, nc)
        sign, log_det = np.linalg.slogdet(lam)
        mag = np.abs(scaled)
        mag = np.where(mag == 0, 1.0, mag)  # its sign, 0, zeroes F
        unit = sign * np.prod(scaled / mag, axis=-1) * (ks / np.abs(ks)) ** (1 - nc)
        log_k = (1 - nc) * np.log(np.abs(ks))
        f = unit * np.exp(log_det + np.log(mag).sum(axis=-1) + log_k)
    if want_count:
        z_n, z_d = sol.zeros
        arm = np.where(to_leaf, z_d + (m12 * m22 < 0), z_n - (m11 == 0))
        own = np.where(core, z_d - (m12 == 0), arm)
        eig = lam if nc == 1 else np.linalg.eigvalsh(lam)
        entries = np.abs(np.where(np.isinf(x), 0.0, x)).sum(axis=tuple(range(1, x.ndim)))
        tol = (_KERNEL_TOL * ks + 64 * np.finfo(float).eps * entries)[:, None]
        at = (np.abs(eig) <= tol).sum(axis=-1)
        count = own.sum(axis=-1) + (eig >= -tol).sum(axis=-1)
    # a star's F holds at its poles; its count, and a larger core, do not
    if pole.any():
        cut = _cut(g)
        if cut is None:
            raise NumericalError(
                f"no eigenvalue count at k={ks[pole][0]:.9g}: a pole of the "
                "vertex matrix of the graph and of its cut"
            )
        sub = _vertex_det(cut, ks[pole], want_count=want_count)
        if want_count:
            count[pole], at[pole], sub = sub
        if nc > 1:
            f[pole] = (-1.0) ** g.num_edges * sub
    return (count, at, f) if want_count else f


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


def _theta(sol, den) -> np.ndarray:
    """theta, the phase of det T, at each real k > 0 of the fundamental
    matrices ``sol`` (with their zeros), from the denominators ``den`` of
    its edges.

    On the real axis det t_e = conj(den_e) / den_e, and den_e = psi' - ik
    psi for (psi, psi') = M (1, -ik), psi_plus at x = L.  So den_e =
    psi_plus(L) w_e with w_e = psi_plus'(L) / psi_plus(L) - ik, and theta
    = -2 sum_e (phi_e + Arg w_e).  Im w_e = -k / |psi_plus(L)|^2 - k < 0,
    so Arg w_e is continuous in k.  phi_e, the phase of psi_plus = m11 - ik
    m12 continued along the edge from 0, falls monotonically (the flux of
    psi_plus is -k) and passes a multiple of pi exactly at each zero of
    m12: with z of them in (0, L] (the Dirichlet Sturm count) and s =
    (-1)^z, phi_e = -z pi + atan2(-k s m12, s m11), the last term in
    (-pi, 0].
    """
    m11, m12 = np.real(sol.m[0]), np.real(sol.m[1])
    z = sol.zeros[1]
    s = 1 - 2 * (z % 2)
    phi = -math.pi * z + np.arctan2(-sol.k * s * m12, s * m11)
    psi = sol.m[0] - 1j * sol.k * sol.m[1]  # psi_plus(L)
    arg_w = np.angle(den * np.conj(psi))  # Arg(w_e |psi_plus(L)|^2)
    return -2.0 * (phi + arg_w).sum(axis=-1)


def secular(g: MetricGraph, k) -> Union[SecularValue, List[SecularValue]]:
    """zeta(k) and theta(k) for a scalar k, or the list of values at the
    points of a 1-D array of k, each a function of its k alone, for finite
    k with Re k > 0 (InputError otherwise).

    theta is ``_theta`` at Re k, continued off the axis by the principal
    phase of det T(k) / det T(Re k), and zeta = |det S|^(-1/2) e^(-i phi /
    2) det(I - S), with phi = theta + arg det Sigma the phase of det S; the
    modulus factor, 1 on the real axis, restores zeta(conj k) = conj
    zeta(k) off it.  That continuation is pointwise, and continuous in k
    only near the axis: where the principal phase crosses +-pi, theta
    jumps by 2 pi and zeta changes sign (along Im k = 1 on a 10-arm delta
    star, not along Im k = 0.05).  A contour integral of zeta far from the
    axis needs its own continuation.  The real parts are solved in real
    arithmetic with their Sturm counts, the complex points once more; a
    pole of some t_e there raises SingularPointError.
    """
    ks = np.asarray(k)
    if ks.ndim > 1:
        raise InputError(f"secular takes one k or a 1-D array of k, not shape {ks.shape}")
    ks = ks.reshape(-1)
    bad = ~np.isfinite(ks) | (np.real(ks) <= 0)
    if bad.any():
        k0 = ks[bad][0]
        raise InputError(f"secular needs finite k with Re k > 0, not k={0 if k0 == 0 else k0}")
    re = np.real(ks).astype(float)
    sol = _solve_edges(g, re, want_count=True)
    den = _den(sol)[0]
    theta = _theta(sol, den)
    det_w = _det_w(g, re, sol, den)[0]
    det_sigma = _layout(g).det_sigma
    off = np.flatnonzero(np.imag(ks))
    if off.size:
        sol = _solve_edges(g, ks[off])
        den, den_plus = _dens(sol)
        det_s = _det_s(g, den, den_plus)
        theta[off] += np.angle(det_sigma * det_s * np.exp(-1j * theta[off]))
        det_w[off] = _det_w(g, ks[off], sol, den)[0] / np.sqrt(np.abs(det_s))
    zeta = np.exp(-0.5j * (theta + (math.pi if det_sigma < 0 else 0.0))) * det_w
    vals = [SecularValue(complex(k), z, t) for k, z, t in zip(ks, zeta.tolist(), theta.tolist())]
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
