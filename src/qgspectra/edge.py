"""Edge solutions and 2x2 transition matrices.

For one edge of length L carrying a potential w, every solution of
-psi'' + w psi = k^2 psi is carried along the edge by its 2x2 fundamental
matrix M(b, a), which maps (psi, psi') at x = a to (psi, psi') at x = b.
The two normalized solutions are fixed by psi(0) = 1 and psi'(0) = -ik
(plus branch) or +ik (minus branch), so at any real or complex k

    (psi_plus,  psi_plus')(L)  = M(L, 0) (1, -ik)
    (psi_minus, psi_minus')(L) = M(L, 0) (1, +ik)

and their k-derivatives follow from M' = dM/dk.  M is built per kind:

- zero and constant w = c: one exact factor
  [[cos qx, sin(qx)/q], [-q^2 sin(qx)/q, cos qx]] with q^2 = k^2 - c
  (zero is c = 0); it is even in q, so the square-root branch does not
  matter, and q -> 0 is removable;
- a point interaction of strength D at x0: free(L - x0) [[1, 0], [D, 1]]
  free(x0), i.e. free(L) plus the rank-one term D [s2; c2] (x) [c1, s1];
  with D = 0 this is the free factor, so one closed form, evaluated
  elementwise over arrays of k and edge parameters, serves all three kinds;
- smooth w: a 4th-order Magnus propagator on 2-point Gauss-Legendre nodes
  (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009).  Each step is
  the exponential of a traceless 2x2 generator, so M is unimodular and the
  Wronskian 2ik is exact by construction.  The step count is doubled from
  64 until two successive M agree to 1e-10; that last difference is the
  solution's ``error_estimate`` (0 for the closed forms).  The propagator
  takes an array of wavenumbers: the potential is sampled once per step
  count, and each point keeps the M of the first count at which it
  converged, so a batch gives every point its one-point result.

``_evaluate`` is the one evaluator of a single potential: M, M' and the
error estimate at a wavenumber or an array of them, by the closed form or
the propagator.  ``solve_edge`` is its one-point case, and the threshold
scan reads t from it.  ``_solve_edges`` evaluates every edge of a graph at
every k of an array: the closed-form edges together over (k, edge), from
per-graph parameter arrays kept in a weak-keyed table, and each smooth
edge through ``_evaluate``; for the eigenvalue count, also the zeros of
two solutions on each edge (``_zeros``), from the closed-form pieces or
the propagator's own steps.

Boundary data at x = L determines the 2x2 transition matrix

    t = [[trans, r_to], [r_from, trans]]

whose entries are, with den = psi_plus'(L) - ik psi_plus(L):

    trans  = -2ik / den
    r_from = -(psi_minus'(L) - ik psi_minus(L)) / den
    r_to   = -(psi_plus'(L)  + ik psi_plus(L))  / den

r_from is the reflection seen from the edge's "from" end, r_to from the "to"
end; trans is direction-independent.  t is unitary for real k, and its
eigenvalue moduli dip below 1 just above the real axis once k clears the
subunitarity threshold of the potential.

For constant and smooth edges the threshold is a heuristic scan over a
(k, eps) grid: rows k_i = base + 0.125 i above the classical barrier, eps
in {1e-4, 1e-3, 1e-2, 1e-1}, and a row passes when t is subunitary at
every eps and edge.  One pass over the rows counts the consecutive rows
that pass, and K is the grid value just below the first run of 32; the
scan raises when that value is not among the first 400 grid values.  Each
(k, eps, edge) point is evaluated once, in blocks of up to 16 k values per
edge through the batched propagator, a block ending at the row where the
current run would complete.  A block's first point is the one the walk
needs next: it is evaluated alone, and when it fails or raises the rest of
the block is not evaluated, so an unresolvable edge costs one point's step
doubling, not a block's.  Nothing between the samples is checked, so a t
that leaves the unit disc only there is missed and K comes out too low.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref
from typing import Optional, Tuple

import numpy as np

from .errors import InputError, NumericalError, SingularPointError
from .graph import MetricGraph
from .potential import Potential, orient

__all__ = [
    "EdgeSolution",
    "TransitionMatrix",
    "solve_edge",
    "edge_profile",
    "transition_matrix",
    "transition_matrix_dk",
    "verify_subunitary",
    "subunitarity_threshold",
    "ThresholdInfo",
    "unitarity_defect",
]

_DEFAULT_TOL = 1e-10
_MIN_STEPS = 64
_MAX_STEPS = 1 << 15
_POINT_STEPS = 1 << 11  # points x steps built and folded at once (128 KB of E)
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


@dataclasses.dataclass
class EdgeSolution:
    """Boundary data of the normalized solution pair at x = L."""

    k: complex
    length: float
    psi_p: complex  # psi_plus(L)
    dpsi_p: complex  # psi_plus'(L)
    psi_m: complex  # psi_minus(L)
    dpsi_m: complex  # psi_minus'(L)
    # k-derivatives of the four boundary values (present when requested)
    dk_psi_p: Optional[complex] = None
    dk_dpsi_p: Optional[complex] = None
    dk_psi_m: Optional[complex] = None
    dk_dpsi_m: Optional[complex] = None
    # last step-doubling difference of M (0 for closed forms)
    error_estimate: float = 0.0
    # M(L, 0) as (m11, m12, m21, m22), and its ``_zeros`` when counted
    m: Optional[tuple] = None
    zeros: Optional[np.ndarray] = None

    @property
    def wronskian(self) -> complex:
        return self.psi_p * self.dpsi_m - self.dpsi_p * self.psi_m


@dataclasses.dataclass
class TransitionMatrix:
    k: complex
    length: float
    trans: complex
    r_from: complex
    r_to: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.trans, self.r_to], [self.r_from, self.trans]], dtype=complex
        )

    @property
    def eigenvalues(self) -> np.ndarray:
        mu = np.linalg.eigvals(self.matrix)
        return mu[np.lexsort((mu.imag, mu.real))]

    def unitarity_defect(self) -> float:
        return unitarity_defect(self.matrix)


def unitarity_defect(m: np.ndarray) -> float:
    """Spectral norm of m^H m - I, which is 0 for a unitary m."""
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), 2))


# ---------------------------------------------------------------------------
# fundamental matrices, as row-major 4-tuples (m11, m12, m21, m22) of arrays
# ---------------------------------------------------------------------------


def _free(q, x):
    """cos(qx) and sin(qx)/q, elementwise."""
    u = q * x
    small = np.abs(u) < 1e-6
    s = np.where(small, x * (1.0 - u * u / 6.0), np.sin(u) / np.where(small, 1.0, q))
    return np.cos(u), s


def _free_dk(q, x, k, c, s):
    """k-derivatives of (c, s) = _free(q, x) when q^2 = k^2 - const."""
    q2 = q * q
    z = q2 * x * x
    small = np.abs(z) < 1e-2
    # (x cos(qx) - sin(qx)/q) / q^2 without the cancellation
    series = -k * x**3 / 3.0 * (1.0 - z / 10.0 + z * z / 280.0 - z**3 / 15120.0)
    ds = np.where(small, series, k * (x * c - s) / np.where(small, 1.0, q2))
    return -k * x * s, ds


def _closed(k, c, D, x1, x2, want_dk: bool):
    """Closed-form M (and M', else None) of a segment with background
    constant c and a point interaction of strength D at distance x1 from its
    start and x2 from its end, elementwise over broadcast arrays:
    free(x2) [[1, 0], [D, 1]] free(x1) with q^2 = k^2 - c, i.e. free(x1 + x2)
    plus the rank-one term D [s2; c2] (x) [c1, s1].  Without a point
    interaction D = 0 and x2 = 0, which leaves free(x1)."""
    k = np.asarray(k, dtype=complex)
    q = np.where(c == 0, k, np.sqrt(k * k - c))
    c1, s1 = _free(q, x1)
    c2, s2 = _free(q, x2)
    cc = c2 * c1 - q * q * s2 * s1
    s = s2 * c1 + c2 * s1
    m = (
        cc + D * s2 * c1,
        s + D * s2 * s1,
        -q * (q * s) + D * c2 * c1,
        cc + D * c2 * s1,
    )
    if not want_dk:
        return m, None
    dc1, ds1 = _free_dk(q, x1, k, c1, s1)
    dc2, ds2 = _free_dk(q, x2, k, c2, s2)
    dc, ds = _free_dk(q, x1 + x2, k, cc, s)
    dm = (
        dc + D * (ds2 * c1 + s2 * dc1),
        ds + D * (ds2 * s1 + s2 * ds1),
        -2.0 * k * s - q * q * ds + D * (dc2 * c1 + c2 * dc1),
        dc + D * (dc2 * s1 + c2 * ds1),
    )
    return m, dm


def _segment(pot: Potential, a: float, b: float):
    """Arguments (c, D, x1, x2) of ``_closed`` for a closed-form potential on
    [a, b].  A point interaction belongs to the segment when it lies in
    (a, b], or at a = 0."""
    x0 = pot.position
    if pot.kind == "delta" and (a < x0 <= b or a == x0 == 0.0):
        return 0.0, pot.strength, x0 - a, b - x0
    return (pot.value if pot.kind == "constant" else 0.0), 0.0, b - a, 0.0


def _steps(w1, w2, h, ks, want_dk: bool):
    """Magnus step matrices E at every k of ``ks``, shape (2, 2, P, n), and
    E' = dE/dk of the same shape when ``want_dk`` (else None).

    The n steps have lengths h (a scalar or one per step) and Gauss values
    w1, w2.  With A(x) = [[0, 1], [w - k^2, 0]] the step generator is
    Omega = h (A1 + A2)/2 + (sqrt(3) h^2/12) [A2, A1]
    = [[alpha, h], [gamma, -alpha]]; the commutator term is
    alpha diag(1, -1) with alpha = (sqrt(3) h^2/12)(w1 - w2), free of k.
    Omega^2 = -nu^2 I, so exp(Omega) = cos(nu) I + (sin(nu)/nu) Omega.
    """
    k = ks[:, None]
    alpha = (math.sqrt(3.0) / 12.0) * h * h * (w1 - w2)
    steps = np.empty((2, 2, len(ks), len(w1)), dtype=complex)
    dsteps = np.empty_like(steps) if want_dk else None
    # Each (P, n) value is built in a slot that is free at that point: gamma
    # in E[1, 0], nu^2 and nu in E[0, 1] (nu^2 in E'[1, 1] when the
    # derivative needs it), cos(nu) in E[0, 0], sin(nu)/nu in E[1, 1].  With
    # one (P, n) temporary the heap a call takes stays small enough that
    # freeing it returns no memory to the system, which the next call would
    # fault in again.  Operands keep the order of the closed-form
    # expressions, so the rounding is theirs.
    gamma, c, s = steps[1, 0], steps[0, 0], steps[1, 1]
    np.subtract(0.5 * (w1 + w2), k * k, out=gamma)
    np.multiply(h, gamma, out=gamma)
    z = np.multiply(h, gamma, out=dsteps[1, 1] if want_dk else steps[0, 1])
    z += alpha * alpha
    np.negative(z, out=z)  # nu^2
    nu = np.add(z, 0j, out=steps[0, 1])
    np.sqrt(nu, out=nu)
    np.cos(nu, out=c)
    # sin(nu)/nu as np.sinc(nu / pi) computes it
    nu /= np.pi
    np.multiply(np.pi, nu, out=nu)
    nu[nu == 0] = 1e-20
    np.sin(nu, out=s)
    s /= nu
    if want_dk:
        # d(nu^2)/dk = 2 h^2 k, d/dk Omega = [[0, 0], [-2kh, 0]]
        dz = 2.0 * h * h * k
        small = np.abs(z) < 0.1
        zz = np.where(small, 1.0, z)
        g = np.where(  # (cos(nu) - sin(nu)/nu) / (2 nu^2)
            small,
            -1 / 6 + z / 60 - z**2 / 1680 + z**3 / 90720 - z**4 / 7983360,
            (c - s) / (2.0 * zz),
        )
        dc, ds = -0.5 * s * dz, g * dz
        dsteps[0, 0] = dc + ds * alpha
        dsteps[0, 1] = ds * h
        dsteps[1, 0] = ds * gamma - 2.0 * k * h * s
        dsteps[1, 1] = dc - ds * alpha
    np.multiply(s, h, out=steps[0, 1])
    np.multiply(s, gamma, out=gamma)
    sa = s * alpha
    np.subtract(c, sa, out=s)
    c += sa
    return steps, dsteps


def _gauss_values(w, left, h):
    return w(left + _GAUSS[0] * h), w(left + _GAUSS[1] * h)


def _prefix(steps):
    """Running products E_i ... E_1 E_0 of the 2x2 matrices (2, 2, ..., n)
    along the last axis, one per i, by recursive doubling."""
    run = steps.copy()
    d = 1
    while d < run.shape[-1]:
        later, earlier = run[..., d:], run[..., :-d]
        run[..., d:] = (
            later[:, 0, None] * earlier[None, 0] + later[:, 1, None] * earlier[None, 1]
        )
        d *= 2
    return run


def _zeros(ends, nu, alpha, h):
    """Zeros in (0, L] of the solutions that leave x = 0 as (psi, psi') =
    (1, 0) and (0, 1), an integer array (2, ...).  ``ends`` (2, 2, ..., n +
    1) is the fundamental matrix at x = 0 and at the end of each segment of
    the edge, the last its M.  A solution is R sin(theta + s nu), s in [0,
    1], on a segment of phase nu (q h in closed form; nu^2 = h^2 (k^2 - w)
    - alpha^2 on a Magnus step; 0 where it holds at most one zero), with
    theta = atan2(nu psi, alpha psi + h psi') at its start, so it has
    floor((theta + nu) / pi) zeros there: the count of the parity of the
    sign change of psi nearest to that value.  The parity comes from the
    end values, a zero value taking the sign psi has just after it, so the
    rounding of theta cannot move a zero across an end, and one at x = L is
    counted exactly when M says so."""
    psi, dpsi = ends[0], ends[1]
    neg = (psi < 0) | ((psi == 0) & (dpsi < 0))
    change = neg[..., 1:] != neg[..., :-1]
    a, da = psi[..., :-1], dpsi[..., :-1]
    theta = np.mod(np.arctan2(nu * a, alpha * a + h * da), np.pi)
    z = np.where(nu > 0, (theta + nu) / np.pi - 0.5, change)
    return (2 * np.round(0.5 * (z - change)) + change).sum(axis=-1).astype(int)


def _closed_zeros(k, c, D, x1, x2, m):
    """``_zeros`` at real k of closed-form segments (the arguments of
    ``_closed`` and the M it gives): two pieces each, up to the point
    interaction and after it."""
    q = np.where(c == 0, k, np.sqrt(k * k - c)).real
    mid = np.array(_closed(k, c, D, x1, 0.0, False)[0]).real
    start = np.zeros_like(mid)
    start[[0, 3]] = 1.0
    ends = np.stack([start, mid, np.array(m).real], axis=-1)
    nu = np.stack(np.broadcast_arrays(q * x1, q * x2), axis=-1)
    h = np.stack(np.broadcast_arrays(x1, x2), axis=-1)
    return _zeros(ends.reshape(2, 2, *ends.shape[1:]), nu, 0.0, h)


def _fold(steps, dsteps=None, pieces: int = 1):
    """Product of the matrices along the last axis, whose length is a power
    of two, folded pairwise with the later step on the left, down to
    ``pieces`` products of equal spans (a power of two), and its
    k-derivative by the product rule when the steps' derivatives
    ``dsteps`` are given (else None).  Each level adds up the pair products
    one inner index at a time, in the order a sum over that index takes, so
    a level holds two arrays of its result's size rather than all the
    partial products at once.  The derivative adds later * dearlier before
    dlater * earlier, the order of the block product [[E, E'], [0, E]], so
    M and M' round as that product's blocks do."""
    while steps.shape[-1] > pieces:
        later, earlier = steps[..., 1::2], steps[..., ::2]
        if dsteps is not None:
            dlater, dearlier = dsteps[..., 1::2], dsteps[..., ::2]
            dsteps = later[:, 0, None] * dearlier[None, 0]
            dsteps += later[:, 1, None] * dearlier[None, 1]
            dsteps += dlater[:, 0, None] * earlier[None, 0]
            dsteps += dlater[:, 1, None] * earlier[None, 1]
        steps = later[:, 0, None] * earlier[None, 0]
        steps += later[:, 1, None] * earlier[None, 1]
    return steps, dsteps


def _magnus(w, a: float, b: float, ks, n: int, want_dk: bool, zeros=None):
    """M (and M', else None) over [a, b] from n equal 4th-order Magnus steps,
    for every k of ``ks``: arrays of shape (2, 2, P).  w is sampled once;
    steps are built and folded _POINT_STEPS point-steps at a time, which
    bounds the memory, and the pieces' products folded in turn.

    Given an integer array (2, P), ``zeros`` receives the ``_zeros`` of each
    real k, from the running products of the fold level of spans 2^f h
    with 2^f h sqrt(k^2 - min w) < pi / 2, on which no solution has two
    zeros (Sturm comparison), or else of the steps themselves."""
    h = (b - a) / n
    w1, w2 = _gauss_values(w, a + h * np.arange(n), h)
    piece = min(n, _POINT_STEPS)
    chunk = _POINT_STEPS // piece
    m = np.empty((2, 2, len(ks)), dtype=complex)
    dm = np.empty_like(m) if want_dk else None
    for lo in range(0, len(ks), chunk):
        pks = ks[lo : lo + chunk]
        parts, size = [], 1
        if zeros is not None:
            ends = [np.eye(2)[..., None, None] * np.ones((len(pks), 1))]
            top = float(np.max(pks.real**2)) - min(w1.min(), w2.min())
            reach = h * math.sqrt(max(top, 0.0))
            while size < piece and 2 * size * reach < 0.5 * math.pi:
                size *= 2
        for j in range(0, n, piece):
            e = _steps(w1[j : j + piece], w2[j : j + piece], h, pks, want_dk)
            if zeros is not None:
                e = _fold(*e, pieces=piece // size)
                run = np.concatenate([ends[-1][..., -1:], e[0].real], axis=-1)
                ends.append(_prefix(run)[..., 1:])
            parts.append(_fold(*e))
        e, de = zip(*parts)
        de = np.concatenate(de, axis=-1) if want_dk else None
        e, de = _fold(np.concatenate(e, axis=-1), de)
        m[..., lo : lo + chunk] = e[..., 0]
        if want_dk:
            dm[..., lo : lo + chunk] = de[..., 0]
        if zeros is not None:
            ends = np.concatenate(ends, axis=-1)
            ends[..., -1] = e[..., 0].real
            nu = alpha = 0.0
            if size == 1:
                alpha = (math.sqrt(3.0) / 12.0) * h * h * (w1 - w2)
                nu2 = h * h * (pks.real[:, None] ** 2 - 0.5 * (w1 + w2)) - alpha * alpha
                nu = np.sqrt(np.maximum(nu2, 0.0))
            zeros[:, lo : lo + chunk] = _zeros(ends, nu, alpha, h)
    return m, dm


def _magnus_doubled(pot: Potential, a: float, b: float, ks, want_dk: bool, zeros=None):
    """Magnus M (and M') over [a, b] at every k of ``ks``.  Each point doubles
    its step count from _MIN_STEPS until two successive M, with psi' scaled
    by 1/|k|, agree to _DEFAULT_TOL relative, and keeps the M of the first
    count that does, and its ``_zeros`` in ``zeros`` when that is given.
    Returns M, M' (or None), that last difference and the step count per
    point; a point unresolved at _MAX_STEPS has error inf."""
    w = pot.callable(b)
    ks = np.asarray(ks, dtype=complex)
    absk = np.abs(ks)
    scale = np.ones((2, 2, len(ks)))
    scale[0, 1], scale[1, 0] = absk, 1.0 / absk
    m_out = np.full((2, 2, len(ks)), np.nan, dtype=complex)
    dm_out = np.full_like(m_out, np.nan) if want_dk else None
    err_out = np.full(len(ks), np.inf)
    n_out = np.zeros(len(ks), dtype=int)
    active = np.arange(len(ks))
    prev = None
    n = _MIN_STEPS
    while n <= _MAX_STEPS and active.size:
        # no point keeps the M of the first count, so its zeros are not needed
        z = None if zeros is None or prev is None else np.empty((2, active.size), int)
        m, dm = _magnus(w, a, b, ks[active], n, want_dk, z)
        ms = m * scale[..., active]
        if prev is not None:
            err = np.max(np.abs(ms - prev), axis=(0, 1)) / np.maximum(
                1.0, np.max(np.abs(ms), axis=(0, 1))
            )
            done = err <= _DEFAULT_TOL
            idx = active[done]
            m_out[..., idx], err_out[idx], n_out[idx] = m[..., done], err[done], n
            if want_dk:
                dm_out[..., idx] = dm[..., done]
            if z is not None:
                zeros[:, idx] = z[:, done]
            active, ms = active[~done], ms[..., ~done]
        prev = ms
        n *= 2
    return m_out, dm_out, err_out, n_out


def _unresolved(pot: Potential, k: complex) -> NumericalError:
    return NumericalError(
        f"Magnus propagator unresolved at {_MAX_STEPS} steps for "
        f"{pot.source!r} at k={k}"
    )


def _evaluate(pot: Potential, L: float, ks, want_dk: bool, zeros=None):
    """M and M' (or None) over [0, L] of one oriented potential at ``ks``, a
    wavenumber or an array of them, as row-major 4-tuples of arrays shaped
    like ``ks``, and the error estimate per point: closed-form kinds exactly
    (error 0), a smooth potential by the step-doubled Magnus propagator,
    whose unresolved points have error inf, and which fills ``zeros``, when
    given for a 1-D ``ks`` (see ``_magnus``)."""
    shape = np.shape(ks)
    if pot.kind != "smooth":
        m, dm = _closed(ks, *_segment(pot, 0.0, L), want_dk)
        return m, dm, np.zeros(shape)
    m, dm, err, _ = _magnus_doubled(pot, 0.0, L, np.ravel(ks), want_dk, zeros)
    m, dm = (None if x is None else x.reshape((4,) + shape) for x in (m, dm))
    return m, dm, err.reshape(shape)


def solve_edge(
    g: MetricGraph,
    e: int,
    k: complex,
    want_dk: bool = False,
    reverse: bool = False,
) -> EdgeSolution:
    """Boundary data of the normalized solution pair on edge ``e`` at ``k``.

    ``reverse=True`` solves the direction-reversed edge (reflected
    potential).  ``want_dk`` adds the k-derivatives.  k = 0 is rejected:
    the two normalized solutions degenerate there.
    """
    if k == 0:
        raise InputError("k=0: the normalized solution pair degenerates")
    edge = g.edges[e]
    L = edge.length
    pot = orient(edge.potential, reverse, L)
    k = complex(k)
    m, dm, err = _evaluate(pot, L, k, want_dk)
    if not err <= _DEFAULT_TOL:
        raise _unresolved(pot, k)
    m, dm = (None if x is None else tuple(complex(v) for v in x) for x in (m, dm))
    return _solution(k, L, m, dm, float(err))


# closed-form arguments (c, D, x1, x2) of every edge (placeholders on smooth
# edges), the edge lengths and the smooth edges of each live graph
_EDGE_TABLES: "weakref.WeakKeyDictionary[MetricGraph, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _edge_table(g: MetricGraph):
    table = _EDGE_TABLES.get(g)
    if table is None:
        rows = [
            (0.0, 0.0, e.length, 0.0)
            if e.potential.kind == "smooth"
            else _segment(e.potential, 0.0, e.length)
            for e in g.edges
        ]
        closed = tuple(np.array(col) for col in zip(*rows))
        lengths = np.array([e.length for e in g.edges])
        smooth = [e.index for e in g.edges if e.potential.kind == "smooth"]
        table = _EDGE_TABLES[g] = (closed, lengths, smooth)
    return table


def _solve_edges(
    g: MetricGraph, ks, want_dk: bool = False, want_count: bool = False
) -> EdgeSolution:
    """Boundary data of every edge at every k of the 1-D array ``ks``: an
    EdgeSolution whose fields are (len(ks), E) arrays, with the ``_zeros``
    of every edge, (2, len(ks), E), when ``want_count`` (real k only).
    Zero, constant and point-interaction edges are evaluated together in
    closed form, each smooth edge by one batched Magnus propagation over
    ``ks``, which gives each point its one-point result.  An unresolved
    propagation raises for the first such k, as ``solve_edge`` would there."""
    ks = np.asarray(ks, dtype=complex)
    if np.any(ks == 0):
        raise InputError("k=0: the normalized solution pair degenerates")
    closed, lengths, smooth = _edge_table(g)
    m, dm = _closed(ks[:, None], *closed, want_dk)
    zeros = _closed_zeros(ks[:, None], *closed, m) if want_count else None
    err = np.zeros((len(ks), g.num_edges))
    if smooth:
        m = np.array(m)
        dm = np.array(dm) if want_dk else None
        for e in smooth:
            edge = g.edges[e]
            z = None if zeros is None else zeros[:, :, e]
            me, dme, err[:, e] = _evaluate(edge.potential, edge.length, ks, want_dk, z)
            m[:, :, e] = me
            if want_dk:
                dm[:, :, e] = dme
        unresolved = ~(err <= _DEFAULT_TOL)
        if unresolved.any():
            i, e = np.argwhere(unresolved)[0]
            raise _unresolved(g.edges[e].potential, complex(ks[i]))
    sol = _solution(ks[:, None], lengths, m, dm, err)
    sol.zeros = zeros
    return sol


def _solution(k, L, m, dm, err) -> EdgeSolution:
    """Boundary data psi_pm = M (1, -+ik) at x = L, and their k-derivatives
    from M' when given, elementwise."""
    m11, m12, m21, m22 = m
    ik = 1j * k
    sol = EdgeSolution(
        k,
        L,
        m11 - ik * m12,
        m21 - ik * m22,
        m11 + ik * m12,
        m21 + ik * m22,
        error_estimate=err,
        m=(m11, m12, m21, m22),
    )
    if dm is not None:
        d11, d12, d21, d22 = dm
        sol.dk_psi_p = d11 - 1j * m12 - ik * d12
        sol.dk_dpsi_p = d21 - 1j * m22 - ik * d22
        sol.dk_psi_m = d11 + 1j * m12 + ik * d12
        sol.dk_dpsi_m = d21 + 1j * m22 + ik * d22
    return sol


def edge_profile(
    g: MetricGraph,
    e: int,
    k: complex,
    xs,
    reverse: bool = False,
) -> np.ndarray:
    """psi_plus sampled at increasing positions ``xs`` along edge ``e``
    (x = 0 is the "from" end; ``reverse=True`` flips the orientation), from
    the fundamental matrix accumulated along the edge.  A smooth edge is
    swept once at the step count its whole-edge M needs, with the requested
    positions as extra breakpoints."""
    if k == 0:
        raise InputError("k=0: the normalized solution pair degenerates")
    edge = g.edges[e]
    L = edge.length
    pot = orient(edge.potential, reverse, L)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise InputError("xs must be a nonempty 1-D array")
    if np.any(np.diff(xs) < 0) or xs[0] < -1e-12 or xs[-1] > L + 1e-12:
        raise InputError("xs must be increasing and lie within [0, L]")
    k = complex(k)
    xs = np.clip(xs, 0.0, L)
    grid = np.union1d(0.0, xs)
    if pot.kind == "smooth":
        _, _, err, n = _magnus_doubled(pot, 0.0, L, [k], False)
        if not err[0] <= _DEFAULT_TOL:
            raise _unresolved(pot, k)
        grid = np.union1d(np.linspace(0.0, L, n[0] + 1), grid)
        h = np.diff(grid)
        w1, w2 = _gauss_values(pot.callable(L), grid[:-1], h)
        steps = _steps(w1, w2, h, np.array([k]), False)[0].reshape(4, -1).T.tolist()
    else:
        bounds = grid.tolist()
        segments = np.array([_segment(pot, a, b) for a, b in zip(bounds, bounds[1:])])
        steps = np.array(_closed(k, *segments.T, False)[0]).T.tolist()
    psi = np.empty(grid.size, dtype=complex)
    psi[0] = 1.0
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for i, (a11, a12, a21, a22) in enumerate(steps, 1):
        m11, m12, m21, m22 = (
            a11 * m11 + a12 * m21,
            a11 * m12 + a12 * m22,
            a21 * m11 + a22 * m21,
            a21 * m12 + a22 * m22,
        )
        psi[i] = m11 - 1j * k * m12
    return psi[np.searchsorted(grid, xs)]


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def _singular(k) -> SingularPointError:
    return SingularPointError(f"transition-matrix parametrization singular at k={k}")


def _t_entries(sol: EdgeSolution):
    """Entries (trans, r_from, r_to) of t, their k-derivatives by the
    quotient rule on the boundary data when ``sol`` carries them (else
    None), and the mask of points where the parametrization is singular,
    elementwise."""
    k = sol.k
    den = sol.dpsi_p - 1j * k * sol.psi_p
    scale = np.maximum(
        np.maximum(np.abs(sol.dpsi_p), np.abs(k) * np.abs(sol.psi_p)), np.abs(k)
    )
    singular = np.abs(den) < 1e-12 * scale
    trans = -2j * k / den
    num_f = -(sol.dpsi_m - 1j * k * sol.psi_m)
    num_t = -(sol.dpsi_p + 1j * k * sol.psi_p)
    t = (trans, num_f / den, num_t / den)
    if sol.dk_psi_p is None:
        return t, None, singular
    dden = sol.dk_dpsi_p - 1j * sol.psi_p - 1j * k * sol.dk_psi_p
    dtrans = -2j / den + 2j * k * dden / (den * den)
    dnum_f = -(sol.dk_dpsi_m - 1j * sol.psi_m - 1j * k * sol.dk_psi_m)
    dr_from = (dnum_f * den - num_f * dden) / (den * den)
    dnum_t = -(sol.dk_dpsi_p + 1j * sol.psi_p + 1j * k * sol.dk_psi_p)
    dr_to = (dnum_t * den - num_t * dden) / (den * den)
    return t, (dtrans, dr_from, dr_to), singular


def _entries(sol: EdgeSolution):
    """(trans, r_from, r_to) and their k-derivatives (or None) as
    ``_t_entries`` gives them; a singular parametrization raises for the
    first such point in array order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t, dt, singular = _t_entries(sol)
    if np.any(singular):
        raise _singular(complex(np.broadcast_to(sol.k, singular.shape)[singular][0]))
    return t, dt


def transition_matrix(g: MetricGraph, e: int, k: complex) -> TransitionMatrix:
    sol = solve_edge(g, e, k)
    (trans, r_from, r_to), _ = _entries(sol)
    return TransitionMatrix(complex(k), sol.length, trans, r_from, r_to)


def transition_matrix_dk(g: MetricGraph, e: int, k: complex) -> np.ndarray:
    """d/dk of the 2x2 transition matrix, by the quotient rule on the
    boundary data (from M and M' = dM/dk)."""
    sol = solve_edge(g, e, k, want_dk=True)
    _, (dtrans, dr_from, dr_to) = _entries(sol)
    return np.array([[dtrans, dr_to], [dr_from, dtrans]], dtype=complex)


def verify_subunitary(
    g: MetricGraph, e: int, k: float, eps: float
) -> Tuple[bool, float]:
    """Check both eigenvalue moduli of t(k + i*eps) are <= 1."""
    if eps <= 0:
        raise InputError("eps must be positive")
    t = transition_matrix(g, e, complex(k, eps))
    mods = np.abs(np.linalg.eigvals(t.matrix))
    max_mod = float(np.max(mods))
    return _subunitary(max_mod), max_mod


@dataclasses.dataclass(frozen=True)
class ThresholdInfo:
    K: float
    method: str  # "closed-form" or "heuristic-scan"


def _delta_threshold(D: float, L: float) -> float:
    return math.sqrt(max(0.0, -D / L - D * D / 4.0))


_EPS_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
_K_GRID_STEP = 0.125
_K_CONSECUTIVE = 32
_K_MAX_CANDIDATES = 400
_K_BLOCK = 16  # grid k values per edge evaluated in one batch

# ThresholdInfo of each live graph, computed on first use
_THRESHOLDS: "weakref.WeakKeyDictionary[MetricGraph, ThresholdInfo]" = (
    weakref.WeakKeyDictionary()
)


def subunitarity_threshold(g: MetricGraph, detailed: bool = False):
    """Energy floor K above which every edge matrix is subunitary just off
    the real axis.

    Zero and delta potentials have a closed form (K = 0 for nonnegative
    strengths).  Constant/smooth potentials get an empirical scan: the
    smallest grid value above the classical barrier sqrt(sup w+) for which
    subunitarity holds over an eps grid and 32 consecutive k samples.  The
    scanned value is a heuristic and is flagged as such: nothing between
    the samples is checked.  The result is computed once per graph.
    """
    info = _THRESHOLDS.get(g)
    if info is None:
        info = _THRESHOLDS[g] = _compute_threshold(g)
    return info if detailed else info.K


def _subunitary(r) -> bool:
    """Whether an outcome of ``_max_moduli`` is a modulus <= 1."""
    return not isinstance(r, Exception) and r <= 1.0 + 1e-12


def _max_moduli(g: MetricGraph, e: int, ks: np.ndarray) -> list:
    """Per complex k of ``ks``: the largest eigenvalue modulus of t on edge
    ``e``, or the error ``verify_subunitary`` raises there."""
    edge = g.edges[e]
    pot, L = edge.potential, edge.length
    m, _, err = _evaluate(pot, L, ks, False)
    resolved = err <= _DEFAULT_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        (trans, r_from, r_to), _, singular = _t_entries(_solution(ks, L, m, None, 0.0))
    good = resolved & ~singular
    ts = np.array([[trans, r_to], [r_from, trans]])[..., good].transpose(2, 0, 1)
    mods = iter(np.abs(np.linalg.eigvals(ts)).max(axis=1).tolist() if ts.size else [])
    return [
        next(mods) if ok else _unresolved(pot, k) if not r else _singular(k)
        for k, ok, r in zip(ks.tolist(), good, resolved)
    ]


def _compute_threshold(g: MetricGraph) -> ThresholdInfo:
    closed, floor, scan_edges = 0.0, 0.0, []
    for e in g.edges:
        pot = e.potential
        if pot.kind == "delta":
            closed = max(closed, _delta_threshold(pot.strength, e.length))
        elif pot.kind != "zero":
            floor = max(floor, math.sqrt(pot.sup_plus(e.length)))
            scan_edges.append(e.index)
    if not scan_edges:
        return ThresholdInfo(closed, "closed-form")
    base = math.ceil(max(floor, closed) / _K_GRID_STEP) * _K_GRID_STEP
    # One pass over the grid rows i = 1, 2, ..., k_i = base + i*step, each
    # checked at every eps and scan edge in the order of the definition
    # (k, then eps, then edge), so an error is raised only where that order
    # reaches its point.  ``run`` counts the consecutive rows that passed;
    # the candidate K = base + (i - run)*step holds once it reaches 32.  Per
    # scan edge, points p = i * len(_EPS_GRID) + eps index are evaluated in
    # blocks from the first one the walk needs up to the row at which the
    # current run would complete, ``known[s]`` holding the outcomes from
    # point ``first[s]`` on.
    n_eps = len(_EPS_GRID)
    first = [0] * len(scan_edges)
    known = [[] for _ in scan_edges]
    run = 0
    for i in itertools.count(1):
        end = i - run + _K_CONSECUTIVE - 1
        for a, s in itertools.product(range(n_eps), range(len(scan_edges))):
            p = i * n_eps + a
            if not first[s] <= p < first[s] + len(known[s]):
                ks = np.array([
                    complex(base + (q // n_eps) * _K_GRID_STEP, _EPS_GRID[q % n_eps])
                    for q in range(p, min(p + _K_BLOCK * n_eps, (end + 1) * n_eps))
                ])
                # point p goes first, alone: when it fails or raises the
                # walk stops there, so the rest of the block is not needed
                first[s], known[s] = p, _max_moduli(g, scan_edges[s], ks[:1])
                if len(ks) > 1 and _subunitary(known[s][0]):
                    known[s] += _max_moduli(g, scan_edges[s], ks[1:])
            r = known[s][p - first[s]]
            if isinstance(r, Exception):
                raise r
            if not _subunitary(r):
                run = 0
                break
        else:
            run += 1
            if run == _K_CONSECUTIVE:
                return ThresholdInfo(
                    max(base + (i - run) * _K_GRID_STEP, closed), "heuristic-scan"
                )
        # after a failing row the next run starts at candidate i
        if not run and i >= _K_MAX_CANDIDATES:
            raise NumericalError("no subunitarity threshold found within scan budget")
