"""Edge solutions and 2x2 transition matrices.

For one edge of length L carrying a potential w, every solution of
-psi'' + w psi = k^2 psi is carried along the edge by its 2x2 fundamental
matrix M(b, a), which maps (psi, psi') at x = a to (psi, psi') at x = b.
A solve gives M = M(L, 0), and M' = dM/dk on request; every per-edge
quantity below is a closed form in them.  M is built per kind:

- zero and constant w = c: one exact factor
  [[cos qx, sin(qx)/q], [-q^2 sin(qx)/q, cos qx]] with q^2 = k^2 - c
  (zero is c = 0); it is even in q, so the square-root branch does not
  matter, and q -> 0 is removable;
- a point interaction of strength D at x0: free(L - x0) [[1, 0], [D, 1]]
  free(x0), i.e. free(L) plus the rank-one term D [s2; c2] (x) [c1, s1];
  with D = 0 this is the free factor, so one closed form, evaluated
  elementwise over arrays of k and edge parameters, serves all three kinds;
- smooth w: a 6th-order Magnus propagator on 3-point Gauss-Legendre nodes
  1/2 -+ sqrt(15)/10 and 1/2 (Iserles & Norsett 1999; Blanes, Casas & Ros
  2000).  Each step is the exponential of a traceless 2x2 generator, one
  cos and one sin, so M is unimodular and the Wronskian 2ik is exact by
  construction.  The step count is doubled from 64 until two successive M
  agree to 1e-10; that last difference, the error of the coarser count's
  M, is the solution's ``error_estimate`` (0 for the closed forms).  The
  propagator takes rows of (edge, k): each edge is sampled once per step
  count its rows reach, and each row keeps the M of the first count at
  which it converged, so a batch gives every row its one-point result.

``_evaluate`` is the one evaluator: M, M' and the error estimate of some
or all edges of a graph at every k of an array and, for the eigenvalue
count, the zeros of two solutions on each edge, from per-graph arrays kept
in a weak-keyed table.  One rule counts the zeros on a segment
(``_segment_zeros``): ``_closed`` applies it to the two pieces of a
closed-form edge, from the arrays that give M, and ``_zeros`` to the
segments of a Magnus propagation.  The closed-form edges are evaluated
together over (k, edge), in float64 at real k, and the smooth edges in one
propagation, whose samples the table keeps per edge and step count.
``_solve_edges`` is its all-edges case, ``solve_edge`` its one-point case,
and the threshold scan reads t from it one edge at a time; ``edge_profile``
finds its step count from the same samples.  So every solve of a graph's
edges samples a smooth potential once per step count.

M determines the 2x2 transition matrix

    t = [[trans, r_to], [r_from, trans]]

whose entries are, with p = m21 + k^2 m12, q = ik (m11 - m22) and the
denominator den = m21 - ik (m11 + m22) - k^2 m12:

    trans  = -2ik / den
    r_from = -(p - q) / den
    r_to   = -(p + q) / den

r_from is the reflection seen from the edge's "from" end, r_to from the "to"
end; trans is direction-independent, and reversing the edge swaps m11 and
m22, so q changes sign and the reflections swap.  t' follows from M' by
the quotient rule, and the eigenvalues of t are trans -+ sqrt(r_from r_to).
t is unitary for real k, and its eigenvalue moduli dip below 1 just above
the real axis once k clears the subunitarity threshold of the potential.

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
from typing import List, Optional, Tuple

import numpy as np

from .errors import InputError, NumericalError, SingularPointError
from .graph import MetricGraph
from .potential import Potential

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
# points x steps a Magnus kernel builds and folds at once (128 KB of E),
# and points x edges a scan sweeps in one call
_POINT_STEPS = 1 << 11
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)


@dataclasses.dataclass
class EdgeSolution:
    """What a solve of an edge computes: its fundamental matrix M(L, 0), M'
    = dM/dk when requested, the error estimate and, for the eigenvalue
    count, the zeros.  t, its denominator and the rest are closed forms in
    M (and M'), formed where they are read."""

    k: complex
    length: float
    # M(L, 0) as (m11, m12, m21, m22), and M' the same way when requested
    m: tuple
    dm: Optional[tuple] = None
    # last step-doubling difference of M (0 for closed forms)
    error_estimate: float = 0.0
    # the ``_zeros`` of M when counted
    zeros: Optional[np.ndarray] = None

    @property
    def wronskian(self) -> complex:
        """The Wronskian of the solutions leaving x = 0 as (1, -+ik), 2ik
        det M."""
        m11, m12, m21, m22 = self.m
        return 2j * self.k * (m11 * m22 - m12 * m21)


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
        mu = np.array(_t_eigenvalues(self.trans, self.r_from, self.r_to))
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
    if not small.any():
        return np.cos(u), np.sin(u) / q
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


def _wavenumber(k, c):
    """q with q^2 = k^2 - c (q = k where c = 0), elementwise over broadcast
    arrays: real when k is real and no k^2 < c, else complex (q is
    imaginary over a barrier, k^2 < c)."""
    k = np.asarray(k)
    if np.iscomplexobj(k) or np.any(k * k < c):
        k = k.astype(complex)
    return np.where(c == 0, k, np.sqrt(k * k - c))


def _closed(k, c, D, x1, x2, want_dk: bool, want_count: bool = False):
    """Closed-form M, M' (else None) and, with ``want_count`` (real k), the
    ``_zeros`` (else None) of a segment with background constant c and a
    point interaction of strength D at distance x1 from its start and x2
    from its end, elementwise over broadcast arrays: free(x2) [[1, 0], [D,
    1]] free(x1) with q^2 = k^2 - c, i.e. free(x1 + x2) plus the rank-one
    term D [s2; c2] (x) [c1, s1].  Without a point interaction D = 0 and x2
    = 0, which leaves free(x1).  M is real for a real k: it is computed in
    float64 then, in complex arithmetic only over a barrier
    (``_wavenumber``), and returned as float64 either way.

    The zeros are counted on two pieces, up to the point interaction and
    after it, from the same q, c1 and s1 as M (``_segment_zeros``, with nu =
    Re q times the piece's length, 0 over a barrier).  The first piece
    starts from (psi, psi') = (1, 0) and (0, 1), whose phases are exactly
    pi/2 and 0; only the second takes an atan2 per solution."""
    k = np.asarray(k)
    q = _wavenumber(k, c)
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
    real = not np.iscomplexobj(k)
    if real:
        m = tuple(np.real(x) for x in m)
    zeros = None
    if want_count:
        # (psi, psi') of the two solutions just past the point interaction
        psi = np.real(np.stack((c1, s1)))
        dpsi = np.real(np.stack((-q * (q * s1) + D * c1, c1 + D * s1)))
        mid = _negative(psi, dpsi)
        end = _negative(*np.real(np.reshape(m, (2, 2, *psi.shape[1:]))))
        start = np.reshape([0.5 * np.pi, 0.0], (2,) + (1,) * c1.ndim)
        first = _segment_zeros(start, q.real * x1, False, mid)
        nu = q.real * x2
        theta = np.mod(np.arctan2(nu * psi, x2 * dpsi), np.pi)
        zeros = (first + _segment_zeros(theta, nu, mid, end)).astype(int)
    if not want_dk:
        return m, None, zeros
    dc1, ds1 = _free_dk(q, x1, k, c1, s1)
    dc2, ds2 = _free_dk(q, x2, k, c2, s2)
    dc, ds = _free_dk(q, x1 + x2, k, cc, s)
    dm = (
        dc + D * (ds2 * c1 + s2 * dc1),
        ds + D * (ds2 * s1 + s2 * ds1),
        -2.0 * k * s - q * q * ds + D * (dc2 * c1 + c2 * dc1),
        dc + D * (dc2 * s1 + c2 * ds1),
    )
    return m, tuple(np.real(x) for x in dm) if real else dm, zeros


def _segment(pot: Potential, a: float, b: float):
    """Arguments (c, D, x1, x2) of ``_closed`` for a closed-form potential on
    [a, b].  A point interaction belongs to the segment when it lies in
    (a, b], or at a = 0."""
    x0 = pot.position
    if pot.kind == "delta" and (a < x0 <= b or a == x0 == 0.0):
        return 0.0, pot.strength, x0 - a, b - x0
    return (pot.value if pot.kind == "constant" else 0.0), 0.0, b - a, 0.0


def _generator(w1, w2, w3, h, k, alpha=None, gamma=None):
    """Entries of the step generator Omega = [[alpha, beta], [gamma,
    -alpha]] of steps with Gauss values w1, w2, w3 and lengths h at
    wavenumbers k (broadcast), alpha and gamma written into the arrays given
    for them.  Returns alpha, beta, gamma and the k-free factors ``da`` and
    ``dg`` of d(alpha)/dk = -2k da and d(gamma)/dk = -2k dg; beta is free of
    k.

    With A(x) = [[0, 1], [w - k^2, 0]], g = w2 - k^2, a2 = (sqrt(15) h/3)
    (w3 - w1) and a3 = (10 h/3)(w3 - 2 w2 + w1), the 6th-order Magnus
    generator (Blanes, Casas & Ros 2000) is

        alpha = -a2 h/12 + g a2 h^3/180
        beta  = h - a3 h^2/180
        gamma = g h + a3/12 + g a3 h^2/180 - a2^2 h/120

    without its terms a2 a3 h^2/7200 in alpha, a2^2 h^3/3600 in beta and (g
    a2^2 h^3 + a3^2 h)/3600 in gamma: they are O(h^7) per step, so dropping
    them keeps the order, and they are odd in h, so it keeps the time
    symmetry.
    """
    a2 = (math.sqrt(15.0) / 3.0) * h * (w3 - w1)
    a3 = w3 + w1
    a3 -= 2.0 * w2
    a3 *= (10.0 / 3.0) * h
    h2 = h * h / 180.0
    da = a2 * h
    gamma = np.subtract(w2, k * k, out=gamma)
    alpha = np.multiply(gamma, h2, out=alpha)
    alpha -= 1.0 / 12.0
    alpha *= da
    da *= h2
    dg = a3 * h2
    beta = h - dg
    dg += h
    gamma *= dg
    a3 /= 12.0
    a3 -= a2 * a2 * (h / 120.0)
    gamma += a3
    return alpha, beta, gamma, da, dg


def _steps(w1, w2, w3, h, ks, want_dk: bool):
    """Magnus step matrices E at every k of ``ks``, shape (2, 2, P, n), and
    E' = dE/dk of the same shape when ``want_dk`` (else None).

    The n steps have Gauss values w1, w2, w3 (steps along the last axis) and
    lengths h: a scalar, one per step or a column of one per k.  Each step
    is the exponential of its 6th-order generator Omega = [[alpha, beta],
    [gamma, -alpha]] (``_generator``), which is traceless, so Omega^2 =
    -nu^2 I with nu^2 = -(alpha^2 + beta gamma), and exp(Omega) = cos(nu) I
    + (sin(nu)/nu) Omega: one cos and one sin per step.  A step is off by
    O(h^7), so M after n steps is off by O(n^-6): doubling n cuts the error
    about 64 times, and the difference of M at n/2 and n steps that the
    step doubling reports as ``error_estimate`` is the error of the M at
    n/2, about 64 times that of the M at n it keeps.
    """
    k = ks[:, None]
    steps = np.empty((2, 2, len(ks), w1.shape[-1]), dtype=complex)
    dsteps = np.empty_like(steps) if want_dk else None
    # Each (P, n) value is built in a slot that is free at that point: alpha
    # in E[0, 1], gamma in E[1, 0], nu^2 in E[1, 1] (E'[1, 1] when the
    # derivative needs it), nu and then cos(nu) in E[0, 0], sin(nu)/nu in
    # E[1, 1].  With one complex (P, n) temporary the heap a call takes
    # stays small enough that freeing it returns no memory to the system,
    # which the next call would fault in again.
    alpha, gamma, c, s = steps[0, 1], steps[1, 0], steps[0, 0], steps[1, 1]
    _, beta, _, da, dg = _generator(w1, w2, w3, h, k, alpha, gamma)
    z = dsteps[1, 1] if want_dk else s
    np.multiply(alpha, alpha, out=z)
    np.multiply(beta, gamma, out=c)
    z += c
    np.negative(z, out=z)  # nu^2
    nu = np.sqrt(z, out=c)
    nu[nu == 0] = 1e-20
    np.sin(nu, out=s)
    s /= nu
    np.cos(nu, out=c)
    if want_dk:
        # d(nu^2)/dk = 2k (2 alpha da + beta dg); with dc = -s/2 d(nu^2) and
        # ds = (cos(nu) - sin(nu)/nu) / (2 nu^2) d(nu^2) the derivative of
        # cos(nu) I + (sin(nu)/nu) Omega is dc I + ds Omega + s dOmega/dk
        d00, d01, d10, d11 = dsteps[0, 0], dsteps[0, 1], dsteps[1, 0], dsteps[1, 1]
        small = np.abs(z) < 0.1
        zs = z[small]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(c, s, out=d00)
            d00 /= 2.0 * z
        d00[small] = -1 / 6 + zs / 60 - zs**2 / 1680 + zs**3 / 90720 - zs**4 / 7983360
        np.multiply(alpha, 2.0 * da, out=d01)
        d01 += beta * dg
        d01 *= 2.0 * k  # d(nu^2)/dk
        d00 *= d01  # ds
        np.multiply(s, d01, out=d11)
        d11 *= -0.5  # dc
        np.multiply(d00, beta, out=d01)
        np.multiply(d00, gamma, out=d10)
        d00 *= alpha
        # s dgamma/dk and s dalpha/dk, each product written into its own
        # array: numpy may compute a complex product in place of a large
        # temporary operand, with a rounding of its own
        t = np.multiply(s, dg)
        t *= 2.0 * k
        d10 -= t
        np.multiply(s, da, out=t)
        t *= 2.0 * k
        d00 -= t  # ds alpha + s dalpha/dk
        np.subtract(d11, d00, out=t)
        d00 += d11
        d11[...] = t
    sa = s * alpha
    np.multiply(s, beta, out=steps[0, 1])
    np.multiply(s, gamma, out=gamma)
    np.subtract(c, sa, out=s)
    c += sa
    return steps, dsteps


def _gauss_values(w, left, h):
    return tuple(w(left + node * h) for node in _GAUSS)


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


def _negative(psi, dpsi):
    """Whether psi is negative, a zero value taking the sign psi has just
    after it (that of psi'), elementwise."""
    return (psi < 0) | ((psi == 0) & (dpsi < 0))


def _segment_zeros(theta, nu, start, end):
    """Zeros of solutions on segments, as floats, elementwise.  On a segment
    whose propagator is exp(s Omega), s in [0, 1], with Omega = [[alpha,
    beta], [gamma, -alpha]] real and Omega^2 = -nu^2 I (alpha = 0, beta = h
    and nu = q h in closed form; a Magnus step's generator, ``_generator``;
    nu = 0 where the segment holds at most one zero), a solution is R
    sin(theta + s nu) with theta = atan2(nu psi, alpha psi + beta psi') mod
    pi at its start, so it has floor((theta + nu) / pi) zeros there: the
    count of the parity of the sign change of psi nearest to that value.
    The parity comes from ``start`` and ``end``, whether psi is negative at
    the segment's ends (``_negative``), so the rounding of theta cannot move
    a zero across an end, and one at the end is counted exactly when the
    end value says so."""
    change = end != start
    z = np.where(nu > 0, (theta + nu) / np.pi - 0.5, change)
    return 2 * np.round(0.5 * (z - change)) + change


def _zeros(ends, nu, alpha, beta):
    """Zeros in (0, L] of the solutions that leave x = 0 as (psi, psi') =
    (1, 0) and (0, 1), an integer array (2, ...), from the Magnus steps of
    an edge: ``ends`` (2, 2, ..., n + 1) is the fundamental matrix at x = 0
    and at the end of each segment of the edge, the last its M, and nu,
    alpha and beta describe each segment's propagator as
    ``_segment_zeros`` reads them; the counts of the segments are added."""
    psi, dpsi = ends[0], ends[1]
    neg = _negative(psi, dpsi)
    a, da = psi[..., :-1], dpsi[..., :-1]
    theta = np.mod(np.arctan2(nu * a, alpha * a + beta * da), np.pi)
    return _segment_zeros(theta, nu, neg[..., :-1], neg[..., 1:]).sum(axis=-1).astype(int)


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


def _magnus(samples, hs, edges, ks, want_dk: bool, zeros=None):
    """M (and M', else None) from n equal 6th-order Magnus steps per row, row
    i being edge ``edges[i]`` at ``ks[i]``: arrays (2, 2, P).  The edges'
    steps have lengths ``hs`` and Gauss values ``samples`` (W1, W2, W3),
    each (edges, n).  Steps are built and folded _POINT_STEPS row-steps at a
    time, which bounds the memory, and the pieces' products folded in turn.

    Given an integer array (2, P), ``zeros`` receives the ``_zeros`` of each
    real k, from the running products of the fold level of spans 2^f h
    with 2^f h sqrt(k^2 - min w) < pi / 2 on every row of a block (h and w
    its edge's, the minimum over all three nodes), on which no solution has
    two zeros (Sturm comparison), or else of the steps themselves."""
    n = samples[0].shape[-1]
    if zeros is not None:
        wmin = np.min([w.min(axis=-1) for w in samples], axis=0)
    piece = min(n, _POINT_STEPS)
    chunk = _POINT_STEPS // piece
    m = np.empty((2, 2, len(ks)), dtype=complex)
    dm = np.empty_like(m) if want_dk else None
    for lo in range(0, len(ks), chunk):
        pks, rows = ks[lo : lo + chunk], edges[lo : lo + chunk]
        h = hs[rows][:, None]
        parts, size = [], 1
        if zeros is not None:
            ends = [np.eye(2)[..., None, None] * np.ones((len(pks), 1))]
            top = np.maximum(pks.real**2 - wmin[rows], 0.0)
            reach = float(np.max(h[:, 0] * np.sqrt(top)))
            while size < piece and 2 * size * reach < 0.5 * math.pi:
                size *= 2
        for j in range(0, n, piece):
            w = (x[rows, j : j + piece] for x in samples)
            e = _steps(*w, h, pks, want_dk)
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
            beta = h
            if size == 1:
                w = [x[rows] for x in samples]
                alpha, beta, gamma, _, _ = _generator(*w, h, pks.real[:, None])
                nu = np.sqrt(np.maximum(-(alpha * alpha + beta * gamma), 0.0))
            zeros[:, lo : lo + chunk] = _zeros(ends, nu, alpha, beta)
    return m, dm


def _magnus_doubled(pots, lengths, ks, want_dk: bool, zeros, tables):
    """Magnus M (and M') over [0, L] of every edge (oriented potentials
    ``pots`` on ``lengths``) at every k of ``ks``, in one propagation of the
    (k, edge) rows.  Each row doubles its step count from _MIN_STEPS until
    two successive M, with psi' scaled by 1/|k|, agree to _DEFAULT_TOL
    relative, and keeps the M of the first count that does, and its
    ``_zeros`` in ``zeros`` (2, len(ks), edges) unless that is None.  An edge
    is sampled once per step count its rows reach, and only at those, into
    its dict of ``tables`` (step count -> Gauss samples (3, n)), where a
    count already drawn is read.
    Returns M, M' (or None), that last difference and the step count, each
    shaped (..., len(ks), edges); a row unresolved at _MAX_STEPS has error
    inf."""
    lengths = np.asarray(lengths, dtype=float)
    shape = (len(ks), len(pots))
    edges = np.tile(np.arange(len(pots)), len(ks))
    ks = np.repeat(np.asarray(ks, dtype=complex), len(pots))
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
        # the edges with rows left, and each row's place among them
        live = np.flatnonzero(np.bincount(edges[active], minlength=len(pots)))
        rows = np.searchsorted(live, edges[active])
        hs = lengths[live] / n
        for e, h in zip(live.tolist(), hs):
            if n not in tables[e]:
                w = _gauss_values(pots[e].callable(lengths[e]), h * np.arange(n), h)
                tables[e][n] = np.array(w)
        samples = np.stack([tables[e][n] for e in live.tolist()], axis=1)
        # no row keeps the M of the first count, so its zeros are not needed
        z = None if zeros is None or prev is None else np.empty((2, active.size), int)
        m, dm = _magnus(samples, hs, rows, ks[active], want_dk, z)
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
                zeros[:, idx // shape[1], idx % shape[1]] = z[:, done]
            active, ms = active[~done], ms[..., ~done]
        prev = ms
        n *= 2
    out = (m_out, dm_out, err_out, n_out)
    return tuple(None if x is None else x.reshape(x.shape[:-1] + shape) for x in out)


def _unresolved(pot: Potential, k: complex) -> NumericalError:
    return NumericalError(
        f"Magnus propagator unresolved at {_MAX_STEPS} steps for "
        f"{pot.source!r} at k={k}"
    )


def _refuse_k(ks) -> None:
    """InputError unless every k of ``ks`` is finite and nonzero, the zero
    check first."""
    ks = np.asarray(ks)
    if not ks.all():
        raise InputError("k=0: the normalized solution pair degenerates")
    if not np.isfinite(ks).all():
        raise InputError("k must be finite")


# closed-form arguments (c, D, x1, x2) of every edge (placeholders on smooth
# edges), the lengths and, keyed by the smooth edges, each one's Gauss
# samples by step count
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
        samples = {e.index: {} for e in g.edges if e.potential.kind == "smooth"}
        table = _EDGE_TABLES[g] = (closed, lengths, samples)
    return table


def _evaluate(g: MetricGraph, ks, edges, want_dk: bool, want_count: bool = False):
    """M and M' (or None) of the edges ``edges`` of ``g`` (an index of the
    edge axis: a slice reads the graph's table without copying it) at every
    k of the 1-D array ``ks``, as row-major 4-tuples or (4, ...) arrays, the
    error estimate and, when ``want_count`` (real k only), the ``_zeros``
    (2, ...) (else None), each shaped (..., len(ks), len(edges)).

    Zero, constant and point-interaction edges are evaluated together in
    closed form from the table's columns (error 0): in float64 at a real
    ``ks``, whose M stays float64 where every edge is in closed form.  The
    smooth edges go through one ``_magnus_doubled`` batch over their (k,
    edge) rows, from the graph's samples, which gives each row its one-point
    result.  An unresolved row does not raise: its error is inf."""
    closed, lengths, samples = _edge_table(g)
    columns = tuple(col[edges] for col in closed)
    m, dm, zeros = _closed(ks[:, None], *columns, want_dk, want_count)
    err = np.zeros((len(ks), len(columns[0])))
    # the smooth edges among those chosen: their places and their indices
    ids = np.arange(g.num_edges)[edges].tolist() if samples else []
    at = [i for i, e in enumerate(ids) if e in samples]
    live = [ids[i] for i in at]
    if live:
        m = np.array(m, dtype=complex)
        dm = np.array(dm, dtype=complex) if want_dk else None
        pots = [g.edges[e].potential for e in live]
        z = None if zeros is None else zeros[:, :, at]
        me, dme, err[:, at], _ = _magnus_doubled(
            pots, lengths[live], ks, want_dk, z, [samples[e] for e in live]
        )
        m[:, :, at] = me.reshape(4, len(ks), -1)
        if want_dk:
            dm[:, :, at] = dme.reshape(4, len(ks), -1)
        if z is not None:
            zeros[:, :, at] = z
    return m, dm, err, zeros


def solve_edge(g: MetricGraph, e: int, k: complex, want_dk: bool = False) -> EdgeSolution:
    """The fundamental matrix M of edge ``e`` at ``k``, and M' = dM/dk when
    ``want_dk``: the one-point case of ``_evaluate``, which reads and adds
    to the graph's samples.  k must be finite and nonzero (``_refuse_k``)."""
    _refuse_k(k)
    edge = g.edges[e]
    k = complex(k)
    m, dm, err, _ = _evaluate(g, np.array([k]), [e], want_dk)
    if not err[0, 0] <= _DEFAULT_TOL:
        raise _unresolved(edge.potential, k)
    m, dm = (None if x is None else tuple(complex(v[0, 0]) for v in x) for x in (m, dm))
    return EdgeSolution(k, edge.length, m, dm, float(err[0, 0]))


def _solve_edges(
    g: MetricGraph, ks, want_dk: bool = False, want_count: bool = False
) -> EdgeSolution:
    """M of every edge at every k of the 1-D array ``ks``: an EdgeSolution
    whose fields are (len(ks), E) arrays, with the ``_zeros`` of every edge,
    (2, len(ks), E), when ``want_count`` (real k only), all from one call of
    ``_evaluate``.  A real ``ks`` stays float64; a complex ``ks`` gives
    complex M.  An unresolved propagation raises for the first such k in
    (k, edge) order, as ``solve_edge`` would there."""
    ks = np.asarray(ks)
    ks = ks.astype(complex if np.iscomplexobj(ks) else float)
    _refuse_k(ks)
    m, dm, err, zeros = _evaluate(g, ks, slice(None), want_dk, want_count)
    resolved = err <= _DEFAULT_TOL
    if not resolved.all():
        i, e = np.argwhere(~resolved)[0]
        raise _unresolved(g.edges[e].potential, complex(ks[i]))
    return EdgeSolution(ks[:, None], _edge_table(g)[1], tuple(m), dm, err, zeros)


def edge_profile(g: MetricGraph, e: int, k: complex, xs) -> np.ndarray:
    """psi_plus = m11 - ik m12, the solution that leaves x = 0 (the "from"
    end) as (1, -ik), sampled at increasing positions ``xs`` along edge
    ``e``, from the running products of M along the edge (``_prefix``).  A
    smooth edge is swept once at the step count its whole-edge M needs, which
    ``_magnus_doubled`` finds from the graph's samples, with the requested
    positions as extra breakpoints; only that sweep samples the potential
    anew."""
    _refuse_k(k)
    edge = g.edges[e]
    L, pot = edge.length, edge.potential
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise InputError("xs must be a nonempty 1-D array")
    if not (np.all(np.diff(xs) >= 0) and -1e-12 <= xs[0] and xs[-1] <= L + 1e-12):
        raise InputError("xs must be finite, increasing and lie within [0, L]")
    k = complex(k)
    xs = np.clip(xs, 0.0, L)
    grid = np.union1d(0.0, xs)
    samples = _edge_table(g)[2]
    if e in samples:
        _, _, err, n = _magnus_doubled([pot], [L], [k], False, None, [samples[e]])
        if not err.item() <= _DEFAULT_TOL:
            raise _unresolved(pot, k)
        grid = np.union1d(np.linspace(0.0, L, n.item() + 1), grid)
        h = np.diff(grid)
        w = _gauss_values(pot.callable(L), grid[:-1], h)
        steps = _steps(*w, h, np.array([k]), False)[0][:, :, 0]
    else:
        bounds = grid.tolist()
        pieces = [_segment(pot, a, b) for a, b in zip(bounds, bounds[1:])]
        segments = np.reshape(pieces, (-1, 4))  # a one-point grid has no segment
        steps = np.reshape(_closed(k, *segments.T, False)[0], (2, 2, -1))
    run = _prefix(steps)
    psi = np.concatenate([[1.0], run[0, 0] - 1j * k * run[0, 1]])
    return psi[np.searchsorted(grid, xs)]


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def _singular(k) -> SingularPointError:
    return SingularPointError(f"transition-matrix parametrization singular at k={k}")


def _den(sol: EdgeSolution):
    """den = m21 - ik (m11 + m22) - k^2 m12, the denominator of t, and the
    mask of points where it is below 1e-12 of the scale of M, a pole of t
    where its parametrization is singular, elementwise."""
    k = sol.k
    m11, m12, m21, m22 = sol.m
    # (psi, psi') = M (1, -ik), whose size sets the scale of the pole test
    psi, dpsi = m11 - 1j * k * m12, m21 - 1j * k * m22
    den = dpsi - 1j * k * psi
    scale = np.maximum(np.maximum(np.abs(dpsi), np.abs(k) * np.abs(psi)), np.abs(k))
    return den, np.abs(den) < 1e-12 * scale


def _refuse_singular(sol: EdgeSolution, singular) -> None:
    """SingularPointError at the first point of the mask ``singular``, in
    array order."""
    if np.any(singular):
        raise _singular(complex(np.broadcast_to(sol.k, singular.shape)[singular][0]))


def _t_entries(sol: EdgeSolution):
    """Entries (trans, r_from, r_to) of t, their k-derivatives by the
    quotient rule on M' when ``sol`` carries it (else None), and the mask of
    points where the parametrization is singular, elementwise."""
    k = sol.k
    m11, m12, m21, m22 = sol.m
    den, singular = _den(sol)
    p, q = m21 + k * k * m12, 1j * k * (m11 - m22)
    t = (-2j * k / den, -(p - q) / den, -(p + q) / den)
    if sol.dm is None:
        return t, None, singular
    d11, d12, d21, d22 = sol.dm
    dp = d21 + 2.0 * k * m12 + k * k * d12
    dq = 1j * (m11 - m22) + 1j * k * (d11 - d22)
    dden = d21 - 2.0 * k * m12 - k * k * d12 - 1j * (m11 + m22) - 1j * k * (d11 + d22)
    # (num / den)' = (num' - (num / den) den') / den, entry by entry
    dt = (-2j, -(dp - dq), -(dp + dq))
    return t, tuple((dn - x * dden) / den for dn, x in zip(dt, t)), singular


def _t_eigenvalues(trans, r_from, r_to):
    """The eigenvalues trans -+ sqrt(r_from r_to) of t, elementwise."""
    root = np.sqrt(r_from * r_to)
    return trans - root, trans + root


def _entries(sol: EdgeSolution):
    """(trans, r_from, r_to) and their k-derivatives (or None) as
    ``_t_entries`` gives them; a singular parametrization raises for the
    first such point in array order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t, dt, singular = _t_entries(sol)
    _refuse_singular(sol, singular)
    return t, dt


def transition_matrix(g: MetricGraph, e: int, k: complex) -> TransitionMatrix:
    sol = solve_edge(g, e, k)
    (trans, r_from, r_to), _ = _entries(sol)
    return TransitionMatrix(complex(k), sol.length, trans, r_from, r_to)


def transition_matrix_dk(g: MetricGraph, e: int, k: complex) -> np.ndarray:
    """d/dk of the 2x2 transition matrix, by the quotient rule on M and M' =
    dM/dk."""
    sol = solve_edge(g, e, k, want_dk=True)
    _, (dtrans, dr_from, dr_to) = _entries(sol)
    return np.array([[dtrans, dr_to], [dr_from, dtrans]], dtype=complex)


def verify_subunitary(
    g: MetricGraph, e: int, k: float, eps: float
) -> Tuple[bool, float]:
    """Check both eigenvalue moduli of t(k + i*eps) are <= 1: the one-point
    case of ``_max_moduli``, raising the error it gives there."""
    if eps <= 0:
        raise InputError("eps must be positive")
    (max_mod,) = _max_moduli(g, e, np.array([complex(k, eps)]))
    if isinstance(max_mod, Exception):
        raise max_mod
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
    ``e``, or the error ``verify_subunitary`` raises there, from ``_evaluate``
    at ``ks`` on that edge alone (so a smooth edge reads and adds to the
    graph's samples)."""
    edge = g.edges[e]
    m, _, err, _ = _evaluate(g, ks, [e], False)
    resolved = err[:, 0] <= _DEFAULT_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        t, _, singular = _t_entries(EdgeSolution(ks, edge.length, tuple(x[:, 0] for x in m)))
        mods = np.maximum(*(np.abs(mu) for mu in _t_eigenvalues(*t)))
    return [
        _unresolved(edge.potential, k) if not r else _singular(k) if s else mod
        for k, mod, r, s in zip(ks.tolist(), mods.tolist(), resolved, singular)
    ]


def _closed_threshold(g: MetricGraph) -> Tuple[float, List[int]]:
    """The closed-form part of K, the largest delta-edge threshold (0 with
    none), and the constant and smooth edges, whose part only the heuristic
    scan gives; K is the closed form itself when there are none."""
    closed, scan_edges = 0.0, []
    for e in g.edges:
        pot = e.potential
        if pot.kind == "delta":
            closed = max(closed, _delta_threshold(pot.strength, e.length))
        elif pot.kind != "zero":
            scan_edges.append(e.index)
    return closed, scan_edges


def _compute_threshold(g: MetricGraph) -> ThresholdInfo:
    closed, scan_edges = _closed_threshold(g)
    if not scan_edges:
        return ThresholdInfo(closed, "closed-form")
    floor = max(
        math.sqrt(g.edges[e].potential.sup_plus(g.edges[e].length)) for e in scan_edges
    )
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
