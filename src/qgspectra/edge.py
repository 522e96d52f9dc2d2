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
  first comparison, 64 against 128 steps, is one kernel pass over the steps
  of both counts; each later count is one pass of the rows left.  A pass
  cuts each row's steps into sub-rows, builds and folds them in blocks of
  at most _POINT_STEPS row-steps, and counts zeros on spans of at most one
  sub-row.  The propagator takes rows of (edge, k): each edge is sampled
  once per step count its rows reach, and each row keeps the M of the
  first count at which it converged, so a batch gives every row its
  one-point result.

``_solve_edges`` is the one evaluator: M, M' and the error estimate of
some or all edges of a graph at every k of an array and, for the
eigenvalue count, the zeros of two solutions on each edge, from per-graph
arrays kept in a weak-keyed table.  One rule counts the zeros on a segment
(``_segment_zeros``): ``_closed`` applies it to a closed-form edge as one
segment, from the arrays that give M, and ``_zeros`` to the segments of a
Magnus propagation.  The closed-form edges are evaluated together over (k,
edge), and the smooth edges in one propagation, whose samples the table
keeps stacked over the edges per kernel pass, with each edge's minimum of
w.  A real k is evaluated in float64, with cosh and sinh on classically
forbidden Magnus steps; a complex k is evaluated in complex arithmetic.
``solve_edge`` is its one-point, one-edge case, and the threshold reads t
and t' from it on a real grid; ``edge_profile``, which needs M inside an
edge, finds its step count from the same samples.  So every solve of a
graph's edges samples a smooth potential once per step count.  Each bad
point is refused where it is evaluated: ``_solve_edges`` and
``edge_profile`` refuse a zero or non-finite k (``_refuse_k``),
``_magnus_doubled`` the first (k, edge) row unresolved at _MAX_STEPS steps,
one whose steps overflow at h k >> 1 too, and ``_den`` the first pole of t.

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
t is unitary for real k.  Just above the real axis ||t(k + i eps) v||^2 =
||v||^2 - 2 eps v^H Q v + O(eps^2), with Q = -i t^H t' the edge's
Wigner-Smith delay matrix (Smith, Phys. Rev. 118, 1960), so t is
subunitary there where the smaller eigenvalue of Q is positive; the
subunitarity threshold is the last sign change of that eigenvalue, found
on one real grid of all edges at once (``subunitarity_threshold``).
"""

from __future__ import annotations

import dataclasses
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
        """trans -+ sqrt(r_from r_to), sorted."""
        root = np.sqrt(self.r_from * self.r_to)
        mu = np.array([self.trans - root, self.trans + root])
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
    imaginary over a barrier, k^2 < c).  Where every c is 0 it is k itself,
    not broadcast against c, which spares its copies and its products."""
    k = np.asarray(k)
    if np.iscomplexobj(k) or (np.any(c > 0) and np.any(k * k < c)):
        k = k.astype(complex)
    if not np.any(c):
        return k
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

    The zeros are counted on the whole segment (``_segment_zeros``) from
    the Pruefer angle at its end, which the same q, c1 and s1 as M give in
    closed form, and the signs of M; nu = 0 over a barrier, where psi has
    at most one zero, after the point interaction."""
    k = np.asarray(k)
    q = _wavenumber(k, c)
    c1, s1 = _free(q, x1)
    c2, s2 = _free(q, x2)
    cc = c2 * c1 - q * q * s2 * s1
    s = s2 * c1 + c2 * s1
    real = not np.iscomplexobj(k)
    dm = None
    if want_dk:
        dc1, ds1 = _free_dk(q, x1, k, c1, s1)
        dc2, ds2 = _free_dk(q, x2, k, c2, s2)
        dc, ds = _free_dk(q, x1 + x2, k, cc, s)
        dm = (
            dc + D * (ds2 * c1 + s2 * dc1),
            ds + D * (ds2 * s1 + s2 * ds1),
            -2.0 * k * s - q * q * ds + D * (dc2 * c1 + c2 * dc1),
            dc + D * (dc2 * s1 + c2 * ds1),
        )
        dm = tuple(np.real(x) for x in dm) if real else dm
    # M = (cc + D s2 c1, s + D s2 s1, -q (q s) + D c2 c1, cc + D c2 s1), each
    # product and sum as written, operands in order, s and cc becoming m12
    # and m22 last.  The sums are formed in place, and so are the products
    # of a real batch, which leaves a large batch three fewer temporaries
    # (numpy may round a complex product formed in place differently)
    inplace = not np.iscomplexobj(q)

    def into(x):
        return x if inplace else None

    m21 = q * s
    m21 = np.multiply(-q, m21, out=into(m21))
    term = D * c2
    m21 += np.multiply(term, c1, out=into(term))
    del term
    m11 = D * s2
    m11 = np.multiply(m11, c1, out=into(m11))
    m11 += cc
    s2 = np.multiply(D, s2, out=into(s2))
    s += np.multiply(s2, s1, out=into(s2))
    c2 = np.multiply(D, c2, out=into(c2))
    cc += np.multiply(c2, s1, out=into(c2))
    m = (m11, s, m21, cc)
    if real:
        m = tuple(np.real(x) for x in m)
    zeros = None
    if want_count:
        # the Pruefer angle atan2(q psi, psi') of a solution turns by q x over
        # a length x, and at the point interaction, where psi' gains D psi,
        # by the angle from (psi', q psi) to (psi' + D psi, q psi), -atan2(q
        # D psi^2, psi'^2 + D psi psi' + q^2 psi^2), which keeps it between
        # the same multiples of pi.  There psi = C = cos(q x1) and S / q, S =
        # sin(q x1), so at the end the angles are pi/2 and 0 plus nu = q (x1
        # + x2) less atan2(D C^2, q - D C S) and atan2(D S^2, q + D C S)
        C, S, qr = np.real(c1), np.real(q * s1), q.real
        y, x = np.empty((2, 2) + C.shape)
        DC, DS = D * C, D * S
        P = np.multiply(DC, S, out=x[1])
        np.subtract(qr, P, out=x[0])
        x[1] += qr
        np.multiply(DC, C, out=y[0])
        np.multiply(DS, S, out=y[1])
        nu = qr * (x1 + x2)
        phase = np.subtract(nu, np.arctan2(y, x, out=y), out=y)
        phase[0] += 0.5 * np.pi
        end = np.array((_negative(m[0], m[2]), _negative(m[1], m[3])))
        zeros = _segment_zeros(phase, nu, False, end).astype(int)
    return m, dm, zeros


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
    lengths h: a scalar, one per step or a column of one per k.  A
    ``_magnus`` pass gives it sub-rows of steps, a column h and one k per
    sub-row, those of both counts of a pair in one call.  Each step
    is the exponential of its 6th-order generator Omega = [[alpha, beta],
    [gamma, -alpha]] (``_generator``), which is traceless, so Omega^2 =
    -nu^2 I with nu^2 = -(alpha^2 + beta gamma), and exp(Omega) = cos(nu) I
    + (sin(nu)/nu) Omega: one cos and one sin per step.  A real ``ks`` is
    evaluated in float64, with cosh and sinh (of sqrt(-nu^2)) on
    classically forbidden steps (nu^2 < 0), chosen step by step; a complex
    ``ks`` is evaluated in complex arithmetic.  A step is off by O(h^7), so
    M after n steps is off by O(n^-6): doubling n cuts the error about 64
    times, and the difference of M at n/2 and n steps that the step
    doubling reports as ``error_estimate`` is the error of the M at n/2,
    about 64 times that of the M at n it keeps.
    """
    k = ks[:, None]
    real = not np.iscomplexobj(ks)
    steps = np.empty((2, 2, len(ks), w1.shape[-1]), dtype=float if real else complex)
    dsteps = np.empty_like(steps) if want_dk else None
    # Each (P, n) value is built in a slot that is free at that point: alpha
    # in E[0, 1], gamma in E[1, 0], nu^2 in E[1, 1] (E'[1, 1] when the
    # derivative needs it), nu (|nu| at a real k) and then cos(nu) in E[0,
    # 0], sin(nu)/nu in E[1, 1]; a forbidden step's cosh and sinh overwrite
    # its cos and sin.  With one (P, n) temporary of the steps' dtype the
    # heap a call takes stays small enough that freeing it returns no
    # memory to the system, which the next call would fault in again.
    alpha, gamma, c, s = steps[0, 1], steps[1, 0], steps[0, 0], steps[1, 1]
    _, beta, _, da, dg = _generator(w1, w2, w3, h, k, alpha, gamma)
    z = dsteps[1, 1] if want_dk else s
    np.multiply(alpha, alpha, out=z)
    np.multiply(beta, gamma, out=c)
    z += c
    np.negative(z, out=z)  # nu^2
    forbidden = z < 0 if real else None
    nu = np.sqrt(np.abs(z, out=c) if real else z, out=c)
    nu[nu == 0] = 1e-20
    mu = nu[forbidden] if real else None
    np.sin(nu, out=s)
    s /= nu
    np.cos(nu, out=c)
    if real and mu.size:
        c[forbidden] = np.cosh(mu)
        s[forbidden] = np.sinh(mu) / mu
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
    neg, zero = psi < 0, psi == 0
    if zero.any():
        neg |= zero & (dpsi < 0)
    return neg


def _segment_zeros(phase, nu, start, end):
    """Zeros of solutions on segments, as floats, elementwise: floor(phase
    / pi), phase the Pruefer angle at the end, from pi/2 or 0 at x = 0.  On
    a Magnus step (``_generator``, Omega^2 = -nu^2 I) a solution is R
    sin(theta + s nu), theta = atan2(nu psi, alpha psi + beta psi') in [0,
    pi] at its start, the solution's sign taken so that psi >= 0 there, so
    phase = theta + nu; nu = 0 where the segment holds at most one zero.
    The count is that of the parity of the sign change of psi nearest to
    phase / pi - 1/2, the parity from ``start`` and ``end``, whether psi is
    negative at the segment's ends (``_negative``), so the rounding of the
    phase cannot move a zero across an end, and one at the end is counted
    exactly when the end value says so.  ``phase`` is overwritten."""
    change = end != start
    # half the distance from phase / pi - 1/2 to the count of that parity
    z = np.multiply(phase, 0.5 / np.pi, out=phase)
    z -= np.where(change, 0.75, 0.25)
    if not np.all(nu > 0):
        z = np.where(nu > 0, z, 0.0)
    z = np.rint(z, out=z)
    z *= 2.0
    z += change
    return z


def _zeros(ends, nu=0.0, alpha=0.0, beta=0.0):
    """Zeros in (0, L] of the solutions that leave x = 0 as (psi, psi') =
    (1, 0) and (0, 1), an integer array (2, ...), from the Magnus steps of
    an edge: ``ends`` (2, 2, ..., n + 1) is the fundamental matrix at x = 0
    and at the end of each segment of the edge, the last its M, and nu,
    alpha and beta describe each segment's propagator as
    ``_segment_zeros`` reads them; the counts of the segments are added.
    Each segment's start is flipped to psi >= 0 (``_negative``), so its
    angle lies in [0, pi] and takes no reduction mod pi, which wraps pi to
    0, 2 off, where psi is within rounding of 0.  A scalar nu = 0 (no
    segment holds two zeros) leaves the count of sign changes, which
    ``_segment_zeros`` gives there, without the phases."""
    psi, dpsi = ends[0], ends[1]
    neg = _negative(psi, dpsi)
    if np.ndim(nu) == 0 and nu == 0:
        return np.count_nonzero(neg[..., :-1] != neg[..., 1:], axis=-1)
    a, da = np.abs(psi[..., :-1]), np.where(neg[..., :-1], -dpsi[..., :-1], dpsi[..., :-1])
    phase = np.arctan2(nu * a, alpha * a + beta * da)
    phase += nu
    return _segment_zeros(phase, nu, neg[..., :-1], neg[..., 1:]).sum(axis=-1).astype(int)


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


class _Samples:
    """Gauss samples of some smooth edges (oriented potentials ``pots`` on
    ``lengths``), drawn edge by edge on first use.  For the step counts of a
    ``_magnus`` pass, ``w[counts]`` holds the values W1, W2, W3 of every
    edge as one (3, edges, sum(counts)) array, each count's samples after
    the previous count's (the rows of edges not yet drawn are left unset),
    and ``wmin[counts]`` each drawn edge's minimum of w over the last
    count's, from which ``_magnus`` sizes its zero-count level."""

    def __init__(self, pots, lengths):
        self.pots = list(pots)
        self.lengths = np.asarray(lengths, dtype=float)
        self.w, self.wmin, self.drawn = {}, {}, {}

    def draw(self, counts, edges) -> None:
        """Sample each edge of ``edges`` (indices, repeats allowed) at the
        step counts ``counts`` (a tuple) unless it is already."""
        if counts not in self.w:
            self.w[counts] = np.empty((3, len(self.pots), sum(counts)))
            self.wmin[counts] = np.empty(len(self.pots))
            self.drawn[counts] = np.zeros(len(self.pots), dtype=bool)
        drawn = self.drawn[counts]
        for e in sorted(set(edges[~drawn[edges]].tolist())):
            L, w = self.lengths[e], self.w[counts][:, e]
            f = self.pots[e].callable(L)
            start = 0
            for n in counts:
                h = L / n
                w[:, start : start + n] = _gauss_values(f, h * np.arange(n), h)
                start += n
            self.wmin[counts][e] = w[:, -counts[-1] :].min()
            drawn[e] = True


def _magnus(table, counts, edges, ks, want_dk: bool, zeros=None, prev=None):
    """M (and M', else None) after n equal 6th-order Magnus steps per row,
    for each step count n of ``counts`` (one count, or a pair n, 2n): arrays
    (len(counts), 2, 2, P), row i being edge ``edges[i]`` of the
    ``_Samples`` ``table``, drawn at ``counts``, at ``ks[i]``; and each
    row's error, the step-doubling difference of the last count's M from the
    M of the count before it, the pair's first or ``prev`` (2, 2, P): the
    largest entry of the difference, with psi' scaled by 1/|k|, relative to
    the larger of 1 and the largest entry of the last M so scaled (None for
    one count without ``prev``).  A real ``ks`` is evaluated in float64,
    with cosh and sinh on classically forbidden steps; a complex ``ks`` is
    evaluated in complex arithmetic.

    All the counts of a row go through one pass.  Its steps are cut into
    sub-rows of the first count's steps (of _POINT_STEPS, when that is
    fewer), so a pair's 2n steps are two sub-rows, and the sub-rows are
    built and folded in blocks of at most _POINT_STEPS row-steps, which
    bounds the memory: whole rows of a chunk when a row fits, else
    consecutive sub-rows of one row.  Then each count's sub-row products
    are folded in turn.  So every count's M is the pairwise fold of its
    steps (``_fold``), the same tree as a pass of that count alone.

    Given an integer array (2, P), ``zeros`` receives the ``_zeros`` of the
    last count at each real k whose error is at most _DEFAULT_TOL (at every
    k when there is no error), from the running products of the fold level
    of spans 2^f h with 2^f h sqrt(k^2 - min w) < pi / 2 on every row of a
    chunk (h and w its edge's, the minimum over all three nodes), on which
    no solution has two zeros (Sturm comparison), or else of the steps
    themselves; a span is at most one sub-row.  Those products are kept
    over runs of chunks with the same level, at most _POINT_STEPS of them,
    and the zeros of a run counted at once."""
    top = counts[-1]
    piece = min(counts[0], _POINT_STEPS)
    subs = [n // piece for n in counts]
    # sub-rows per row, and the first of the last count's
    per, last = sum(subs), sum(subs) - subs[-1]
    # rows per chunk, and sub-rows of a row per block
    chunk = max(_POINT_STEPS // sum(counts), 1)
    width = min(per, _POINT_STEPS // piece)
    samples = table.w[counts]
    # each sub-row's step length, row by row
    hs = table.lengths[edges][:, None] / np.repeat(counts, subs)
    if zeros is not None:
        h = table.lengths[edges] / top
        reach = h * np.sqrt(np.maximum(ks.real**2 - table.wmin[counts][edges], 0.0))
    # each row's sub-row products
    prods = np.empty((2, 2, len(ks), per), dtype=ks.dtype)
    dprods = np.empty_like(prods) if want_dk else None
    m = np.empty((len(counts), 2, 2, len(ks)), dtype=ks.dtype)
    dm = np.empty_like(m) if want_dk else None
    err = None if prev is None and len(counts) == 1 else np.empty(len(ks))

    def finish(lo, hi, size, taps):
        """M, M', the error and the zeros of rows lo to hi, whose chunks
        have the zero-count level ``size``, from their sub-row products and
        ``taps``, each chunk's list of the last count's products at that
        level, block by block."""
        span = slice(lo, hi)
        start = 0
        for i, s in enumerate(subs):
            e = prods[:, :, span, start : start + s]
            de = dprods[:, :, span, start : start + s] if want_dk else None
            start += s
            e, de = _fold(e, de)
            m[i, ..., span] = e[..., 0]
            if want_dk:
                dm[i, ..., span] = de[..., 0]
        keep, kept = slice(None), hi - lo  # the rows whose zeros are counted
        if err is not None:
            scale = np.ones((2, 2, hi - lo))
            scale[0, 1] = np.abs(ks[span])
            scale[1, 0] = 1.0 / scale[0, 1]
            ms = m[-1, ..., span] * scale
            ref = (m[0, ..., span] if prev is None else prev[..., span]) * scale
            diff = np.abs(ms - ref).max(axis=(0, 1))
            err[span] = diff = diff / np.maximum(1.0, np.abs(ms).max(axis=(0, 1)))
            accepted = diff <= _DEFAULT_TOL
            if not accepted.all():
                keep = np.flatnonzero(accepted)
                kept = keep.size
        if zeros is None or not kept:
            return
        # the running products of the kept rows, each block's from the end
        # of the one before
        ends = [np.eye(2)[..., None, None] * np.ones((kept, 1))]
        for part in zip(*taps):
            part = np.concatenate(part, axis=2)[:, :, keep]
            run = np.concatenate([ends[-1][..., -1:], part.real], axis=-1)
            ends.append(_prefix(run)[..., 1:])
        ends = np.concatenate(ends, axis=-1)
        ends[..., -1] = m[-1, ..., span][..., keep].real
        segments = ()  # at a coarser level no segment holds two zeros
        if size == 1:
            w = samples[:, edges[span][keep], -top:]
            k = ks[span][keep].real[:, None]
            alpha, beta, gamma, _, _ = _generator(*w, h[span][keep, None], k)
            segments = (np.sqrt(np.maximum(-(alpha * alpha + beta * gamma), 0.0)), alpha, beta)
        zeros[:, span][:, keep] = _zeros(ends, *segments)

    # the current run of chunks: its first row, zero-count level and taps
    first, level, taps = 0, 1, []
    for lo in range(0, len(ks), chunk):
        rows = edges[lo : lo + chunk]
        r, span = len(rows), slice(lo, lo + chunk)
        size = 1
        if zeros is not None:
            top_reach = float(np.max(reach[span]))
            while size < piece and 2 * size * top_reach < 0.5 * math.pi:
                size *= 2
            if taps and (size != level or (lo + r - first) * top // size > _POINT_STEPS):
                finish(first, lo, level, taps)
                first, taps = lo, []
            level = size
        taps.append([])
        for j in range(0, per, width):
            sub = slice(j, j + width)
            w = samples[:, rows, j * piece : (j + width) * piece].reshape(3, -1, piece)
            n = w.shape[1] // r
            e = _steps(*w, hs[span, sub].reshape(-1, 1), np.repeat(ks[span], n), want_dk)
            if zeros is not None:
                # the last count's products at the zero-count level
                e = _fold(*e, pieces=piece // size)
                part = e[0].reshape(2, 2, r, n, -1)[:, :, :, max(last - j, 0) :]
                if part.size:
                    taps[-1].append(part.reshape(2, 2, r, -1))
            e, de = _fold(*e)
            prods[:, :, span, sub] = e.reshape(2, 2, r, n)
            if want_dk:
                dprods[:, :, span, sub] = de.reshape(2, 2, r, n)
    finish(first, len(ks), level, taps)
    return m, dm, err


def _magnus_doubled(table, edges, ks, want_dk: bool, zeros):
    """Magnus M (and M') over [0, L] of the edges ``edges`` (indices) of the
    ``_Samples`` ``table`` at every k of ``ks``, in one propagation of the
    (k, edge) rows.  Each row doubles its step count from _MIN_STEPS until
    two successive M, with psi' scaled by 1/|k|, agree to _DEFAULT_TOL
    relative, and keeps the M of the first count that does, and its
    ``_zeros`` in ``zeros`` (2, len(ks), edges) unless that is None.  The
    first comparison, _MIN_STEPS against twice that, is one ``_magnus``
    pass of the pair; each later count is one pass of the rows left.  An
    edge is sampled once per step count its rows reach, and only at those,
    into the table, where a count already drawn is read.
    Returns M, M' (or None), that last difference and the step count, each
    shaped (..., len(ks), edges).  A row still unresolved at _MAX_STEPS
    raises NumericalError when the ladder ends, the first such row in (k,
    edge) order."""
    edges = np.asarray(edges)
    shape = (len(ks), len(edges))
    rows = np.tile(edges, len(ks))
    ks = np.asarray(ks)
    ks = np.repeat(ks.astype(complex if np.iscomplexobj(ks) else float), len(edges))
    m_out = np.empty((2, 2, len(ks)), dtype=ks.dtype)
    dm_out = np.empty_like(m_out) if want_dk else None
    err_out = np.empty(len(ks))
    n_out = np.empty(len(ks), dtype=int)
    active = np.arange(len(ks))
    prev = None
    counts = (_MIN_STEPS, 2 * _MIN_STEPS)
    while counts[-1] <= _MAX_STEPS and active.size:
        table.draw(counts, rows[active])
        z = None if zeros is None else np.empty((2, active.size), int)
        # steps that overflow (h k >> 1) give a non-finite error: never accepted
        with np.errstate(over="ignore", invalid="ignore"):
            m, dm, err = _magnus(table, counts, rows[active], ks[active], want_dk, z, prev)
        done = err <= _DEFAULT_TOL
        idx = active[done]
        m_out[..., idx], err_out[idx], n_out[idx] = m[-1][..., done], err[done], counts[-1]
        if want_dk:
            dm_out[..., idx] = dm[-1][..., done]
        if z is not None:
            zeros[:, idx // shape[1], idx % shape[1]] = z[:, done]
        active, prev = active[~done], m[-1][..., ~done]
        counts = (2 * counts[-1],)
    if active.size:
        i = active[0]
        raise NumericalError(
            f"Magnus propagator unresolved at {_MAX_STEPS} steps for "
            f"{table.pots[rows[i]].source!r} at k={complex(ks[i])}"
        )
    out = (m_out, dm_out, err_out, n_out)
    return tuple(None if x is None else x.reshape(x.shape[:-1] + shape) for x in out)


def _refuse_k(ks) -> None:
    """InputError unless every k of ``ks`` is finite and nonzero, the zero
    check first."""
    ks = np.asarray(ks)
    if not ks.all():
        raise InputError("k=0: the normalized solution pair degenerates")
    if not np.isfinite(ks).all():
        raise InputError("k must be finite")


# closed-form arguments (c, D, x1, x2) of every edge (placeholders on smooth
# edges), the lengths, each edge's place among the smooth edges (-1 on the
# others) and the smooth edges' ``_Samples``
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
        smooth = [e for e in g.edges if e.potential.kind == "smooth"]
        slots = np.full(g.num_edges, -1)
        slots[[e.index for e in smooth]] = np.arange(len(smooth))
        samples = _Samples([e.potential for e in smooth], [e.length for e in smooth])
        table = _EDGE_TABLES[g] = (closed, lengths, slots, samples)
    return table


def _solve_edges(
    g: MetricGraph, ks, want_dk: bool = False, want_count: bool = False, edges=slice(None)
) -> EdgeSolution:
    """M of the edges ``edges`` of ``g`` (an index of the edge axis: the
    default slice reads the graph's table without copying it) at every k of
    the 1-D array ``ks``: an EdgeSolution whose fields are (len(ks),
    len(edges)) arrays, with M' when ``want_dk`` and the ``_zeros``, (2,
    len(ks), len(edges)), when ``want_count`` (real k only).  A real ``ks``
    is evaluated in float64, a complex one in complex arithmetic.  A k that
    is zero or not finite raises InputError (``_refuse_k``) before any edge
    is evaluated.

    Zero, constant and point-interaction edges are evaluated together in
    closed form from the table's columns (error 0: a read-only broadcast,
    allocating nothing, when every chosen edge is one).  The smooth edges go
    through one ``_magnus_doubled`` batch over their (k, edge) rows, from
    the graph's samples, which gives each row its one-point result, and
    which raises NumericalError for the first row it leaves unresolved."""
    ks = np.asarray(ks)
    ks = ks.astype(complex if np.iscomplexobj(ks) else float)
    _refuse_k(ks)
    closed, lengths, slots, samples = _edge_table(g)
    # the chosen edges' places among the smooth edges (-1 on the others),
    # and the places of the smooth ones among the chosen
    at = ()
    if samples.pots:
        ids = slots[edges]
        at = np.flatnonzero(ids >= 0)
    if not len(at):
        columns = tuple(col[edges] for col in closed)
        m, dm, zeros = _closed(ks[:, None], *columns, want_dk, want_count)
        err = np.broadcast_to(0.0, (len(ks), len(columns[0])))
    else:
        z = np.empty((2, len(ks), len(at)), dtype=int) if want_count else None
        me, dme, err_at, _ = _magnus_doubled(samples, ids[at], ks, want_dk, z)
        if at.size == ids.size:
            m, dm = (None if x is None else x.reshape(4, *x.shape[2:]) for x in (me, dme))
            err, zeros = err_at, z
        else:
            shape = (len(ks), len(ids))
            m = np.empty((4, *shape), dtype=me.dtype)
            dm = np.empty_like(m) if want_dk else None
            zeros = np.empty((2, *shape), dtype=int) if want_count else None
            err = np.zeros(shape)
            err[:, at] = err_at
            rest = np.flatnonzero(ids < 0)
            columns = tuple(col[edges][rest] for col in closed)
            parts = [(at, me, dme, z), (rest, *_closed(ks[:, None], *columns, want_dk, want_count))]
            for places, pm, pdm, pz in parts:
                m[:, :, places] = np.reshape(pm, (4, len(ks), -1))
                if want_dk:
                    dm[:, :, places] = np.reshape(pdm, (4, len(ks), -1))
                if want_count:
                    zeros[:, :, places] = pz
    return EdgeSolution(ks[:, None], lengths[edges], tuple(m), dm, err, zeros)


def solve_edge(g: MetricGraph, e: int, k: complex, want_dk: bool = False) -> EdgeSolution:
    """The fundamental matrix M of edge ``e`` at ``k``, and M' = dM/dk when
    ``want_dk``: the one-point, one-edge case of ``_solve_edges``, which
    reads and adds to the graph's samples."""
    k = complex(k)
    sol = _solve_edges(g, np.array([k]), want_dk, edges=[e])
    m, dm = (None if x is None else tuple(complex(v[0, 0]) for v in x) for x in (sol.m, sol.dm))
    return EdgeSolution(k, g.edges[e].length, m, dm, float(sol.error_estimate[0, 0]))


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
    _, _, slots, samples = _edge_table(g)
    if slots[e] >= 0:
        n = _magnus_doubled(samples, slots[[e]], [k], False, None)[3]
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


def _den(sol: EdgeSolution):
    """den = m21 - ik (m11 + m22) - k^2 m12, the denominator of t,
    elementwise; SingularPointError at the first point, in array order,
    where it is below 1e-12 of the scale of M, a pole of t (off the real
    axis only: there |den| >= 2k and |den| >= k |psi(L)|)."""
    k = sol.k
    m11, m12, m21, m22 = sol.m
    # (psi, psi') = M (1, -ik), whose size sets the scale of the pole test
    psi, dpsi = m11 - 1j * k * m12, m21 - 1j * k * m22
    den = dpsi - 1j * k * psi
    scale = np.maximum(np.maximum(np.abs(dpsi), np.abs(k) * np.abs(psi)), np.abs(k))
    singular = np.abs(den) < 1e-12 * scale
    if singular.any():
        k = complex(np.broadcast_to(k, singular.shape)[singular][0])
        raise SingularPointError(f"transition-matrix parametrization singular at k={k}")
    return den


def _entries(sol: EdgeSolution):
    """Entries (trans, r_from, r_to) of t and their k-derivatives by the
    quotient rule on M' when ``sol`` carries it (else None), elementwise.
    A pole of t raises in ``_den`` before anything is divided."""
    k = sol.k
    m11, m12, m21, m22 = sol.m
    den = _den(sol)
    p, q = m21 + k * k * m12, 1j * k * (m11 - m22)
    t = (-2j * k / den, -(p - q) / den, -(p + q) / den)
    if sol.dm is None:
        return t, None
    d11, d12, d21, d22 = sol.dm
    dp = d21 + 2.0 * k * m12 + k * k * d12
    dq = 1j * (m11 - m22) + 1j * k * (d11 - d22)
    dden = d21 - 2.0 * k * m12 - k * k * d12 - 1j * (m11 + m22) - 1j * k * (d11 + d22)
    # (num / den)' = (num' - (num / den) den') / den, entry by entry
    dt = (-2j, -(dp - dq), -(dp + dq))
    return t, tuple((dn - x * dden) / den for dn, x in zip(dt, t))


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


def verify_subunitary(g: MetricGraph, e: int, k: float, eps: float) -> Tuple[bool, float]:
    """Whether t(k + i eps) of edge ``e`` is subunitary, and its spectral
    norm ||t||_2, the quantity checked (to 1e-12).

    Sigma is real orthogonal, so ||S|| <= ||T|| = max_e ||t_e||: a norm
    at most 1 on every edge is the edge-local condition under which the
    orbit expansion of the trace formula converges.  A spot check of one
    point; ``subunitarity_threshold`` gives the k above which it holds just
    off the real axis."""
    if eps <= 0:
        raise InputError("eps must be positive")
    norm = float(np.linalg.norm(transition_matrix(g, e, complex(k, eps)).matrix, 2))
    return norm <= 1.0 + 1e-12, norm


@dataclasses.dataclass(frozen=True)
class ThresholdInfo:
    """The subunitarity threshold K of a graph (``subunitarity_threshold``)
    and where its edges' t came from: "closed-form" when every edge with a
    potential is a point interaction or a constant, "sampled" when a
    smooth edge's t comes from the Magnus propagator at the grid's k."""

    K: float
    method: str


# threshold grid points per period pi / L_max of the edges' phases, and at
# least this many below the large-k bound
_K_POINTS = 32

# ThresholdInfo of each live graph, computed on first use
_THRESHOLDS: "weakref.WeakKeyDictionary[MetricGraph, ThresholdInfo]" = (
    weakref.WeakKeyDictionary()
)


def subunitarity_threshold(g: MetricGraph, detailed: bool = False):
    """The energy floor K above which every edge's t is subunitary just off
    the real axis, so that ||S(k + i eps)|| <= max_e ||t_e|| <= 1
    (``verify_subunitary``); with ``detailed``, the ThresholdInfo.  It is
    computed once per graph.

    The quantity checked is the smaller eigenvalue lambda(k) of each edge's
    Wigner-Smith matrix Q = -i t^H t' on the real axis: to first order in
    eps, ||t(k + i eps) v||^2 = ||v||^2 - 2 eps v^H Q v, so t is subunitary
    just above k where lambda(k) >= 0.  K is the largest k at which some
    lambda changes sign, 0 where none does.

    Write the solution for incoming amplitudes v, |v| = 1, as psi = alpha
    e^{ikx} + beta e^{-ikx} (variation of constants: alpha' = w psi
    e^{-ikx} / 2ik and beta' = -w psi e^{ikx} / 2ik), and A = |alpha|^2 +
    |beta|^2.  Smith's split, its interference term cancelled by the end
    terms of an integration by parts, gives

        v^H Q v = int A dx - Re[(1/ik) int (alpha conj(beta))' e^{2ikx} dx]
                = int A dx + (1 / 2k^2) int w |psi|^2 dx,

    where a point interaction contributes D |psi(x0)|^2 / 2k^2 to the last
    integral.  So Q > 0 at every k where w >= 0, and such edges are
    skipped: a potential-free edge (Q = L I), a constant c >= 0 and a point
    interaction with D >= 0.  A smooth edge is kept whatever its sign, as
    its samples cannot prove w >= 0.

    The large-k bound: with V = int |w| (plus |D| for a point interaction;
    ``_strength``) and s = V / k, |A'|
    <= 2 |w| A / k and A(0) + A(L) = 2 give e^{-2s} <= A <= e^{2s}, and the
    variation of alpha conj(beta) is at most s (1 + s/2) e^{2s}, so

        lambda(k) >= L e^{-2s} - s (1 + s/2) e^{2s} / k,

    which is positive where s^2 (1 + s/2) e^{4s} < L V.  At s = ln(1 +
    sqrt(L V)) / 3 the left side is below 0.23 L V, so no sign change lies
    above B = 3 V / ln(1 + sqrt(L V)).  The grid runs from K_FLOOR to the
    largest B, with spacing at most pi / (32 L_max) and at least 32
    points, in one batch of the edges kept (its first point
    alone, so that an edge the propagator cannot resolve raises after one
    point's step doubling).  The last bracket in which some lambda is
    negative is refined by ``spectrum._chandrupatla``.  A sign change that
    the grid steps over is missed.
    """
    info = _THRESHOLDS.get(g)
    if info is None:
        info = _THRESHOLDS[g] = _compute_threshold(g)
    return info if detailed else info.K


def _strength(e) -> float:
    """V of the threshold's large-k bound: |D| for a point interaction, else
    the integral of |w| over the edge."""
    pot = e.potential
    return abs(pot.strength) if pot.kind == "delta" else pot.abs_integral(e.length)


def _delay_floor(g: MetricGraph, ks: np.ndarray, edges: List[int]) -> np.ndarray:
    """The smaller eigenvalue of the Wigner-Smith matrix Q = -i t^H t' of
    the edges ``edges`` at every real k of ``ks``, (len(ks), len(edges)),
    from one ``_solve_edges``; an unresolved point raises, the first in (k,
    edge) order."""
    (tr, rf, rt), (dtr, drf, drt) = _entries(_solve_edges(g, ks, True, edges=edges))
    # t^H t' with t = [[tr, rt], [rf, tr]]; Q is Hermitian where t is
    # unitary, so its diagonal is the imaginary part of this one's, and the
    # off-diagonal entry is averaged with the conjugate of its mirror
    q11 = (tr.conj() * dtr + rf.conj() * drf).imag
    q22 = (rt.conj() * drt + tr.conj() * dtr).imag
    a12 = tr.conj() * drt + rf.conj() * dtr
    a21 = rt.conj() * dtr + tr.conj() * drf
    q12 = 0.5 * np.abs(a21.conj() - a12)
    return 0.5 * (q11 + q22) - np.hypot(0.5 * (q11 - q22), q12)


def _compute_threshold(g: MetricGraph) -> ThresholdInfo:
    from .spectrum import K_FLOOR, _chandrupatla  # spectrum imports this module

    # V of each edge whose w can be negative (smooth, a constant c < 0 or a
    # point interaction with D < 0): Q > 0 on the others
    strengths = {
        i: _strength(e)
        for i, e in enumerate(g.edges)
        if e.potential.kind == "smooth" or min(e.potential.value, e.potential.strength) < 0
    }
    live = [i for i, v in strengths.items() if v > 0]
    sampled = any(g.edges[i].potential.kind == "smooth" for i in live)
    method = "sampled" if sampled else "closed-form"
    if not live:
        return ThresholdInfo(0.0, method)
    # each edge's B, sqrt(L V) taken root by root so that a subnormal V
    # does not underflow it to 0
    bounds = [
        3.0 * strengths[i] / math.log1p(math.sqrt(g.edges[i].length) * math.sqrt(strengths[i]))
        for i in live
    ]
    top = max(K_FLOOR, *bounds)
    step = min(top, math.pi / max(g.edges[i].length for i in live)) / _K_POINTS
    ks = np.linspace(K_FLOOR, top, math.ceil((top - K_FLOOR) / step) + 1)
    # a smooth edge's first point alone: one that the propagator cannot
    # resolve raises after that point's step doubling
    parts = [ks[:1], ks[1:]] if sampled else [ks]
    lam = np.concatenate([_delay_floor(g, part, live) for part in parts])
    below = np.flatnonzero((lam < 0).any(axis=1))
    if not below.size:
        return ThresholdInfo(0.0, method)
    # the bound leaves every lambda positive at the grid's last point
    i = below[-1]
    cols = np.flatnonzero(lam[i] < 0)
    neg = [live[j] for j in cols]

    def floor(x, idx):
        return _delay_floor(g, x, neg).min(axis=1)

    (K,), _ = _chandrupatla(
        floor, ks[i : i + 1], ks[i + 1 : i + 2], [lam[i, cols].min()],
        [lam[i + 1, cols].min()], 1e-14 * ks[i + 1],
    )
    return ThresholdInfo(float(K), method)
