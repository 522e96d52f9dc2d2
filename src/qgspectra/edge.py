"""Edge solutions and 2x2 transition matrices.

For one edge of length L carrying a potential w, the two normalized
solutions of -psi'' + w psi = k^2 psi are fixed by psi(0) = 1 and
psi'(0) = -ik (plus branch) or +ik (minus branch).  Their Wronskian is 2ik
identically.  Boundary data at x = L determines the 2x2 transition matrix

    t = [[trans, r_to], [r_from, trans]]

whose entries are, with den = psi_plus'(L) - ik psi_plus(L):

    trans  = -2ik / den
    r_from = -(psi_minus'(L) - ik psi_minus(L)) / den
    r_to   = -(psi_plus'(L)  + ik psi_plus(L))  / den

r_from is the reflection seen from the edge's "from" end, r_to from the "to"
end; trans is direction-independent.  t is unitary for real k, and its
eigenvalue moduli dip below 1 just above the real axis once k clears the
subunitarity threshold of the potential.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

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
]

_DEFAULT_TOL = 1e-10
_CHECKPOINTS = 33


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
    # max |W(x) - 2ik| over integration checkpoints (0 for closed forms)
    wronskian_dev: float = 0.0

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
        m = self.matrix
        return float(np.linalg.norm(m.conj().T @ m - np.eye(2), 2))


# ---------------------------------------------------------------------------
# closed-form boundary data
# ---------------------------------------------------------------------------


def _boundary_zero(k: complex, L: float, sign: int, want_dk: bool):
    # sign = +1 for psi_plus (e^{-ikx}), -1 for psi_minus (e^{+ikx})
    s = -1j * sign
    ph = cmath.exp(s * k * L)
    psi, dpsi = ph, s * k * ph
    if not want_dk:
        return psi, dpsi, None, None
    return psi, dpsi, s * L * ph, (s + s * k * s * L) * ph


def _sinc_c(z: complex) -> complex:
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sin(z) / z


def _boundary_constant(k: complex, L: float, c: float, sign: int, want_dk: bool):
    # psi = cos(qx) -+ ik sin(qx)/q with q^2 = k^2 - c; even in q, so the
    # sqrt branch is irrelevant and q -> 0 is removable.
    e = k * k - c
    q = cmath.sqrt(e)
    cq = cmath.cos(q * L)
    snc = L * _sinc_c(q * L)  # sin(qL)/q
    i_k = 1j * k * sign
    psi = cq - i_k * snc
    dpsi = -e * snc - i_k * cq
    if not want_dk:
        return psi, dpsi, None, None
    # d/dk cos(qL) = -kL sin(qL)/q = -k L snc ; d/dk [sin(qL)/q] below
    dcq = -k * L * snc
    if abs(e) < 1e-8:
        dsnc = k * (-(L**3) / 3.0)
    else:
        dsnc = k * (L * cq - snc) / e
    dpsi_k = dcq - 1j * sign * snc - i_k * dsnc
    ddpsi_k = -2 * k * snc - e * dsnc - 1j * sign * cq - i_k * dcq
    return psi, dpsi, dpsi_k, ddpsi_k


def _boundary_delta(
    k: complex, L: float, D: float, x0: float, sign: int, want_dk: bool
):
    # Plane wave up to the scatterer, then a transmitted/reflected pair fixed
    # by continuity and the derivative jump psi'(x0+) - psi'(x0-) = D psi(x0).
    s = -1j * sign  # psi ~ e^{s k x} before the jump
    b = D / (2j * k)
    if L < x0:
        ph = cmath.exp(s * k * L)
        psi, dpsi = ph, s * k * ph
        if not want_dk:
            return psi, dpsi, None, None
        return psi, dpsi, s * L * ph, (s + s * k * s * L) * ph
    if sign > 0:  # psi_plus: b e^{-2ikx0} e^{ikx} + (1 - b) e^{-ikx} after x0
        a = b * cmath.exp(-2j * k * x0)
        c0 = 1 - b
        psi = a * cmath.exp(1j * k * L) + c0 * cmath.exp(-1j * k * L)
        dpsi = 1j * k * a * cmath.exp(1j * k * L) - 1j * k * c0 * cmath.exp(-1j * k * L)
        if not want_dk:
            return psi, dpsi, None, None
        db = -b / k
        da = db * cmath.exp(-2j * k * x0) + a * (-2j * x0)
        dc0 = -db
        eP, eM = cmath.exp(1j * k * L), cmath.exp(-1j * k * L)
        dpsi_k = da * eP + a * 1j * L * eP + dc0 * eM - c0 * 1j * L * eM
        ddpsi_k = (
            1j * a * eP
            + 1j * k * (da * eP + a * 1j * L * eP)
            - 1j * c0 * eM
            - 1j * k * (dc0 * eM - c0 * 1j * L * eM)
        )
        return psi, dpsi, dpsi_k, ddpsi_k
    # psi_minus: alpha e^{ikx} + beta e^{-ikx} after the jump
    alpha = 1 + b
    beta = -b * cmath.exp(2j * k * x0)
    eP, eM = cmath.exp(1j * k * L), cmath.exp(-1j * k * L)
    psi = alpha * eP + beta * eM
    dpsi = 1j * k * alpha * eP - 1j * k * beta * eM
    if not want_dk:
        return psi, dpsi, None, None
    db = -b / k
    dalpha = db
    dbeta = -db * cmath.exp(2j * k * x0) + beta * (2j * x0)
    dpsi_k = dalpha * eP + alpha * 1j * L * eP + dbeta * eM - beta * 1j * L * eM
    ddpsi_k = (
        1j * alpha * eP
        + 1j * k * (dalpha * eP + alpha * 1j * L * eP)
        - 1j * beta * eM
        - 1j * k * (dbeta * eM - beta * 1j * L * eM)
    )
    return psi, dpsi, dpsi_k, ddpsi_k


# ---------------------------------------------------------------------------
# smooth potentials: adaptive integration of the first-order system
# ---------------------------------------------------------------------------


def _integrate_smooth(
    pot: Potential,
    L: float,
    k: complex,
    sign: int,
    want_dk: bool,
    rtol: float,
    atol: float,
):
    w = pot.callable(L)
    k2 = k * k

    if want_dk:

        def rhs(x, y):
            wx = w(x)
            return [
                y[1],
                (wx - k2) * y[0],
                y[3],
                (wx - k2) * y[2] - 2 * k * y[0],
            ]

        y0 = [1.0 + 0j, -1j * k * sign, 0.0 + 0j, -1j * sign]
    else:

        def rhs(x, y):
            return [y[1], (w(x) - k2) * y[0]]

        y0 = [1.0 + 0j, -1j * k * sign]

    sol = solve_ivp(
        rhs,
        (0.0, L),
        np.asarray(y0, dtype=complex),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
        t_eval=np.linspace(0.0, L, _CHECKPOINTS),
    )
    if not sol.success:
        raise NumericalError(f"edge integration failed: {sol.message}")
    return sol


def solve_edge(
    g: MetricGraph,
    e: int,
    k: complex,
    want_dk: bool = False,
    reverse: bool = False,
    rtol: float = _DEFAULT_TOL,
    atol: float = _DEFAULT_TOL,
) -> EdgeSolution:
    """Boundary data of the normalized solution pair on edge ``e`` at ``k``.

    ``reverse=True`` solves the direction-reversed edge (reflected
    potential).  ``want_dk`` integrates/differentiates the k-variation as
    well.  k = 0 is rejected: the two normalized solutions degenerate there.
    """
    if k == 0:
        raise InputError("k=0: the normalized solution pair degenerates")
    edge = g.edges[e]
    L = edge.length
    pot = orient(edge.potential, reverse, L)
    k = complex(k)
    real_k = k.imag == 0.0

    if pot.kind in ("zero", "constant", "delta"):
        out = {}
        for sign in (+1, -1):
            if pot.kind == "zero":
                out[sign] = _boundary_zero(k, L, sign, want_dk)
            elif pot.kind == "constant":
                out[sign] = _boundary_constant(k, L, pot.value, sign, want_dk)
            else:
                out[sign] = _boundary_delta(
                    k, L, pot.strength, pot.position, sign, want_dk
                )
        (pp, dpp, kpp, kdpp), (pm, dpm, kpm, kdpm) = out[+1], out[-1]
        return EdgeSolution(k, L, pp, dpp, pm, dpm, kpp, kdpp, kpm, kdpm, 0.0)

    sol_p = _integrate_smooth(pot, L, k, +1, want_dk, rtol, atol)
    if real_k:
        # psi_minus = conj(psi_plus) pointwise for real k and real w
        psi_p_path, dpsi_p_path = sol_p.y[0], sol_p.y[1]
        psi_m_path, dpsi_m_path = psi_p_path.conj(), dpsi_p_path.conj()
        kp = kdp = km = kdm = None
        if want_dk:
            kp, kdp = sol_p.y[2][-1], sol_p.y[3][-1]
            km, kdm = kp.conjugate(), kdp.conjugate()
    else:
        sol_m = _integrate_smooth(pot, L, k, -1, want_dk, rtol, atol)
        psi_p_path, dpsi_p_path = sol_p.y[0], sol_p.y[1]
        psi_m_path, dpsi_m_path = sol_m.y[0], sol_m.y[1]
        kp = kdp = km = kdm = None
        if want_dk:
            kp, kdp = sol_p.y[2][-1], sol_p.y[3][-1]
            km, kdm = sol_m.y[2][-1], sol_m.y[3][-1]

    wr = psi_p_path * dpsi_m_path - dpsi_p_path * psi_m_path
    wdev = float(np.max(np.abs(wr - 2j * k)))
    return EdgeSolution(
        k,
        L,
        psi_p_path[-1],
        dpsi_p_path[-1],
        psi_m_path[-1],
        dpsi_m_path[-1],
        kp,
        kdp,
        km,
        kdm,
        wdev,
    )


def edge_profile(
    g: MetricGraph,
    e: int,
    k: complex,
    xs,
    reverse: bool = False,
    rtol: float = _DEFAULT_TOL,
    atol: float = _DEFAULT_TOL,
) -> np.ndarray:
    """psi_plus sampled at increasing positions ``xs`` along edge ``e``
    (x = 0 is the "from" end; ``reverse=True`` flips the orientation)."""
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

    if pot.kind == "zero":
        return np.exp(-1j * k * xs)
    if pot.kind == "constant":
        en = k * k - pot.value
        q = np.sqrt(complex(en))
        if abs(en) < 1e-12:
            snc = xs * (1.0 - en * xs * xs / 6.0)
        else:
            snc = np.sin(q * xs) / q
        return np.cos(q * xs) - 1j * k * snc
    if pot.kind == "delta":
        b = pot.strength / (2j * k)
        x0 = pot.position
        out = np.exp(-1j * k * xs).astype(complex)
        after = xs > x0
        a = b * np.exp(-2j * k * x0)
        out[after] = a * np.exp(1j * k * xs[after]) + (1 - b) * np.exp(
            -1j * k * xs[after]
        )
        return out

    w = pot.callable(L)
    k2 = k * k

    def rhs(x, y):
        return [y[1], (w(x) - k2) * y[0]]

    sol = solve_ivp(
        rhs,
        (0.0, L),
        np.asarray([1.0 + 0j, -1j * k], dtype=complex),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=np.clip(xs, 0.0, L),
    )
    if not sol.success:
        raise NumericalError(f"edge integration failed: {sol.message}")
    return sol.y[0]


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def _entries(sol: EdgeSolution):
    """Entries (trans, r_from, r_to) of t, and their k-derivatives by the
    quotient rule on the boundary data when ``sol`` carries them (else
    None)."""
    k = sol.k
    den = sol.dpsi_p - 1j * k * sol.psi_p
    scale = max(abs(sol.dpsi_p), abs(k) * abs(sol.psi_p), abs(k))
    if abs(den) < 1e-12 * scale:
        raise SingularPointError(
            f"transition-matrix parametrization singular at k={k}"
        )
    trans = -2j * k / den
    num_f = -(sol.dpsi_m - 1j * k * sol.psi_m)
    num_t = -(sol.dpsi_p + 1j * k * sol.psi_p)
    t = (trans, num_f / den, num_t / den)
    if sol.dk_psi_p is None:
        return t, None
    dden = sol.dk_dpsi_p - 1j * sol.psi_p - 1j * k * sol.dk_psi_p
    dtrans = -2j / den + 2j * k * dden / (den * den)
    dnum_f = -(sol.dk_dpsi_m - 1j * sol.psi_m - 1j * k * sol.dk_psi_m)
    dr_from = (dnum_f * den - num_f * dden) / (den * den)
    dnum_t = -(sol.dk_dpsi_p + 1j * sol.psi_p + 1j * k * sol.dk_psi_p)
    dr_to = (dnum_t * den - num_t * dden) / (den * den)
    return t, (dtrans, dr_from, dr_to)


def transition_matrix(
    g: MetricGraph,
    e: int,
    k: complex,
    rtol: float = _DEFAULT_TOL,
    atol: float = _DEFAULT_TOL,
) -> TransitionMatrix:
    sol = solve_edge(g, e, k, rtol=rtol, atol=atol)
    (trans, r_from, r_to), _ = _entries(sol)
    return TransitionMatrix(complex(k), sol.length, trans, r_from, r_to)


def transition_matrix_dk(
    g: MetricGraph,
    e: int,
    k: complex,
    rtol: float = _DEFAULT_TOL,
    atol: float = _DEFAULT_TOL,
) -> np.ndarray:
    """d/dk of the 2x2 transition matrix, by the quotient rule on the
    boundary data (exact k-derivatives for the closed-form variants, the
    variational system for smooth ones)."""
    sol = solve_edge(g, e, k, want_dk=True, rtol=rtol, atol=atol)
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
    return max_mod <= 1.0 + 1e-12, max_mod


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


def subunitarity_threshold(g: MetricGraph, detailed: bool = False):
    """Energy floor K above which every edge matrix is subunitary just off
    the real axis.

    Zero and delta potentials have a closed form (K = 0 for nonnegative
    strengths).  Constant/smooth potentials get an empirical scan: the
    smallest grid value above the classical barrier sqrt(sup w+) for which
    subunitarity holds over an eps grid and 32 consecutive k samples.  The
    scanned value is a heuristic and is flagged as such.
    """
    cached = getattr(g, "_threshold_cache", None)
    if cached is None:
        cached = _compute_threshold(g)
        g._threshold_cache = cached
    return cached if detailed else cached.K


def _compute_threshold(g: MetricGraph) -> ThresholdInfo:
    closed = 0.0
    needs_scan = False
    floor = 0.0
    for e in g.edges:
        pot = e.potential
        if pot.kind == "zero":
            continue
        if pot.kind == "delta":
            closed = max(closed, _delta_threshold(pot.strength, e.length))
        else:
            needs_scan = True
            floor = max(floor, math.sqrt(pot.sup_plus(e.length)))
    if not needs_scan:
        return ThresholdInfo(closed, "closed-form")

    scan_edges = [
        e.index for e in g.edges if e.potential.kind in ("constant", "smooth")
    ]
    start = max(floor, closed)
    base = math.ceil(start / _K_GRID_STEP) * _K_GRID_STEP
    for j in range(_K_MAX_CANDIDATES):
        cand = base + j * _K_GRID_STEP
        ok = True
        for m in range(1, _K_CONSECUTIVE + 1):
            ks = cand + m * _K_GRID_STEP
            for eps in _EPS_GRID:
                for e in scan_edges:
                    good, _ = verify_subunitary(g, e, ks, eps)
                    if not good:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return ThresholdInfo(max(cand, closed), "heuristic-scan")
    raise NumericalError("no subunitarity threshold found within scan budget")
