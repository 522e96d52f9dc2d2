"""High-energy WKB asymptotics on edges.

For k^2 well above the potential, the momentum p(x) = sqrt(k^2 - w(x))
is real and the leading solutions are psi_WKB+- = sqrt(p(0)/p(x))
exp(-+ i s(x)) with the action s(x) = integral of p.  The error is
driven by chi = w''/(4 p^4) + 5 (w')^2 / (16 p^6); iterating the
variation-of-constants formula

    eta_j(s) = - integral_0^s sin(s - u) chi(u) eta_{j-1}(u) du,
    eta_0 = e^{-i s}

produces corrections of order k^{-2j} as long as chi is small enough
for the iteration to contract.  Point interactions have no WKB regime
and are refused; so is any edge with a classical turning point.

The semiclassical pieces at the end package orbit data in which only
transmission survives: stability |prod sigma|, backscatter count from
negative vertex entries, the summed action, and the classical period
integral of k / p.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from .edge import TransitionMatrix, edge_profile
from .errors import InputError, NumericalError, TurningPointError
from .graph import MetricGraph
from .orbits import PeriodicOrbit, step_sigma
from .potential import eval_array

__all__ = [
    "WkbEdgeData",
    "SemiclassicalOrbitData",
    "wkb_solution",
    "wkb_correction",
    "wkb_profile",
    "wkb_transition",
    "wkb_wigner_delay",
    "semiclassical_trace_data",
    "compare_with_exact",
]

#: Required clearance of k^2 above the maximum of w.
_MARGIN = 1.0
_QUAD_TOL = 1e-12
_ETA_NODES = 32769


def _momentum(g: MetricGraph, e: int, k: float):
    """(w', p, chi, L) for edge e: callables and the edge length,
    validating the WKB regime."""
    edge = g.edges[e]
    pot = edge.potential
    L = edge.length
    if pot.kind == "delta":
        raise InputError(
            "WKB asymptotics are undefined across a point interaction"
        )
    if not math.isfinite(k * k):
        raise InputError(f"k = {k:.6g} has no finite k^2")
    top = pot.max_value(L)
    if k * k <= top + _MARGIN:
        raise TurningPointError(
            f"k^2 = {k * k:.6g} does not clear max w + margin = "
            f"{top + _MARGIN:.6g} on edge {edge.eid!r}; turning-point "
            "regime is out of scope"
        )
    w = pot.callable(L)

    def p(x):
        return np.sqrt(k * k - w(x))

    if pot.kind == "smooth":
        w1 = pot.tree.diff()
        w2 = w1.diff()

        def dw(x):
            return eval_array(w1, np.asarray(x, dtype=float))

        def chi(x):
            x = np.asarray(x, dtype=float)
            p2 = k * k - w(x)
            return 0.25 * eval_array(w2, x) / p2**2 + (5.0 / 16.0) * dw(x) ** 2 / p2**3

    else:

        def dw(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        chi = dw

    return dw, p, chi, L


@dataclasses.dataclass(frozen=True)
class WkbEdgeData:
    """WKB data of one edge at one k: action, endpoint values of the
    leading solutions, the derivative correction magnitude, and the
    size of the first iterative correction."""

    edge: str
    k: float
    length: float
    action: float
    action_error: float
    p0: float
    pL: float
    chi_sup: float
    psi_plus_L: complex
    psi_minus_L: complex
    deriv_plus_L: complex
    deriv_minus_L: complex
    deriv_correction: float
    eta1_sup: float


def _action(p, L: float) -> Tuple[float, float]:
    from scipy.integrate import quad

    val, err = quad(p, 0.0, L, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=500)
    return float(val), float(err)


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over the grid x, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _eta_grid(p, chi, L: float, j_max: int, n: int = _ETA_NODES):
    """Dense-grid evaluation of the correction recursion.

    Returns (xs, s, [eta_1, ..., eta_j_max]); integrals in the action
    variable u are pulled back to x with du = p dx and accumulated by
    trapezoids, so each level costs one pass over the grid.
    """
    xs = np.linspace(0.0, L, n)
    pv = p(xs)
    chiv = chi(xs)
    s = _cumulative_trapezoid(pv, xs)
    sin_s, cos_s = np.sin(s), np.cos(s)
    eta = np.exp(-1j * s)
    levels: List[np.ndarray] = []
    for _ in range(j_max):
        f = chiv * eta * pv
        c_int = _cumulative_trapezoid(cos_s * f, xs)
        s_int = _cumulative_trapezoid(sin_s * f, xs)
        eta = -(sin_s * c_int - cos_s * s_int)
        levels.append(eta)
    return xs, s, levels


class _EdgeWkb(NamedTuple):
    """The WKB set-up of one edge at one k, built once and shared by the
    solution data and the profiles: ``_momentum``'s callables and length,
    and the dense ``_eta_grid`` with its levels."""

    dw: Callable
    p: Callable
    chi: Callable
    L: float
    xs: np.ndarray
    s: np.ndarray
    levels: List[np.ndarray]


def _edge_wkb(g: MetricGraph, e: int, k: float, j_max: int) -> _EdgeWkb:
    dw, p, chi, L = _momentum(g, e, k)
    return _EdgeWkb(dw, p, chi, L, *_eta_grid(p, chi, L, j_max))


def wkb_solution(g: MetricGraph, e: int, k: float) -> WkbEdgeData:
    """Leading WKB data for edge e at k (forward orientation).

    The action integral is adaptive quadrature at 1e-12; the endpoint
    derivative of the WKB form is reported together with how far it
    sits from the plane-wave approximation -ik psi.
    """
    return _solution(g, e, k, _edge_wkb(g, e, k, 1))


def _solution(g: MetricGraph, e: int, k: float, w: _EdgeWkb) -> WkbEdgeData:
    p, L = w.p, w.L
    action, err = _action(p, L)
    p0 = float(p(0.0))
    pL = float(p(L))
    amp = math.sqrt(p0 / pL)
    psi_p = amp * complex(math.cos(action), -math.sin(action))
    psi_m = amp * complex(math.cos(action), math.sin(action))
    dp_L = -float(w.dw(L)) / (2.0 * pL)  # p' = -w'/(2p)
    damp = -dp_L / (2.0 * pL)  # d/dx log of the amplitude factor
    deriv_p = (damp - 1j * pL) * psi_p
    deriv_m = (damp + 1j * pL) * psi_m
    eta1_sup = float(np.max(np.abs(w.levels[0])))
    if eta1_sup >= 1.0:
        raise NumericalError(
            f"first correction does not contract: sup|eta_1| = "
            f"{eta1_sup:.3e} >= 1; the expansion is unreliable for this "
            f"potential at k = {k:g}"
        )
    chi_sup = float(np.max(np.abs(w.chi(w.xs))))
    return WkbEdgeData(
        edge=g.edges[e].eid,
        k=float(k),
        length=L,
        action=action,
        action_error=err,
        p0=p0,
        pL=pL,
        chi_sup=chi_sup,
        psi_plus_L=psi_p,
        psi_minus_L=psi_m,
        deriv_plus_L=deriv_p,
        deriv_minus_L=deriv_m,
        deriv_correction=abs(deriv_p - (-1j * k * psi_p)),
        eta1_sup=eta1_sup,
    )


def wkb_correction(g: MetricGraph, e: int, k: float, j: int) -> float:
    """sup |eta_j| over the edge, j in {1, 2}.

    Raises when the iteration fails to contract (each level must be
    strictly smaller than the one before; eta_0 has sup 1)."""
    if j not in (1, 2):
        raise InputError("correction order j must be 1 or 2")
    levels = _edge_wkb(g, e, k, j).levels
    prev = 1.0
    for level in levels:
        sup = float(np.max(np.abs(level)))
        if sup >= prev:
            raise NumericalError(
                f"correction iteration is not contracting: sup|eta| grew "
                f"from {prev:.3e} to {sup:.3e}"
            )
        prev = sup
    return prev


def wkb_profile(
    g: MetricGraph, e: int, k: float, xs, corrected: bool = False
) -> np.ndarray:
    """psi_WKB+ sampled at xs; corrected=True adds the first correction
    eta_1 inside the amplitude envelope."""
    return _profile(_edge_wkb(g, e, k, int(corrected)), xs, corrected)


def _profile(w: _EdgeWkb, xs, corrected: bool) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0 or np.any(xs < -1e-12) or np.any(xs > w.L + 1e-12):
        raise InputError("xs must lie within [0, L]")
    s = np.interp(xs, w.xs, w.s)
    phase = np.exp(-1j * s)
    if corrected:
        eta = w.levels[0]
        phase = phase + np.interp(xs, w.xs, eta.real) + 1j * np.interp(
            xs, w.xs, eta.imag
        )
    p0 = float(w.p(0.0))
    return np.sqrt(p0 / w.p(xs)) * phase


def wkb_transition(g: MetricGraph, e: int, k: float) -> TransitionMatrix:
    """Leading-order transition matrix diag(e^{i s(L)}); the reflection
    entries are dropped (they are O(k^-2) in this regime)."""
    data = wkb_solution(g, e, k)
    trans = complex(math.cos(data.action), math.sin(data.action))
    return TransitionMatrix(
        k=complex(k), length=data.length, trans=trans, r_from=0.0, r_to=0.0
    )


def _period(p, L: float, k: float) -> float:
    """Classical traversal time integral k / p over [0, L]."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda x: k / float(p(x)), 0.0, L, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
        limit=500,
    )
    return float(val)


def wkb_wigner_delay(g: MetricGraph, k: float) -> float:
    """Semiclassical time delay: sum over directed edges of the
    classical traversal time, i.e. twice the per-edge sum."""
    momenta = (_momentum(g, e, k) for e in range(len(g.edges)))
    return 2.0 * sum(_period(p, L, k) for _, p, _, L in momenta)


@dataclasses.dataclass(frozen=True)
class SemiclassicalOrbitData:
    """Per-primitive-orbit semiclassical data: stability amplitude,
    backscatter count, action, classical period, and the repetition
    count of the orbit it was derived from."""

    amplitude: float
    backscatter_count: int
    action: float
    period: float
    repetitions: int

    def __post_init__(self) -> None:
        if not (0.0 < self.amplitude <= 1.0 + 1e-12):
            raise NumericalError(
                f"stability amplitude {self.amplitude:g} outside (0, 1]"
            )

    @property
    def estimate(self) -> float:
        """T * A^r * cos((S + pi*nu) * r), the semiclassical stand-in for
        the exact orbit amplitude."""
        r = self.repetitions
        return (
            self.period
            * self.amplitude**r
            * math.cos((self.action + math.pi * self.backscatter_count) * r)
        )


def semiclassical_trace_data(
    p_orbit: PeriodicOrbit, g: MetricGraph, k: float
) -> SemiclassicalOrbitData:
    """Stability, backscatter count, action and period of the orbit's
    primitive, evaluated at k.  Only transmission orbits survive in the
    WKB regime; reflecting orbits are rejected."""
    if any(kind != "transmit" for kind in p_orbit.kinds):
        raise InputError(
            "semiclassical data is defined for transmission-only orbits"
        )
    prim = p_orbit.primitive()
    actions: Dict[int, float] = {}
    periods: Dict[int, float] = {}
    amplitude = 1.0
    backscatters = 0
    action = 0.0
    period = 0.0
    for i, s in enumerate(prim.states):
        r = prim.states[(i + 1) % prim.n]
        sig = step_sigma(g, s, r, "transmit")
        amplitude *= abs(sig)
        if sig < 0:
            backscatters += 1
        e = s // 2
        if e not in actions:
            _, p, _, L = _momentum(g, e, k)
            actions[e], _ = _action(p, L)
            periods[e] = _period(p, L, k)
        action += actions[e]
        period += periods[e]
    return SemiclassicalOrbitData(
        amplitude=amplitude,
        backscatter_count=backscatters,
        action=action,
        period=period,
        repetitions=p_orbit.repetitions,
    )


_COMPARE_POINTS = 513  # grid points on the edge for compare_with_exact


def compare_with_exact(g: MetricGraph, e: int, k: float) -> Dict[str, float]:
    """Deviation of the WKB solutions from the integrated one on a grid.

    Two comparisons are reported.  "deviation"/"corrected_deviation"
    measure against the standard left-incoming solution (initial slope
    -ik), whose O(1/k) slope mismatch at x = 0 dominates; both are
    O(k^-2).  "matched_deviation"/"matched_corrected_deviation" measure
    against the exact solution sharing the WKB initial data, which
    isolates the interior propagation error: the plain gap tracks
    sup |eta_1| and the corrected gap drops to the eta_2 scale.
    """
    xs = np.linspace(0.0, g.edges[e].length, _COMPARE_POINTS)
    exact = edge_profile(g, e, k, xs)
    w = _edge_wkb(g, e, k, 1)
    plain = _profile(w, xs, corrected=False)
    corr = _profile(w, xs, corrected=True)
    data = _solution(g, e, k, w)

    # Exact solution with the WKB initial data (value 1, slope
    # damp(0) - i p(0)); for a real potential at real k the two
    # standard solutions are conjugates, so it is a combination of the
    # integrated profile and its conjugate.
    p0 = float(w.p(0.0))
    dp0 = -float(w.dw(0.0)) / (2.0 * p0)
    slope0 = complex(-dp0 / (2.0 * p0), -p0)
    beta = 0.5 * (1.0 + slope0 / (1j * k))
    matched = (1.0 - beta) * exact + beta * np.conj(exact)
    return {
        "k": float(k),
        "deviation": float(np.max(np.abs(exact - plain))),
        "corrected_deviation": float(np.max(np.abs(exact - corr))),
        "matched_deviation": float(np.max(np.abs(matched - plain))),
        "matched_corrected_deviation": float(np.max(np.abs(matched - corr))),
        "eta1_sup": data.eta1_sup,
        "action": data.action,
    }
