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

The edge record ``WkbEdgeData`` holds the action s(L), the error estimate
of its quadrature and sup |eta_1|.  Actions and periods share one
quadrature (``_integral``: one panel of nested Clenshaw-Curtis rules, an
edge's action and period two rows of one integrand), the eta_j one
contraction check (``_contraction``).  On zero and constant edges chi =
0, so every eta_j vanishes and the WKB form is exact.  k must be
positive.

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
from .errors import InputError, NumericalError, TurningPointError, _index
from .graph import MetricGraph
from .orbits import PeriodicOrbit, _nested_quadrature, step_sigma
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
    if np.iscomplexobj(k):
        raise InputError("WKB data are defined for real k")
    if not math.isfinite(k * k):
        raise InputError(f"k = {k:.6g} has no finite k^2")
    if k <= 0:
        raise InputError(f"k = {k:.6g} is not positive")
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
    """WKB data of one edge at one k: the action s(L) with the error
    estimate of its quadrature, and sup |eta_1|, the size of the first
    iterative correction."""

    edge: str
    k: float
    length: float
    action: float
    action_error: float
    eta1_sup: float


def _integral(f, L: float) -> Tuple[np.ndarray, np.ndarray]:
    """Integrals over [0, L] of the rows of f, which maps a 1-D array of x
    to the (rows, x.size) integrand values, and their error estimates: one
    panel of ``orbits._nested_quadrature``, whose rules double until two
    agree within 1e-12 on every row."""
    return _nested_quadrature(f, 0.0, L, 1)[:2]


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over the grid x, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _eta_grid(p, chi, L: float, j_max: int):
    """Dense-grid evaluation of the correction recursion.

    Returns (xs, s, [eta_1, ..., eta_j_max]); integrals in the action
    variable u are pulled back to x with du = p dx and accumulated by
    trapezoids, so each level costs one pass over the grid.
    """
    xs = np.linspace(0.0, L, _ETA_NODES)
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
    solution data and the profiles: ``_momentum``'s w', p and length, and
    the dense ``_eta_grid`` with its levels."""

    dw: Callable
    p: Callable
    L: float
    xs: np.ndarray
    s: np.ndarray
    levels: List[np.ndarray]


def _edge_wkb(g: MetricGraph, e: int, k: float, j_max: int) -> _EdgeWkb:
    dw, p, chi, L = _momentum(g, e, k)
    return _EdgeWkb(dw, p, L, *_eta_grid(p, chi, L, j_max))


def _contraction(levels: List[np.ndarray], k: float) -> List[float]:
    """sup |eta_j| of each level, raising where the iteration does not
    contract: a nonzero level must stay below the one before (eta_0 has
    sup 1).  A zero level is exact, as on zero and constant edges."""
    sups = [float(np.max(np.abs(level))) for level in levels]
    for j, (prev, sup) in enumerate(zip([1.0] + sups, sups), 1):
        if sup and sup >= prev:
            raise NumericalError(
                f"correction iteration does not contract: sup|eta_{j}| = "
                f"{sup:.3e} >= {prev:.3e}; the expansion is unreliable for "
                f"this potential at k = {k:g}"
            )
    return sups


def wkb_solution(g: MetricGraph, e: int, k: float) -> WkbEdgeData:
    """Leading WKB data for edge e at k > 0 (forward orientation): the
    action by nested Clenshaw-Curtis quadrature at 1e-12 with its error
    estimate, and sup |eta_1|, refused when it is not below 1."""
    return _solution(g, e, k, _edge_wkb(g, e, k, 1))


def _solution(g: MetricGraph, e: int, k: float, w: _EdgeWkb) -> WkbEdgeData:
    action, err = _integral(lambda x: w.p(x)[None], w.L)
    return WkbEdgeData(
        edge=g.edges[e].eid,
        k=float(k),
        length=w.L,
        action=float(action[0]),
        action_error=float(err[0]),
        eta1_sup=_contraction(w.levels, k)[0],
    )


def wkb_correction(g: MetricGraph, e: int, k: float, j: int) -> float:
    """sup |eta_j| over the edge, j in {1, 2}; 0.0 on zero and constant
    edges, where the WKB form is exact.

    Raises when the iteration fails to contract (each nonzero level must
    be strictly smaller than the one before; eta_0 has sup 1)."""
    message = "correction order j must be 1 or 2"
    j = _index(j, 1, message)
    if j > 2:
        raise InputError(message)
    return _contraction(_edge_wkb(g, e, k, j).levels, k)[-1]


def wkb_profile(
    g: MetricGraph, e: int, k: float, xs, corrected: bool = False
) -> np.ndarray:
    """psi_WKB+ sampled at xs; corrected=True adds the first correction
    eta_1 inside the amplitude envelope."""
    return _profile(_edge_wkb(g, e, k, int(corrected)), xs, corrected)


def _profile(w: _EdgeWkb, xs, corrected: bool) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0 or not np.all((-1e-12 <= xs) & (xs <= w.L + 1e-12)):
        raise InputError("xs must be finite and lie within [0, L]")
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


def wkb_wigner_delay(g: MetricGraph, k: float) -> float:
    """Semiclassical time delay: sum over directed edges of the
    classical traversal time integral k / p, i.e. twice the per-edge sum."""
    momenta = (_momentum(g, e, k) for e in range(len(g.edges)))
    return 2.0 * sum(
        float(_integral(lambda x, p=p: (k / p(x))[None], L)[0][0]) for _, p, _, L in momenta
    )


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
            actions[e], periods[e] = _integral(lambda x: np.array([p(x), k / p(x)]), L)[0].tolist()
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
    w = _edge_wkb(g, e, k, 1)
    xs = np.linspace(0.0, w.L, _COMPARE_POINTS)
    exact = edge_profile(g, e, k, xs)
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
