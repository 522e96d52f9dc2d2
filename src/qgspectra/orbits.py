"""Periodic orbits and the exact trace-formula check.

Orbits are closed admissible walks in the directed-edge alphabet; one
step of the big scattering matrix S moves from a directed edge s to a
directed edge r either by transmitting through s's edge and scattering
at the far vertex, or by reflecting off the edge potential and
scattering at the near vertex.  Self-loops are excluded upstream, so
every admissible (s, r) pair has exactly one of the two step types and
the step weight tau = S[r, s] factorizes as (vertex entry) x
(edge-matrix entry); its k-derivative is S'[r, s].

With that alphabet, the class sum identity

    tr S(k)^n = sum over cyclic classes p with n_p = n of
                n_primitive(p) * prod of step weights

holds exactly, which is what orbit_sum_check verifies against dense
matrix powers.  Differentiating it, the orbit amplitudes
A_p = (n_primitive/n) Im d/dk prod tau of the classes of length n add up
to (1/n) Im d/dk tr S^n = Im tr(S^{n-1} S').  The trace-formula check
integrates Gaussian test functions against the phase derivative (Weyl
term) and takes its orbit term, (1/pi) integral of phi times
sum_{n <= N} Im tr(S^{n-1} S'), from those matrix traces, so its cutoff
N is not bounded by the enumeration budget.  Enumeration serves the
orbit table, orbit_sum_check and the WKB orbit data.  It is one
depth-first walk per least state, over every length up to n_max at
once, on an explicit stack (no recursion), and it stops with
NumericalError after _PATH_BUDGET partial paths.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .edge import subunitarity_threshold
from .errors import InputError, NumericalError, _index
from .graph import MetricGraph
from .scattering import _theta_prime, assemble_S, assemble_T, big_sigma, theta_prime
from .spectrum import K_FLOOR, ScanConfig, scan_spectrum

__all__ = [
    "PeriodicOrbit",
    "TestFunction",
    "TraceReport",
    "enumerate_orbits",
    "orbit_weight",
    "orbit_amplitude",
    "orbit_sum_check",
    "structural_step_matrix",
    "step_sigma",
    "trace_check",
    "wigner_delay",
]


def _reflecting(pot) -> bool:
    """Can this potential backscatter at all (structurally)?"""
    if pot.kind == "zero":
        return False
    if pot.kind == "delta":
        return pot.strength != 0.0
    if pot.kind == "constant":
        return pot.value != 0.0
    return True


def _step_table(g: MetricGraph) -> List[List[Tuple[int, str]]]:
    """Admissible S-steps out of each directed edge s as (target, kind),
    read from the vertex coupling big_sigma(g).

    kind "transmit": cross the edge and scatter at tau(s) into r, where
    the coupling Sigma[r, s^1] is nonzero (it vanishes back into the
    reversed edge at a degree-2 vertex).  kind "reflect": bounce off the
    edge potential, which must reflect, and scatter at iota(s) into r,
    where Sigma[r, s] is nonzero.
    """
    sigma = big_sigma(g).tolist()
    table = []
    for s in range(g.num_directed):
        out = [(r, "transmit") for r in g.out_directions(g.tau(s)) if sigma[r][s ^ 1]]
        if _reflecting(g.edge_of(s).potential):
            out += [(r, "reflect") for r in g.out_directions(g.iota(s)) if sigma[r][s]]
        table.append(out)
    return table


def structural_step_matrix(g: MetricGraph) -> np.ndarray:
    """0/1 pattern of admissible S-steps (rows = target, cols = source)."""
    n = 2 * len(g.edges)
    a = np.zeros((n, n), dtype=int)
    for s, out in enumerate(_step_table(g)):
        for r, _ in out:
            a[r, s] = 1
    return a


@dataclasses.dataclass(frozen=True)
class PeriodicOrbit:
    """A cyclic class of closed admissible walks.

    states[i] is the directed edge occupied before step i; step i goes
    states[i] -> states[(i+1) % n] with the recorded kind.  The class is
    identified by the lexicographically minimal rotation (key).
    """

    states: Tuple[int, ...]
    kinds: Tuple[str, ...]
    n: int
    n_primitive: int
    repetitions: int
    key: Tuple[int, ...]

    def primitive(self) -> "PeriodicOrbit":
        if self.repetitions == 1:
            return self
        m = self.n_primitive
        return _orbit(self.states[:m], self.kinds[:m], _min_rotation(self.states[:m]))


def _min_rotation(seq: Tuple[int, ...]) -> Tuple[int, ...]:
    """Least rotation of seq; only a rotation starting at its least
    element can be it."""
    m = min(seq)
    return min(seq[i:] + seq[:i] for i, s in enumerate(seq) if s == m)


def _primitive_period(seq: Tuple[int, ...]) -> int:
    n = len(seq)
    return next(d for d in range(1, n + 1) if n % d == 0 and seq[:d] * (n // d) == seq)


def make_orbit(g: MetricGraph, states: Sequence[int]) -> PeriodicOrbit:
    """Build (and validate) the orbit class through the given state cycle;
    a state is a directed edge, an integer 0 ... 2E - 1."""
    table = _step_table(g)
    cycle = []
    for s in states:
        try:
            i = operator.index(s)
        except TypeError:
            raise InputError(f"orbit state {s!r} is not an integer") from None
        if not 0 <= i < len(table):
            raise InputError(f"orbit state {i} is outside 0 ... {len(table) - 1}")
        cycle.append(i)
    if not cycle:
        raise InputError("an orbit needs at least one step")
    kinds = []
    for s, r in zip(cycle, cycle[1:] + cycle[:1]):
        match = [kind for (t, kind) in table[s] if t == r]
        if not match:
            raise InputError(f"inadmissible step {s} -> {r}")
        kinds.append(match[0])
    return _orbit(tuple(cycle), tuple(kinds), _min_rotation(tuple(cycle)))


def _orbit(
    states: Tuple[int, ...], kinds: Tuple[str, ...], key: Tuple[int, ...]
) -> PeriodicOrbit:
    """The class through the state cycle ``states`` with step kinds
    ``kinds`` and least rotation ``key``, all already checked."""
    n = len(states)
    n_primitive = _primitive_period(states)
    return PeriodicOrbit(states, kinds, n, n_primitive, n // n_primitive, key)


# Partial paths one enumeration may expand: the class count grows
# exponentially in n_max, so this bounds the time of a request too large.
_PATH_BUDGET = 5_000_000


def enumerate_orbits(g: MetricGraph, n_max: int) -> List[PeriodicOrbit]:
    """One representative per cyclic class of closed walks with <= n_max steps.

    One depth-first walk from each state s0 covers every length at once:
    it extends paths whose states never drop below s0 and records each
    step back into s0 as a closed walk.  A class is thus met only from
    its least state; the first rotation met represents it and later ones
    are dropped by their least rotation (key).  The walk expands at most
    _PATH_BUDGET partial paths; exceeding it raises NumericalError, so a
    returned list is always complete.
    """
    n_max = _index(n_max, 1, "n_max must be >= 1")

    table = _step_table(g)
    orbits: List[PeriodicOrbit] = []
    seen: set = set()
    spent = 0
    for s0 in range(len(table)):
        # states[i] -> states[i + 1] is a step of kind kinds[i + 1];
        # steps[i] iterates the steps out of states[i] not yet taken
        states, kinds, steps = [s0], [""], [iter(table[s0])]
        while steps:
            for r, kind in steps[-1]:
                if r == s0:
                    cycle = tuple(states)
                    key = _min_rotation(cycle)
                    if key not in seen:
                        seen.add(key)
                        orbits.append(_orbit(cycle, (*kinds[1:], kind), key))
                if r >= s0 and len(states) < n_max:
                    states.append(r)
                    kinds.append(kind)
                    steps.append(iter(table[r]))
                    break
            else:
                # every step out of the path's last state is taken
                spent += 1
                if spent > _PATH_BUDGET:
                    raise NumericalError(
                        f"orbit enumeration exceeded its budget of {_PATH_BUDGET} "
                        "path expansions; lower n_max"
                    )
                states.pop()
                kinds.pop()
                steps.pop()
    orbits.sort(key=lambda p: (p.n, p.key))
    return orbits


# ---------------------------------------------------------------------------
# step weights and amplitudes
# ---------------------------------------------------------------------------


def step_sigma(g: MetricGraph, s: int, r: int, kind: str) -> float:
    """Vertex coupling of the step s -> r: the entry of big_sigma(g) that
    scatters the wave arriving at the vertex into r."""
    return float(big_sigma(g)[r, MetricGraph.reverse(s) if kind == "transmit" else s])


def _weights(p: PeriodicOrbit, S) -> List[complex]:
    """Step weights S[r][s] along p.  Without self-loops the entry of an
    admissible step s -> r has a single term, vertex entry x edge entry,
    so it is that step's weight tau (and S' holds tau')."""
    return [S[r][s] for s, r in zip(p.states, p.states[1:] + p.states[:1])]


def _weight(p: PeriodicOrbit, S) -> complex:
    """Product of the step weights of p read from S (nested lists)."""
    out = 1.0 + 0j
    for w in _weights(p, S):
        out *= w
    return out


def orbit_weight(p: PeriodicOrbit, g: MetricGraph, k: complex) -> complex:
    """Product of step weights tau over the full orbit at k."""
    return _weight(p, assemble_S(g, complex(k)).tolist())


def _amplitude_from_factors(p: PeriodicOrbit, ws, dws) -> float:
    n = p.n
    prefix = [1.0 + 0j] * (n + 1)
    for i, w in enumerate(ws):
        prefix[i + 1] = prefix[i] * w
    suffix = [1.0 + 0j] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = ws[i] * suffix[i + 1]
    dprod = sum(prefix[i] * dws[i] * suffix[i + 1] for i in range(n))
    return (p.n_primitive / p.n) * dprod.imag


def orbit_amplitude(p: PeriodicOrbit, g: MetricGraph, k: float) -> float:
    """A_p(k) = (n_primitive/n) Im d/dk of the step-weight product.

    Vertex factors are k-independent; the edge factors carry all the
    k-dependence, so the step derivatives tau' are the entries of
    S' = Sigma T'."""
    if np.iscomplexobj(k):
        raise InputError("orbit amplitudes are defined for real k")
    kthr = subunitarity_threshold(g)
    if k <= kthr:
        raise InputError(f"orbit amplitude requires k > threshold K={kthr:.6g}")
    T, dT = assemble_T(g, complex(k), want_dk=True)
    sigma = big_sigma(g)
    ws = _weights(p, (sigma @ T).tolist())
    dws = _weights(p, (sigma @ dT).tolist())
    return _amplitude_from_factors(p, ws, dws)


def orbit_sum_check(g: MetricGraph, k: float, n: int) -> float:
    """|sum over classes of n_primitive * prod tau  -  tr S^n| at real k."""
    if np.iscomplexobj(k):
        raise InputError("the orbit sum check is defined for real k")
    n = _index(n, 1, "n must be >= 1")
    orbits = enumerate_orbits(g, n)
    s = assemble_S(g, complex(k))
    rows = s.tolist()
    total = 0.0 + 0j
    for p in orbits:
        if p.n == n:
            total += p.n_primitive * _weight(p, rows)
    tr = complex(np.trace(np.linalg.matrix_power(s, n)))
    return abs(total - tr)


# ---------------------------------------------------------------------------
# trace formula
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TestFunction:
    """Gaussian test weight exp(-(k-center)^2 / (2 sigma^2)), treated as
    supported on center +- support_sigmas * sigma."""

    center: float
    sigma: float
    support_sigmas: float = 8.0

    def __post_init__(self) -> None:
        if any(np.iscomplexobj(x) for x in (self.center, self.sigma, self.support_sigmas)):
            raise InputError("test function needs a real center, sigma and support")
        if not (math.isfinite(self.center) and self.sigma > 0):
            raise InputError("test function needs finite center and sigma > 0")

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        z = (k - self.center) / self.sigma
        return np.exp(-0.5 * z * z)

    @property
    def support(self) -> Tuple[float, float]:
        half = self.support_sigmas * self.sigma
        return (self.center - half, self.center + half)


@dataclasses.dataclass
class TraceReport:
    phi: Dict[str, float]
    threshold: float
    lhs: float
    rhs_weyl: float
    rhs_orbits: List[Dict[str, float]]
    residuals: List[Dict[str, float]]
    eigenvalue_count: int
    weyl_count: float
    # k_lo, k_hi, panel_width and n_panels (the panels); n_nodes, the nodes
    # evaluated; panel_levels, the node count of each panel's accepted
    # Clenshaw-Curtis rule; errors, each row's quadrature error estimate
    # ({"rhs_weyl", "weyl_count", "rhs_orbits": one per n_max})
    quadrature: Dict[str, object]
    diagnostics: List[str]

    def residual(self, n_max: int) -> float:
        for row in self.residuals:
            if row["n_max"] == n_max:
                return row["value"]
        raise KeyError(f"no residual computed for n_max={n_max}")


_NODE_BLOCK = 64  # quadrature nodes assembled and multiplied at once
_QUAD_TOL = 1e-12  # absolute quadrature error of every row over the support
_CC_FIRST = 8  # a panel's first Clenshaw-Curtis rule has 9 nodes ...
_CC_LAST = 1024  # ... and its last 1025


def _panel_width(g: MetricGraph, n_max: int) -> float:
    """Quadrature panel width: at most 1, and at most four periods
    2 pi / (n_max * l_max) of the fastest-oscillating orbit term."""
    l_max = max(e.length for e in g.edges)
    return min(1.0, 8.0 * math.pi / (max(n_max, 1) * l_max))


@functools.lru_cache(maxsize=None)
def _cc_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes cos(j pi / n), j = 0 ... n, on [-1, 1] and
    their weights, for even n (Trefethen, Spectral Methods in MATLAB,
    clencurt).  It integrates polynomials of degree up to n exactly, and
    the rule of 2n holds its nodes at its even indices."""
    theta = math.pi * np.arange(n + 1) / n
    inner = theta[1:-1]
    k = np.arange(1, n // 2)
    v = (
        1.0
        - 2.0 * (np.cos(2.0 * np.outer(inner, k)) / (4.0 * k * k - 1.0)).sum(axis=1)
        - np.cos(n * inner) / (n * n - 1.0)
    )
    w = np.empty(n + 1)
    w[0] = w[-1] = 1.0 / (n * n - 1.0)
    w[1:-1] = 2.0 * v / n
    x = np.cos(theta)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _nested_quadrature(f, a: float, b: float, n_panels: int):
    """Integrals over [a, b] of the rows of f by nested Clenshaw-Curtis
    rules on n_panels equal panels.

    f maps a 1-D array of k to the (rows, k.size) integrand values.  Each
    panel starts at _CC_FIRST + 1 nodes and doubles; a doubling evaluates
    only the new (odd-index) nodes, those of every panel still active in one
    call of f.  A panel is accepted when its last two rules agree on every
    row within _QUAD_TOL / n_panels, and keeps the finer one; the last
    difference is its error.  A panel still active at _CC_LAST + 1 nodes
    keeps that rule and is named in the diagnostics.  Returns the
    integrals, their errors (the panels' errors summed), the nodes
    evaluated, each panel's node count and the diagnostics.
    """
    ends = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (ends[:-1] + ends[1:])[:, None]
    half = 0.5 * (ends[1:] - ends[:-1])[:, None]
    tol = _QUAD_TOL / n_panels

    n = _CC_FIRST
    x, w = _cc_rule(n)
    fx = f((mid + half * x).ravel())
    rows = fx.shape[0]
    # per active panel: its values at the current rule's nodes, and its integrals
    vals = fx.reshape(rows, n_panels, n + 1).transpose(1, 0, 2)
    coarse = half * (vals @ w)
    n_nodes = fx.shape[1]

    values = np.empty((n_panels, rows))
    errors = np.empty((n_panels, rows))
    levels = np.empty(n_panels, dtype=int)
    diagnostics: List[str] = []
    active = np.arange(n_panels)
    while active.size:
        n *= 2
        x, w = _cc_rule(n)
        fx = f((mid[active] + half[active] * x[1::2]).ravel())
        n_nodes += fx.shape[1]
        finer = np.empty((active.size, rows, n + 1))
        finer[..., ::2] = vals
        finer[..., 1::2] = fx.reshape(rows, active.size, n // 2).transpose(1, 0, 2)
        fine = half[active] * (finer @ w)
        diff = np.abs(fine - coarse)
        done = np.all(diff <= tol, axis=1)
        if n >= _CC_LAST:
            for i in np.flatnonzero(~done):
                p = active[i]
                diagnostics.append(
                    f"quadrature error {diff[i].max():.3g} at {n + 1} nodes "
                    f"on ({ends[p]:.9g}, {ends[p + 1]:.9g}]"
                )
            done[:] = True
        values[active[done]] = fine[done]
        errors[active[done]] = diff[done]
        levels[active[done]] = n + 1
        active, vals, coarse = active[~done], finer[~done], fine[~done]
    return values.sum(axis=0), errors.sum(axis=0), n_nodes, levels, diagnostics


def trace_check(
    g: MetricGraph,
    phi: TestFunction,
    n_max: int,
    scan_config: Optional[ScanConfig] = None,
) -> TraceReport:
    """Check the eigenvalue sum against the phase and orbit terms.

    lhs sums multiplicity-weighted phi(k_n) over the scanned spectrum;
    rhs_weyl integrates phi times the phase derivative / 2 pi; the orbit
    term for the cutoff N adds (1/pi) integral of phi times
    sum_{n <= N} Im tr(S^{n-1} S'), the amplitude sum over all classes of
    length up to N, for every N up to n_max.  No orbit is enumerated, so
    the cost per node grows linearly in n_max.  The integrals are taken
    by nested Clenshaw-Curtis rules, doubled per panel until every row
    agrees within _QUAD_TOL over the support; each row's error estimate
    is reported in ``quadrature["errors"]``.  The run aborts when the
    scan found fewer (or more) roots than the eigenvalue count of its
    range.
    """
    n_max = _index(n_max, 0, "n_max must be >= 0")
    info = subunitarity_threshold(g, detailed=True)
    lo_floor = max(info.K + 1e-9, K_FLOOR)
    a, b = phi.support
    a = max(a, lo_floor)
    if phi.center <= info.K:
        raise InputError(
            f"test function centered at {phi.center:g} sits at or below the "
            f"subunitarity threshold K={info.K:.6g}"
        )
    if b <= a:
        raise InputError("test-function support lies below the usable range")

    diagnostics: List[str] = []
    cfg = scan_config or ScanConfig()
    spec = scan_spectrum(g, a, b, cfg)
    diagnostics.extend(spec.diagnostics)

    lhs = float(
        sum(r.multiplicity * float(phi(r.k)) for r in spec.roots)
    )

    sigma = big_sigma(g)

    def integrands(ks: np.ndarray) -> np.ndarray:
        # One T, T' per node gives the phase density and every orbit row:
        # orbit_terms[m] = Im tr(S^{m-1} S') is the amplitude sum over the
        # classes of length m, (1/m) Im d/dk tr S^m.  Nodes are taken in
        # stacked blocks, which bounds the memory.  Rows: rhs_weyl,
        # weyl_count and rhs_orbits for n_max = 0 ... n_max.
        tp = np.empty(ks.size)
        orbit_terms = np.zeros((n_max + 1, ks.size))
        for lo in range(0, ks.size, _NODE_BLOCK):
            block = slice(lo, lo + _NODE_BLOCK)
            T, dT = assemble_T(g, ks[block], want_dk=True)
            tp[block] = _theta_prime(T, dT)
            S, P = sigma @ T, sigma @ dT
            for m in range(1, n_max + 1):
                orbit_terms[m, block] = np.trace(P, axis1=1, axis2=2).imag
                P = S @ P
        phis = phi(ks)
        weyl = tp / (2.0 * math.pi)
        return np.vstack(
            [phis * weyl, weyl, phis * np.cumsum(orbit_terms, axis=0) / math.pi]
        )

    panel_width = _panel_width(g, n_max)
    n_panels = max(1, int(math.ceil((b - a) / panel_width)))
    totals, errors, n_nodes, levels, quad_diagnostics = _nested_quadrature(
        integrands, a, b, n_panels
    )
    diagnostics.extend(quad_diagnostics)
    rhs_weyl, weyl_count = float(totals[0]), float(totals[1])

    # Missing-root guard: the vertex count gives the exact number of
    # eigenvalues in the range; the Weyl count, the integrated phase
    # density, is reported beside it
    n_found = spec.total_count()
    if n_found != spec.expected_count:
        raise NumericalError(
            f"scan found {n_found} roots in [{a:.3f}, {b:.3f}] but the vertex "
            f"count is {spec.expected_count}; spectrum incomplete"
        )

    rhs_orbit_rows: List[Dict[str, float]] = []
    residual_rows: List[Dict[str, float]] = []
    for m, value in enumerate(totals[2:].tolist()):
        rhs_orbit_rows.append({"n_max": m, "value": value})
        residual_rows.append({"n_max": m, "value": abs(lhs - rhs_weyl - value)})

    return TraceReport(
        phi={
            "center": phi.center,
            "sigma": phi.sigma,
            "support_sigmas": phi.support_sigmas,
        },
        threshold=info.K,
        lhs=lhs,
        rhs_weyl=rhs_weyl,
        rhs_orbits=rhs_orbit_rows,
        residuals=residual_rows,
        eigenvalue_count=n_found,
        weyl_count=weyl_count,
        quadrature={
            "k_lo": a,
            "k_hi": b,
            "panel_width": panel_width,
            "n_panels": n_panels,
            "n_nodes": n_nodes,
            "panel_levels": levels.tolist(),
            "errors": {
                "rhs_weyl": float(errors[0]),
                "weyl_count": float(errors[1]),
                "rhs_orbits": errors[2:].tolist(),
            },
        },
        diagnostics=diagnostics,
    )


def wigner_delay(g: MetricGraph, k: float) -> float:
    """Derivative of the total transition phase at k (time-delay form)."""
    if np.iscomplexobj(k):
        raise InputError("the Wigner delay is defined for real k")
    kthr = subunitarity_threshold(g)
    if k <= kthr:
        raise InputError(f"Wigner delay requires k > threshold K={kthr:.6g}")
    return theta_prime(g, k)
