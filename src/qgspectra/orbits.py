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
orbit table, orbit_sum_check and the WKB orbit data.  It is one array
enumeration (_classes): per length, the walks that start at their least
state and stay at or above it are one integer array, extended one step
at a time up to n_max, with no recursion, and refused with NumericalError,
before any walk is built, when the partial paths counted from the step
matrix exceed _PATH_BUDGET.  _representatives gives each class its key
and primitive period, also for a cycle given to make_orbit, and
_class_weights is the one step-weight product, with its k-derivative
when given S': the table's weights, orbit_weight, orbit_amplitude and
orbit_sum_check all read it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
        return _cycle_class(self.states[:m], self.kinds[:m])


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
    return _cycle_class(tuple(cycle), tuple(kinds))


# Partial paths one enumeration may hold: the walks that start at their
# least state and stay at or above it, counted over every length up to
# n_max.  The count grows exponentially in n_max, like the class count; it
# is summed before any walk is built, so a request too large is refused at
# once.
_PATH_BUDGET = 5_000_000

_KIND_CODES = {"transmit": ord("T"), "reflect": ord("R")}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}


class _Block(NamedTuple):
    """The classes of one length n, sorted by key: row i holds class i's
    representative (states), its least rotation (keys), the kinds of its
    steps as the bytes "T" and "R" (kinds), all (classes, n), and its
    primitive period (n_primitive)."""

    states: np.ndarray
    keys: np.ndarray
    kinds: np.ndarray
    n_primitive: np.ndarray


def _path_count(steps: np.ndarray, n_max: int) -> int:
    """Walks of 1 ... n_max states that start at their least state s0 and
    stay >= s0, for ``steps`` the 0/1 step pattern (rows = target, cols =
    source): the sum over s0 and j < n_max of 1^T B^j e_s0, B the pattern
    restricted to states >= s0.  The sum stops once it passes _PATH_BUDGET,
    so a count above the budget is a lower bound."""
    steps = np.asarray(steps, dtype=np.int64)
    above = np.tril(np.ones_like(steps))  # [state, s0]: state >= s0
    paths = np.eye(len(steps), dtype=np.int64)  # [state, s0]: the j-step walks
    total = 0
    for _ in range(n_max):
        total += int(paths.sum())
        if total > _PATH_BUDGET:
            break
        paths = (steps @ paths) * above
    return total


def _classes(g: MetricGraph, n_max: int) -> List[_Block]:
    """The cyclic classes of closed walks with <= n_max steps, one block per
    length that has any, in order of length.

    A class is built only from its least state s0.  Per length n the walks
    that start at s0 and stay >= s0 are one (n, walks) array in the smallest
    integer dtype, extended one step at a time in the order of _step_table,
    so each length's walks are in the order of their step sequences.  A
    walk whose last state steps back to s0 is closed; the first closed
    rotation of a class in that order represents it (it is the one a
    depth-first walk meets first).  Raises NumericalError, before building
    any walk, when the walks would number more than _PATH_BUDGET.
    """
    table = _step_table(g)
    n_states = len(table)
    kinds = np.zeros((n_states, n_states), dtype=np.uint8)  # [s, r]
    for s, out in enumerate(table):
        for r, kind in out:
            kinds[s, r] = _KIND_CODES[kind]
    closes = kinds != 0
    if _path_count(closes.T, n_max) > _PATH_BUDGET:
        raise NumericalError(
            f"orbit enumeration exceeded its budget of {_PATH_BUDGET} "
            "path expansions; lower n_max"
        )
    dtype = np.min_scalar_type(n_states - 1)
    # the steps out of each state in table order, padded with -1
    succ = np.full((n_states, max(map(len, table))), -1, dtype=np.min_scalar_type(-n_states))
    for s, out in enumerate(table):
        succ[s, : len(out)] = [r for r, _ in out]

    blocks = []
    walks = np.arange(n_states, dtype=dtype)[None, :]
    for n in range(1, n_max + 1):
        first, last = walks[0], walks[-1]
        closed = walks[:, closes[last, first]]
        if closed.shape[1]:
            states, keys, n_primitive = _representatives(closed)
            step_kinds = kinds[states, _next_states(states)]
            blocks.append(_Block(states, keys, step_kinds, n_primitive))
        if n == n_max or not walks.shape[1]:
            break
        step = succ[last]
        keep = step >= first[:, None]
        if n + 1 == n_max:
            keep &= closes[step, first[:, None]]  # the last length keeps closed walks only
        parent = np.repeat(np.arange(walks.shape[1], dtype=np.int32), keep.sum(axis=1))
        longer = np.empty((n + 1, parent.size), dtype=dtype)
        np.take(walks, parent, axis=1, out=longer[:n], mode="clip")
        longer[n] = step[keep]
        walks = longer
    return blocks


def _next_states(states: np.ndarray) -> np.ndarray:
    """The state after each of the (classes, n) cycles ``states``."""
    return np.concatenate([states[:, 1:], states[:, :1]], axis=1)


def _representatives(closed: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(states, keys, n_primitive) of the classes of ``closed``, the (n,
    walks) closed walks of one length, each starting at its least state s0,
    in the order of their step sequences; sorted by key."""
    n, m = closed.shape
    period = np.full(m, n)
    for d in range(1, n):
        if n % d == 0:
            period[(period == n) & np.all(closed[d:] == closed[:-d], axis=0)] = d
    # the least rotation starts at s0, within one primitive period: compare
    # each walk's t-th such rotation, for all walks at once
    keys = closed.T.copy()
    at_s0 = (closed[1:] == closed[0]) & (np.arange(1, n)[:, None] < period)
    row, shift = np.nonzero(at_s0.T)
    nth = np.arange(row.size) - np.searchsorted(row, row)
    twice = np.concatenate([closed, closed])
    for t in range(nth.max() + 1 if nth.size else 0):
        r, j = row[nth == t], shift[nth == t] + 1
        rotation, best = twice[j[:, None] + np.arange(n), r[:, None]], keys[r]
        differ = rotation != best
        i = (np.arange(r.size), differ.argmax(axis=1))
        less = differ[i] & (rotation[i] < best[i])
        keys[r[less]] = rotation[less]
    # a stable sort keeps each class's first walk first
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(m, dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    rep = order[first]
    return closed.T[rep], keys[first], period[rep]


def _cycle_class(states: Tuple[int, ...], kinds: Tuple[str, ...]) -> PeriodicOrbit:
    """The class through the checked state cycle ``states`` with step kinds
    ``kinds``: its key and primitive period are those _representatives
    gives the cycle rotated to its first least state."""
    i = states.index(min(states))
    _, keys, period = _representatives(np.array([states[i:] + states[:i]]).T)
    n, n_primitive = len(states), int(period[0])
    return PeriodicOrbit(states, kinds, n, n_primitive, n // n_primitive, tuple(keys[0].tolist()))


def enumerate_orbits(g: MetricGraph, n_max: int) -> List[PeriodicOrbit]:
    """One representative per cyclic class of closed walks with <= n_max
    steps, sorted by (n, key); the classes of _classes as PeriodicOrbit.

    Raises NumericalError when the enumeration would exceed its budget of
    _PATH_BUDGET partial paths, so a returned list is always complete.
    """
    n_max = _index(n_max, 1, "n_max must be >= 1")
    orbits = []
    for block in _classes(g, n_max):
        n = block.states.shape[1]
        for states, kinds, key, n_primitive in zip(
            block.states.tolist(),
            block.kinds.tolist(),
            block.keys.tolist(),
            block.n_primitive.tolist(),
        ):
            kinds = tuple(_KIND_NAMES[c] for c in kinds)
            orbits.append(
                PeriodicOrbit(tuple(states), kinds, n, n_primitive, n // n_primitive, tuple(key))
            )
    return orbits


# ---------------------------------------------------------------------------
# step weights and amplitudes
# ---------------------------------------------------------------------------


def step_sigma(g: MetricGraph, s: int, r: int, kind: str) -> float:
    """Vertex coupling of the step s -> r: the entry of big_sigma(g) that
    scatters the wave arriving at the vertex into r."""
    return float(big_sigma(g)[r, MetricGraph.reverse(s) if kind == "transmit" else s])


def _class_weights(blocks: Sequence[_Block], S: np.ndarray, dS: Optional[np.ndarray] = None):
    """(re, im) of the step-weight products of the classes of ``blocks``,
    in their order, with S[r, s] gathered from S: without self-loops the
    entry of an admissible step s -> r has a single term, vertex entry x
    edge entry, so it is that step's weight tau.  Each product is taken
    from 1 in the order of the states, in the real arithmetic of Python's
    complex product.  Given dS = S', which holds the tau', it returns (re,
    im, dre, dim), the products' k-derivative by the product rule added to
    the same loop."""
    if not blocks:
        return (np.empty(0),) * (2 if dS is None else 4)
    lengths = np.concatenate([np.full(len(b.states), b.states.shape[1]) for b in blocks])
    w = np.concatenate([S[_next_states(b.states), b.states].ravel() for b in blocks])
    w_re, w_im = w.real, w.imag
    starts = np.cumsum(lengths) - lengths
    re, im = np.ones(lengths.size), np.zeros(lengths.size)
    if dS is not None:
        dw = np.concatenate([dS[_next_states(b.states), b.states].ravel() for b in blocks])
        dre, dim = np.zeros(lengths.size), np.zeros(lengths.size)
    for j in range(lengths[-1]):
        # the rows with more than j steps: a tail, the lengths ascending
        lo = np.searchsorted(lengths, j, side="right")
        c, d = w_re[starts[lo:] + j], w_im[starts[lo:] + j]
        a, b = re[lo:], im[lo:]
        if dS is not None:
            # (P w)' = P' w + P w'
            e, f = dre[lo:], dim[lo:]
            dc, dd = dw.real[starts[lo:] + j], dw.imag[starts[lo:] + j]
            dre[lo:], dim[lo:] = (
                e * c - f * d + (a * dc - b * dd), e * d + f * c + (a * dd + b * dc)
            )
        re[lo:], im[lo:] = a * c - b * d, a * d + b * c
    return (re, im) if dS is None else (re, im, dre, dim)


def _one_class(p: PeriodicOrbit) -> _Block:
    """The block of the one class ``p``."""
    kinds = np.array([[_KIND_CODES[kind] for kind in p.kinds]], dtype=np.uint8)
    return _Block(np.array([p.states]), np.array([p.key]), kinds, np.array([p.n_primitive]))


def orbit_weight(p: PeriodicOrbit, g: MetricGraph, k: complex) -> complex:
    """Product of step weights tau over the full orbit at k."""
    re, im = _class_weights([_one_class(p)], assemble_S(g, complex(k)))
    return complex(re[0], im[0])


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
    T, dT = assemble_T(g, float(k), want_dk=True)
    sigma = big_sigma(g)
    dim = _class_weights([_one_class(p)], sigma @ T, sigma @ dT)[3]
    return (p.n_primitive / p.n) * float(dim[0])


def orbit_sum_check(g: MetricGraph, k: float, n: int) -> float:
    """|sum over classes of n_primitive * prod tau  -  tr S^n| at real k."""
    if np.iscomplexobj(k):
        raise InputError("the orbit sum check is defined for real k")
    n = _index(n, 1, "n must be >= 1")
    blocks = [b for b in _classes(g, n) if b.states.shape[1] == n]
    s = assemble_S(g, float(k))
    re, im = _class_weights(blocks, s)
    n_primitive = [m for b in blocks for m in b.n_primitive.tolist()]
    total = sum(m * complex(a, b) for m, a, b in zip(n_primitive, re, im))
    tr = complex(np.trace(np.linalg.matrix_power(s, n)))
    return abs(total - tr)


# ---------------------------------------------------------------------------
# trace formula
# ---------------------------------------------------------------------------


# half-width of a test function's support, in sigmas
_SUPPORT_SIGMAS = 8.0


@dataclasses.dataclass(frozen=True)
class TestFunction:
    """Gaussian test weight exp(-(k-center)^2 / (2 sigma^2)), treated as
    supported on center +- _SUPPORT_SIGMAS * sigma."""

    center: float
    sigma: float

    def __post_init__(self) -> None:
        if any(np.iscomplexobj(x) for x in (self.center, self.sigma)):
            raise InputError("test function needs a real center and sigma")
        if not (math.isfinite(self.center) and self.sigma > 0):
            raise InputError("test function needs finite center and sigma > 0")

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        z = (k - self.center) / self.sigma
        return np.exp(-0.5 * z * z)

    @property
    def support(self) -> Tuple[float, float]:
        half = _SUPPORT_SIGMAS * self.sigma
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
    # Clenshaw-Curtis rule, whose ends neighbours share, so n_nodes is their
    # sum less up to n_panels - 1; errors, each row's quadrature error
    # estimate ({"rhs_weyl", "weyl_count", "rhs_orbits": one per n_max})
    quadrature: Dict[str, object]
    diagnostics: List[str]

    def residual(self, n_max: int) -> float:
        for row in self.residuals:
            if row["n_max"] == n_max:
                return row["value"]
        raise KeyError(f"no residual computed for n_max={n_max}")


# quadrature nodes assembled and multiplied at once: at least _NODE_BLOCK,
# and about _BLOCK_ENTRIES entries of each 2E x 2E stack when that is more
_NODE_BLOCK = 64
_BLOCK_ENTRIES = 4096
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


def _node_block(g: MetricGraph) -> int:
    """Quadrature nodes of ``g`` whose T, T' and orbit products are formed
    at once (see _NODE_BLOCK)."""
    return max(_NODE_BLOCK, _BLOCK_ENTRIES // (2 * g.num_edges) ** 2)


def _nested_quadrature(f, a: float, b: float, n_panels: int):
    """Integrals over [a, b] of the rows of f by nested Clenshaw-Curtis
    rules on n_panels equal panels.

    f maps a 1-D array of k to the (rows, k.size) integrand values, each
    column a function of its k alone.  Each panel starts at _CC_FIRST + 1
    nodes and doubles; its end nodes are ``ends`` exactly, neighbours
    evaluate their common end once, and a doubling evaluates only the
    new (odd-index) nodes, those of every panel still active in one call of
    f.  A panel is accepted when its last two rules agree on every row
    within _QUAD_TOL / n_panels, and keeps the finer one; the last
    difference is its error.  A panel still active at _CC_LAST + 1 nodes
    keeps that rule and is named in the diagnostics.  Returns the
    integrals, their errors (the panels' errors summed), the nodes
    evaluated (the sum of the panels' node counts less the shared ends),
    each panel's node count and the diagnostics.
    """
    ends = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (ends[:-1] + ends[1:])[:, None]
    half = 0.5 * (ends[1:] - ends[:-1])[:, None]
    tol = _QUAD_TOL / n_panels

    n = _CC_FIRST
    x, w = _cc_rule(n)
    ks = mid + half * x  # x runs from 1 to -1: column 0 is a panel's right end
    # the ends are ``ends`` exactly, and a panel's left end is evaluated once,
    # as its left neighbour's right end
    ks[:, 0] = ends[1:]
    fx = f(np.append(ends[0], ks[:, :n]))
    rows, n_nodes = fx.shape
    # per active panel: its values at the current rule's nodes, and its integrals
    vals = np.empty((n_panels, rows, n + 1))
    vals[..., :n] = fx[:, 1:].reshape(rows, n_panels, n).transpose(1, 0, 2)
    vals[0, :, n] = fx[:, 0]
    vals[1:, :, n] = vals[:-1, :, 0]
    coarse = half * (vals @ w)

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
    node_block = _node_block(g)

    def integrands(ks: np.ndarray) -> np.ndarray:
        # One T, T' per node gives the phase density and every orbit row:
        # orbit_terms[m] = Im tr(S^{m-1} S') is the amplitude sum over the
        # classes of length m, (1/m) Im d/dk tr S^m.  Nodes are taken in
        # stacked blocks, which bounds the memory.  Rows: rhs_weyl,
        # weyl_count and rhs_orbits for n_max = 0 ... n_max.
        tp = np.empty(ks.size)
        orbit_terms = np.zeros((n_max + 1, ks.size))
        for lo in range(0, ks.size, node_block):
            block = slice(lo, lo + node_block)
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
            "support_sigmas": _SUPPORT_SIGMAS,
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
