"""Eigenvalue location by counting and sign changes of the vertex determinant.

The scan walks a k grid of step pi / (4 * total length), the minimal
oscillation scale of det(I - S), in windows of _CELLS_PER_WINDOW cells,
and those in chunks of at most _WINDOWS_PER_CHUNK windows.  A chunk is
one grid, the nodes of its windows with the node two windows share taken
once, swept in consecutive blocks, each node's edges solved once: a block
holds as many nodes as the edge layer's element budget allows (its nodes
times the edges at most ``edge._POINT_STEPS``), and at least the
_CELLS_PER_WINDOW + 1 of a window.  The vertex Dirichlet-to-Neumann
matrix assembled from the solves gives both the eigenvalue count N(k),
the eigenvalues k_j <= k with multiplicity, an integer by construction
at every k > 0, and the real, pole-free vertex determinant F(k), whose
zeros are those of det(I - S) (both from ``scattering._vertex_det``).
The scan reads neither theta nor det S.  A grid cell (a, b] holds N(b) -
N(a) eigenvalues, of which n0(b) lie on b, as a kernel of the vertex
matrix there.  A cell holding one more is a sign change of F and a
bracket for the refinement.  A cell of m >= 2 is first cut into 2m equal
pieces, all counted at once (a cell of one with a root on an end node in
two), and a piece holding more than one is halved, until every piece
holds at most one; a piece narrower than root_tol is one root whose
multiplicity is its count, reported at the split point that made the
piece.  The splits of a chunk go level by level: the points of all its
cells at one depth are counted (and F taken) in one stacked solve of the
edges, whose M rows each point keeps.

A chunk is counted, its cells settled and split, and its roots refined
and checked as one grid with one report; its windows decide only the
nodes of the grid (each window's own ``np.linspace``) and each root's
residual scale below.  The single-root brackets carry F at their ends,
from the sweep or from the split that made them.  The windows go out in
ceil(windows / _WINDOWS_PER_CHUNK) contiguous chunks of at most
_WINDOWS_PER_CHUNK windows each, whatever the worker count (a scan of up
to that many windows is one chunk; the cap keeps a refinement's stacks
small on long ranges).  A pool starts no more processes than there are
chunks or CPUs, so a scan of one chunk runs in this process, and
``scan_spectrum`` merges the chunks' reports in order.  All brackets of
a chunk are refined together by
Chandrupatla's bracketing method (T. R. Chandrupatla, Adv. Eng. Softw. 28,
1997; ``_chandrupatla``, whose iterates are those of scipy's elementwise
find_root), one stacked F per iteration, until each bracket is narrower
than root_tol; a bracket it cannot refine is flagged.  Each root is
checked against the paper's secular function.  Its residual |det(I - S)|
and F there are those of the evaluation that reported it: the split
level that counted it, or the refinement step that gave the bracket end
it converged to (the refinement carries the edges' M at each bracket's
two current ends, and no more).  One ``scattering._det_w`` over the
chunk's roots reads them all from those rows; only a root without one, on
a sweep node or at a bracket end from the sweep that never moved, has its
edges solved again, in one stacked solve.  A root where |F| exceeds
_RESIDUAL_TOL times the largest |F| at its window's sweep nodes, both
ends included, is reported (a root's window is that of the cell or the
node it was counted in): |det(I - S)| and F grow with the graph and k, so
no bound on the residual alone fits every graph.

A scan covers [max(k_lo, K_FLOOR), k_hi] as given, below the subunitarity
threshold K too, and never computes K.  On the real axis S is unitary and
no edge's t is singular: its denominator psi_plus'(L) - ik psi_plus(L)
vanishing at a real k != 0 would make the Wronskian of psi_plus and its
conjugate read 2ik = -2ik |psi_plus(L)|^2.  So det(I - S), F and the
count hold at every k > 0; only the orbit expansion of the trace formula
and the contour of ``multiplicity`` need the complex k above K.

``multiplicity`` gives the independent argument-principle count on a
rectangle in the upper half plane, where strict subunitarity of S pins
every zero of det(I - S) to the real segment.  The boundary is walked
with the candidate indented out of the real side; the omitted indentation
semicircle around an order-m zero carries exactly -m*pi, so the walked
phase change equals m*pi.

Windows and chunks are fixed by the k range alone, never by the worker
count, and every refinement step is elementwise and every determinant is
taken per matrix, so results are identical no matter which process
refines a chunk.
A range whose grid has more than MAX_GRID_POINTS points is refused.
"""

from __future__ import annotations

import dataclasses
import math
import os
from itertools import repeat
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import edge
from .edge import EdgeSolution, _solve_edges, subunitarity_threshold
from .errors import InputError, NumericalError, _index
from .graph import MetricGraph
from .scattering import _det_w, _vertex_det

__all__ = [
    "ScanConfig",
    "RootRecord",
    "SpectrumResult",
    "scan_spectrum",
    "multiplicity",
    "grid_step",
]

#: Hard lower bound on scanned k; the secular machinery is singular at k = 0.
K_FLOOR = 1e-3
_MERGE_TOL = 1e-7  # roots closer than this are fused into one record
# |F| at a root above this fraction of the largest |F| at the sweep nodes
# of its window is a diagnostic
_RESIDUAL_TOL = 1e-6

# Windows span this many grid cells so that parallel decomposition is a
# pure partition of the sequential grid.
_CELLS_PER_WINDOW = 64
# Windows whose roots are refined together, at most.  A refinement's
# stacks take about 0.5 kB per grid point on a 10-arm delta star: a serial
# scan of 1e5 points (random_delta_star(1), 25,002 roots) peaked at 97.5
# MB as one chunk and at 62 MB in chunks of 64 windows, 45 MB of it before
# the scan (ru_maxrss, Python 3.11, numpy 2.4), so one chunk at
# MAX_GRID_POINTS would need about 0.5 GB more.
_WINDOWS_PER_CHUNK = 64

#: Most grid points a scan, or a secular sweep, may take.
MAX_GRID_POINTS = 1_000_000

_WALK_DEPTH = 24             # max recursive bisections per contour segment

_TINY = float(np.finfo(float).tiny)  # |f| at or below this is a root
# Chandrupatla's iteration cap: the bisections that span the normal floats
_MAX_ITER = math.log2(np.finfo(float).max) - math.log2(_TINY)


def grid_step(g: MetricGraph) -> float:
    """Spacing of the scan grid: pi / (4 * total length), the minimal
    oscillation scale of det(I - S)."""
    return math.pi / (4.0 * g.total_length)


def _grid_cells(g: MetricGraph, lo: float, hi: float) -> int:
    """Number of scan grid cells over [lo, hi]; InputError when their grid
    would have more than MAX_GRID_POINTS points."""
    cells = (hi - lo) / grid_step(g)
    if not cells <= MAX_GRID_POINTS - 1:
        raise InputError(
            f"[{lo:g}, {hi:g}] needs {cells + 1:.3g} grid points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    return int(math.ceil(cells))


@dataclasses.dataclass(frozen=True)
class ScanConfig:
    """Parameters controlling a spectrum scan.

    root_tol: bracket width at which sign-change refinement stops.
    workers: scan processes at most (no more than there are chunks of
        windows or CPUs, so a pool only over more than one chunk); the
        chunks, and the output, do not depend on it.

    No option bounds the range from below: a scan starts at max(k_lo,
    K_FLOOR), below the subunitarity threshold K too.
    """

    root_tol: float = 1e-9
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.root_tol < math.inf:
            raise InputError("root_tol must be positive and finite")
        _index(self.workers, 1, "workers must be a positive integer")


@dataclasses.dataclass(frozen=True)
class RootRecord:
    """One located eigenvalue: position, multiplicity, |det(I-S)| there."""

    k: float
    multiplicity: int
    residual: float


@dataclasses.dataclass
class SpectrumResult:
    roots: List[RootRecord]
    # the subunitarity threshold K where no edge has a potential (0.0), else
    # None: the scan neither reads nor computes K
    threshold: Optional[float]
    k_lo: float
    k_hi: float
    diagnostics: List[str]
    flagged: List[Tuple[float, float]]
    # eigenvalues in [k_lo, k_hi] with multiplicity by the vertex count:
    # N(k_hi) - N(k_lo) plus the roots at k_lo (scattering._vertex_det)
    expected_count: int

    @property
    def ks(self) -> np.ndarray:
        return np.array([r.k for r in self.roots], dtype=float)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([r.multiplicity for r in self.roots], dtype=int)

    def total_count(self) -> int:
        return int(sum(r.multiplicity for r in self.roots))


def _arg_walk(
    w: Callable[[complex], complex],
    z0: complex,
    z1: complex,
    w0: complex,
    w1: complex,
    floor: float,
    depth: int = 0,
) -> float:
    """Continuous change of arg w along the segment z0 -> z1.

    The segment is bisected until each step rotates by less than pi/2,
    which pins the branch.  Running out of depth means the contour
    passes too close to a zero.
    """
    if abs(w0) < floor or abs(w1) < floor:
        raise NumericalError("winding contour passes too close to a root")
    delta = math.atan2((w1 / w0).imag, (w1 / w0).real)
    if abs(delta) < 0.5 * math.pi:
        return delta
    if depth >= _WALK_DEPTH:
        raise NumericalError("winding contour failed to resolve the phase")
    zm = 0.5 * (z0 + z1)
    wm = w(zm)
    return _arg_walk(w, z0, zm, w0, wm, floor, depth + 1) + _arg_walk(
        w, zm, z1, wm, w1, floor, depth + 1
    )


def multiplicity(g: MetricGraph, k0: float, radius: float) -> int:
    """Multiplicity of the eigenvalue at k0 by an argument-principle count.

    Above the threshold, det(I - S) is holomorphic near the contour and
    zero-free in the open upper half plane (S is strictly subunitary
    there), so every zero inside the rectangle [k0 +- radius] x
    [0, radius] sits on the real segment.  The phase is walked along the
    indented boundary: the real segment with an epsilon neighbourhood of
    k0 cut out, then up, across and down the three upper sides.  For a
    zero of order m the omitted indentation semicircle carries -m*pi, so
    the walked total equals m*pi (and 0 when k0 is not a root).
    """
    if np.iscomplexobj(k0):
        raise InputError("multiplicity is defined for real k0")
    if radius <= 0:
        raise InputError("winding radius must be positive")
    kthr = subunitarity_threshold(g)
    if k0 - radius <= kthr:
        raise InputError(
            f"winding contour requires k0 - radius > threshold K={kthr:.6g}"
        )

    def w(z: complex) -> complex:
        return complex(_det_w(g, [z])[0][0])

    eps = 0.01 * radius
    path = [
        complex(k0 - radius, 0.0),
        complex(k0 - eps, 0.0),
        None,  # indentation gap around k0
        complex(k0 + eps, 0.0),
        complex(k0 + radius, 0.0),
        complex(k0 + radius, radius),
        complex(k0 - radius, radius),
        complex(k0 - radius, 0.0),
    ]
    vals = [None if z is None else w(z) for z in path]
    scale = max(abs(v) for v in vals if v is not None)
    if scale == 0.0:
        raise NumericalError("winding contour passes too close to a root")
    floor = 1e-12 * scale
    total = 0.0
    for i in range(len(path) - 1):
        if path[i] is None or path[i + 1] is None:
            continue
        total += _arg_walk(w, path[i], path[i + 1], vals[i], vals[i + 1], floor)
    m = round(total / math.pi)
    if abs(total - m * math.pi) > 0.2:
        raise NumericalError(
            f"winding count did not converge: delta-arg={total:.6f}"
        )
    return max(int(m), 0)


# ---------------------------------------------------------------------------
# Chunk scan
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _ChunkReport:
    # (k, multiplicity, residual |det(I - S)|, |F| above _RESIDUAL_TOL scale)
    roots: List[Tuple[float, int, float, bool]] = dataclasses.field(default_factory=list)
    flagged: List[Tuple[float, float]] = dataclasses.field(default_factory=list)
    diagnostics: List[str] = dataclasses.field(default_factory=list)
    # while the chunk is scanned: the eigenvalues located by counting, (window,
    # k, multiplicity, F(k), row(k)), and the single-root brackets (window,
    # lo, hi, F(lo), F(hi), row(lo), row(hi)) left to refine, each row the M
    # of every edge at its point, (4, E), or None where no kept solve took
    # the point (an eigenvalue's F is then None too)
    emitted: list = dataclasses.field(default_factory=list)
    brackets: list = dataclasses.field(default_factory=list)
    counted: int = 0  # eigenvalues in the chunk by the count

    def flag(self, lo: float, hi: float, what: str) -> None:
        self.flagged.append((float(lo), float(hi)))
        self.diagnostics.append(f"{what} on ({lo:.9g}, {hi:.9g}]")


def _sweep(g: MetricGraph, ks: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalue count N, the roots n0 and the vertex determinant F at
    every node of a block of a chunk's grid, from one solve of their
    edges."""
    return _vertex_det(g, ks, want_count=True)


def _settle(rep: _ChunkReport, cells, root_tol: float) -> list:
    """The cells of ``cells`` that must be split, each (window, p, q, m,
    made) with m eigenvalues strictly between the nodes p and q, each (k, N,
    n0, F, row), and ``made`` the split node that made the cell (None for a
    cell of the sweep).  The others are settled in ``rep``: a cell of one
    simple root is a bracket, one of none is dropped, and one narrower than
    root_tol an eigenvalue of multiplicity m at ``made``, which lies within
    root_tol of each of them and has a row (at the midpoint of a sweep
    cell, with none)."""
    split = []
    for w, p, q, m, made in cells:
        if m <= 0:
            continue
        if m == 1 and not (p[2] or q[2]):
            # one simple root: F changes sign between p and q
            rep.brackets.append((w, p[0], q[0], p[3], q[3], p[4], q[4]))
        elif made is None and q[0] - p[0] < root_tol:
            rep.emitted.append((w, 0.5 * (p[0] + q[0]), m, None, None))
        elif q[0] - p[0] < root_tol:
            rep.emitted.append((w, made[0], m, made[3], made[4]))
        else:
            split.append((w, p, q, m, made))
    return split


def _split(g: MetricGraph, rep: _ChunkReport, cells, root_tol: float) -> None:
    """Split the cells of ``_settle``, all of them from the sweep, level by
    level until every piece is settled in ``rep``.  The first level cuts a
    cell of m >= 2 eigenvalues into 2m equal pieces and a cell of one (with
    a root on an end node) in two; later levels halve.  The nodes of a level
    are counted, and F taken, in one stacked solve of the edges
    (``_vertex_det``), and each node keeps its row of that solve's M for the
    residual of a root reported there or refined from it."""
    first = True
    while cells:
        cuts = [2 * m if first and m > 1 else 2 for *_, m, _ in cells]
        # ((n - j) p + j q) / n is (p + q) / 2 for n = 2, bit for bit
        ks = [
            ((n - j) * p[0] + j * q[0]) / n
            for (_, p, q, _, _), n in zip(cells, cuts)
            for j in range(1, n)
        ]
        sol = _solve_edges(g, ks, want_count=True)
        count, at, f = _vertex_det(g, ks, sol, want_count=True)
        rows = np.array(sol.m).transpose(1, 0, 2)
        nodes = zip(ks, count.tolist(), at.tolist(), f.tolist(), rows)
        pieces = []
        for (w, p, q, m, _), n in zip(cells, cuts):
            # each piece is made by its right node, the last by its left
            for _ in range(n - 1):
                node = next(nodes)
                if node[2]:
                    rep.emitted.append((w, node[0], node[2], node[3], node[4]))
                inside = node[1] - p[1] - node[2]
                pieces.append((w, p, node, inside, node))
                m -= inside + node[2]
                p = node
            pieces.append((w, p, q, m, p))
        cells, first = _settle(rep, pieces, root_tol), False


def _scan_chunk(chunk) -> _ChunkReport:
    """The one report of the windows of ``chunk`` = (g, step, cfg, windows),
    each window (a, b, closed_left), scanned as one grid: the eigenvalues
    in (a, b] of the first window to b of the last, or from a on when it
    is ``closed_left``.

    Each window's nodes are ``np.linspace`` from a to b, those of every
    window after the first without a, the node the window before ends on.
    The grid is swept in consecutive blocks (``_sweep``), its cells of more
    than one root are split level by level (``_split``), and its
    single-root brackets are refined together (``_chandrupatla``), each
    iteration one stacked F, until each is narrower than root_tol.  One
    ``_det_w`` over the chunk's roots takes their residuals from the M
    rows of the solves that reported them, solving again only the roots
    without one (see the module docstring)."""
    g, step, cfg, windows = chunk
    grids = [
        np.linspace(a, b, max(2, int(math.ceil((b - a) / step)) + 1))
        for a, b, _ in windows
    ]
    ks = np.concatenate([grids[0][:1]] + [x[1:] for x in grids])
    sizes = [len(x) - 1 for x in grids]  # cells of each window
    # the window of each node: the first node's is the first window, every
    # other node's that of the cell it ends
    window = [0] + np.repeat(np.arange(len(grids)), sizes).tolist()
    block = max(_CELLS_PER_WINDOW + 1, edge._POINT_STEPS // g.num_edges)
    swept = [_sweep(g, ks[i : i + block]) for i in range(0, len(ks), block)]
    count, at, f = (np.concatenate(x) for x in zip(*swept))
    # window w spans the nodes bounds[w] to bounds[w + 1]
    bounds = np.cumsum([0] + sizes)
    scale = [float(np.abs(f[i : j + 1]).max()) for i, j in zip(bounds, bounds[1:])]
    closed_left = windows[0][2]
    rep = _ChunkReport(counted=int(count[-1] - count[0] + closed_left * at[0]))
    # a root on a node is a kernel of the vertex matrix there; a cell holds
    # N(right) - N(left) eigenvalues, those on its right node included.  The
    # sweep keeps no rows
    rep.emitted.extend(
        (window[i], ks[i], int(at[i]), None, None) for i in np.flatnonzero(at) if i or closed_left
    )
    nodes = list(zip(ks.tolist(), count.tolist(), at.tolist(), f.tolist(), repeat(None)))
    inside = np.diff(count) - at[1:]
    occupied = np.flatnonzero(inside > 0).tolist()  # the cells with eigenvalues
    cells = ((window[i + 1], nodes[i], nodes[i + 1], int(inside[i]), None) for i in occupied)
    cells = _settle(rep, cells, cfg.root_tol)
    del nodes
    _split(g, rep, cells, cfg.root_tol)
    # NaN rows stand for the points no kept solve took
    none = np.full((4, g.num_edges), np.nan)
    # in cell order, as the refinement and its diagnostics take them
    rep.brackets.sort(key=lambda bracket: bracket[1])
    if rep.brackets:
        wins, lo, hi, f_lo, f_hi, *given = zip(*rep.brackets)
        lo, hi, f_lo, f_hi = (np.array(col) for col in (lo, hi, f_lo, f_hi))
        # the rows the splits gave the ends, after the NaN row of the others
        given = given[0] + given[1]
        held = [i for i, row in enumerate(given) if row is not None]
        ids = np.zeros(len(given), dtype=int)
        ids[held] = np.arange(1, len(held) + 1)
        store = np.array([none] + [given[i] for i in held])
        ends = (store, ids[: len(wins)], ids[len(wins) :])

        def h(x, idx):
            sol = _solve_edges(g, x)
            return _vertex_det(g, x, sol), np.array(sol.m).transpose(1, 0, 2)

        xs, statuses, fs, rows = _chandrupatla(h, lo, hi, f_lo, f_hi, cfg.root_tol, ends)
        for w, left, right, x, status, fx, row in zip(
            wins, lo.tolist(), hi.tolist(), xs.tolist(), statuses.tolist(), fs.tolist(), rows
        ):
            if status == 0:
                rep.emitted.append((w, x, 1, fx, row))
            elif status == -1:
                rep.flag(left, right, "one eigenvalue counted but no sign change")
            else:
                rep.flag(left, right, f"root refinement failed (status {status})")
        del rows
    # these working lists hold M rows: none of them leaves the chunk
    emitted, rep.emitted, rep.brackets = rep.emitted, [], []
    if emitted:
        wins, ks, mults, f, rows = zip(*emitted)
        del emitted
        ks, f = np.array(ks), np.array(f, dtype=float)  # F None is NaN
        m = np.array([none if row is None else row for row in rows])
        del rows  # m holds them now
        m = m.transpose(1, 0, 2)  # (4, roots, E), as the edge layer gives M
        missing = np.isnan(m[0, :, 0])
        if missing.any():
            again = _solve_edges(g, ks[missing])
            m[:, missing] = again.m
            f[missing] = _vertex_det(g, ks[missing], again)
        sol = EdgeSolution(ks[:, None], edge._edge_table(g)[1], tuple(m))
        residuals, f = (np.abs(v).tolist() for v in _det_w(g, ks, sol, f=f))
        for w, k, mult, r, fk in zip(wins, ks.tolist(), mults, residuals, f):
            rep.roots.append((k, mult, r, fk > _RESIDUAL_TOL * scale[w]))
    return rep


def _chandrupatla(f, x1, x2, f1, f2, xatol: float, rows=None):
    """Roots of n real functions, one per bracket [x1, x2] with end values
    f1, f2, by Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Softw.
    28, 1997), all brackets at once: ``f(x, idx)`` evaluates the functions
    numbered ``idx`` at ``x``.  Converged brackets leave the batch.

    Returns the roots and a status per bracket: 0 converged (|x2 - x1| <
    xatol, or |f| <= the smallest normal float), -1 no sign change, -2
    iteration cap, -3 an infinite end or NaN at both ends; x is NaN for -1
    and -3.  The iterates, order of tests and statuses are those of scipy's
    elementwise ``find_root`` with xrtol = 0 and its default fatol.  Every
    step tests |f| at the better end and |x2 - x1|, and the ends for NaN or
    infinity only when the dot product of |x2 - x1| and |f1| is not finite;
    ends of one sign are tested on the first step alone, since a step keeps
    a sign change.  A bracket gets its status, root and value (and row)
    once, when it stops.

    With ``rows`` = (store, i1, i2), the rows of the ends (what the
    evaluation of f1 and f2 gave beside them) being store[i1] and
    store[i2], ``f`` returns its values and their rows, each end keeps its
    row through the swaps, and the value and the row at each root follow
    the status, from the end it was taken at (a bracket stopped by the cap
    returns no value and the row of its x2).  Only the rows of each
    bracket's two current ends are held: x2's by bracket number, which at
    the end are the rows returned, and x1's as the last evaluation gave
    them.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (x1, x2, f1, f2))
    carry = rows is not None
    if carry:
        r1, r2 = (rows[0][i] for i in rows[1:])
        f_out = np.full(len(x1), np.nan)
    x_out = np.full(len(x1), np.nan)
    status = np.full(len(x1), -2)  # where the cap is reached
    active = np.arange(len(x1))
    at1 = active  # where each active bracket's x1 is in r1
    # NaN, and so no |f| test, where an end value is NaN or both are infinite
    ftol = _TINY + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    s1 = np.sign(f1)
    x3, f3 = x2, f2  # the discarded point, set by the first step
    nit = 0
    while True:
        d21 = x2 - x1
        dx, a1, a2 = np.abs(d21), np.abs(f1), np.abs(f2)
        stop = (np.minimum(a1, a2) <= ftol) | (dx < xatol)
        if not nit:
            stop |= s1 == np.sign(f2)
        odd = not math.isfinite(dx @ a1)
        if odd:
            stop |= ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        i = np.flatnonzero(stop)
        if i.size:
            # scipy's order: |f| (0), one sign (-1), non-finite (-3), width (0)
            left = a1[i] < a2[i]
            xmin, fmin = np.where(left, x1[i], x2[i]), np.where(left, f1[i], f2[i])
            code = np.zeros(len(i), dtype=int)
            near = np.abs(fmin) <= ftol[i]
            if not nit:
                code[(s1[i] == np.sign(f2[i])) & ~near] = -1
            if odd:
                bad = ~(np.isfinite(x1[i]) & np.isfinite(x2[i]))
                code[(bad | np.isnan(f1[i]) & np.isnan(f2[i])) & ~near & (code == 0)] = -3
            xmin[code < 0] = np.nan
            done = active[i]
            x_out[done], status[done] = xmin, code
            if carry:
                # a root taken at x1 moves its row to x2's place
                r2[done[left]] = r1[at1[i[left]]]
                f_out[done] = fmin
            keep = np.flatnonzero(~stop)
            active, at1, x1, x2, x3, f1, f2, f3, s1, ftol, d21, dx = (
                v[keep] for v in (active, at1, x1, x2, x3, f1, f2, f3, s1, ftol, d21, dx)
            )
        if not active.size or nit >= _MAX_ITER:
            x_out[active] = np.where(np.abs(f1) < np.abs(f2), x1, x2)  # capped
            break
        t = 0.5
        if nit:
            # inverse quadratic interpolation where it is safe, else
            # bisection; scipy's (x1 - x2) / (x3 - x2) and the last term of
            # its step, over b - c = f2 - f3, with both signs turned
            with np.errstate(divide="ignore", invalid="ignore"):
                df12, df32 = f1 - f2, f3 - f2
                xi, phi, alpha = d21 / (x2 - x3), df12 / df32, (x3 - x1) / d21
                j = ((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi))
                t = f1 / df12 * f3 / df32 + alpha * f1 / (f3 - f1) * f2 / df32
                t = np.where(j, t, 0.5)
        # kept a tolerance away from both ends, as np.clip keeps it
        tl = 0.5 * xatol / dx
        x = x1 + np.minimum(np.maximum(t, tl), 1 - tl) * d21
        fx = f(x, active)
        if carry:
            fx, row = fx
        fx = np.asarray(fx, dtype=float)
        sx = np.sign(fx)
        same = sx == s1
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1, s1 = x, fx, sx
        if carry:
            # x1 becomes x2 where the sign changed
            moved = ~same
            r2[active[moved]] = r1[at1[moved]]
            r1, at1 = row, np.arange(len(active))
            del row  # held in r1 alone
        nit += 1
    if not carry:
        return x_out, status
    return x_out, status, f_out, r2


def scan_spectrum(
    g: MetricGraph,
    k_lo: float,
    k_hi: float,
    config: Optional[ScanConfig] = None,
) -> SpectrumResult:
    """Locate eigenvalues k in [max(k_lo, K_FLOOR), k_hi] with
    multiplicities, below the subunitarity threshold K too, without
    computing K (see the module docstring).

    Every grid cell's eigenvalue count is found, roots are polished to
    root_tol, and roots closer than 1e-7 are fused, their multiplicities
    added.  The count of the whole range is reported beside the roots.
    """
    cfg = config or ScanConfig()
    if np.iscomplexobj(k_lo) or np.iscomplexobj(k_hi):
        raise InputError("the scan range is defined for real k")
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)) or k_hi <= k_lo:
        raise InputError("scan range must satisfy k_lo < k_hi with finite bounds")

    diagnostics: List[str] = []
    lo = max(k_lo, K_FLOOR)
    if lo > k_lo:
        diagnostics.append(f"scan start raised to the k floor {K_FLOOR:g}")
    if lo >= k_hi:
        raise InputError(
            f"scan range [{k_lo:g}, {k_hi:g}] lies at or below the k floor {K_FLOOR:g}"
        )

    step = grid_step(g)
    n_cells = _grid_cells(g, lo, k_hi)

    # Fixed partition into windows of _CELLS_PER_WINDOW grid cells, and of
    # those into the fewest contiguous chunks of at most _WINDOWS_PER_CHUNK
    # windows, which bounds the stacks of one refinement
    cells_per = _CELLS_PER_WINDOW
    bounds = [lo + step * i for i in range(0, n_cells, cells_per)] + [k_hi]
    windows = [(a, b, i == 0) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    n = len(windows)
    n_chunks = -(-n // _WINDOWS_PER_CHUNK)
    chunks = [
        (g, step, cfg, windows[i * n // n_chunks : (i + 1) * n // n_chunks])
        for i in range(n_chunks)
    ]
    # A pool forks all its processes at the first task, so it gets no more
    # than there are chunks to take or CPUs to run them.
    processes = min(cfg.workers, n_chunks, os.cpu_count() or 1)
    if processes > 1:
        # imported here: multiprocessing and its dependencies cost every
        # serial run and every import of the package several milliseconds
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_scan_chunk, chunks))
    else:
        parts = [_scan_chunk(chunk) for chunk in chunks]
    found: List[Tuple[float, int, float, bool]] = []
    flagged: List[Tuple[float, float]] = []
    expected = sum(rep.counted for rep in parts)
    for rep in parts:
        found.extend(rep.roots)
        flagged.extend(rep.flagged)
        diagnostics.extend(rep.diagnostics)

    # fused roots keep the point, residual and diagnostic of the one with
    # the smaller residual
    merged: List[Tuple[float, int, float, bool]] = []
    prev = -math.inf
    for root in sorted(found):
        k, mult, residual, _ = root
        if k - prev <= _MERGE_TOL:
            last = merged[-1]
            best = last if last[2] <= residual else root
            merged[-1] = (best[0], last[1] + mult, best[2], best[3])
        else:
            merged.append(root)
        prev = k
    diagnostics.extend(
        f"large secular residual {r:.2e} at k={k:.9f}" for k, _, r, miss in merged if miss
    )

    free = all(e.potential.kind == "zero" for e in g.edges)
    return SpectrumResult(
        roots=[RootRecord(k, m, r) for k, m, r, _ in merged],
        threshold=0.0 if free else None,
        k_lo=lo,
        k_hi=k_hi,
        diagnostics=diagnostics,
        flagged=sorted(set(flagged)),
        expected_count=expected,
    )
