"""Eigenvalue location by secular-function scanning.

The scan walks a k grid of step pi / (4 * total length), the minimal
oscillation scale of det(I - S), and tracks the branch of the
regularized secular function zeta = (det S)^(-1/2) det(I - S), real on
the real axis.  A window of the grid is one batch: its edges are
evaluated together at every node, once, for zeta (see ``scattering``)
and for the eigenvalue count N(k), the eigenvalues k_j <= k with
multiplicity, from the vertex Dirichlet-to-Neumann index
(``scattering._count``), an integer by construction at every k > 0.  A
grid cell (a, b] holds N(b) - N(a) eigenvalues, of which n0(b) lie on
b, as a kernel of the vertex matrix there.  A cell holding one more is a
sign change of zeta and a bracket for the refinement; a larger count is
split at midpoints, each counted the same way, until every piece holds
at most one, and a piece narrower than root_tol is one root whose
multiplicity is its count.

A window only counts: it hands on its single-root brackets, whose ends
on grid nodes take their det(I - S) from the window's sweep.  The windows
go out in contiguous chunks of at most _WINDOWS_PER_CHUNK windows each (a
serial scan of up to that many windows is one chunk; the cap keeps a
refinement's stacks small on long ranges); a pool gets at least
_CHUNKS_PER_WORKER chunks per worker, so that a worker that starts late
or runs on a slowed CPU takes fewer of them instead of holding up the
scan with a fixed half.  The pool starts no more processes than there are
chunks or CPUs; the partition itself depends on the worker count only.
All brackets of a chunk are refined together by Chandrupatla's bracketing
method (T. R. Chandrupatla, Adv. Eng. Softw. 28, 1997; ``_chandrupatla``,
whose iterates are those of scipy's elementwise find_root), one stacked
det(I - S) per iteration, until each bracket is narrower than root_tol; a bracket it
cannot refine is flagged.  The residuals |det(I - S)| of all the chunk's
roots come from one more stacked call.

``multiplicity`` gives the independent argument-principle count on a
rectangle in the upper half plane, where strict subunitarity of S pins
every zero of det(I - S) to the real segment.  The boundary is walked
with the candidate indented out of the real side; the omitted indentation
semicircle around an order-m zero carries exactly -m*pi, so the walked
phase change equals m*pi.

Window decomposition is fixed by the k range alone (never by the worker
count).  Which windows share a chunk does depend on the worker count, but
every refinement step is elementwise and every determinant is taken per
matrix, so results are identical no matter how the work is distributed.
A range whose grid has more than MAX_GRID_POINTS points is refused.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Tuple

import numpy as np

from .edge import subunitarity_threshold
from .errors import InputError, NumericalError, PhaseTrackingError
from .graph import MetricGraph
from .scattering import _count, _det_w, _track, _Track

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
_RESIDUAL_TOL = 1e-6  # |det(I - S)| above this at a root is a diagnostic

# Windows span this many grid cells so that parallel decomposition is a
# pure partition of the sequential grid.
_CELLS_PER_WINDOW = 64
# Windows whose roots are refined together, at most.  A refinement's
# stacks take about 1.9 kB per grid point on a 10-arm delta star: a serial
# scan of 1e5 points peaked at 233 MB as one chunk and at 69 MB in chunks
# of 64 windows, so one chunk at MAX_GRID_POINTS would need about 2 GB.
_WINDOWS_PER_CHUNK = 64
# Chunks per worker, at least, when a pool refines them: with one chunk
# per worker the two workers of a 6-window scan finished a median 6.9 ms
# apart (quartile spread 9.8 ms) against 2.7 ms (2.4 ms) one window per
# task, so the scan time followed the slower worker.
_CHUNKS_PER_WORKER = 4

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
        windows or CPUs); output does not depend on it.
    allow_below_threshold: scan below the subunitarity threshold K
        (diagnostic mode; eigenvalue certificates are weaker there).
    """

    root_tol: float = 1e-9
    workers: int = 1
    allow_below_threshold: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.root_tol < math.inf:
            raise InputError("root_tol must be positive and finite")
        if self.workers < 1:
            raise InputError("workers must be a positive integer")


@dataclasses.dataclass(frozen=True)
class RootRecord:
    """One located eigenvalue: position, multiplicity, |det(I-S)| there."""

    k: float
    multiplicity: int
    residual: float


@dataclasses.dataclass
class SpectrumResult:
    roots: List[RootRecord]
    threshold: float
    threshold_method: str
    k_lo: float
    k_hi: float
    diagnostics: List[str]
    flagged: List[Tuple[float, float]]
    # eigenvalues in [k_lo, k_hi] with multiplicity by the vertex count:
    # N(k_hi) - N(k_lo) plus the roots at k_lo (scattering._count)
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
    if radius <= 0:
        raise InputError("winding radius must be positive")
    kthr = subunitarity_threshold(g)
    if k0 - radius <= kthr:
        raise InputError(
            f"winding contour requires k0 - radius > threshold K={kthr:.6g}"
        )

    def w(z: complex) -> complex:
        return _det_w(g, z)

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
# Window scan
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _WindowReport:
    roots: List[Tuple[float, int, float]]  # (k, multiplicity, residual)
    flagged: List[Tuple[float, float]]
    diagnostics: List[str]
    # eigenvalues located by counting, (k, multiplicity), and the
    # single-root brackets (lo, hi, f(lo), f(hi), rotation) left to refine
    emitted: List[Tuple[float, int]] = dataclasses.field(default_factory=list)
    brackets: List[Tuple[float, float, float, float, complex]] = dataclasses.field(
        default_factory=list
    )
    counted: int = 0  # eigenvalues in the window by the count

    def flag(self, lo: float, hi: float, what: str) -> None:
        self.flagged.append((float(lo), float(hi)))
        self.diagnostics.append(f"{what} on ({lo:.9g}, {hi:.9g}]")


def _sweep(g: MetricGraph, ks: np.ndarray) -> _Track:
    """A window's grid as one path, anchored at its first node, with the
    eigenvalue count at every node."""
    return _track(g, ks, count=True)


def _scan_window(
    g: MetricGraph,
    a: float,
    b: float,
    step: float,
    cfg: ScanConfig,
    closed_left: bool = False,
) -> _WindowReport:
    """Count the eigenvalues in (a, b], or [a, b] when ``closed_left``.
    The report holds the eigenvalues the count located and the brackets of
    the single roots, which ``_scan_chunk`` refines."""
    n = max(2, int(math.ceil((b - a) / step)) + 1)
    ks = np.linspace(a, b, n)
    for attempt in range(5):
        try:
            tr = _sweep(g, ks)
            break
        except PhaseTrackingError:
            if attempt == 4:
                raise
            n = 2 * (n - 1) + 1
            ks = np.linspace(a, b, n)

    absw = np.abs(tr.zeta)
    scale = max(float(np.median(absw)), 1e-12)
    count, at = tr.count, tr.at
    report = _WindowReport([], [], [], counted=int(count[-1] - count[0]))
    report.counted += int(closed_left * at[0])
    near_zero = absw <= 1e-9 * scale
    ratios = np.abs(tr.zeta.imag)[~near_zero] / absw[~near_zero]
    imag_dev = float(ratios.max()) if ratios.size else 0.0
    if imag_dev > 1e-6:
        report.diagnostics.append(
            f"secular branch deviation {imag_dev:.2e} on [{a:.6g}, {b:.6g}]"
        )

    emitted = report.emitted
    # single-root brackets (lo, hi, grid cell).  The cell's rotation freezes
    # the branch at its left grid node; the sweep keeps the phase drift below
    # 0.9*pi per cell, so the rotated real part keeps the sign of the tracked
    # secular branch within the cell and sign brackets survive the rotation.
    singles: List[Tuple[float, float, int]] = []
    rots = np.exp(-0.5j * tr.phase)

    def resolve(i: int, p, q, m: int) -> None:
        """Locate the m eigenvalues strictly between the points p and q,
        each (k, N, n0), inside the grid cell i."""
        lo, hi = p[0], q[0]
        if m <= 0:
            return
        if m == 1 and not (p[2] or q[2]):
            # one simple root: zeta changes sign in the cell
            singles.append((lo, hi, i))
        elif hi - lo < cfg.root_tol:
            emitted.append((0.5 * (lo + hi), m))
        else:
            k = 0.5 * (lo + hi)
            mid = (k, *(int(c[0]) for c in _count(g, [k])))
            if mid[2]:
                emitted.append((mid[0], mid[2]))
            left = mid[1] - p[1] - mid[2]
            resolve(i, p, mid, left)
            resolve(i, mid, q, m - left - mid[2])

    # a root on a node is a kernel of the vertex matrix there; a cell holds
    # N(right) - N(left) eigenvalues, those on its right node included
    emitted.extend((ks[i], int(at[i])) for i in np.flatnonzero(at) if i or closed_left)
    nodes = list(zip(ks.tolist(), count.tolist(), at.tolist()))
    inside = np.diff(count) - at[1:]
    for i in np.flatnonzero(inside > 0).tolist():
        resolve(i, nodes[i], nodes[i + 1], int(inside[i]))

    if singles:
        # bracket ends on grid nodes take det(I - S) from the track; the
        # ends that split midpoints made come from one stacked call
        lo, hi, cell = (np.array(col) for col in zip(*singles))
        rot = rots[cell]
        ends, nodes = np.concatenate([lo, hi]), np.concatenate([cell, cell + 1])
        f_ends = (np.tile(rot, 2) * tr.det_w[nodes]).real
        split = np.flatnonzero(ends != ks[nodes])
        if split.size:
            f_ends[split] = (np.tile(rot, 2)[split] * _det_w(g, ends[split])).real
        columns = (lo, hi, *np.split(f_ends, 2), rot)
        report.brackets = list(zip(*(c.tolist() for c in columns)))
    return report


def _scan_chunk(chunk) -> List[_WindowReport]:
    """Scan the windows of ``chunk`` = (g, step, cfg, windows), each window
    (a, b, closed_left), in order, then refine the single-root
    brackets of all of them together by one bracketing refinement
    (Chandrupatla), each iteration one stacked det(I - S), until each
    bracket is narrower than root_tol; the residuals |det(I - S)| of all
    the chunk's roots come from one stacked call."""
    g, step, cfg, windows = chunk
    reports = [_scan_window(g, a, b, step, cfg, left) for a, b, left in windows]
    owners = [rep for rep in reports for _ in rep.brackets]
    if owners:
        brackets = [b for rep in reports for b in rep.brackets]
        lo, hi, f_lo, f_hi, rot = (np.array(col) for col in zip(*brackets))

        def h(x, idx):
            return (rot[idx] * _det_w(g, x)).real

        xs, statuses = _chandrupatla(h, lo, hi, f_lo, f_hi, cfg.root_tol)
        for rep, left, right, x, status in zip(
            owners, lo.tolist(), hi.tolist(), xs.tolist(), statuses.tolist()
        ):
            if status == 0:
                rep.emitted.append((x, 1))
            elif status == -1:
                rep.flag(left, right, "one eigenvalue counted but no sign change")
            else:
                rep.flag(left, right, f"root refinement failed (status {status})")
    emitted = [(rep, k, m) for rep in reports for k, m in rep.emitted]
    if emitted:
        residuals = np.abs(_det_w(g, np.array([k for _, k, _ in emitted]))).tolist()
        for (rep, k, m), r in zip(emitted, residuals):
            rep.roots.append((float(k), m, r))
    return reports


def _chandrupatla(f, x1, x2, f1, f2, xatol: float):
    """Roots of n real functions, one per bracket [x1, x2] with end values
    f1, f2, by Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Softw.
    28, 1997), all brackets at once: ``f(x, idx)`` evaluates the functions
    numbered ``idx`` at ``x``.  Converged brackets leave the batch.

    Returns the roots and a status per bracket: 0 converged (|x2 - x1| <
    xatol, or |f| <= the smallest normal float), -1 no sign change, -2
    iteration cap, -3 an infinite end or NaN at both ends; x is NaN for -1
    and -3.  The iterates, order of tests and statuses are those of scipy's
    elementwise ``find_root`` with xrtol = 0 and its default fatol.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (x1, x2, f1, f2))
    x_out = np.full(len(x1), np.nan)
    status = np.full(len(x1), -2)
    active = np.arange(len(x1))
    # NaN, and so no |f| test, where an end value is NaN or both are infinite
    frtol = 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    x3, f3 = x2, f2  # the discarded point, set by the first step
    t = 0.5
    nit = 0
    while True:
        # termination tests, in scipy's order
        left = np.abs(f1) < np.abs(f2)
        xmin = np.where(left, x1, x2)
        stop = np.abs(np.where(left, f1, f2)) <= _TINY + frtol
        code = np.where(stop, 0, -2)  # -2 stands if the cap is reached
        bad = (np.sign(f1) == np.sign(f2)) & ~stop
        xmin[bad], code[bad], stop = np.nan, -1, stop | bad
        bad = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        bad &= ~stop
        xmin[bad], code[bad], stop = np.nan, -3, stop | bad
        dx = np.abs(x2 - x1)
        small = (dx < xatol) & ~stop
        code[small], stop = 0, stop | small
        x_out[active], status[active] = xmin, code
        if stop.any():
            keep = ~stop
            active, x1, x2, x3, f1, f2, f3, frtol, dx = (
                v[keep] for v in (active, x1, x2, x3, f1, f2, f3, frtol, dx)
            )
        if not active.size or nit >= _MAX_ITER:
            break
        if nit:
            # inverse quadratic interpolation where it is safe, else
            # bisection; kept a tolerance away from both ends
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                j = ((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi))
                t = np.full_like(alpha, 0.5)
                a, b, c = f1[j], f2[j], f3[j]
                t[j] = a / (a - b) * c / (c - b) - alpha[j] * a / (c - a) * b / (b - c)
            tl = 0.5 * xatol / dx
            t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        fx = np.asarray(f(x, active), dtype=float)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        nit += 1
    return x_out, status


def scan_spectrum(
    g: MetricGraph,
    k_lo: float,
    k_hi: float,
    config: Optional[ScanConfig] = None,
) -> SpectrumResult:
    """Locate eigenvalues k in [k_lo, k_hi] with multiplicities.

    The effective scan start is raised to the subunitarity threshold K
    (and to the k floor) unless the config allows sub-threshold scans,
    in which case K is only reported.  Every grid cell's eigenvalue count
    is found (see the module docstring), roots are polished to root_tol,
    and roots closer than 1e-7 are fused, their multiplicities added.
    The count of the whole range is reported beside the roots.
    """
    cfg = config or ScanConfig()
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)) or k_hi <= k_lo:
        raise InputError("scan range must satisfy k_lo < k_hi with finite bounds")

    info = subunitarity_threshold(g, detailed=True)
    diagnostics: List[str] = []
    lo = max(k_lo, K_FLOOR)
    if lo > k_lo:
        diagnostics.append(f"scan start raised to the k floor {K_FLOOR:g}")
    if not cfg.allow_below_threshold and lo <= info.K:
        lo = info.K + max(1e-9, 1e-9 * info.K)
        diagnostics.append(
            f"scan start raised above the subunitarity threshold K={info.K:.9g} "
            f"({info.method}); eigenvalues at or below K are not reported"
        )
    if cfg.allow_below_threshold and k_lo <= info.K:
        diagnostics.append(
            f"scanning below the subunitarity threshold K={info.K:.9g} "
            f"({info.method}); root certificates are weaker there"
        )
    if lo >= k_hi:
        raise InputError(
            f"scan range [{k_lo:g}, {k_hi:g}] lies at or below the "
            f"subunitarity threshold K={info.K:.9g}"
        )

    step = grid_step(g)
    n_cells = _grid_cells(g, lo, k_hi)

    # Fixed partition into windows of _CELLS_PER_WINDOW grid cells; the
    # worker count only changes which chunk of windows is refined together.
    cells_per = _CELLS_PER_WINDOW
    bounds = [lo + step * i for i in range(0, n_cells, cells_per)] + [k_hi]
    windows = [(a, b, i == 0) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    # contiguous chunks of at most _WINDOWS_PER_CHUNK windows, which bounds
    # the stacks of one refinement; a pool balances _CHUNKS_PER_WORKER or
    # more per worker
    n = len(windows)
    least = _CHUNKS_PER_WORKER * cfg.workers if cfg.workers > 1 else 1
    n_chunks = min(max(least, -(-n // _WINDOWS_PER_CHUNK)), n)
    chunks = [
        (g, step, cfg, windows[i * n // n_chunks : (i + 1) * n // n_chunks])
        for i in range(n_chunks)
    ]
    # A pool forks all its processes at the first task, so it gets no more
    # than there are chunks to take or CPUs to run them.
    processes = min(cfg.workers, n_chunks, os.cpu_count() or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_scan_chunk, chunks))
    else:
        parts = [_scan_chunk(chunk) for chunk in chunks]
    reports = [rep for part in parts for rep in part]

    found: List[Tuple[float, int, float]] = []
    flagged: List[Tuple[float, float]] = []
    expected = sum(rep.counted for rep in reports)
    for rep in reports:
        found.extend(rep.roots)
        flagged.extend(rep.flagged)
        diagnostics.extend(rep.diagnostics)

    records: List[RootRecord] = []
    prev = -math.inf
    for k, mult, residual in sorted(found):
        if k - prev <= _MERGE_TOL:
            last = records[-1]
            k_star = last.k if last.residual <= residual else k
            records[-1] = RootRecord(
                k_star, last.multiplicity + mult, min(last.residual, residual)
            )
        else:
            records.append(RootRecord(k, mult, residual))
        prev = k
    for r in records:
        if r.residual > _RESIDUAL_TOL:
            diagnostics.append(
                f"large secular residual {r.residual:.2e} at k={r.k:.9f}"
            )

    return SpectrumResult(
        roots=records,
        threshold=info.K,
        threshold_method=info.method,
        k_lo=lo,
        k_hi=k_hi,
        diagnostics=diagnostics,
        flagged=sorted(set(flagged)),
        expected_count=expected,
    )
