"""Spectrum scanning, root certification, and multiplicity counting."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qgspectra import spectrum
from qgspectra.edge import subunitarity_threshold
from qgspectra.errors import InputError
from qgspectra.orbits import TestFunction, trace_check
from qgspectra.scattering import _count
from qgspectra.spectrum import ScanConfig, multiplicity, scan_spectrum

from .conftest import random_delta_star, star
from .oracles import interval_delta_secular, roots_on

# Cross-checked against an independent second-order discretization of the
# same operator (extrapolated in the step size); the two agree to 1.5e-9
# on every entry.
DELTA_STAR_KS = [
    1.011147546,
    1.832261014,
    2.079247968,
    3.270757560,
    4.829440399,
    4.884926815,
    6.394241068,
    7.873904664,
    7.950667868,
    9.451672551,
    11.013134287,
    11.063882621,
]


def test_config_defaults():
    c = ScanConfig()
    fields = [f.name for f in dataclasses.fields(c)]
    assert fields == ["root_tol", "workers", "allow_below_threshold"]
    assert c.root_tol == 1e-9
    assert c.workers == 1
    assert c.allow_below_threshold is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"root_tol": 0.0},
        {"root_tol": -1e-9},
        {"root_tol": math.nan},
        {"root_tol": math.inf},
        {"workers": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InputError):
        ScanConfig(**kwargs)


def test_neumann_interval_spectrum_is_integers(g_interval_pi):
    res = scan_spectrum(g_interval_pi, 0.5, 10.5)
    assert len(res.roots) == 10
    for n, r in enumerate(res.roots, start=1):
        assert abs(r.k - n) <= 1e-9
        assert r.multiplicity == 1
        assert abs(r.residual) <= 1e-6
    assert res.total_count() == 10
    assert res.flagged == []
    assert res.threshold == 0.0
    assert res.threshold_method == "closed-form"


def test_scan_start_is_floored(g_interval_pi):
    res = scan_spectrum(g_interval_pi, 0.0, 3.5)
    assert res.k_lo == 0.001
    assert [round(k) for k in res.ks] == [1, 2, 3]


def test_roots_on_both_ends_of_the_range_are_kept(g_interval_pi):
    res = scan_spectrum(g_interval_pi, 1.0, 3.0)
    layout = [(round(r.k, 9), r.multiplicity) for r in res.roots]
    assert layout == [(1, 1), (2, 1), (3, 1)]
    assert res.flagged == []


def test_point_interaction_interval_matches_reference(g_interval_delta_pi):
    res = scan_spectrum(g_interval_delta_pi, 0.5, 6.5)
    f = interval_delta_secular(math.pi, 2.0, math.pi / 2)
    expected = [r for r in roots_on(f, 0.4, 6.6) if 0.5 <= r <= 6.5]
    assert len(res.ks) == len(expected) == 7
    for got, want in zip(res.ks, expected):
        assert abs(got - want) <= 1e-8


def test_star_with_point_interactions_matches_frozen_list(g_delta_star):
    res = scan_spectrum(g_delta_star, 0.5, 12.0)
    assert len(res.ks) == len(DELTA_STAR_KS)
    for got, want in zip(res.ks, DELTA_STAR_KS):
        assert abs(got - want) <= 5e-9
    assert list(res.multiplicities) == [1] * 12
    assert res.flagged == []


def test_close_pair_is_not_merged(g_delta_star):
    # the 4.829 / 4.885 pair sits in one coarse grid cell; both must survive
    res = scan_spectrum(g_delta_star, 0.5, 6.0)
    near = [k for k in res.ks if 4.7 < k < 5.0]
    assert len(near) == 2


def test_equilateral_star_multiplicity_layout(g_star3_eq):
    res = scan_spectrum(g_star3_eq, 1.0, 5.0)
    layout = [(r.k, r.multiplicity) for r in res.roots]
    expected = [(math.pi / 2, 2), (math.pi, 1), (3 * math.pi / 2, 2)]
    assert len(layout) == 3
    for (k, m), (k0, m0) in zip(layout, expected):
        assert abs(k - k0) <= 1e-9
        assert m == m0
    assert res.total_count() == 5


def test_winding_count_on_isolated_roots(g_star3_eq):
    assert multiplicity(g_star3_eq, math.pi / 2, 0.3) == 2
    assert multiplicity(g_star3_eq, math.pi, 0.3) == 1
    assert multiplicity(g_star3_eq, 0.8, 0.3) == 0


SCAN_RANGES = {
    "g_interval_pi": (0.5, 10.5),
    "g_interval_delta_pi": (0.5, 6.5),
    "g_star3_eq": (1.0, 5.0),
    "g_delta_star": (0.5, 12.0),
}


@pytest.mark.parametrize("name", ["g_interval_delta_pi", "g_star3_eq", "g_delta_star"])
def test_per_root_winding_agrees_with_scan(request, name):
    g = request.getfixturevalue(name)
    res = scan_spectrum(g, *SCAN_RANGES[name])
    ks = list(res.ks)
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    windings = []
    for i, r in enumerate(res.roots):
        near = []
        if i > 0:
            near.append(gaps[i - 1])
        if i < len(gaps):
            near.append(gaps[i])
        radius = min(0.35 * min(near), 0.15)
        windings.append(multiplicity(g, r.k, radius))
    assert windings == list(res.multiplicities)
    assert sum(windings) == res.total_count()


def test_scan_below_threshold_is_clamped(g_interval_delta_neg):
    res = scan_spectrum(g_interval_delta_neg, 0.5, 6.5)
    K = math.sqrt(3.0) / 2.0
    assert res.k_lo > K
    assert any("scan start raised above the subunitarity threshold" in d for d in res.diagnostics)
    assert len(res.ks) == 2
    assert abs(res.ks[0] - math.pi) <= 1e-8
    assert abs(res.ks[1] - 6.120152766860) <= 1e-8


def test_scan_below_threshold_opt_in(g_interval_delta_neg):
    cfg = ScanConfig(allow_below_threshold=True)
    res = scan_spectrum(g_interval_delta_neg, 0.5, 6.5, cfg)
    assert res.k_lo == 0.5
    assert any("root certificates are weaker" in d for d in res.diagnostics)
    assert len(res.ks) == 2
    assert abs(res.ks[0] - math.pi) <= 1e-8
    assert abs(res.ks[1] - 6.120152766860) <= 1e-8


def test_range_entirely_below_threshold_rejected(g_interval_delta_neg):
    with pytest.raises(InputError, match="lies at or below"):
        scan_spectrum(g_interval_delta_neg, 0.3, 0.8)


def test_winding_guard_below_threshold(g_interval_delta_neg):
    with pytest.raises(InputError, match="requires k0 - radius > threshold"):
        multiplicity(g_interval_delta_neg, 1.0, 0.5)


def test_scan_is_deterministic(g_delta_star):
    a = scan_spectrum(g_delta_star, 0.5, 8.0)
    b = scan_spectrum(g_delta_star, 0.5, 8.0)
    assert list(a.ks) == list(b.ks)
    assert [r.residual for r in a.roots] == [r.residual for r in b.roots]


def test_workers_do_not_change_results():
    # the chunks of windows depend on the worker count, so every bracket
    # of a chunk shares its stacked refinement with a different set of
    # others at each worker count
    g = random_delta_star(1)
    runs = [scan_spectrum(g, 0.5, 30.0, ScanConfig(workers=w)) for w in (1, 2, 3)]
    for res in runs[1:]:
        assert res.roots == runs[0].roots
        assert res.diagnostics == runs[0].diagnostics
        assert res.flagged == runs[0].flagged


def test_serial_scan_refines_every_window_at_once(monkeypatch):
    # the six windows of [0.5, 30] form one chunk: one refinement call
    # takes all their single-root brackets
    calls = []
    refine = spectrum._chandrupatla

    def counted(f, lo, *args):
        calls.append(len(lo))
        return refine(f, lo, *args)

    monkeypatch.setattr(spectrum, "_chandrupatla", counted)
    res = scan_spectrum(random_delta_star(1), 0.5, 30.0)
    assert len(calls) == 1
    assert calls[0] <= len(res.roots)


@pytest.fixture
def pool_chunks(monkeypatch):
    """Stand-in for the process pool that runs in this process on a host
    of eight CPUs.  Returns the list that records, per pool started, its
    max_workers and the window counts of the chunks given to it; the
    host's CPU count can be set through monkeypatch."""
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append((max_workers, []))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, f, chunks):
            chunks = list(chunks)
            pools[-1][1].extend(len(c[3]) for c in chunks)
            return [f(c) for c in chunks]

    monkeypatch.setattr(spectrum, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(spectrum.os, "cpu_count", lambda: 8)
    return pools


def test_pool_gets_several_chunks_per_worker(pool_chunks):
    # a pool balances its chunks between the workers only if there are more
    # chunks than workers: the six windows of [0.5, 30] go out one by one
    g = random_delta_star(1)
    res = scan_spectrum(g, 0.5, 30.0, ScanConfig(workers=2))
    assert pool_chunks == [(2, [1] * 6)]
    assert res.roots == scan_spectrum(g, 0.5, 30.0).roots


@pytest.mark.parametrize("cpus, started", [(8, 6), (3, 3), (None, None)])
def test_pool_starts_no_more_processes_than_chunks_or_cpus(
    pool_chunks, monkeypatch, cpus, started
):
    # a pool forks all its processes at the first task, so 5000 workers on
    # the six one-window chunks of [0.5, 30] start one per chunk or per
    # CPU; with one CPU (or an unknown count) the chunks run in this
    # process.  The chunks stay those of 5000 workers either way.
    monkeypatch.setattr(spectrum.os, "cpu_count", lambda: cpus)
    sizes, scan_chunk = [], spectrum._scan_chunk

    def seen(chunk):
        sizes.append(len(chunk[3]))
        return scan_chunk(chunk)

    monkeypatch.setattr(spectrum, "_scan_chunk", seen)
    g = random_delta_star(1)
    res = scan_spectrum(g, 0.5, 30.0, ScanConfig(workers=5000))
    assert pool_chunks == ([] if started is None else [(started, [1] * 6)])
    assert sizes == [1] * 6
    assert res.roots == scan_spectrum(g, 0.5, 30.0).roots


def test_long_serial_scan_is_refined_chunk_by_chunk(monkeypatch):
    # past _WINDOWS_PER_CHUNK windows a serial scan is cut into contiguous
    # chunks, so no refinement holds the brackets of the whole range
    calls, windows = [], []
    refine, scan_window = spectrum._chandrupatla, spectrum._scan_window

    def counted(f, lo, *args):
        calls.append(len(lo))
        return refine(f, lo, *args)

    def seen(g, a, *args):
        windows.append(a)
        return scan_window(g, a, *args)

    monkeypatch.setattr(spectrum, "_chandrupatla", counted)
    monkeypatch.setattr(spectrum, "_scan_window", seen)
    g = random_delta_star(1)
    cells = spectrum._CELLS_PER_WINDOW * spectrum._WINDOWS_PER_CHUNK + 32
    res = scan_spectrum(g, 0.5, 0.5 + cells * spectrum.grid_step(g))
    assert len(windows) == spectrum._WINDOWS_PER_CHUNK + 1
    assert len(calls) == 2
    assert sum(calls) <= len(res.roots)


def test_grid_beyond_the_cap_is_refused(g_delta_star, monkeypatch):
    # refused before any window is scanned
    monkeypatch.setattr(spectrum, "_scan_chunk", None)
    with pytest.raises(InputError, match="grid points"):
        scan_spectrum(g_delta_star, 1.0, 1e300)
    step = spectrum.grid_step(g_delta_star)
    with pytest.raises(InputError, match="grid points"):
        scan_spectrum(g_delta_star, 1.0, 1.0 + spectrum.MAX_GRID_POINTS * step)


@pytest.mark.parametrize(
    "seed, n_roots, close",
    [(1, 94, [17.183413]), (6, 98, [15.776469, 15.794989])],
)
def test_close_root_clusters_are_all_found(seed, n_roots, close):
    # each listed root sits in a cluster of three inside about one grid
    # cell, where the sign changes of zeta cancel in pairs
    res = scan_spectrum(random_delta_star(seed), 0.5, 30.0)
    assert res.total_count() == len(res.roots) == n_roots
    assert res.flagged == []
    for k in close:
        assert min(abs(res.ks - k)) <= 1e-6


@pytest.mark.parametrize("name, budget", [("g_delta_star", 148), ("g_star3_eq", 82)])
def test_scan_work_is_bounded(request, assembled_ks, name, budget):
    # deterministic count of k points whose S(k) is assembled: sweep,
    # splits, refinement and residuals; bracket ends on grid nodes reuse the
    # sweep's det(I - S)
    scan_spectrum(request.getfixturevalue(name), *SCAN_RANGES[name])
    assert len(assembled_ks) <= budget


def test_trace_check_work_is_bounded(g_delta_star, assembled_ks):
    # T, T' once per quadrature node (8 panels x 64 nodes on [16, 24]) plus
    # the scan of the same support, at any n_max: the orbit rows cost no
    # edge work
    phi = TestFunction(20.0, 0.5)
    scan_spectrum(g_delta_star, *phi.support)
    scan = len(assembled_ks)
    counts = []
    for n_max in (4, 16):
        assembled_ks.clear()
        trace_check(g_delta_star, phi, n_max)
        counts.append(len(assembled_ks))
    assert counts == [8 * 64 + scan] * 2


def test_threshold_work_is_bounded(magnus_calls, threshold_points):
    # deterministic counts on the smooth-scan star: 384 (k, eps, edge) grid
    # points, batched through the Magnus kernel, each evaluated once
    arms = [(1.0, {"type": "expr", "expr": f"cos({n}*x)"}) for n in (2, 3, 4)]
    assert subunitarity_threshold(star(arms)) == 1.0
    assert len(magnus_calls) <= 100
    assert len(threshold_points) == len(set(threshold_points)) == 384


@pytest.mark.parametrize("name", ["g_interval_pi", "g_star3_eq", "g_delta_star"])
def test_total_multiplicity_equals_eigenphase_count(request, name):
    # the roots found add up to the eigenvalue count over the range, taken
    # at its two ends alone (scattering._count): N(k_hi) - N(k_lo) plus the
    # roots at k_lo (the name keeps the test's id; the count is the DtN one)
    g = request.getfixturevalue(name)
    res = scan_spectrum(g, *SCAN_RANGES[name])
    count, at = _count(g, [res.k_lo, res.k_hi])
    assert res.total_count() == count[1] - count[0] + at[0] == res.expected_count


def test_bad_node_count_is_flagged(g_delta_star, monkeypatch):
    # raise the count at the right node of the grid cell holding 3.27075756
    # by one: the cell counts two eigenvalues, its split finds the root and
    # flags the half that holds none; every root is still found
    sweep, cells = spectrum._sweep, []

    def corrupted(g, ks):
        tr = sweep(g, ks)
        i = int(np.searchsorted(ks, DELTA_STAR_KS[3]))
        if 0 < i < len(ks):
            tr.count[i] += 1
            cells.append((ks[i - 1], ks[i]))
        return tr

    monkeypatch.setattr(spectrum, "_sweep", corrupted)
    res = scan_spectrum(g_delta_star, 0.5, 12.0)
    assert len(cells) == len(res.flagged) == 1
    (cell_lo, cell_hi), (lo, hi) = cells[0], res.flagged[0]
    assert cell_lo <= lo < hi <= cell_hi
    assert any("one eigenvalue counted but no sign change" in d for d in res.diagnostics)
    assert list(res.ks) == pytest.approx(DELTA_STAR_KS, abs=5e-9)


def test_cycle_roots_on_dirichlet_eigenvalues_are_found(g_triangle):
    # the triangle is a circle of length 3: double roots 2 pi m / 3, and the
    # one at 2 pi is a Dirichlet eigenvalue of its unit edge, a pole of the
    # vertex matrix, where the count is taken on the cut graph
    res = scan_spectrum(g_triangle, 1.0, 12.0)
    assert list(res.multiplicities) == [2] * 5
    assert list(res.ks) == pytest.approx([2 * math.pi * m / 3 for m in range(1, 6)], abs=1e-9)
    assert res.flagged == [] and res.diagnostics == []


def test_failed_refinement_is_flagged(g_delta_star, monkeypatch):
    # the refinement of the cell holding 3.27075756 reports a failure; that
    # cell is flagged, the other roots are still found
    refine = spectrum._chandrupatla

    def failing(f, lo, hi, *args):
        x, status = refine(f, lo, hi, *args)
        status[(lo < DELTA_STAR_KS[3]) & (DELTA_STAR_KS[3] <= hi)] = -2
        return x, status

    monkeypatch.setattr(spectrum, "_chandrupatla", failing)
    res = scan_spectrum(g_delta_star, 0.5, 12.0)
    assert len(res.flagged) == 1
    lo, hi = res.flagged[0]
    assert lo < DELTA_STAR_KS[3] <= hi
    assert any("root refinement failed (status -2)" in d for d in res.diagnostics)
    assert res.total_count() == len(DELTA_STAR_KS) - 1


def test_refinement_equals_scipy_find_root():
    # Chandrupatla's iterates are scipy's, bit for bit: smooth, flat, steep
    # and kinked functions, a root on a bracket end, brackets narrower than
    # and exactly as wide as the tolerance, no sign change (status -1, also
    # with an infinite end), a NaN function (-3) and a NaN end beside a
    # zero one, which scipy does not count as converged
    from scipy.optimize.elementwise import find_root

    width = 2.0**-30

    funcs = [
        lambda x: x**3 - 2.0 * x - 5.0,
        lambda x: np.cos(x) - x,
        lambda x: np.tanh(40.0 * (x - 0.3)),
        lambda x: (x - 1.0) ** 5,
        lambda x: np.exp(x) - 10.0,
        lambda x: np.sign(x - 0.7) * np.sqrt(np.abs(x - 0.7)),
        lambda x: np.sin(7.0 * x),
        lambda x: x - 2.0,
        lambda x: x * x + 1.0,
        lambda x: np.nan * x,
        lambda x: 1e-3 * (x - 0.123456789),
        lambda x: x - (0.25 + width / 2),
        lambda x: np.ones_like(x),
        lambda x: np.where(x < 1.0, np.nan, x - 1.0),
    ]
    lo = [0.0, 0.0, -1.0, 0.2, 0.0, 0.0, 0.3, 2.0, -1.0, 0.0, 0.1234567885, 0.25, 1.0, 0.0]
    hi = [3.0, 1.0, 2.0, 1.7, 5.0, 2.0, 0.6, 3.0, 1.0, 1.0, 0.1234567895, 0.25 + width,
          np.inf, 1.0]
    lo, hi = np.array(lo), np.array(hi)
    every = np.arange(len(funcs))

    def f(x, idx):
        # the functions numbered idx at x; scipy passes idx as an argument
        # compressed with x, the refinement passes its active brackets
        return np.array([funcs[i](xi) for i, xi in zip(idx.tolist(), x)])

    for tol in (1e-9, width, 1e-13):
        ref = find_root(
            f, (lo, hi), args=(every,), tolerances={"xatol": tol, "xrtol": 0.0}
        )
        x, status = spectrum._chandrupatla(f, lo, hi, f(lo, every), f(hi, every), tol)
        assert status.tolist() == ref.status.tolist()
        assert set(status.tolist()) == {0, -1, -3}
        assert np.array_equal(x, ref.x, equal_nan=True)

