"""Spectrum scanning, root certification, and multiplicity counting."""
from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from qgspectra import edge, scattering, spectrum
from qgspectra.edge import subunitarity_threshold
from qgspectra.errors import InputError
from qgspectra.fd import fd_spectrum
from qgspectra.orbits import TestFunction, trace_check
from qgspectra.scattering import _vertex_det
from qgspectra.spectrum import ScanConfig, multiplicity, scan_spectrum

from .conftest import random_delta_star, star
from .oracles import interval_delta_secular, roots_on

SMOOTH_ARMS = [(1.0, {"type": "expr", "expr": f"cos({n}*x)"}) for n in (2, 3, 4)]

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
    assert fields == ["root_tol", "workers"]
    assert c.root_tol == 1e-9
    assert c.workers == 1
    assert ScanConfig(workers=np.int64(2)).workers == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"root_tol": 0.0},
        {"root_tol": -1e-9},
        {"root_tol": math.nan},
        {"root_tol": math.inf},
        {"workers": 0},
        {"workers": "2"},
        {"workers": 2.5},
        {"workers": None},
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


def test_scan_start_is_floored(g_interval_pi):
    res = scan_spectrum(g_interval_pi, 0.0, 3.5)
    assert res.k_lo == 0.001
    assert [round(k) for k in res.ks] == [1, 2, 3]
    with pytest.raises(InputError, match="lies at or below the k floor"):
        scan_spectrum(g_interval_pi, 0.0, 5e-4)


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
    # the scan starts where it is asked to, below K = sqrt(3)/2 too (the
    # name keeps the test's id; nothing is clamped any more), and reports
    # no K on a graph with a potential
    res = scan_spectrum(g_interval_delta_neg, 0.5, 6.5)
    assert res.threshold is None
    assert subunitarity_threshold(g_interval_delta_neg) == pytest.approx(math.sqrt(3.0) / 2.0)
    assert res.k_lo == 0.5
    assert res.diagnostics == [] and res.flagged == []
    assert len(res.ks) == 2 == res.expected_count
    assert abs(res.ks[0] - math.pi) <= 1e-8
    assert abs(res.ks[1] - 6.120152766860) <= 1e-8


def test_range_entirely_below_threshold_rejected(g_interval_delta_neg):
    # [0.3, 0.8] lies below K and holds no eigenvalue: the first positive
    # one of the finite-difference operator lies above it (the name keeps
    # the test's id; the range is scanned, not rejected)
    res = scan_spectrum(g_interval_delta_neg, 0.3, 0.8)
    assert res.k_lo == 0.3
    assert res.roots == [] and res.expected_count == 0
    assert res.diagnostics == [] and res.flagged == []
    fd = fd_spectrum(g_interval_delta_neg, 0.002, 3, richardson=True)
    assert fd.ks[0] > 0.8


def test_scan_never_computes_the_heuristic_threshold(monkeypatch):
    # the smooth-scan window of the cos(2x), cos(3x), cos(4x) star: the
    # spectrum scan never computes K (the name keeps the test's id)
    def refused(g):
        raise AssertionError("the threshold was computed")

    monkeypatch.setattr(edge, "_compute_threshold", refused)
    # refined to 1e-13, so the roots pinned are the converged ones, not an
    # iterate of the refinement; the values are the propagator's at
    # _DEFAULT_TOL 1e-13 and 1e-14, equal to 4e-15, so no step error is pinned
    res = scan_spectrum(star(SMOOTH_ARMS), 4.4, 5.0, ScanConfig(root_tol=1e-13))
    assert res.threshold is None
    assert list(res.ks) == pytest.approx([4.706118326704501, 4.742476515989812], abs=1e-12)
    assert list(res.multiplicities) == [1, 1]
    assert res.flagged == [] and res.diagnostics == []


def test_roots_below_threshold_match_finite_differences(g_smooth_star):
    # the same star from k = 0.05, below its K: every root against the
    # eigenvalues of an independent finite-difference operator (h = 0.005,
    # extrapolated; 3e-10 apart), and the roots add up to the count
    g = g_smooth_star
    res = scan_spectrum(g, 0.05, 6.0)
    fd = fd_spectrum(g, 0.005, 8, richardson=True)
    assert len(fd.negative) == 0
    expected = fd.ks[fd.ks <= 6.0]
    assert res.ks[0] < 1.0
    assert list(res.ks) == pytest.approx(expected.tolist(), abs=1e-8)
    assert list(res.multiplicities) == [1] * len(expected)
    assert res.expected_count == res.total_count() == 6
    assert res.flagged == [] and res.diagnostics == []


def test_winding_guard_below_threshold(g_interval_delta_neg):
    with pytest.raises(InputError, match="requires k0 - radius > threshold"):
        multiplicity(g_interval_delta_neg, 1.0, 0.5)


def test_scan_is_deterministic(g_delta_star):
    a = scan_spectrum(g_delta_star, 0.5, 8.0)
    b = scan_spectrum(g_delta_star, 0.5, 8.0)
    assert list(a.ks) == list(b.ks)
    assert [r.residual for r in a.roots] == [r.residual for r in b.roots]


def test_workers_do_not_change_results(monkeypatch):
    # one window per chunk, so two and three workers run a real forked pool
    # over the six chunks of [0.5, 30]
    monkeypatch.setattr(spectrum, "_WINDOWS_PER_CHUNK", 1)
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(spectrum.os, "cpu_count", lambda: 8)
    return pools


def test_one_chunk_scan_starts_no_pool(pool_chunks):
    # the six windows of [0.5, 30] are one chunk at any worker count, and
    # a pool of one process would only add its fork and join
    g = random_delta_star(1)
    res = scan_spectrum(g, 0.5, 30.0, ScanConfig(workers=2))
    assert pool_chunks == []
    assert res.roots == scan_spectrum(g, 0.5, 30.0).roots


@pytest.mark.parametrize("cpus, started", [(8, 6), (3, 3), (None, None)])
def test_pool_starts_no_more_processes_than_chunks_or_cpus(
    pool_chunks, monkeypatch, cpus, started
):
    # a pool forks all its processes at the first task, so 5000 workers on
    # the six one-window chunks of [0.5, 30] (one window per chunk here)
    # start one per chunk or per CPU; with one CPU (or an unknown count)
    # the chunks run in this process.  The chunks stay the same either way.
    monkeypatch.setattr(spectrum, "_WINDOWS_PER_CHUNK", 1)
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

    def seen(ks, *args):
        windows.append(ks[0])
        return scan_window(ks, *args)

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


@pytest.mark.parametrize("name, budget", [("g_delta_star", 134), ("g_star3_eq", 81)])
def test_scan_work_is_bounded(request, assembled_ks, name, budget):
    # deterministic count of k points whose edges are solved: sweep,
    # splits, refinement and residuals; bracket ends reuse F from the sweep
    # or from the split that made them
    scan_spectrum(request.getfixturevalue(name), *SCAN_RANGES[name])
    assert len(assembled_ks) <= budget


@pytest.mark.parametrize(
    "seed, arms, hi, calls, points",
    [(1, 10, 30.0, 11, 949), (3, 40, 60.0, 60, 7868)],
    ids=["10-arm", "40-arm"],
)
def test_scan_pays_for_points_not_calls(vertex_det_points, seed, arms, hi, calls, points):
    # deterministic counts of F evaluations: the sweeps, as many windows a
    # call as fit the element budget (2 on the 10-arm star, 1 per window on
    # the 40-arm one), one call per split level (one here) and one per
    # refinement iteration; the residuals read F and the edges' M from the
    # evaluation that reported each root, so no root is evaluated again
    scan_spectrum(random_delta_star(seed, arms), 0.5, hi)
    assert len(vertex_det_points) == calls
    assert sum(map(len, vertex_det_points)) == points


RESIDUAL_SCANS = {
    "delta-star": (lambda request: request.getfixturevalue("g_delta_star"), 0.5, 12.0),
    "smooth-window": (lambda request: star(SMOOTH_ARMS), 4.4, 5.0),
    "smooth-20-40": (lambda request: star(SMOOTH_ARMS), 20.0, 40.0),
    "triangle": (lambda request: request.getfixturevalue("g_triangle"), 1.0, 12.0),
    "equilateral": (lambda request: request.getfixturevalue("g_star3_eq"), 0.5, 12.0),
}


@pytest.mark.parametrize("name", list(RESIDUAL_SCANS))
def test_residuals_are_those_of_a_fresh_solve(request, monkeypatch, name):
    # each root's residual |det(I - S)| and large-residual flag are read
    # from the M rows and F of the evaluation that reported it, and equal
    # those of a solve at that k alone, bit for bit.  The triangle's core
    # has three vertices, and its roots at Dirichlet eigenvalues of an edge
    # are counted on the cut graph; the equilateral star's double roots are
    # reported at split nodes
    build, lo, hi = RESIDUAL_SCANS[name]
    g = build(request)
    reports, scan_chunk = [], spectrum._scan_chunk

    def seen(chunk):
        reports.extend(scan_chunk(chunk))
        return reports[-len(chunk[3]) :]

    monkeypatch.setattr(spectrum, "_scan_chunk", seen)
    res = scan_spectrum(g, lo, hi)
    roots = [(rep, root) for rep in reports for root in rep.roots]
    assert len(roots) >= len(res.roots) > 0
    for rep, (k, _, residual, flag) in roots:
        w, f = np.abs(scattering._det_w(g, [k]))
        assert residual == w[0]
        assert flag == (f[0] > spectrum._RESIDUAL_TOL * rep.scale)


@pytest.mark.parametrize(
    "g, lo, hi",
    [(random_delta_star(seed), 0.5, 30.0) for seed in range(5)]
    + [(star(SMOOTH_ARMS), 4.4, 5.0)],
    ids=[f"delta-panel-{seed}" for seed in range(5)] + ["smooth-window"],
)
def test_no_point_is_solved_twice(assembled_ks, monkeypatch, g, lo, hi):
    # the five delta panels of the delta-scan benchmark (random_delta_star
    # 0-4) and the smooth-scan window: no root lies on a sweep node or at a
    # bracket end the refinement never moved, so every root's residual is
    # read from rows already solved.  Past the sweeps, which solve the node
    # two windows share once for each, no point is solved twice
    swept, sweep = [], spectrum._sweep

    def seen(g, ks):
        swept.extend(ks.tolist())
        return sweep(g, ks)

    monkeypatch.setattr(spectrum, "_sweep", seen)
    res = scan_spectrum(g, lo, hi)
    assert res.roots
    rest = collections.Counter(assembled_ks) - collections.Counter(swept)
    assert sum(rest.values()) == len(assembled_ks) - len(swept)
    assert max(rest.values()) == 1 and not set(rest) & set(swept)


@pytest.fixture
def split_levels(monkeypatch):
    """The points of each counted split level of a scan: the edge solves
    that ``_split`` makes with their zeros (the sweeps count through
    ``_vertex_det`` and the refinement and residuals do not count)."""
    levels, solve = [], spectrum._solve_edges

    def counted(g, ks, *args, want_count=False, **kwargs):
        if want_count:
            levels.append(list(ks))
        return solve(g, ks, *args, want_count=want_count, **kwargs)

    monkeypatch.setattr(spectrum, "_solve_edges", counted)
    return levels


def test_a_cell_is_split_by_its_count(split_levels):
    # the three roots near 17.183413 of random_delta_star(1) lie in one grid
    # cell: its first split cuts it in 6 pieces, 5 points counted in the
    # scan's one split level, which separates them
    g = random_delta_star(1)
    step = spectrum.grid_step(g)
    res = scan_spectrum(g, 0.5, 30.0)
    assert len([k for k in res.ks if abs(k - 17.183413) < step]) == 3
    assert res.flagged == []
    assert len(split_levels) == 1
    points = [k for k in split_levels[0] if abs(k - 17.183413) < step]
    assert len(points) == 5 and max(points) - min(points) < step


def test_close_pair_is_split_in_two_levels(split_levels):
    # the smooth-scan window's one cell of two roots, (4.706, 4.742), is cut
    # in 4 pieces (3 points) and the piece holding both halved once more
    res = scan_spectrum(star(SMOOTH_ARMS), 4.4, 5.0)
    assert list(res.ks) == pytest.approx([4.706, 4.742], abs=1e-3)
    assert [len(level) for level in split_levels] == [3, 1]


BATCHED_SCANS = {
    "delta-star-1": (lambda request: random_delta_star(1), 0.5, 30.0, 1),
    "delta-star-6": (lambda request: random_delta_star(6), 0.5, 30.0, 1),
    "triangle": (lambda request: request.getfixturevalue("g_triangle"), 1.0, 12.0, 1),
    "smooth-star": (lambda request: star(SMOOTH_ARMS), 4.4, 5.0, 1),
    "pool": (lambda request: random_delta_star(1), 0.5, 30.0, 2),
}


@pytest.mark.parametrize("name", list(BATCHED_SCANS))
def test_sweep_batching_leaves_the_scan_as_it_is(request, monkeypatch, name):
    # one window a sweep, the default budget, and a whole chunk in one
    # sweep give the same roots, flags, diagnostics and count, bit for bit:
    # every step of a scan is elementwise per point.  The triangle's core
    # has three vertices and its count passes through the cut graph; on the
    # smooth star the budget also sizes the Magnus kernel's pieces; the
    # pool case runs two workers over one-window chunks
    build, lo, hi, workers = BATCHED_SCANS[name]
    g = build(request)
    if workers > 1:
        monkeypatch.setattr(spectrum, "_WINDOWS_PER_CHUNK", 1)
    runs = []
    for budget in (1, edge._POINT_STEPS, 10**7):
        monkeypatch.setattr(edge, "_POINT_STEPS", budget)
        res = scan_spectrum(g, lo, hi, ScanConfig(workers=workers))
        runs.append((res.roots, res.flagged, res.diagnostics, res.expected_count))
    assert runs[0][0]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_trace_check_work_is_bounded(g_delta_star, assembled_ks):
    # T, T' once per quadrature node evaluated plus the scan of the same
    # support: 8 panels on [16, 24], each at 9, 17, 33 or 65 nested
    # Clenshaw-Curtis nodes (232 in all at n_max 4, where the rows
    # oscillate slower, 456 at 16; the fixed rule took 8 x 64 = 512 at
    # both), less the 7 interior panel ends, each evaluated once for both
    # its panels.  The orbit rows cost no edge work
    phi = TestFunction(20.0, 0.5)
    scan_spectrum(g_delta_star, *phi.support)
    scan = len(assembled_ks)
    counts = []
    for n_max in (4, 16):
        assembled_ks.clear()
        trace_check(g_delta_star, phi, n_max)
        counts.append(len(assembled_ks))
    assert counts == [225 + scan, 449 + scan]


def test_threshold_work_is_bounded(magnus_calls, gauss_samplings):
    # deterministic counts on the smooth-scan star: each arm sampled at 64
    # and 128 steps; one Magnus pass (64 and 128 steps together) for the
    # grid's first point, one for the rest of it and one per refinement
    # step, 8 (16 when each count took a pass of its own)
    K = subunitarity_threshold(star(SMOOTH_ARMS))
    assert K == pytest.approx(0.469470505550, abs=1e-9)
    assert sorted(gauss_samplings) == [64] * 3 + [128] * 3
    assert len(magnus_calls) <= 8


def test_smooth_scan_propagates_its_arms_together(magnus_steps, gauss_samplings):
    # the smooth-scan star on [4.4, 5.0]: every edge solve step-doubles the
    # three arms in one batch, and each arm is sampled once per step count
    # (64 and 128: every row converges at 128) for the whole scan; each of
    # the 9 edge solves (the sweep, two split levels and six refinement
    # steps; the residuals solve nothing) is one pass of 64 and 128 steps
    res = scan_spectrum(star(SMOOTH_ARMS), 4.4, 5.0)
    assert len(res.roots) == 2
    assert len(magnus_steps) == 9
    assert all([n for n, _ in levels] == [64, 128] for levels in magnus_steps)
    assert sum(n * rows for levels in magnus_steps for n, rows in levels) == 11520
    assert sorted(gauss_samplings) == [64] * 3 + [128] * 3


def test_smooth_scan_past_128_steps_pays_one_pass_per_count(magnus_steps):
    # the same star on [20, 40], where rows go on to 256 steps: the first
    # pass takes 64 and 128 steps together and each later count one pass of
    # the rows left, 30 passes for 15 edge solves over 256,960 row-steps
    res = scan_spectrum(star(SMOOTH_ARMS), 20.0, 40.0)
    assert len(res.roots) == res.expected_count == 20
    counts = [[n for n, _ in levels] for levels in magnus_steps]
    assert len(counts) == 30
    assert max(n for levels in counts for n in levels) == 256
    assert counts.count([64, 128]) == counts.count([256]) == 15
    assert sum(n * rows for levels in magnus_steps for n, rows in levels) == 256960


@pytest.mark.parametrize("name", ["g_interval_pi", "g_star3_eq", "g_delta_star"])
def test_total_multiplicity_equals_eigenphase_count(request, name):
    # the roots found add up to the eigenvalue count over the range, taken
    # at its two ends alone (scattering._vertex_det): N(k_hi) - N(k_lo) plus the
    # roots at k_lo (the name keeps the test's id; the count is the DtN one)
    g = request.getfixturevalue(name)
    res = scan_spectrum(g, *SCAN_RANGES[name])
    count, at = _vertex_det(g, [res.k_lo, res.k_hi], want_count=True)[:2]
    assert res.total_count() == count[1] - count[0] + at[0] == res.expected_count


def test_bad_node_count_is_flagged(g_delta_star, monkeypatch):
    # raise the count at the right node of the grid cell holding 3.27075756
    # by one: the cell counts two eigenvalues, its split finds the root and
    # flags the half that holds none; every root is still found
    sweep, cells = spectrum._sweep, []

    def corrupted(g, ks):
        count, at, f = sweep(g, ks)
        i = int(np.searchsorted(ks, DELTA_STAR_KS[3]))
        if 0 < i < len(ks):
            count[i] += 1
            cells.append((ks[i - 1], ks[i]))
        return count, at, f

    monkeypatch.setattr(spectrum, "_sweep", corrupted)
    res = scan_spectrum(g_delta_star, 0.5, 12.0)
    assert len(cells) == len(res.flagged) == 1
    (cell_lo, cell_hi), (lo, hi) = cells[0], res.flagged[0]
    assert cell_lo <= lo < hi <= cell_hi
    assert any("one eigenvalue counted but no sign change" in d for d in res.diagnostics)
    assert list(res.ks) == pytest.approx(DELTA_STAR_KS, abs=5e-9)


def test_scan_tracks_no_branch(monkeypatch):
    # the scan counts, brackets and refines on the vertex determinant F: it
    # never evaluates theta nor takes det S, and sweeps every node of the
    # six windows of [0.5, 30] exactly once, as many windows a sweep as fit
    # the edge layer's element budget: ceil(378 * 10 / 2048) = 2 sweeps
    def refused(*args, **kwargs):
        raise AssertionError("the scan evaluated the secular phase")

    monkeypatch.setattr(scattering, "_theta", refused)
    monkeypatch.setattr(scattering, "_det_s", refused)
    sweeps, sweep = [], spectrum._sweep
    grids, scan_window = [], spectrum._scan_window

    def counted(g, ks):
        sweeps.append(ks)
        return sweep(g, ks)

    def seen(ks, *args):
        grids.append(ks)
        return scan_window(ks, *args)

    monkeypatch.setattr(spectrum, "_sweep", counted)
    monkeypatch.setattr(spectrum, "_scan_window", seen)
    g = random_delta_star(1)
    res = scan_spectrum(g, 0.5, 30.0)
    assert len(grids) == 6
    nodes = sum(len(ks) for ks in grids)
    assert nodes == 378
    assert np.array_equal(np.concatenate(sweeps), np.concatenate(grids))
    assert len(sweeps) == math.ceil(nodes * g.num_edges / edge._POINT_STEPS) == 2
    assert len(res.roots) == res.total_count() == res.expected_count == 94
    assert res.flagged == [] and res.diagnostics == []


def test_cycle_roots_on_dirichlet_eigenvalues_are_found(g_triangle):
    # the triangle is a circle of length 3: double roots 2 pi m / 3, and the
    # one at 2 pi is a Dirichlet eigenvalue of its unit edge, a pole of the
    # vertex matrix, where the count is taken on the cut graph
    res = scan_spectrum(g_triangle, 1.0, 12.0)
    assert list(res.multiplicities) == [2] * 5
    assert list(res.ks) == pytest.approx([2 * math.pi * m / 3 for m in range(1, 6)], abs=1e-9)
    assert res.flagged == [] and res.diagnostics == []


def test_residual_diagnostic_is_relative_to_the_window():
    # |det(I - S)| on the 40-arm star reaches 1.5e10 on [0.5, 60], so
    # accurate roots have residuals far above 1e-6; |F| at each stays below
    # 5e-9 of the largest |F| at its window's sweep nodes: none is reported
    res = scan_spectrum(random_delta_star(3, 40), 0.5, 60.0)
    assert len(res.roots) == res.total_count() == 801
    assert max(r.residual for r in res.roots) > 1e-4
    assert res.flagged == [] and res.diagnostics == []


def test_coarse_roots_get_the_residual_diagnostic():
    # at root_tol 1e-3 the refinement stops early: at least half of the 94
    # roots are reported, with their residual |det(I - S)|, and each of
    # them lies more than 1e-6 from the root converged at the default
    # root_tol
    g = random_delta_star(1)
    fine = scan_spectrum(g, 0.5, 30.0).ks
    coarse = scan_spectrum(g, 0.5, 30.0, ScanConfig(root_tol=1e-3))
    reported = [
        r
        for r in coarse.roots
        if f"large secular residual {r.residual:.2e} at k={r.k:.9f}" in coarse.diagnostics
    ]
    assert len(coarse.roots) == len(fine) == 94
    assert len(reported) == len(coarse.diagnostics) >= 47
    assert min(np.abs(fine - r.k).min() for r in reported) > 1e-6


def test_scan_memory_stays_bounded():
    # tracemalloc peak of the 40-arm star over [0.5, 400]: 5,341 roots in six
    # chunks of about 890 brackets, whose refinement carries the M rows of
    # both ends (2 x 4 x 40 floats a bracket).  The closed-form edges and the
    # star's F are formed in place to make room for them: the peak was 6.29
    # MB when each residual solved its edges anew, and stays within 1.1
    # times that
    import tracemalloc

    g = random_delta_star(3, 40)
    scan_spectrum(g, 0.5, 2.0)  # the graph's tables, built outside the measure
    tracemalloc.start()
    try:
        res = scan_spectrum(g, 0.5, 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.roots) == res.expected_count == 5341
    assert peak <= 1.1 * 6.29e6


def test_refinement_carries_the_rows_of_its_ends():
    # rows change no iterate nor status; each root comes with the value and
    # the row of the evaluation that gave it, a root on a starting end (x -
    # 2 on [2, 3]) with that end's row from the store
    funcs = [
        lambda x: x**3 - 2.0 * x - 5.0,
        lambda x: np.cos(x) - x,
        lambda x: x - 2.0,
        lambda x: np.tanh(40.0 * (x - 0.3)),
        lambda x: x * x + 1.0,
    ]
    lo, hi = np.array([0.0, 0.0, 2.0, -1.0, -1.0]), np.array([3.0, 1.0, 3.0, 2.0, 1.0])
    every = np.arange(len(funcs))

    def f(x, idx):
        return np.array([funcs[i](xi) for i, xi in zip(idx.tolist(), x)])

    def row(x, idx):
        # a row that names its point and its function
        return np.stack([x, idx + 0.5 * x], axis=-1)

    def with_rows(x, idx):
        return f(x, idx), row(x, idx)

    f_lo, f_hi = f(lo, every), f(hi, every)
    plain = spectrum._chandrupatla(f, lo, hi, f_lo, f_hi, 1e-9)
    store = np.concatenate([row(lo, every), row(hi, every)])
    x, status, fx, rows = spectrum._chandrupatla(
        with_rows, lo, hi, f_lo, f_hi, 1e-9, (store, every, every + len(lo))
    )
    assert np.array_equal(x, plain[0], equal_nan=True)
    assert status.tolist() == plain[1].tolist() == [0, 0, 0, 0, -1]
    assert x[2] == 2.0
    done = every[status == 0]
    assert np.array_equal(fx[done], f(x[done], done))
    assert np.array_equal(rows[done], row(x[done], done))


def test_failed_refinement_is_flagged(g_delta_star, monkeypatch):
    # the refinement of the cell holding 3.27075756 reports a failure; that
    # cell is flagged, the other roots are still found
    refine = spectrum._chandrupatla

    def failing(f, lo, hi, *args):
        x, status, *found = refine(f, lo, hi, *args)
        status[(lo < DELTA_STAR_KS[3]) & (DELTA_STAR_KS[3] <= hi)] = -2
        return (x, status, *found)

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

