"""Whole-graph scattering: vertex couplings, the big matrix, and the secular function."""
from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qgspectra import scattering
from qgspectra.edge import _solve_edges, transition_matrix, transition_matrix_dk
from qgspectra.errors import InputError, NumericalError, SingularPointError
from qgspectra.fd import fd_spectrum
from qgspectra.graph import build_graph
from qgspectra.scattering import (
    _dens,
    _det_s,
    _det_w,
    _vertex_det,
    assemble_S,
    assemble_T,
    big_sigma,
    secular,
    theta_prime,
    unitarity_defect,
    vertex_sigma,
)
from qgspectra.spectrum import K_FLOOR

from .conftest import ZERO, interval, random_delta_star, star
from .oracles import dense_secular


def test_vertex_sigma_values(g_delta_star):
    sig = vertex_sigma(g_delta_star, "c")
    expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
    np.testing.assert_allclose(sig, expected, rtol=0, atol=1e-15)
    leaf = vertex_sigma(g_delta_star, "v1")
    np.testing.assert_allclose(leaf, np.array([[1.0]]), rtol=0, atol=0)


def test_big_sigma_is_block_diagonal_by_departure_vertex(g_delta_star):
    g = g_delta_star
    sig = big_sigma(g)
    n = 2 * len(g.edges)
    for da in range(n):
        for db in range(n):
            same_vertex = g.iota(da) == g.iota(db)
            if not same_vertex:
                assert sig[da, db] == 0.0
    assert abs(abs(np.linalg.det(sig)) - 1.0) <= 1e-12


def _delta(strength, position):
    return {"type": "delta", "strength": strength, "position": position}


def _cycle(n: int):
    """A cycle of n delta edges of lengths in [0.7, 1.3]."""
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        length = 0.7 + 0.6 * ((0.618 * i) % 1.0)
        edges.append(
            {
                "from": vertices[i],
                "to": vertices[(i + 1) % n],
                "length": length,
                "potential": _delta(1.0, 0.4 * length),
            }
        )
    return build_graph({"vertices": vertices, "edges": edges})


# graphs and real k paths of the determinant oracle; the equilateral star's
# path holds k = pi, where every t_e has the eigenvalue -1, and the
# triangle's path the Dirichlet points k L = n pi of its edges, poles of
# its vertex matrix, where F is taken on the cut graph
DETERMINANT_CASES = {
    "delta-star": (lambda r: r.getfixturevalue("g_delta_star"), np.linspace(0.5, 12.0, 47)),
    "random-delta-star": (lambda r: random_delta_star(1), np.linspace(0.5, 30.0, 118)),
    "multi-edge-cycle": (
        lambda r: build_graph(
            {
                "vertices": ["a", "b", "c"],
                "edges": [
                    {"from": "a", "to": "b", "length": 1.0, "potential": ZERO},
                    {"from": "b", "to": "a", "length": 1.5, "potential": _delta(1.2, 0.6)},
                    {"from": "b", "to": "c", "length": 1.2, "potential": _delta(-0.8, 0.3)},
                    {"from": "c", "to": "a", "length": 0.8, "potential": ZERO},
                ],
            }
        ),
        np.linspace(1.0, 12.0, 45),
    ),
    "constant-edge": (
        lambda r: star(
            [
                (1.0, {"type": "constant", "value": 4.0}),
                (1.3, ZERO),
                (0.7, _delta(2.0, 0.2)),
            ]
        ),
        np.linspace(1.0, 12.0, 45),
    ),
    "smooth-star": (lambda r: r.getfixturevalue("g_smooth_star"), np.linspace(3.0, 12.0, 37)),
    "equilateral-star": (
        lambda r: r.getfixturevalue("g_star3_eq"),
        np.sort(np.append(np.linspace(1.0, 5.0, 41), math.pi)),
    ),
    # a core of three vertices, with a double a-b edge, and an arm at each
    # of them (leaf at x = 0 and at x = L): zero, delta, constant and
    # smooth edges in the core and on the arms
    "mixed-core": (
        lambda r: build_graph(
            {
                "vertices": ["a", "b", "c", "l1", "l2", "l3"],
                "edges": [
                    {"from": "a", "to": "b", "length": 1.0, "potential": ZERO},
                    {"from": "a", "to": "b", "length": 1.3, "potential": _delta(1.5, 0.4)},
                    {
                        "from": "b",
                        "to": "c",
                        "length": 1.1,
                        "potential": {"type": "constant", "value": 3.0},
                    },
                    {
                        "from": "c",
                        "to": "a",
                        "length": 0.9,
                        "potential": {"type": "expr", "expr": "cos(2*x)"},
                    },
                    {"from": "l1", "to": "a", "length": 0.6, "potential": _delta(-1.0, 0.2)},
                    {
                        "from": "b",
                        "to": "l2",
                        "length": 0.8,
                        "potential": {"type": "constant", "value": 2.0},
                    },
                    {
                        "from": "c",
                        "to": "l3",
                        "length": 0.7,
                        "potential": {"type": "expr", "expr": "1+cos(3*x)"},
                    },
                ],
            }
        ),
        np.linspace(0.5, 12.0, 47),
    ),
    # 150 vertices of degree 2: prod_v deg(v) = 2^150 is past the int64
    # range, det Lambda alone overflows at k = 60, and k^-149 at the k floor
    "long-cycle": (
        lambda r: _cycle(150),
        np.array([K_FLOOR, 6.0, 20.0, 59.0, 60.0, 61.0]),
    ),
    "triangle-dirichlet": (
        lambda r: r.getfixturevalue("g_triangle"),
        np.sort(
            np.concatenate(
                [
                    np.linspace(0.5, 12.0, 45),
                    [n * math.pi / L for L in (1.0, 1.2, 0.8) for n in (1, 2, 3)],
                ]
            )
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(DETERMINANT_CASES))
def test_edge_block_determinants_match_dense(request, name):
    # det S and det(I - S), both read off the edges' M, agree with the
    # dense 2E x 2E determinants, real and complex k, to 1e-12 of the
    # path's largest |det(I - S)|
    build, ks = DETERMINANT_CASES[name]
    g = build(request)
    for path in (ks.astype(complex), ks + 0.3j):
        det_s, det_w = dense_secular(g, path)
        scale = np.abs(det_w).max()
        den, den_plus = _dens(_solve_edges(g, path))
        assert np.abs(_det_s(g, den, den_plus) - det_s).max() <= 1e-12 * scale
        assert np.abs(_det_w(g, path)[0] - det_w).max() <= 1e-12 * scale


def test_a_pole_of_t_is_a_typed_error():
    # 1.5i is the bound state of the attractive point interaction on the
    # line, a pole of t: det(I - S) and zeta have none there.  secular
    # takes Re k > 0 only; a constant edge has a pole of t there, a
    # resonance where |den| is about 2e-15
    g = interval(1.0, _delta(-3.0, 0.5))
    with pytest.raises(SingularPointError):
        _det_w(g, [1.5j])
    g = interval(1.0, {"type": "constant", "value": 4.0})
    with pytest.raises(SingularPointError):
        secular(g, 2.3183553694129726 - 1.4667227028713161j)


def test_secular_solves_the_edges_once_per_point(g_delta_star, assembled_ks):
    # theta, det(I - S) and the check for a pole of t share one edge solve;
    # off the axis theta is continued from one more solve at Re k
    ks = np.linspace(0.5, 6.0, 41)
    secular(g_delta_star, ks)
    assert assembled_ks == ks.tolist()
    assembled_ks.clear()
    secular(g_delta_star, 2.0 + 0.3j)
    assert assembled_ks == [2.0, 2.0 + 0.3j]


def test_secular_solves_a_real_grid_once_in_real_arithmetic(g_delta_star, monkeypatch):
    # a real grid and the same grid as complex are both solved once, in
    # real arithmetic with the Sturm counts, so they agree bit for bit
    calls, solve = [], scattering._solve_edges

    def seen(g, ks, *args, **kwargs):
        calls.append((np.asarray(ks).dtype, kwargs.get("want_count")))
        return solve(g, ks, *args, **kwargs)

    monkeypatch.setattr(scattering, "_solve_edges", seen)
    ks = np.linspace(0.5, 6.0, 41)
    real = secular(g_delta_star, ks)
    assert real == secular(g_delta_star, ks.astype(complex))
    assert calls == [(np.dtype(float), True)] * 2


def test_interval_S_is_antidiagonal_phase(g_interval_pi):
    k = 2.3
    S = assemble_S(g_interval_pi, k)
    phase = cmath.exp(1j * k * math.pi)
    expected = np.array([[0.0, phase], [phase, 0.0]])
    assert np.max(np.abs(S - expected)) <= 1e-12


def test_determinant_factorizes(g_delta_star):
    g = g_delta_star
    for k in (1.7, 4.2):
        S = assemble_S(g, k)
        T = assemble_T(g, k)
        lhs = np.linalg.det(S)
        rhs = np.linalg.det(big_sigma(g)) * np.linalg.det(T)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_trace_collects_weighted_reflections(g_delta_star):
    g = g_delta_star
    k = 3.1
    S = assemble_S(g, k)
    total = 0.0 + 0.0j
    for e in range(len(g.edges)):
        t = transition_matrix(g, e, k)
        for d, refl in ((2 * e, t.r_from), (2 * e + 1, t.r_to)):
            deg = len(g.out_directions(g.iota(d)))
            total += (2.0 / deg - 1.0) * refl
    assert abs(np.trace(S) - total) <= 1e-12


def test_S_unitary_above_threshold(g_smooth, g_delta_star):
    for g, ks in ((g_smooth, (5.0, 10.0, 20.0)), (g_delta_star, (2.0, 7.0))):
        for k in ks:
            assert unitarity_defect(assemble_S(g, k)) <= 1e-8


def _display_block(M, e):
    """Edge e's 2x2 block of T (or T') in the layout [[trans, r_to], [r_from, trans]]."""
    d = 2 * e
    return np.array([[M[d, d + 1], M[d + 1, d + 1]], [M[d, d], M[d + 1, d]]])


def test_assemble_T_blocks_agree_with_transition_matrices(
    g_delta_star, g_smooth, g_smooth_star
):
    k = 2.9
    for g, tol in ((g_delta_star, 1e-13), (g_smooth, 1e-9)):
        T, dT = assemble_T(g, k, want_dk=True)
        for e in range(len(g.edges)):
            t = transition_matrix(g, e, k).matrix
            assert np.max(np.abs(_display_block(T, e) - t)) <= tol
            dt = transition_matrix_dk(g, e, k)
            assert np.max(np.abs(_display_block(dT, e) - dt)) <= tol
    # real k (float64 edges, forbidden Magnus steps at 0.7) against the
    # same k in complex arithmetic
    ks = np.array([0.7, 2.9, 12.0, 47.5, 133.0])
    for g in (g_delta_star, g_smooth_star):
        for got, want in zip(assemble_T(g, ks, want_dk=True), assemble_T(g, ks + 0j, want_dk=True)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


MIXED_ARMS = [
    (1.0, {"type": "zero"}),
    (1.3, {"type": "constant", "value": 4.0}),
    (0.9, {"type": "delta", "strength": 1.5, "position": 0.0}),
    (1.1, {"type": "delta", "strength": -0.8, "position": 0.4}),
    (0.7, {"type": "delta", "strength": 2.0, "position": 0.7}),
    (1.0, {"type": "expr", "expr": "cos(2*x)"}),
]


def test_stacked_T_equals_one_point_calls():
    # zero, constant (k^2 below and above c = 4), point interactions at
    # x0 = 0, inside and at L with both signs of D, and a smooth arm, at
    # real and complex k
    g = star(MIXED_ARMS)
    ks = np.array([1.2, 1.9, 3.0, 7.5, 2.0 + 0.05j, 5.0 - 0.3j, 1.5 + 1e-4j])
    T, dT = assemble_T(g, ks, want_dk=True)
    assert T.shape == dT.shape == (len(ks), 12, 12)
    assert np.array_equal(assemble_T(g, ks), T)
    for i, k in enumerate(ks):
        T1, dT1 = assemble_T(g, k, want_dk=True)
        assert T1.shape == (12, 12)
        for got, want in ((T[i], T1), (dT[i], dT1)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for e in range(g.num_edges):
            t = transition_matrix(g, e, k).matrix
            assert np.max(np.abs(_display_block(T[i], e) - t)) <= 1e-13 * np.max(np.abs(t))


def test_T_and_its_derivative_cost_one_edge_solve_per_edge(g_delta_star, solve_edge_calls):
    assemble_T(g_delta_star, 7.3, want_dk=True)
    assert solve_edge_calls == [0, 1, 2]
    solve_edge_calls.clear()
    theta_prime(g_delta_star, 7.3)
    assert solve_edge_calls == [0, 1, 2]


def test_delay_density_closed_form_for_point_interaction():
    g = interval(1.0, {"type": "delta", "strength": 2.0, "position": 0.5})
    k = 3.0
    # 2 L + 4 D / (4 k^2 + D^2) = 2 + 8/40 = 2.2 exactly at L=1, D=2, k=3
    assert theta_prime(g, k) == pytest.approx(2.2, abs=1e-10)
    for k in (1.3, 5.9):
        expected = 2.0 + 4.0 * 2.0 / (4.0 * k * k + 4.0)
        assert theta_prime(g, k) == pytest.approx(expected, abs=1e-10)


def test_delay_density_for_zero_potential_is_total_phase_length(g_star3):
    total = 2.0 * sum(e.length for e in g_star3.edges)
    for k in (2.0, 6.5):
        assert theta_prime(g_star3, k) == pytest.approx(total, abs=1e-10)


def test_delay_density_matches_phase_derivative(g_interval_delta_pi):
    g = g_interval_delta_pi
    k0, h = 3.0, 1e-4
    sweep = secular(g, [k0 - h, k0, k0 + h])
    numeric = (sweep[2].theta - sweep[0].theta) / (2.0 * h)
    assert numeric == pytest.approx(theta_prime(g, k0), abs=1e-6)


@pytest.mark.parametrize(
    "name, lo, hi, n", [("g_delta_star", 0.5, 6.0, 41), ("g_interval_pi", 0.5, 3.5, 13)]
)
def test_sweep_equals_a_chain_of_one_point_values(request, name, lo, hi, n):
    # each value is a function of its k alone: one-point calls give the
    # sweep's values bit for bit.  The interval's grid holds its roots 1,
    # 2, 3, where zeta vanishes
    g = request.getfixturevalue(name)
    ks = np.linspace(lo, hi, n)
    sweep = secular(g, ks)
    assert sweep == [secular(g, float(k)) for k in ks]
    if name == "g_interval_pi":
        scale = max(abs(v.zeta) for v in sweep)
        roots = [v.k.real for v in sweep if abs(v.zeta) <= 1e-12 * scale]
        assert roots == [1.0, 2.0, 3.0]


def test_secular_is_real_on_the_real_axis(g_smooth, g_interval_delta_pi):
    for g, lo, hi in ((g_smooth, 4.0, 8.0), (g_interval_delta_pi, 0.5, 6.0)):
        sweep = secular(g, np.linspace(lo, hi, 101))
        scale = max(abs(v.zeta) for v in sweep)
        for v in sweep:
            assert abs(v.zeta.imag) <= 1e-8 + 1e-6 * scale
            assert v.zeta_real == pytest.approx(v.zeta.real)


def test_secular_conjugate_symmetry(g_interval_delta_pi, g_smooth_star):
    # with no anchor, zeta(conj k) = conj zeta(k) and theta(conj k) =
    # theta(k) point by point, and a value is the same at each call
    for g in (g_interval_delta_pi, g_smooth_star):
        for k in (2.0 + 0.01j, 5.3 + 0.4j):
            vp, vm = secular(g, [k, k.conjugate()])
            assert abs(vp.zeta - vm.zeta.conjugate()) <= 1e-10 * max(1.0, abs(vp.zeta))
            assert vp.theta == pytest.approx(vm.theta, rel=0, abs=1e-12)
            assert secular(g, k) == vp and secular(g, k.conjugate()) == vm


def test_phase_is_grid_independent(g_interval_delta_pi):
    coarse = secular(g_interval_delta_pi, np.linspace(1.0, 4.0, 61))
    fine = secular(g_interval_delta_pi, np.linspace(1.0, 4.0, 121))
    gap = max(abs(a.theta - b.theta) for a, b in zip(coarse, fine[::2]))
    assert gap <= 1e-8


def test_a_coarse_step_gives_the_fine_grid_value(g_interval_pi):
    # 1.0 -> 1.49 moves the det S phase by more than 0.9 pi in one step;
    # the coarse path, the fine one and the points alone agree there
    g = g_interval_pi
    fine = secular(g, np.linspace(1.0, 1.49, 15))
    coarse = secular(g, [1.0, 1.49])
    assert coarse == [fine[0], fine[-1]] == [secular(g, 1.0), secular(g, 1.49)]
    assert math.isfinite(coarse[1].theta)


def test_small_steps_track_through_the_same_range(g_interval_pi):
    # one-point calls stepping through 1.0 -> 1.49 give the path's values
    ks = np.linspace(1.0, 1.49, 15)
    steps = [secular(g_interval_pi, float(k)) for k in ks]
    assert steps == secular(g_interval_pi, ks)
    assert all(math.isfinite(v.theta) for v in steps)


def test_two_continuations_from_one_value(g_interval_delta_pi):
    # both values off the axis are continued from the same real point 2.0,
    # by less than pi, and neither call changes what the others return
    g = g_interval_delta_pi
    v0 = secular(g, 2.0)
    vp = secular(g, 2.0 + 0.01j)
    vm = secular(g, 2.0 - 0.01j)
    assert abs(vp.zeta - vm.zeta.conjugate()) <= 1e-10
    assert abs(vp.theta - v0.theta) < math.pi and abs(vm.theta - v0.theta) < math.pi
    assert secular(g, 2.0 + 0.01j) == vp
    assert v0 == secular(g, 2.0)


def test_theta_near_the_axis_is_continuous():
    # off the axis theta is the principal continuation from Re k, which is
    # continuous in k only near the axis: along Im k = 0.05 it steps by
    # less than pi between neighbouring points (by 0.19 to 0.36 here, where
    # along Im k = 1 it jumps by 2 pi once)
    ks = np.linspace(0.5, 20.0, 2001) + 0.05j
    theta = np.array([v.theta for v in secular(random_delta_star(1), ks)])
    assert np.abs(np.diff(theta)).max() < math.pi


@pytest.mark.parametrize("m", [1, 17, 40])
def test_path_continued_from_a_value_equals_the_whole_path(g_delta_star, m):
    # a path started at its m-th point gives the whole path's values there
    ks = np.linspace(0.5, 6.0, 41)
    path = secular(g_delta_star, ks)
    rest = secular(g_delta_star, ks[m:])
    assert len(rest) == len(ks) - m
    assert rest == path[m:]


def test_first_step_after_a_value_is_checked(g_interval_pi):
    # 1.0 -> 1.49 moves the det S phase by more than 0.9 pi; the path from
    # 1.49 gives the same values whether or not 1.0 comes first
    ks = np.linspace(1.49, 1.5, 3)
    fresh = secular(g_interval_pi, ks)
    assert secular(g_interval_pi, np.concatenate(([1.0], ks)))[1:] == fresh


def test_a_shuffled_path_gives_the_sorted_values(g_delta_star):
    ks = np.linspace(0.5, 6.0, 41)
    path = secular(g_delta_star, ks)
    order = np.random.default_rng(0).permutation(len(ks))
    assert secular(g_delta_star, ks[order]) == [path[i] for i in order]


def test_zero_wavenumber_rejected(g_interval_pi):
    with pytest.raises(InputError, match="k=0"):
        assemble_S(g_interval_pi, 0.0)
    for k in (0.0, -0.0, 0j):
        with pytest.raises(InputError, match="k=0$"):
            secular(g_interval_pi, k)


@pytest.mark.parametrize(
    "k",
    [math.nan, math.inf, 2.0 + math.nan * 1j, [2.0, math.nan], -2.0, 1.5j, -1.0 + 0.5j,
     np.ones((2, 2))],
    ids=["nan", "inf", "nan-imag", "nan-in-path", "negative", "imaginary", "left", "2-d"],
)
def test_secular_refuses_k_outside_its_domain(g_interval_pi, k):
    # theta is defined point by point for finite k with Re k > 0, and a
    # path is a 1-D array: anything else is refused before any arithmetic
    # (the suite makes a RuntimeWarning an error)
    with pytest.raises(InputError, match="secular"):
        secular(g_interval_pi, k)


@pytest.mark.parametrize("name", ["g_interval_pi", "g_star3", "g_triangle"])
def test_theta_of_free_edges(request, name):
    # each free edge of length L adds pi + 2kL to theta
    g = request.getfixturevalue(name)
    ks = np.linspace(0.5, 30.0, 301)
    theta = np.array([v.theta for v in secular(g, ks)])
    total = sum(e.length for e in g.edges)
    assert np.abs(theta - (g.num_edges * math.pi + 2.0 * total * ks)).max() <= 1e-12 * ks.max()


def test_theta_is_unchanged_by_reversing_every_edge():
    # arg det t_e does not depend on the edge's orientation: an asymmetric
    # delta, a constant and a smooth edge on a cyclic core with a delta arm
    edges = [
        ("a", "b", 1.0, _delta(1.5, 0.3), _delta(1.5, 0.7)),
        ("b", "c", 1.2, {"type": "constant", "value": 3.0}, {"type": "constant", "value": 3.0}),
        (
            "c",
            "a",
            0.9,
            {"type": "expr", "expr": "x^2 + cos(3*x)"},
            {"type": "expr", "expr": "(0.9 - x)^2 + cos(3*(0.9 - x))"},
        ),
        ("a", "l", 0.7, _delta(-0.8, 0.2), _delta(-0.8, 0.5)),
    ]
    ks = np.linspace(0.5, 15.0, 201)
    theta = []
    for flip in (False, True):
        g = build_graph(
            {
                "vertices": ["a", "b", "c", "l"],
                "edges": [
                    {"from": v, "to": u, "length": L, "potential": back}
                    if flip
                    else {"from": u, "to": v, "length": L, "potential": pot}
                    for u, v, L, pot, back in edges
                ],
            }
        )
        theta.append(np.array([v.theta for v in secular(g, ks)]))
    assert np.abs(theta[0] - theta[1]).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(DETERMINANT_CASES))
def test_zeta_changes_sign_with_the_count(request, name):
    # theta is absolute, so sign zeta(k) (-1)^N(k) is one constant per
    # graph: zeta changes sign exactly where the count N moves by an odd
    # number.  400 random points, each a value of its own k alone
    build, ks = DETERMINANT_CASES[name]
    g = build(request)
    pts = np.random.default_rng(0).uniform(ks.min(), ks.max(), 400)
    zeta = np.array([v.zeta.real for v in secular(g, pts)])
    signs = np.sign(zeta) * (-1) ** _vertex_det(g, pts, want_count=True)[0]
    assert signs[0] != 0 and np.all(signs == signs[0])


# ---------------------------------------------------------------------------
# eigenvalue count from the vertex Dirichlet-to-Neumann index
# ---------------------------------------------------------------------------


def _delta(strength: float, position: float) -> dict:
    return {"type": "delta", "strength": strength, "position": position}


COUNT_GRAPHS = {
    # two bound states below 0; K = 0.5
    "attractive_star": lambda: star(
        [(1.0, _delta(-4.0, 0.4)), (1.2, _delta(-3.0, 0.84)), (0.8, ZERO)]
    ),
    "g_star3_eq": None,
    "g_triangle": None,
    # the cycle a-b-c-d with a second a-b edge, and a delta arm at b
    # (leaf at x = 0) and at c (leaf at x = L); a bound state, K = 1.22
    "cycle4": lambda: build_graph(
        {
            "vertices": ["a", "b", "c", "d", "l1", "l2"],
            "edges": [
                {"from": "a", "to": "b", "length": 1.0, "potential": ZERO},
                {"from": "a", "to": "b", "length": 1.3, "potential": _delta(2.0, 0.5)},
                {"from": "b", "to": "c", "length": 0.9, "potential": ZERO},
                {"from": "c", "to": "d", "length": 1.1, "potential": _delta(-1.5, 0.3)},
                {"from": "d", "to": "a", "length": 0.7, "potential": ZERO},
                {"from": "l1", "to": "b", "length": 0.6, "potential": _delta(1.0, 0.2)},
                {"from": "c", "to": "l2", "length": 0.8, "potential": _delta(-2.0, 0.5)},
            ],
        }
    ),
    "g_smooth_star": None,
    # a bound state, and barriers up to 6 (heuristic K = 2.5)
    "strong_smooth_star": lambda: star(
        [
            (1.0, {"type": "expr", "expr": "6*cos(2*x)"}),
            (1.0, {"type": "expr", "expr": "-5*cos(3*x)"}),
            (1.0, {"type": "expr", "expr": "4*cos(4*x)+1"}),
        ]
    ),
}


@pytest.mark.parametrize("name", list(COUNT_GRAPHS))
def test_count_equals_the_finite_difference_count(request, name):
    # N(k) against the eigenvalues of an independent finite-difference
    # operator (h = 0.01, extrapolated; every point interaction on a grid
    # node), at 200 k from 0.05, below the threshold K included; a point
    # within 1e-3 of an FD eigenvalue, far above its 1e-6 error, is left out
    make = COUNT_GRAPHS[name]
    g = request.getfixturevalue(name) if make is None else make()
    fd = fd_spectrum(g, 0.01, 60, richardson=True)
    ks = np.linspace(0.05, 12.0, 200)
    count, at = _vertex_det(g, ks, want_count=True)[:2]
    kept = np.array([np.min(np.abs(fd.ks - k)) > 1e-3 for k in ks])
    expected = len(fd.negative) + np.searchsorted(fd.ks, ks)
    assert kept.sum() >= 190
    assert np.array_equal(count[kept], expected[kept])
    assert not at[kept].any()


@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10, 1e-14])
def test_count_across_a_dirichlet_coincidence(g_star3_eq, delta):
    # every arm of the equilateral star has a Dirichlet eigenvalue at pi,
    # itself a root, and a Dirichlet-Neumann one at pi / 2, a double root:
    # the arms are eliminated in closed form, so the count is exact right
    # up to both (a root within the kernel tolerance is counted at k)
    ks = [math.pi - delta, math.pi + delta, math.pi / 2 - delta, math.pi / 2 + delta]
    count, at = _vertex_det(g_star3_eq, ks, want_count=True)[:2]
    assert (count - at).tolist()[::2] == [3, 1]
    assert count.tolist()[1::2] == [4, 3]


@pytest.mark.parametrize("delta", [1e-3, 1e-7, 1e-12, 0.0])
def test_count_on_a_pole_is_taken_on_the_cut_graph(g_triangle, delta):
    # 2 pi is a Dirichlet eigenvalue of the triangle's unit edge, so a pole
    # of its vertex matrix, and a double root: 5 eigenvalues lie below it
    ks = [2 * math.pi - delta, 2 * math.pi + delta]
    count, at = _vertex_det(g_triangle, ks, want_count=True)[:2]
    assert (count - at)[0] == 5 and count[1] == 7
    assert at.tolist() == ([2, 2] if delta <= 1e-12 else [0, 0])


def test_a_pole_of_the_cut_graph_too_is_refused(g_triangle, monkeypatch):
    # without a cut graph the count at 2 pi, a pole of the triangle's vertex
    # matrix, cannot be taken: a typed error, not a wrong count
    monkeypatch.setattr(scattering, "_cut", lambda g: None)
    assert _vertex_det(g_triangle, [2 * math.pi - 1e-3], want_count=True)[0].tolist() == [5]
    with pytest.raises(NumericalError, match="no eigenvalue count at k=6.28318531"):
        _vertex_det(g_triangle, [2 * math.pi], want_count=True)


# ---------------------------------------------------------------------------
# the real vertex determinant F, on which scans refine their roots
# ---------------------------------------------------------------------------


# graph and range: a 10-arm delta star, the smooth star below its K = 1, a
# cyclic core with a double edge and two delta arms, and the triangle,
# whose roots are all double
F_GRAPHS = {
    "delta-star": (lambda r: random_delta_star(1), 0.5, 30.0),
    "smooth-star": (lambda r: r.getfixturevalue("g_smooth_star"), 0.05, 8.0),
    "cycle4": (lambda r: COUNT_GRAPHS["cycle4"](), 0.2, 20.0),
    "triangle": (lambda r: r.getfixturevalue("g_triangle"), 0.2, 20.0),
}
F_SIGN_CHANGES = {"delta-star": 94, "smooth-star": 9, "cycle4": 39, "triangle": 0}


@pytest.mark.parametrize("name", list(F_GRAPHS))
def test_vertex_det_has_the_sign_changes_of_zeta(request, name):
    # F / zeta is real, of one sign and never 0 or infinite, so F changes
    # sign where zeta does: the scan's brackets are zeta's
    make, lo, hi = F_GRAPHS[name]
    g = make(request)
    ks = np.linspace(lo, hi, 2001)
    f = _vertex_det(g, ks)
    zeta = np.array([v.zeta for v in secular(g, ks)])
    ratio = f / zeta
    assert np.isfinite(f).all() and f.dtype == float
    assert np.all(np.abs(ratio.imag) <= 1e-9 * np.abs(ratio.real))
    assert (ratio.real > 0).all() or (ratio.real < 0).all()
    assert np.abs(ratio.real).min() > 1e-6
    flips = np.flatnonzero(np.diff(np.sign(f)))
    assert np.array_equal(flips, np.flatnonzero(np.diff(np.sign(zeta.real))))
    assert len(flips) == F_SIGN_CHANGES[name]
    if name == "triangle":
        # a cycle of three zero edges: F = -k zeta exactly
        assert np.abs(ratio.real / ks + 1.0).max() <= 1e-9


@pytest.mark.parametrize("name", ["cycle4", "triangle"])
def test_vertex_det_of_the_cut_graph(request, name, monkeypatch):
    # cutting every edge multiplies det Lambda prod_e den_e by (-1)^E, and
    # adds E core vertices and E core edges, whose powers of k cancel: F =
    # (-1)^E F(cut).  Without cut
    # graphs a pole of either graph raises, so only points that are poles
    # of neither are compared
    make, lo, hi = F_GRAPHS[name]
    g = make(request)
    cut, n = scattering._cut(g), g.num_edges
    monkeypatch.setattr(scattering, "_cut", lambda g: None)
    pairs = []
    for k in np.linspace(lo, hi, 500):
        try:
            pairs.append((_vertex_det(g, [k])[0], _vertex_det(cut, [k])[0] * (-1) ** n))
        except NumericalError:
            continue
    f, f_cut = np.array(pairs).T
    assert len(pairs) >= 495
    assert np.abs(f_cut - f).max() <= 1e-11 * np.abs(f).max()


def test_vertex_det_at_a_pole_comes_from_the_cut_graph():
    # pi / 0.9 is a Dirichlet eigenvalue of the zero b-c edge of the cyclic
    # core, a pole of Lambda (within 1.1e-6 of it), but no root: F taken on
    # the cut graph there joins the det Lambda of the points 1e-5 away
    g, k = COUNT_GRAPHS["cycle4"](), math.pi / 0.9
    count, at, f = _vertex_det(g, [k - 1e-5, k, k + 1e-5], want_count=True)
    assert count.tolist() == [count[0]] * 3 and not at.any()
    assert abs(f[1] - 0.5 * (f[0] + f[2])) <= 1e-6 * abs(f[1])


def test_vertex_det_at_a_zero_denominator(g_star3, g_triangle):
    # at pi / 2 the unit arm of the star has m22 = cos(pi / 2): set to 0
    # exactly, a pole of its entry of Lambda, F is the finite product of the
    # arm's -m21 and the other arms' m22, and the count holds; no division
    # by 0 (an error under the suite's warning filter)
    k = math.pi / 2
    sol = _solve_edges(g_star3, [k], want_count=True)
    m11, m12, m21, m22 = (np.real(x).copy() for x in sol.m)
    assert abs(m22[0, 0]) < 1e-15
    exact = -m21[0, 0] * m22[0, 1] * m22[0, 2]
    m22[0, 0] = 0.0
    sol.m = (m11, m12, m21, m22)
    assert np.isfinite(exact) and exact != 0.0
    assert _vertex_det(g_star3, [k], sol)[0] == pytest.approx(exact, rel=1e-15)
    count, at, f = _vertex_det(g_star3, [k], sol, want_count=True)
    assert f[0] == pytest.approx(exact, rel=1e-15)
    assert [count[0], at[0]] == [c[0] for c in _vertex_det(g_star3, [k], want_count=True)[:2]]
    # and F is continuous there: the unmodified m22 gives the same value
    assert _vertex_det(g_star3, [k])[0] == pytest.approx(exact, rel=1e-14)
    # 2 pi, a Dirichlet eigenvalue of the triangle's unit edge, is a pole of
    # its Lambda and a double root: F comes from the cut graph
    f = _vertex_det(g_triangle, [2 * math.pi])
    assert np.isfinite(f).all() and abs(f[0]) <= 1e-9


def test_counted_vertex_det_stays_within_its_memory():
    # a gate on work that no wall time blurs: the tracemalloc peak of one
    # counted call at 196 points of a 10-arm delta star, after a first call
    # has built the graph's tables.  The Sturm count takes its two pieces
    # from the closed form's own arrays, with no stack of the ends: 487 KiB
    # here, where building that stack peaked at 655 KiB
    g = random_delta_star(1)
    ks = np.linspace(0.5, 30.0, 196)
    _vertex_det(g, ks, want_count=True)
    tracemalloc.start()
    try:
        _vertex_det(g, ks, want_count=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1024


def test_counted_vertex_det_keeps_F_bit_for_bit(g_star3_eq, g_triangle):
    # the count rides along with F and must not move a bit of it: stars with
    # arms leaving and entering the centre, a general core, and points on its
    # poles (k = pi / L of an edge), which take the cut graph
    both_ways = build_graph(
        {
            "vertices": ["c", "a", "b", "d"],
            "edges": [
                {"from": "d", "to": "c", "length": 1.3,
                 "potential": {"type": "delta", "strength": 1.0, "position": 0.4}},
                {"from": "c", "to": "a", "length": 0.9,
                 "potential": {"type": "constant", "value": 3.0}},
                {"from": "b", "to": "c", "length": 0.7, "potential": ZERO},
            ],
        }
    )
    ks = np.linspace(0.05, 25.0, 997)
    poles = np.array([np.pi, 2 * np.pi, np.pi / 1.2, np.pi / 0.8, 3 * np.pi])
    for g, k in [(g_star3_eq, ks), (both_ways, ks), (random_delta_star(3), ks),
                 (g_triangle, np.concatenate([ks, poles]))]:
        _, _, f = scattering._vertex_det(g, k, want_count=True)
        assert np.array_equal(f, scattering._vertex_det(g, k))
