"""Whole-graph scattering: vertex couplings, the big matrix, and the secular function."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from qgspectra import scattering
from qgspectra.edge import transition_matrix, transition_matrix_dk
from qgspectra.errors import InputError, NumericalError, PhaseTrackingError
from qgspectra.fd import fd_spectrum
from qgspectra.graph import build_graph
from qgspectra.scattering import (
    _count,
    _det_s,
    _det_w,
    _edge_entries,
    assemble_S,
    assemble_T,
    big_sigma,
    secular,
    theta_prime,
    unitarity_defect,
    vertex_sigma,
)

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


# graphs and real k paths of the determinant oracle; the equilateral star's
# path holds k = pi, where every I + t_e is singular
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
}


@pytest.mark.parametrize("name", sorted(DETERMINANT_CASES))
def test_edge_block_determinants_match_dense(request, name):
    # det S from the edge blocks and det(I - S) by the vertex-space Schur
    # complement agree with the dense 2E x 2E determinants, real and
    # complex k, to 1e-12 of the path's largest |det(I - S)|
    build, ks = DETERMINANT_CASES[name]
    g = build(request)
    for path in (ks.astype(complex), ks + 0.3j):
        det_s, det_w = dense_secular(g, path)
        scale = np.abs(det_w).max()
        assert np.abs(_det_s(g, _edge_entries(g, path)) - det_s).max() <= 1e-12 * scale
        assert np.abs(_det_w(g, path) - det_w).max() <= 1e-12 * scale


def test_singular_I_plus_T_takes_the_dense_determinant(g_star3_eq, monkeypatch):
    # at k = pi every t_e of the equilateral zero star has the eigenvalue
    # -1, so the Schur complement over I + T fails there: the point takes
    # the dense determinant, its neighbours keep the vertex-space one
    ks = np.array([1.0, math.pi, 2.0])
    _, want = dense_secular(g_star3_eq, ks)
    got = _det_w(g_star3_eq, ks)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    monkeypatch.setattr(scattering, "_SCHUR_FLOOR", 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        schur = _det_w(g_star3_eq, ks)
    assert not abs(schur[1] - want[1]) <= 1e-6
    assert schur[[0, 2]].tolist() == got[[0, 2]].tolist()


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


def test_assemble_T_blocks_agree_with_transition_matrices(g_delta_star, g_smooth):
    k = 2.9
    for g, tol in ((g_delta_star, 1e-13), (g_smooth, 1e-9)):
        T, dT = assemble_T(g, k, want_dk=True)
        for e in range(len(g.edges)):
            t = transition_matrix(g, e, k).matrix
            assert np.max(np.abs(_display_block(T, e) - t)) <= tol
            dt = transition_matrix_dk(g, e, k)
            assert np.max(np.abs(_display_block(dT, e) - dt)) <= tol


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
    # the interval's grid holds its roots 1, 2, 3, where zeta vanishes
    g = request.getfixturevalue(name)
    ks = np.linspace(lo, hi, n)
    sweep = secular(g, ks)
    chain = [secular(g, float(ks[0]))]
    for k in ks[1:]:
        chain.append(secular(g, float(k), chain[-1]))
    for v, w in zip(sweep, chain):
        assert v.k == w.k
        assert abs(v.zeta - w.zeta) <= 1e-13 * max(1.0, abs(w.zeta))
        assert v.det_s_phase == pytest.approx(w.det_s_phase, rel=0, abs=1e-12)
        assert v.theta == pytest.approx(w.theta, rel=0, abs=1e-12)
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


def test_secular_conjugate_symmetry(g_interval_delta_pi):
    v0 = secular(g_interval_delta_pi, 2.0)
    vp = secular(g_interval_delta_pi, 2.0 + 0.01j, v0)
    vm = secular(g_interval_delta_pi, 2.0 - 0.01j, v0)
    assert abs(vp.zeta - vm.zeta.conjugate()) <= 1e-10


def test_phase_is_grid_independent(g_interval_delta_pi):
    coarse = secular(g_interval_delta_pi, np.linspace(1.0, 4.0, 61))
    fine = secular(g_interval_delta_pi, np.linspace(1.0, 4.0, 121))
    gap = max(abs(a.theta - b.theta) for a, b in zip(coarse, fine[::2]))
    assert gap <= 1e-8


def test_oversized_phase_step_is_rejected(g_interval_pi):
    v = secular(g_interval_pi, 1.0)
    with pytest.raises(PhaseTrackingError, match="phase step"):
        secular(g_interval_pi, 1.49, v)
    with pytest.raises(PhaseTrackingError, match="phase step"):
        secular(g_interval_pi, [1.0, 1.49])


def test_small_steps_track_through_the_same_range(g_interval_pi):
    v = None
    for k in np.linspace(1.0, 1.49, 15):
        v = secular(g_interval_pi, float(k), v)
    assert v is not None and math.isfinite(v.theta)


def test_two_continuations_from_one_value(g_interval_delta_pi):
    # a value fixes the branch without being changed by its use, so the
    # two continuations need no copy
    g = g_interval_delta_pi
    v0 = secular(g, 2.0)
    vp = secular(g, 2.0 + 0.01j, v0)
    vm = secular(g, 2.0 - 0.01j, v0)
    assert abs(vp.zeta - vm.zeta.conjugate()) <= 1e-10
    assert secular(g, 2.0 + 0.01j, v0) == vp
    assert v0 == secular(g, 2.0)


@pytest.mark.parametrize("m", [1, 17, 40])
def test_path_continued_from_a_value_equals_the_whole_path(g_delta_star, m):
    ks = np.linspace(0.5, 6.0, 41)
    path = secular(g_delta_star, ks)
    rest = secular(g_delta_star, ks[m:], after=path[m - 1])
    assert len(rest) == len(ks) - m
    for v, w in zip(rest, path[m:]):
        assert (v.k, v.zeta, v.det_s_phase) == (w.k, w.zeta, w.det_s_phase)
        assert v.theta == pytest.approx(w.theta, rel=0, abs=1e-12)


def test_first_step_after_a_value_is_checked(g_interval_pi):
    # the limit holds from ``after`` to the first point, not only inside
    # the path: 1.0 -> 1.49 moves the det S phase by more than 0.9 pi
    v = secular(g_interval_pi, 1.0)
    ks = np.linspace(1.49, 1.5, 3)
    secular(g_interval_pi, ks)  # fine as a fresh path
    with pytest.raises(PhaseTrackingError, match="phase step"):
        secular(g_interval_pi, ks, after=v)


def test_zero_wavenumber_rejected(g_interval_pi):
    with pytest.raises(InputError, match="k=0"):
        assemble_S(g_interval_pi, 0.0)
    with pytest.raises(InputError, match="k=0"):
        secular(g_interval_pi, 0.0)


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
    count, at = _count(g, ks)
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
    count, at = _count(g_star3_eq, ks)
    assert (count - at).tolist()[::2] == [3, 1]
    assert count.tolist()[1::2] == [4, 3]


@pytest.mark.parametrize("delta", [1e-3, 1e-7, 1e-12, 0.0])
def test_count_on_a_pole_is_taken_on_the_cut_graph(g_triangle, delta):
    # 2 pi is a Dirichlet eigenvalue of the triangle's unit edge, so a pole
    # of its vertex matrix, and a double root: 5 eigenvalues lie below it
    count, at = _count(g_triangle, [2 * math.pi - delta, 2 * math.pi + delta])
    assert (count - at)[0] == 5 and count[1] == 7
    assert at.tolist() == ([2, 2] if delta <= 1e-12 else [0, 0])


def test_a_pole_of_the_cut_graph_too_is_refused(g_triangle, monkeypatch):
    # without a cut graph the count at 2 pi, a pole of the triangle's vertex
    # matrix, cannot be taken: a typed error, not a wrong count
    monkeypatch.setattr(scattering, "_cut", lambda g: None)
    assert _count(g_triangle, [2 * math.pi - 1e-3])[0].tolist() == [5]
    with pytest.raises(NumericalError, match="no eigenvalue count at k=6.28318531"):
        _count(g_triangle, [2 * math.pi])
