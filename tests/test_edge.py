"""Edge-level scattering data: fundamental pairs and transition matrices."""
from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qgspectra import edge
from qgspectra.edge import (
    _entries,
    edge_profile,
    solve_edge,
    subunitarity_threshold,
    transition_matrix,
    transition_matrix_dk,
    verify_subunitary,
)
from qgspectra.errors import NumericalError

from .conftest import interval, star
from .oracles import (
    block_fold,
    central_diff,
    delta_eigenvalues,
    delta_transition_matrix,
    fundamental_matrix,
    solution_zeros,
    threshold_reference,
)

# the potentials of the Magnus accuracy checks, written independently of the
# package's expression parser
ORACLE_POTENTIALS = {
    "2*cos(3*x)": lambda x: 2.0 * math.cos(3.0 * x),
    "cos(4*x)": lambda x: math.cos(4.0 * x),
    "x": lambda x: x,
    "50*cos(20*x)": lambda x: 50.0 * math.cos(20.0 * x),
}


def test_wronskian_is_2ik_for_zero_potential(g_interval_pi):
    for k in (0.7, 3.0, 11.0):
        sol = solve_edge(g_interval_pi, 0, k)
        assert abs(sol.wronskian - 2j * k) <= 1e-13 * max(1.0, k)
        assert sol.error_estimate == 0.0


def test_wronskian_constant_along_smooth_edges(g_smooth):
    rng = np.random.default_rng(11)
    for _ in range(6):
        k = float(rng.uniform(2.5, 15.0))
        sol = solve_edge(g_smooth, 0, k)
        assert abs(sol.wronskian - 2j * k) <= 1e-8 * max(1.0, k)
        assert sol.error_estimate <= 1e-7


def test_zero_strength_interaction_is_free_propagation():
    g = interval(1.3, {"type": "delta", "strength": 0.0, "position": 0.4})
    t = transition_matrix(g, 0, 2.7)
    assert t.trans == pytest.approx(cmath.exp(1j * 2.7 * 1.3), abs=1e-14)
    assert abs(t.r_from) == 0.0
    assert abs(t.r_to) == 0.0


@pytest.mark.parametrize("strength", [-1.0, 0.7, 2.0])
@pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
def test_point_interaction_matrix_matches_closed_form(strength, frac):
    length = 1.0
    g = interval(length, {"type": "delta", "strength": strength, "position": frac * length})
    for k in (0.9, 3.0, 11.0):
        t = transition_matrix(g, 0, k)
        expected = delta_transition_matrix(strength, length, frac * length, k)
        assert np.max(np.abs(t.matrix - expected)) <= 1e-12


def test_point_interaction_eigenvalues_match_closed_form():
    length, strength, frac = math.pi / 2, 2.0, 0.3
    g = interval(length, {"type": "delta", "strength": strength, "position": frac * length})
    for k in (0.9, 3.0, 11.0):
        eigs = transition_matrix(g, 0, k).eigenvalues
        expected = delta_eigenvalues(strength, length, k)
        for mu in expected:
            assert min(abs(e - mu) for e in eigs) <= 1e-12


def test_matrix_layout_and_unitarity(g_smooth):
    t = transition_matrix(g_smooth, 0, 5.0)
    m = t.matrix
    assert m.shape == (2, 2)
    assert m[0, 0] == t.trans
    assert m[1, 1] == t.trans
    assert m[0, 1] == t.r_to
    assert m[1, 0] == t.r_from
    assert t.unitarity_defect() <= 1e-9


def test_derivative_matches_central_difference(g_smooth):
    for k in (4.0, 5.0, 9.0):
        dk = transition_matrix_dk(g_smooth, 0, k)
        num = central_diff(lambda kk: transition_matrix(g_smooth, 0, kk).matrix, k)
        assert np.max(np.abs(dk - num)) <= 1e-6


def test_threshold_closed_form_for_point_interactions(g_interval_delta_neg, g_interval_pi):
    info = subunitarity_threshold(g_interval_delta_neg, detailed=True)
    assert info.K == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert info.method == "closed-form"
    info0 = subunitarity_threshold(g_interval_pi, detailed=True)
    assert info0.K == 0.0
    assert info0.method == "closed-form"


def test_threshold_scan_for_smooth_potentials(g_smooth):
    info = subunitarity_threshold(g_smooth, detailed=True)
    assert info.method == "heuristic-scan"
    # the classical barrier sqrt(max w) = sqrt(2) is a hard floor
    assert info.K >= math.sqrt(2.0) - 1e-12
    assert info.K <= 4.0
    assert subunitarity_threshold(g_smooth) == info.K


def test_verify_subunitary_brackets_the_threshold(g_interval_delta_neg):
    ok_below, norm_below = verify_subunitary(g_interval_delta_neg, 0, 0.5, 1e-3)
    ok_above, norm_above = verify_subunitary(g_interval_delta_neg, 0, 1.0, 1e-3)
    assert not ok_below
    assert norm_below > 1.0 + 1e-3
    assert ok_above
    assert norm_above <= 1.0 + 1e-3


def test_derivative_fields_populated_on_request(g_smooth):
    plain = solve_edge(g_smooth, 0, 6.0)
    assert plain.dk_psi_p is None
    rich = solve_edge(g_smooth, 0, 6.0, want_dk=True)
    assert rich.dk_psi_p is not None
    num = central_diff(lambda kk: solve_edge(g_smooth, 0, kk).psi_p, 6.0)
    assert abs(rich.dk_psi_p - num) <= 1e-6


@pytest.mark.parametrize(
    "pot, tol",
    [
        ({"type": "delta", "strength": 1.7, "position": 0.3}, 1e-13),
        ({"type": "constant", "value": 4.0}, 1e-13),
        ({"type": "zero"}, 1e-13),
        ({"type": "expr", "expr": "x + exp(-x)*x^2"}, 1e-9),
    ],
)
def test_reversal_keeps_transmission_and_swaps_reflections(pot, tol):
    g = interval(1.3, pot)
    for k in (2.7, 5 + 1e-3j):
        fwd = _entries(solve_edge(g, 0, k, want_dk=True))
        rev = _entries(solve_edge(g, 0, k, want_dk=True, reverse=True))
        # t, then t' = dt/dk
        for (trans, r_from, r_to), (trans_r, r_from_r, r_to_r) in zip(fwd, rev):
            scale = max(1.0, abs(trans), abs(r_from), abs(r_to))
            assert abs(trans_r - trans) <= tol * scale
            assert abs(r_from_r - r_to) <= tol * scale
            assert abs(r_to_r - r_from) <= tol * scale


def _scaled(rows, k):
    # (psi, psi') rows with psi' scaled by 1/|k|, so free solutions are O(1)
    return np.diag([1.0, 1.0 / abs(k)]) @ np.asarray(rows)


@pytest.mark.parametrize("expr", sorted(ORACLE_POTENTIALS))
def test_smooth_edge_matches_fundamental_matrix_oracle(expr):
    g = interval(1.0, {"type": "expr", "expr": expr})
    for k in (2.0, 5.0, 20.0, 80.0, 5 + 1e-3j):
        m, dm = fundamental_matrix(ORACLE_POTENTIALS[expr], 1.0, complex(k))
        start = np.array([[1.0, 1.0], [-1j * k, 1j * k]])  # (psi_+, psi_-) at 0
        dstart = np.array([[0.0, 0.0], [-1j, 1j]])
        want = _scaled(m @ start, k)
        dwant = _scaled(dm @ start + m @ dstart, k)
        sol = solve_edge(g, 0, k, want_dk=True)
        got = _scaled([[sol.psi_p, sol.psi_m], [sol.dpsi_p, sol.dpsi_m]], k)
        dgot = _scaled(
            [[sol.dk_psi_p, sol.dk_psi_m], [sol.dk_dpsi_p, sol.dk_dpsi_m]], k
        )
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(dgot - dwant)) <= 1e-9 * max(1.0, np.max(np.abs(dwant)))
        assert sol.error_estimate <= 1e-9


@pytest.mark.parametrize("expr, k", [("2*cos(3*x)", 5.0), ("2*cos(3*x)", 5 + 1e-3j), ("x", 20.0)])
def test_edge_profile_matches_oracle(expr, k):
    g = interval(1.0, {"type": "expr", "expr": expr})
    xs = np.linspace(0.0, 1.0, 33)
    profile = edge_profile(g, 0, k, xs)
    assert profile[0] == 1.0
    for x, psi in zip(xs[1:], profile[1:]):
        m, _ = fundamental_matrix(ORACLE_POTENTIALS[expr], x, complex(k))
        assert abs(psi - (m[0, 0] - 1j * k * m[0, 1])) <= 1e-9


@pytest.mark.parametrize("position", [0.0, 0.37, 0.5, 1.0])
def test_point_interaction_profile_matches_closed_form(position):
    # free propagation, plus D psi(x0) sin(k(x - x0))/k past the scatterer;
    # the grid hits x0 exactly for 0, 0.5 and 1, so the jump counts once
    strength, k = 1.7, 4.3 + 1e-3j
    g = interval(1.0, {"type": "delta", "strength": strength, "position": position})
    xs = np.linspace(0.0, 1.0, 33)
    want = np.exp(-1j * k * xs) + np.where(
        xs >= position,
        strength * np.exp(-1j * k * position) * np.sin(k * (xs - position)) / k,
        0.0,
    )
    assert np.max(np.abs(edge_profile(g, 0, k, xs) - want)) <= 1e-13


def test_unresolvable_potential_raises():
    g = interval(1.0, {"type": "expr", "expr": "cos(1000000*x)"})
    with pytest.raises(NumericalError, match="unresolved"):
        solve_edge(g, 0, 5.0)


def test_edge_profile_sweeps_the_edge_once(monkeypatch):
    # one pass at the whole edge's step count, the positions as breakpoints
    g = interval(1.0, {"type": "expr", "expr": "2*cos(3*x)"})
    k, xs = 40.0, np.linspace(0.0, 1.0, 513)
    steps = []
    build = edge._steps

    def counted(w1, *args):
        steps.append(len(w1))
        return build(w1, *args)

    monkeypatch.setattr(edge, "_steps", counted)
    solve_edge(g, 0, k)
    doubling, n = sum(steps), steps[-1]
    steps.clear()
    profile = edge_profile(g, 0, k, xs)
    assert sum(steps) - doubling <= n + len(xs)
    assert profile[-1] == pytest.approx(solve_edge(g, 0, k).psi_p, abs=1e-9)


def _smooth(expr):
    return {"type": "expr", "expr": expr}


def _constant(value):
    return {"type": "constant", "value": value}


# star arms; each test builds its own graph, so no cached threshold is reused
THRESHOLD_PANEL = {
    "cos234": [(1.0, _smooth("cos(2*x)")), (1.0, _smooth("cos(3*x)")), (1.0, _smooth("cos(4*x)"))],
    "2cos3": [(1.0, _smooth("2*cos(3*x)"))],
    "mixed": [(1.0, _smooth("-3*cos(2*x)")), (1.0, _smooth("5*x*(1-x)"))],
    "const_cos": [(1.0, _constant(-4.0)), (1.0, _smooth("cos(2*x)"))],
    "const": [(1.0, _constant(4.0)), (1.0, _constant(-4.0)), (1.0, _constant(-2.0))],
    "delta_const": [
        (1.0, {"type": "delta", "strength": -1.0, "position": 0.5}),
        (1.3, _constant(-2.0)),
    ],
}


@pytest.mark.parametrize("name", sorted(THRESHOLD_PANEL))
def test_threshold_matches_sequential_reference(name):
    info = subunitarity_threshold(star(THRESHOLD_PANEL[name]), detailed=True)
    assert (info.K, info.method) == threshold_reference(star(THRESHOLD_PANEL[name]))


def test_threshold_skips_past_a_failing_point(threshold_points):
    # the first candidate, 1.0, fails at k = 1.125; the scan goes on from
    # the candidate past that point and evaluates no grid point twice
    info = subunitarity_threshold(star(THRESHOLD_PANEL["const_cos"]), detailed=True)
    assert info.K == 1.125
    assert info.method == "heuristic-scan"
    assert len(threshold_points) == len(set(threshold_points))
    g = star(THRESHOLD_PANEL["const_cos"])
    assert not all(
        verify_subunitary(g, e, 1.125, eps)[0]
        for eps in (1e-4, 1e-3, 1e-2, 1e-1)
        for e in (0, 1)
    )


@pytest.mark.parametrize("expr", ["2*cos(3*x)", "x"])
def test_batched_magnus_matches_single_points(expr):
    pot = interval(1.0, {"type": "expr", "expr": expr}).edges[0].potential
    ks = np.array([2.0, 5.0, 20.0, 80.0, 5 + 1e-3j, 3 + 0.1j, 1.125 + 1e-4j])
    m, dm, err, _ = edge._magnus_doubled(pot, 0.0, 1.0, ks, True)
    assert np.all(err <= 1e-10)
    for i, k in enumerate(ks):
        m1, dm1, _, _ = edge._magnus_doubled(pot, 0.0, 1.0, [k], True)
        for got, want in ((m[..., i], m1[..., 0]), (dm[..., i], dm1[..., 0])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


FOLD_POTENTIALS = ["cos(2*x)", "2*cos(3*x)", "x", "-3*cos(2*x)", "5*x*(1-x)", "50*cos(20*x)"]
FOLD_KS = np.array(
    [0.7, 2.0, 5.0, 20.0, 80.0, 150.0, 5 + 1e-3j, 3 + 0.1j, 1.125 + 1e-4j, 40 + 2j]
)


@pytest.mark.parametrize("expr", FOLD_POTENTIALS)
def test_pair_fold_equals_block_fold(expr):
    # folding E and E' as a pair gives the 4x4 block fold's M and M' bit for
    # bit, also past _POINT_STEPS, where the steps are folded in pieces
    w = interval(1.0, _smooth(expr)).edges[0].potential.callable(1.0)
    for n in (64, 4 * edge._POINT_STEPS):
        h = 1.0 / n
        w1, w2 = edge._gauss_values(w, 0.0 + h * np.arange(n), h)
        want_m, want_dm = block_fold(*edge._steps(w1, w2, h, FOLD_KS, True))
        m, dm = edge._magnus(w, 0.0, 1.0, FOLD_KS, n, True)
        assert np.array_equal(m, want_m)
        assert np.array_equal(dm, want_dm)
        m, dm = edge._magnus(w, 0.0, 1.0, FOLD_KS, n, False)
        assert np.array_equal(m, want_m)
        assert dm is None


def test_derivative_fold_heap_stays_near_the_m_only_heap():
    # E' adds one array of E's size to the steps and one product per level;
    # 4x4 blocks [[E, E'], [0, E]] took about three times the M-only heap
    w = interval(1.0, _smooth("2*cos(3*x)")).edges[0].potential.callable(1.0)
    ks = np.array([4.7 + 0j])
    peaks = []
    for want_dk in (False, True):
        edge._magnus(w, 0.0, 1.0, ks, edge._POINT_STEPS, want_dk)
        tracemalloc.start()
        try:
            edge._magnus(w, 0.0, 1.0, ks, edge._POINT_STEPS, want_dk)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.6 * peaks[0]


@pytest.mark.parametrize("name", ["cos234", "const_cos"])
def test_batched_moduli_match_verify_subunitary(name):
    g = star(THRESHOLD_PANEL[name])
    ks = np.array([complex(k, eps) for k in (1.125, 2.5, 4.75) for eps in (1e-4, 1e-1)])
    for e in range(g.num_edges):
        for k, mod in zip(ks, edge._max_moduli(g, e, ks)):
            assert mod == pytest.approx(verify_subunitary(g, e, k.real, k.imag)[1], rel=1e-13)


def test_unresolvable_arm_stops_its_threshold_block(magnus_steps):
    # the walk's first point on the cos(1000000 x) arm is unresolved: it is
    # propagated alone, so no other point of its block is doubled to the end
    g = star([(1.0, {"type": "expr", "expr": f"cos({n}*x)"}) for n in (2, 1000000)])
    message = (
        r"Magnus propagator unresolved at 32768 steps for 'cos\(1000000\*x\)' "
        r"at k=\(1\.125\+0\.0001j\)"
    )
    with pytest.raises(NumericalError, match=message):
        subunitarity_threshold(g)
    assert sum(p for n, p in magnus_steps if n == edge._MAX_STEPS) == 1


def test_unresolvable_potential_raises_through_threshold():
    g = interval(1.0, {"type": "expr", "expr": "cos(1000000*x)"})
    with pytest.raises(NumericalError, match="unresolved"):
        subunitarity_threshold(g)


ZERO_CASES = {
    # (potential, length, the oracle's w, its point interaction (D, x0))
    "2*cos(3*x)": (
        {"type": "expr", "expr": "2*cos(3*x)"}, 1.0, ORACLE_POTENTIALS["2*cos(3*x)"], (0, 0)
    ),
    "-5*cos(3*x)": (
        {"type": "expr", "expr": "-5*cos(3*x)"}, 1.0, lambda x: -5 * math.cos(3 * x), (0, 0)
    ),
    "constant 4": ({"type": "constant", "value": 4.0}, 2.0, lambda x: 4.0, (0, 0)),
    "delta -5": (
        {"type": "delta", "strength": -5.0, "position": 0.6}, 1.2, lambda x: 0.0, (-5.0, 0.6)
    ),
}


@pytest.mark.parametrize("name", list(ZERO_CASES))
def test_solution_zeros_match_an_ode_count(name):
    # the zeros on (0, L] that the eigenvalue count reads, from the closed
    # form or the Magnus steps, against sign changes of a DOP853 solution;
    # at 161.7 the Magnus path counts within each of 64 steps, at 4096
    # steps on the sign changes at the ends of a fold level
    pot, length, w, delta = ZERO_CASES[name]
    g = interval(length, pot)
    ks = np.array([0.7, 3.1, 12.3, 41.0, 161.7])
    zeros = edge._solve_edges(g, ks, want_count=True).zeros[:, :, 0]
    want = [solution_zeros(w, length, k, delta) for k in ks]
    assert zeros.T.tolist() == [list(z) for z in want]
    if pot["type"] == "expr":
        for n in (64, 4096):
            z = np.empty((2, 1), dtype=int)
            edge._magnus(g.edges[0].potential.callable(length), 0.0, length, ks[-1:], n, False, z)
            assert z[:, 0].tolist() == list(want[-1])
