"""Edge-level scattering data: fundamental pairs and transition matrices."""
from __future__ import annotations

import cmath
import dataclasses
import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qgspectra.errors import InputError, NumericalError, SingularPointError
from qgspectra.graph import MetricGraph
from qgspectra.potential import Potential, orient

from .conftest import ZERO, interval, star
from .oracles import (
    block_fold,
    central_diff,
    delta_eigenvalues,
    delta_transition_matrix,
    fundamental_matrix,
    solution_zeros,
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


def test_threshold_closed_form_for_point_interactions(
    g_interval_delta_neg, g_interval_pi, g_delta_star
):
    info = subunitarity_threshold(g_interval_delta_neg, detailed=True)
    assert info.K == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert info.method == "closed-form"
    info0 = subunitarity_threshold(g_interval_pi, detailed=True)
    assert info0.K == 0.0
    assert info0.method == "closed-form"
    # repulsive point interactions leave every lambda positive
    info = subunitarity_threshold(g_delta_star, detailed=True)
    assert (info.K, info.method) == (0.0, "closed-form")
    # a centred point interaction crosses at sqrt(-D/L - D^2/4)
    g = interval(1.0, {"type": "delta", "strength": -2.0, "position": 0.5})
    assert subunitarity_threshold(g) == pytest.approx(1.0, abs=1e-12)


def test_threshold_scan_for_smooth_potentials(g_smooth):
    # the smooth edge's t is sampled; K lies below the classical barrier
    # sqrt(max w) = sqrt(2), which the criterion does not read (the name
    # keeps the test's id)
    info = subunitarity_threshold(g_smooth, detailed=True)
    assert info.method == "sampled"
    assert info.K == pytest.approx(0.304662897877, abs=1e-9)
    assert subunitarity_threshold(g_smooth) == info.K


def test_verify_subunitary_checks_the_norm():
    # an off-centre well: t's eigenvalues stay inside the unit disc at k =
    # 1 while its norm exceeds 1, and the norm is what ||S|| <= ||T|| uses
    g = interval(1.0, {"type": "delta", "strength": -3.0, "position": 0.2})
    ok, norm = verify_subunitary(g, 0, 1.0, 1e-4)
    assert not ok
    assert norm - 1.0 == pytest.approx(1.41e-5, rel=0.01)
    assert max(abs(transition_matrix(g, 0, 1.0 + 1e-4j).eigenvalues)) < 1.0


def test_verify_subunitary_brackets_the_threshold(g_interval_delta_neg):
    ok_below, norm_below = verify_subunitary(g_interval_delta_neg, 0, 0.5, 1e-3)
    ok_above, norm_above = verify_subunitary(g_interval_delta_neg, 0, 1.0, 1e-3)
    assert not ok_below
    assert norm_below > 1.0 + 1e-3
    assert ok_above
    assert norm_above <= 1.0 + 1e-3


def test_derivative_fields_populated_on_request(g_smooth):
    assert solve_edge(g_smooth, 0, 6.0).dm is None
    rich = solve_edge(g_smooth, 0, 6.0, want_dk=True)
    for i in range(4):
        num = central_diff(lambda kk: solve_edge(g_smooth, 0, kk).m[i], 6.0)
        assert abs(rich.dm[i] - num) <= 1e-6


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
    # the edge traversed the other way, on a graph of its own: the reflected
    # potential w(L - x) from the "from" end
    e = g.edges[0]
    back = dataclasses.replace(e, potential=orient(e.potential, True, e.length))
    g_rev = MetricGraph(g.vertices, [back])
    for k in (2.7, 5 + 1e-3j):
        fwd, rev = solve_edge(g, 0, k, want_dk=True), solve_edge(g_rev, 0, k, want_dk=True)
        # reversing the edge swaps m11 and m22, in M and in M' = dM/dk
        for m, m_rev in ((fwd.m, rev.m), (fwd.dm, rev.dm)):
            scale = max(1.0, *map(abs, m))
            assert max(abs(x - y) for x, y in zip(m_rev, (m[3], m[1], m[2], m[0]))) <= tol * scale
        # t, then t' = dt/dk
        for (trans, r_from, r_to), (trans_r, r_from_r, r_to_r) in zip(_entries(fwd), _entries(rev)):
            scale = max(1.0, abs(trans), abs(r_from), abs(r_to))
            assert abs(trans_r - trans) <= tol * scale
            assert abs(r_from_r - r_to) <= tol * scale
            assert abs(r_to_r - r_from) <= tol * scale


def _scaled(m, k):
    # M with psi' scaled by 1/|k| on both sides, so free solutions are O(1)
    return np.diag([1.0, 1.0 / abs(k)]) @ np.reshape(m, (2, 2)) @ np.diag([1.0, abs(k)])


@pytest.mark.parametrize("expr", sorted(ORACLE_POTENTIALS))
def test_smooth_edge_matches_fundamental_matrix_oracle(expr):
    g = interval(1.0, {"type": "expr", "expr": expr})
    for k in (2.0, 5.0, 20.0, 80.0, 5 + 1e-3j):
        m, dm = fundamental_matrix(ORACLE_POTENTIALS[expr], 1.0, complex(k))
        want, dwant = _scaled(m, k), _scaled(dm, k)
        sol = solve_edge(g, 0, k, want_dk=True)
        got, dgot = _scaled(sol.m, k), _scaled(sol.dm, k)
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
        steps.append(w1.shape[-1])
        return build(w1, *args)

    monkeypatch.setattr(edge, "_steps", counted)
    solve_edge(g, 0, k)
    doubling, n = sum(steps), steps[-1]
    steps.clear()
    profile = edge_profile(g, 0, k, xs)
    assert sum(steps) - doubling <= n + len(xs)
    m11, m12, _, _ = solve_edge(g, 0, k).m
    assert profile[-1] == pytest.approx(m11 - 1j * k * m12, abs=1e-9)


@pytest.mark.parametrize(
    "pot",
    [ZERO, {"type": "constant", "value": 4.0}, {"type": "delta", "strength": 1.0, "position": 0.5},
     {"type": "expr", "expr": "2*cos(3*x)"}],
    ids=["zero", "constant", "delta", "smooth"],
)
def test_edge_profile_at_the_start_alone(pot):
    # a one-point grid at x = 0 has no segment to propagate over
    g, k = interval(1.0, pot), 3.0
    assert edge_profile(g, 0, k, [0.0]).tolist() == [1.0]
    m11, m12, _, _ = solve_edge(g, 0, k).m
    assert edge_profile(g, 0, k, [0.0, 0.0, 1.0]).tolist() == [1.0, 1.0, m11 - 1j * k * m12]


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


# K of the panel: the last sign change of some edge's smaller Wigner-Smith
# eigenvalue
THRESHOLD_K = {
    "cos234": 0.469470505550,
    "2cos3": 0.304662897877,
    "mixed": 0.985292462485,
    "const_cos": 1.137982841251,
    "const": 1.137982841251,
    "delta_const": 0.876065517517,
}

# single edges with K > 0: an off-centre well, a well at the edge's end and a
# deep constant well
THRESHOLD_CASES = {
    "off-centre-delta": (
        (1.0, {"type": "delta", "strength": -3.0, "position": 0.2}), 1.248999599680
    ),
    "delta-at-end": ((1.0, {"type": "delta", "strength": -8.0, "position": 0.0}), 2.828427124746),
    "deep-well": ((1.0, _constant(-10.0)), 0.358732258111),
}


def _threshold_case(name):
    if name in THRESHOLD_PANEL:
        return star(THRESHOLD_PANEL[name]), THRESHOLD_K[name]
    arm, K = THRESHOLD_CASES[name]
    return interval(*arm), K


def _norms(g, ks):
    """||t_e(k)||_2 of every edge at every complex k of ``ks``, (len(ks), E),
    from one batch of the edges: the quantity of ``verify_subunitary``."""
    (trans, r_from, r_to), _ = _entries(edge._solve_edges(g, ks))
    t = np.stack([np.stack([trans, r_to], -1), np.stack([r_from, trans], -1)], -2)
    return np.linalg.norm(t, 2, axis=(-2, -1))


def _wigner_smith_floor(g, e, k):
    """The smaller eigenvalue of -i t^H t' of edge ``e`` at one real k, from
    the public one-point t and t' and a dense Hermitian eigensolver."""
    t = transition_matrix(g, e, k).matrix
    q = -1j * t.conj().T @ transition_matrix_dk(g, e, k)
    return np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0]


@pytest.mark.parametrize("name", sorted(THRESHOLD_PANEL))
def test_threshold_matches_sequential_reference(name):
    # the batched closed-form eigenvalue against one eigvalsh per point:
    # some edge's is negative just below K and none just above
    g = star(THRESHOLD_PANEL[name])
    info = subunitarity_threshold(g, detailed=True)
    smooth = any(pot.get("type") == "expr" for _, pot in THRESHOLD_PANEL[name])
    assert info.method == ("sampled" if smooth else "closed-form")
    assert info.K == pytest.approx(THRESHOLD_K[name], abs=1e-9)
    below = [_wigner_smith_floor(g, e, info.K - 1e-6) for e in range(g.num_edges)]
    above = [_wigner_smith_floor(g, e, info.K + 1e-6) for e in range(g.num_edges)]
    assert min(below) < 0 < min(above)
    ks = np.linspace(0.05, 6.0, 7)
    floors = edge._delay_floor(g, ks, list(range(g.num_edges)))
    for e in range(g.num_edges):
        ref = [_wigner_smith_floor(g, e, k) for k in ks]
        assert floors[:, e] == pytest.approx(ref, abs=1e-9)


def test_threshold_skips_past_a_failing_point():
    # the c = -4 edge fails the norm check up to about 1.138, between rows
    # 0.125 apart; K lies past that point
    g = star(THRESHOLD_PANEL["const_cos"])
    assert not verify_subunitary(g, 0, 1.13, 1e-4)[0]
    assert subunitarity_threshold(g) > 1.13


@pytest.mark.parametrize("name", sorted(THRESHOLD_PANEL) + sorted(THRESHOLD_CASES))
def test_threshold_holds_above_and_is_tight(name):
    # ||t_e(k + i eps)|| <= 1 at 400 points of (K, K + 2] for eps = 1e-4,
    # 1e-2 and 1e-1, and at eps = 1e-4 some point within 0.01 below K fails
    g, expected = _threshold_case(name)
    K = subunitarity_threshold(g)
    assert K == pytest.approx(expected, abs=1e-9)
    above = K + 2.0 * np.arange(1, 401) / 400
    for eps in (1e-4, 1e-2, 1e-1):
        assert _norms(g, above + 1j * eps).max() <= 1.0 + 1e-12
    below = K - 0.01 * np.arange(1, 11) / 10
    assert _norms(g, below + 1e-4j).max() > 1.0 + 1e-12


@st.composite
def _threshold_edges(draw):
    """(L, potential): a point interaction of either sign anywhere on the
    edge, a constant of either sign, or a low-amplitude smooth w."""
    L = draw(st.sampled_from([0.6, 1.0, 1.3]))
    kind = draw(st.sampled_from(["delta", "constant", "smooth"]))
    if kind == "delta":
        D, x0 = draw(st.floats(-6.0, 6.0)), draw(st.floats(0.0, 1.0)) * L
        return L, {"type": "delta", "strength": D, "position": x0}
    if kind == "constant":
        return L, _constant(draw(st.floats(-8.0, 8.0)))
    a = draw(st.sampled_from([-1.5, -0.6, 0.4, 1.0]))
    b = draw(st.sampled_from([-0.8, 0.0, 0.7]))
    return L, _smooth(f"{a}*cos({draw(st.integers(1, 4))}*x) + {b}*x")


def _reversed(L, pot):
    """The description of ``pot`` seen from the edge's other end (``orient``)."""
    q = orient(Potential.from_dict(pot), True, L)
    if q.kind == "delta":
        return {"type": "delta", "strength": q.strength, "position": q.position}
    return _constant(q.value) if q.kind == "constant" else _smooth(q.source)


@settings(max_examples=30)
@given(_threshold_edges())
def test_threshold_properties_on_random_edges(drawn):
    # K does not depend on the edge's orientation, the norm check holds
    # above it, and below it the check fails within 0.01
    L, pot = drawn
    g = interval(L, pot)
    K = subunitarity_threshold(g)
    assert subunitarity_threshold(interval(L, _reversed(L, pot))) == pytest.approx(K, abs=1e-9)
    above = K + 2.0 * np.arange(1, 41) / 40
    for eps in (1e-4, 1e-2, 1e-1):
        assert _norms(g, above + 1j * eps).max() <= 1.0 + 1e-12
    below = K - 0.01 * np.arange(1, 11) / 10
    below = below[below > 0]
    if K > 0 and below.size:
        assert _norms(g, below + 1e-4j).max() > 1.0 + 1e-12


def test_threshold_skips_edges_whose_potential_is_nonnegative(monkeypatch):
    # v^H Q v = int A dx + (1/2k^2) int w |psi|^2 dx > 0 where w >= 0, so
    # repulsive point interactions and constants c >= 0 are not gridded
    g = star([
        (1.0, {"type": "delta", "strength": 3.0, "position": 0.0}),
        (0.8, {"type": "delta", "strength": 0.5, "position": 0.3}),
        (1.2, _constant(6.0)),
        (0.6, _constant(0.0)),
    ])

    def refused(*args):
        raise AssertionError("_delay_floor called")

    monkeypatch.setattr(edge, "_delay_floor", refused)
    info = subunitarity_threshold(g, detailed=True)
    assert (info.K, info.method) == (0.0, "closed-form")


@st.composite
def _nonnegative_edges(draw):
    """(L, potential) with w >= 0: a repulsive point interaction at either
    end or inside, a constant c >= 0, or a(1 + cos bx) with a >= 0."""
    L = draw(st.sampled_from([0.2, 0.6, 1.0, 2.0, 4.0]))
    kind = draw(st.sampled_from(["delta", "constant", "smooth"]))
    if kind == "delta":
        x0 = draw(st.sampled_from([0.0, L, draw(st.floats(0.0, 1.0)) * L]))
        return L, {"type": "delta", "strength": draw(st.floats(0.0, 100.0)), "position": x0}
    if kind == "constant":
        return L, _constant(draw(st.floats(0.0, 50.0)))
    a, b = draw(st.floats(0.0, 20.0)), draw(st.integers(1, 6))
    return L, _smooth(f"{a}*(1 + cos({b}*x))")


@settings(max_examples=30)
@given(_nonnegative_edges())
def test_wigner_smith_floor_is_positive_where_w_is_nonnegative(drawn):
    # the identity behind skipping them: lambda > 0 at every k of a grid
    g = interval(*drawn)
    ks = np.linspace(1e-3, 60.0, 400)
    assert np.all(edge._delay_floor(g, ks, [0]) > 0)


# edges of the large-k bound check: point interactions of either sign and
# position, wells and barriers, and smooth edges
BOUND_EDGES = {
    "delta-well-end": (1.0, {"type": "delta", "strength": -8.0, "position": 0.0}),
    "delta-well": (0.7, {"type": "delta", "strength": -3.0, "position": 0.2}),
    "delta-barrier": (1.3, {"type": "delta", "strength": 5.0, "position": 1.3}),
    "well": (1.0, _constant(-10.0)),
    "barrier": (0.5, _constant(6.0)),
    "smooth": (1.0, _smooth("-3*cos(2*x)")),
    "smooth-barrier": (1.0, _smooth("5*x*(1-x)")),
}


@pytest.mark.parametrize("name", sorted(BOUND_EDGES))
def test_threshold_large_k_bound(name):
    # lambda(k) >= L e^{-2s} - s (1 + s/2) e^{2s} / k with s = V / k, which
    # is positive from B = 3 V / ln(1 + sqrt(L V)) on, where the grid stops
    g = interval(*BOUND_EDGES[name])
    L, V = g.edges[0].length, edge._strength(g.edges[0])
    top = 3.0 * V / math.log1p(math.sqrt(L * V))
    ks = np.linspace(0.2, 3.0 * top, 400)
    lam = edge._delay_floor(g, ks, [0])[:, 0]
    s = V / ks
    bound = L * np.exp(-2 * s) - s * (1 + s / 2) * np.exp(2 * s) / ks
    assert np.all(lam >= bound - 1e-9)
    assert np.all(bound[ks >= top] > 0)


BATCH_EDGES = [(1.0, "2*cos(3*x)"), (1.0, "x"), (0.7, "-3*cos(2*x)"), (1.3, "5*x*(1-x)")]
BATCH_KS = {
    "real": np.array([0.7, 2.0, 3.1, 5.0, 9.5, 12.3, 20.0, 33.3, 41.0, 80.0, 120.0, 161.7]),
    "complex": np.array(
        [5 + 1e-3j, 3 + 0.1j, 1.125 + 1e-4j, 40 + 2j, 2 + 0j, 80 + 0j, 0.7 + 1e-2j, 12.3 + 0.5j, 161.7j]
    ),
}


@pytest.mark.parametrize("name", sorted(BATCH_KS))
def test_batched_magnus_matches_single_points(name):
    # every (k, edge) row of one batch over edges of different lengths and
    # potentials, with more rows than a block of 64 steps holds, gives the
    # M, M', error, step count and zeros of its edge alone at its k alone
    pots = [interval(L, _smooth(expr)).edges[0].potential for L, expr in BATCH_EDGES]
    lengths = [L for L, _ in BATCH_EDGES]
    ks = BATCH_KS[name]
    assert len(ks) * len(pots) > edge._POINT_STEPS // edge._MIN_STEPS
    zeros = np.empty((2, len(ks), len(pots)), dtype=int) if name == "real" else None
    table = edge._Samples(pots, lengths)
    m, dm, err, n = edge._magnus_doubled(table, np.arange(len(pots)), ks, True, zeros)
    assert np.all(err <= 1e-10)
    if zeros is not None:
        # real ks run in float64 and give the rows of the complex arithmetic
        # at k + 0j: M and M' to rounding, the same step counts and zeros
        assert m.dtype == dm.dtype == np.float64
        zc = np.empty_like(zeros)
        mc, dmc, _, nc = edge._magnus_doubled(
            edge._Samples(pots, lengths), np.arange(len(pots)), ks + 0j, True, zc
        )
        for got, want in ((m, mc), (dm, dmc)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=(0, 1)))
        assert np.array_equal(n, nc)
        assert np.array_equal(zeros, zc)
        # and some kept step is classically forbidden (nu^2 < 0: k = 0.7 on
        # 5 x (1 - x)), so the cosh and sinh branch is among those rows
        nu2 = []
        for (i, k), e in itertools.product(enumerate(ks), range(len(pots))):
            alpha, beta, gamma, _, _ = edge._generator(
                *drawn_samples(table, e, n[i, e]), lengths[e] / n[i, e], k
            )
            nu2.append(np.min(-(alpha * alpha + beta * gamma)))
        assert min(nu2) < 0
    for (i, k), (e, pot) in itertools.product(enumerate(ks), enumerate(pots)):
        z = None if zeros is None else np.empty((2, 1, 1), dtype=int)
        one = edge._Samples([pot], [lengths[e]])
        m1, dm1, err1, n1 = edge._magnus_doubled(one, np.arange(1), [k], True, z)
        assert np.array_equal(m[..., i, e], m1[..., 0, 0])
        assert np.array_equal(dm[..., i, e], dm1[..., 0, 0])
        assert (err[i, e], n[i, e]) == (err1[0, 0], n1[0, 0])
        if zeros is not None:
            assert zeros[:, i, e].tolist() == z[:, 0, 0].tolist()


# the real ks include a classically forbidden step (k = 0.7 on 5 x (1 - x))
# and rows that go on past 128 steps
PAIR_KS = {
    "real": np.array([0.7, 5.0, 41.0]),
    "complex": np.array([5 + 1e-3j, 0.7 + 1e-2j, 40 + 2j]),
}


def split_pair(table, counts, edges, ks, want_dk, zeros=None, prev=None, kernel=edge._magnus):
    """The Magnus kernel with a pair of counts taken as two passes of one
    count each, the second compared with the first."""
    if len(counts) == 1:
        return kernel(table, counts, edges, ks, want_dk, zeros, prev)
    for n in counts:
        table.draw((n,), edges)
    m0, dm0, _ = kernel(table, counts[:1], edges, ks, want_dk)
    m1, dm1, err = kernel(table, counts[1:], edges, ks, want_dk, zeros, m0[0])
    dm = None if dm0 is None else np.concatenate([dm0, dm1])
    return np.concatenate([m0, m1]), dm, err


@pytest.mark.parametrize("budget", [1, 128, edge._POINT_STEPS])
@pytest.mark.parametrize("name", sorted(PAIR_KS))
def test_pair_pass_equals_single_count_passes(monkeypatch, name, budget):
    # one kernel pass of 64 and 128 steps gives the M and M' of each count,
    # the error and the zeros of two passes of one count each, bit for bit,
    # with and without M' and zeros; and so the step doubling gives every
    # row the M, M', error, step count and zeros it gets from passes of one
    # count each.  At a budget of one row-step the steps are built one at a
    # time; at 128 a row's 192 steps are two blocks, the first holding a
    # sub-row of each count; at the default, rows of both counts are built
    # together
    monkeypatch.setattr(edge, "_POINT_STEPS", budget)
    pots = [interval(L, _smooth(expr)).edges[0].potential for L, expr in BATCH_EDGES]
    lengths = [L for L, _ in BATCH_EDGES]
    ks = PAIR_KS[name]
    rows, rks = np.tile(np.arange(len(pots)), len(ks)), np.repeat(ks, len(pots))
    pair = (edge._MIN_STEPS, 2 * edge._MIN_STEPS)
    real = name == "real"
    for want_dk, count in [(False, real), (True, real), (True, False)]:
        table = edge._Samples(pots, lengths)
        table.draw(pair, rows)
        z, zs = (np.full((2, len(rks)), -1) for _ in range(2)) if count else (None, None)
        got = edge._magnus(table, pair, rows, rks, want_dk, z)
        want = split_pair(table, pair, rows, rks, want_dk, zs)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)
        if count:
            assert (z >= 0).any() and np.array_equal(z, zs)
        zeros = [np.empty((2, len(ks), len(pots)), dtype=int) if count else None for _ in range(2)]
        def ladder(z):
            table = edge._Samples(pots, lengths)
            return edge._magnus_doubled(table, np.arange(len(pots)), ks, want_dk, z)

        runs = [ladder(zeros[0])]
        monkeypatch.setattr(edge, "_magnus", split_pair)
        try:
            runs.append(ladder(zeros[1]))
        finally:
            monkeypatch.undo()
            monkeypatch.setattr(edge, "_POINT_STEPS", budget)
        assert np.all(runs[0][2] <= 1e-10) and runs[0][3].max() > pair[1]
        for a, b in zip(*runs):
            assert (a is None and b is None) or np.array_equal(a, b)
        if count:
            assert np.array_equal(*zeros)


def test_one_edge_solve_is_a_column_of_the_graph_solve():
    # solve_edge is the all-edges evaluation at [k] restricted to one edge,
    # bit for bit, on every edge kind
    g = star([EIGENVALUE_EDGES[name] for name in sorted(EIGENVALUE_EDGES)])
    for k in (3.0, 5 + 1e-3j, 7.25 + 0.1j):
        sol = edge._solve_edges(g, np.array([complex(k)]), want_dk=True)
        for e in range(g.num_edges):
            one = solve_edge(g, e, k, want_dk=True)
            assert one.m == tuple(complex(x[0, e]) for x in sol.m)
            assert one.dm == tuple(complex(x[0, e]) for x in sol.dm)
            assert one.error_estimate == sol.error_estimate[0, e]


FOLD_POTENTIALS = ["cos(2*x)", "2*cos(3*x)", "x", "-3*cos(2*x)", "5*x*(1-x)", "50*cos(20*x)"]
FOLD_KS = np.array(
    [0.7, 2.0, 5.0, 20.0, 80.0, 150.0, 5 + 1e-3j, 3 + 0.1j, 1.125 + 1e-4j, 40 + 2j]
)


def one_edge_magnus(expr, length, counts, ks):
    """The Magnus kernel's first arguments for the step counts ``counts``
    on one edge of ``expr`` at every k of ``ks``: its sample table, drawn at
    those counts, the counts, rows and ks."""
    table = edge._Samples([interval(length, _smooth(expr)).edges[0].potential], [length])
    rows = np.zeros(len(ks), dtype=int)
    table.draw(counts, rows)
    return table, counts, rows, ks


def drawn_counts(table, e):
    """The step counts at which edge ``e`` of a sample table is drawn."""
    return sorted(n for counts, drawn in table.drawn.items() if drawn[e] for n in counts)


def drawn_samples(table, e, n):
    """The Gauss samples (3, n) of edge ``e`` of a sample table at n steps."""
    for counts, drawn in table.drawn.items():
        if drawn[e] and n in counts:
            start = sum(counts[: counts.index(n)])
            return table.w[counts][:, e, start : start + n]
    raise KeyError(n)


@pytest.mark.parametrize("expr", FOLD_POTENTIALS)
def test_pair_fold_equals_block_fold(expr):
    # folding E and E' as a pair gives the 4x4 block fold's M and M' bit for
    # bit, also past _POINT_STEPS, where the steps are folded in pieces
    for n in (64, 4 * edge._POINT_STEPS):
        args = one_edge_magnus(expr, 1.0, (n,), FOLD_KS)
        w1, w2, w3 = args[0].w[(n,)][:, 0]
        want_m, want_dm = block_fold(*edge._steps(w1, w2, w3, 1.0 / n, FOLD_KS, True))
        (m,), (dm,), _ = edge._magnus(*args, True)
        assert np.array_equal(m, want_m)
        assert np.array_equal(dm, want_dm)
        (m,), dm, _ = edge._magnus(*args, False)
        assert np.array_equal(m, want_m)
        assert dm is None


def test_magnus_step_is_sixth_order():
    # the kernel's M and M' on cos(4x) at 32, 64 and 128 steps against 2^14
    # steps: a 6th-order step cuts the error 2^6 = 64 times per doubling (at
    # least 40 here), where a 4th-order step cuts it 16 times and a step
    # that drops one power of h from a commutator term 8 times
    ks = np.array([5.0 + 0j, 50.0 + 0j])

    def propagate(n):
        (m,), (dm,), _ = edge._magnus(*one_edge_magnus("cos(4*x)", 1.0, (n,), ks), True)
        return np.array([m, dm])

    ref = propagate(1 << 14)
    errs = np.array([np.max(np.abs(propagate(n) - ref), axis=(1, 2)) for n in (32, 64, 128)])
    assert np.all(errs[:-1] >= 40.0 * errs[1:])


def test_derivative_fold_heap_stays_near_the_m_only_heap():
    # E' adds one array of E's size to the steps and one product per level;
    # 4x4 blocks [[E, E'], [0, E]] took about three times the M-only heap
    args = one_edge_magnus("2*cos(3*x)", 1.0, (edge._POINT_STEPS,), np.array([4.7 + 0j]))
    peaks = []
    for want_dk in (False, True):
        edge._magnus(*args, want_dk)
        tracemalloc.start()
        try:
            edge._magnus(*args, want_dk)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.6 * peaks[0]


@pytest.mark.parametrize("name", ["cos234", "const_cos"])
def test_batched_moduli_match_verify_subunitary(name):
    # the batched norms of the threshold checks are verify_subunitary's
    g = star(THRESHOLD_PANEL[name])
    ks = np.array([complex(k, eps) for k in (1.125, 2.5, 4.75) for eps in (1e-4, 1e-1)])
    norms = _norms(g, ks)
    for e in range(g.num_edges):
        for k, norm in zip(ks, norms[:, e]):
            ok, ref = verify_subunitary(g, e, k.real, k.imag)
            assert norm == pytest.approx(ref, rel=1e-13)
            assert ok == (ref <= 1.0 + 1e-12)


EIGENVALUE_EDGES = {
    "zero": (1.3, ZERO),
    "delta": (1.0, {"type": "delta", "strength": -1.7, "position": 0.3}),
    # k^2 < c at k = 0.9 and 1.5: q is imaginary there
    "constant": (math.pi, _constant(4.0)),
    "smooth": (1.0, _smooth("2*cos(3*x)")),
}


@pytest.mark.parametrize("name", sorted(EIGENVALUE_EDGES))
def test_t_eigenvalues_are_closed_form(name):
    # trans -+ sqrt(r_from r_to) are the eigenvalues of t, on the axis and
    # off it, and verify_subunitary reads the spectral norm of t
    g = interval(*EIGENVALUE_EDGES[name])
    for k in (0.9, 1.5 + 1e-3j, 3.0, 7.25, 7.25 + 0.1j):
        t = transition_matrix(g, 0, k)
        mu = np.linalg.eigvals(t.matrix)
        assert np.max(np.abs(t.eigenvalues - mu[np.lexsort((mu.imag, mu.real))])) <= 1e-13
        if complex(k).imag:
            norm = np.linalg.norm(t.matrix, 2)
            assert verify_subunitary(g, 0, k.real, k.imag)[1] == pytest.approx(norm, rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(3.0, math.nan)])
@pytest.mark.parametrize("name", sorted(EIGENVALUE_EDGES))
def test_edge_layer_refuses_non_finite_input(name, bad):
    # a k or a position that is not finite is refused on every edge kind,
    # before it can give a NaN M or double a smooth edge to 2^15 steps
    g = interval(*EIGENVALUE_EDGES[name])
    calls = [
        lambda: solve_edge(g, 0, bad),
        lambda: solve_edge(g, 0, bad, want_dk=True),
        lambda: transition_matrix(g, 0, bad),
        lambda: edge._solve_edges(g, np.array([3.0, bad])),
        lambda: edge_profile(g, 0, bad, [0.0, 0.5]),
        lambda: edge_profile(g, 0, 3.0, [0.0, abs(bad)]),
    ]
    for call in calls:
        with pytest.raises(InputError, match="finite"):
            call()


def test_sample_table_is_released_with_its_graph():
    # the smooth edges' Gauss samples, 3 n values per edge and step count,
    # stacked over the smooth edges with both counts of the first pass side
    # by side, are drawn once per graph and dropped with it
    g = star([(1.0, _smooth("cos(2*x)")), (0.7, ZERO), (1.3, _smooth("x"))])
    edge._solve_edges(g, np.array([4.7, 9.5]))
    _, _, slots, samples = edge._edge_table(g)
    assert slots.tolist() == [0, -1, 1]
    pair = (edge._MIN_STEPS, 2 * edge._MIN_STEPS)
    assert list(samples.w) == [pair] and samples.drawn[pair].all()
    assert samples.w[pair].shape == (3, 2, sum(pair))
    assert samples.wmin[pair].tolist() == [
        drawn_samples(samples, e, pair[1]).min() for e in range(2)
    ]
    ref = weakref.ref(samples.w[pair])
    edge._solve_edges(g, np.array([4.7, 9.5]))
    assert samples.w[pair] is ref()
    del g, samples
    gc.collect()
    assert ref() is None


def test_each_edge_is_sampled_at_its_own_step_counts(gauss_samplings):
    # the cos(1000000 x) arm is unresolved at every count; the other arms
    # are sampled only at the counts their own rows reach, once each
    arms = ["cos(2*x)", "cos(1000000*x)", "cos(3*x)"]
    g = star([(1.0, _smooth(expr)) for expr in arms])
    message = (
        r"Magnus propagator unresolved at 32768 steps for 'cos\(1000000\*x\)' "
        r"at k=\(4\.7\+0j\)"
    )
    with pytest.raises(NumericalError, match=message):
        edge._solve_edges(g, np.array([4.7]))
    samples = edge._edge_table(g)[3]
    drawn = [drawn_counts(samples, e) for e in range(3)]
    assert sorted(gauss_samplings) == sorted(n for counts in drawn for n in counts)
    assert max(drawn[1]) == edge._MAX_STEPS
    for e in (0, 2):
        one = edge._Samples([g.edges[e].potential], [1.0])
        _, _, err, n = edge._magnus_doubled(one, np.arange(1), [4.7], False, None)
        assert err.item() <= 1e-10
        assert max(drawn[e]) == n.item()


def test_threshold_reads_the_graph_sample_table(gauss_samplings):
    # the threshold's grid and a later solve of the same graph share its
    # samples: each (edge, step count) is sampled once
    g = star(THRESHOLD_PANEL["cos234"])
    assert subunitarity_threshold(g) == pytest.approx(THRESHOLD_K["cos234"], abs=1e-9)
    edge._solve_edges(g, np.array([4.7, 9.5, 40.0]))
    samples = edge._edge_table(g)[3]
    drawn = [n for e in range(len(samples.pots)) for n in drawn_counts(samples, e)]
    assert sorted(gauss_samplings) == sorted(drawn)


def test_edge_profile_reads_the_graph_sample_table(gauss_samplings):
    # a solve at k = 40 samples each arm at 64, 128 and 256 steps; a profile
    # at that k then finds its step count from those samples and samples only
    # its own grid, once per call
    g = star([(1.0, _smooth("2*cos(3*x)"))] * 3)
    edge._solve_edges(g, np.array([40.0]))
    assert drawn_counts(edge._edge_table(g)[3], 0) == [64, 128, 256]
    gauss_samplings.clear()
    for _ in range(3):
        edge_profile(g, 0, 40.0, np.linspace(0.0, 1.0, 33))
    assert len(gauss_samplings) == 3


def test_one_edge_solves_read_the_graph_sample_table(gauss_samplings):
    # t and t' at three k of one smooth edge, all converged at 128 steps,
    # sample it once at 64 and once at 128 steps
    g = interval(1.0, _smooth("2*cos(3*x)"))
    for k in (5.0, 5.5, 6.0):
        transition_matrix(g, 0, k)
        transition_matrix_dk(g, 0, k)
    assert sorted(gauss_samplings) == [64, 128]


def test_verify_subunitary_raises_at_a_pole_of_t():
    # 1.5i is the bound state of the attractive point interaction, a pole of t
    g = interval(1.0, {"type": "delta", "strength": -3.0, "position": 0.5})
    with pytest.raises(SingularPointError):
        verify_subunitary(g, 0, 0.0, 1.5)


def test_unresolvable_arm_stops_its_threshold_block(magnus_steps):
    # the grid's first point on the cos(1000000 x) arm is unresolved: it is
    # propagated alone, so no other point of the grid is doubled to the end
    g = star([(1.0, {"type": "expr", "expr": f"cos({n}*x)"}) for n in (2, 1000000)])
    message = (
        r"Magnus propagator unresolved at 32768 steps for 'cos\(1000000\*x\)' "
        r"at k=\(0\.001\+0j\)"
    )
    with pytest.raises(NumericalError, match=message):
        subunitarity_threshold(g)
    assert sum(p for levels in magnus_steps for n, p in levels if n == edge._MAX_STEPS) == 1


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
            edge._magnus(*one_edge_magnus(pot["expr"], length, (n,), ks[-1:]), False, z)
            assert z[:, 0].tolist() == list(want[-1])


# closed-form arms: (length, potential, the oracle's w, its (D, x0))
CLOSED_ARMS = {
    "zero": (1.3, ZERO, lambda x: 0.0, (0.0, 0.0)),
    "delta": (1.2, {"type": "delta", "strength": 2.0, "position": 0.45}, lambda x: 0.0,
              (2.0, 0.45)),
    "delta D < 0": (1.2, {"type": "delta", "strength": -5.0, "position": 0.6},
                    lambda x: 0.0, (-5.0, 0.6)),
    "delta at 0": (0.9, {"type": "delta", "strength": 1.7, "position": 0.0}, lambda x: 0.0,
                   (1.7, 0.0)),
    "delta at L": (1.1, {"type": "delta", "strength": -2.5, "position": 1.1},
                   lambda x: 0.0, (-2.5, 1.1)),
    "constant 4": (2.0, {"type": "constant", "value": 4.0}, lambda x: 4.0, (0.0, 0.0)),
    "constant -3": (0.7, {"type": "constant", "value": -3.0}, lambda x: -3.0, (0.0, 0.0)),
}


def _assembled_zeros(ks, c, D, x1, x2):
    """The zeros of closed-form edges by the generic rule, ``edge._zeros``,
    on the ends of their two pieces: the identity, M up to and with the
    point interaction (``_closed`` with x2 = 0) and M."""
    k = ks[:, None]
    mid, end = (edge._closed(k, c, D, x1, x, False)[0] for x in (0.0, x2))
    eye = [np.full(mid[0].shape, v) for v in (1.0, 0.0, 0.0, 1.0)]
    ends = np.real(np.stack([np.stack(m) for m in (eye, mid, end)], axis=-1))
    q = edge._wavenumber(k, c)
    nu = np.stack(np.broadcast_arrays(q.real * x1, q.real * x2), axis=-1)
    h = np.stack(np.broadcast_arrays(x1, x2), axis=-1)
    return edge._zeros(ends.reshape(2, 2, *ends.shape[1:]), nu, 0.0, h)


def test_closed_form_counts_match_the_generic_rule_and_an_ode_count():
    # the Sturm counts that _closed takes from its own q, cos and sin, on a
    # dense grid that crosses the barrier of c = 4 (q imaginary below k = 2)
    # and holds k in _free's small-u branch (q x < 1e-6: tiny k, k^2 at c,
    # and x1 = 0 for the point interaction at 0) and k = j pi / L on the
    # zero edge, against the generic rule on the assembled ends, and on a
    # sparser grid against sign changes of a DOP853 solution
    g = star([(length, pot) for length, pot, _, _ in CLOSED_ARMS.values()])
    j = np.arange(1, 25)
    special = [1e-7, 2.0, 2.0 + 2.5e-14, 2.0 - 2.5e-14, *(j * np.pi / CLOSED_ARMS["zero"][0])]
    ks = np.concatenate([np.linspace(1e-3, 60.0, 6001), special])
    sol = edge._solve_edges(g, ks, want_count=True)
    assert sol.zeros.tolist() == _assembled_zeros(ks, *edge._edge_table(g)[0]).tolist()
    # at k = j pi / L the zero at L is counted exactly when m12 says so
    dirichlet = sol.zeros[1, -len(j) :, 0]
    assert np.all((dirichlet == j - 1) | (dirichlet == j))
    assert np.array_equal((-1) ** dirichlet, np.sign(sol.m[1][-len(j) :, 0]))
    oracle_ks = [1e-3, 0.7, 1.9, 2.5, 12.3, 41.0]
    want = [
        [solution_zeros(w, length, k, delta) for k in oracle_ks]
        for length, _, w, delta in CLOSED_ARMS.values()
    ]
    got = edge._solve_edges(g, np.array(oracle_ks), want_count=True).zeros
    assert np.transpose(got, (2, 1, 0)).tolist() == [[list(z) for z in w] for w in want]


# a zero, a point-interaction and a constant edge (c = 4), for real ks below
# and above the constant's barrier: below it q is imaginary, and M is taken
# in complex arithmetic there
REAL_K_STAR = [
    (1.0, ZERO),
    (1.2, {"type": "delta", "strength": -5.0, "position": 0.6}),
    (2.0, {"type": "constant", "value": 4.0}),
]


@pytest.mark.parametrize(
    "ks", [[0.7, 1.9], [2.5, 12.3, 161.7], [0.7, 12.3]], ids=["below", "above", "both"]
)
def test_real_k_gives_float64_m_of_the_complex_path(ks):
    # M and M' are real at real k; a real ks keeps them in float64, which
    # matches the complex path's values to rounding, with no warning
    g = star(REAL_K_STAR)
    ks = np.array(ks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = edge._solve_edges(g, ks, want_dk=True, want_count=True)
    cplx = edge._solve_edges(g, ks.astype(complex), want_dk=True, want_count=True)
    m, want = np.array(real.m), np.array(cplx.m)
    assert m.dtype == np.float64 and want.dtype == complex
    assert np.all(np.abs(m - want) <= 1e-14 * np.abs(want).max(axis=0))
    dm, dwant = np.array(real.dm), np.array(cplx.dm)
    assert dm.dtype == np.float64
    assert np.all(np.abs(dm - dwant) <= 1e-14 * np.abs(dwant).max(axis=0))
    # the Sturm counts read the same pieces either way
    assert real.zeros.tolist() == cplx.zeros.tolist()
