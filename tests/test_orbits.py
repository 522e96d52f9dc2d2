"""Periodic-orbit enumeration, weights, and the length-spectrum identity."""
from __future__ import annotations

import math

import numpy as np
import pytest

import qgspectra.orbits as orbits_module
from qgspectra.errors import InputError, NumericalError
from qgspectra.orbits import (
    TestFunction,
    enumerate_orbits,
    make_orbit,
    orbit_amplitude,
    orbit_sum_check,
    step_sigma,
    structural_step_matrix,
    trace_check,
    wigner_delay,
)
from qgspectra.scattering import _theta_prime, assemble_T, big_sigma

from .conftest import random_delta_star
from .oracles import (
    brute_classes,
    burnside_classes,
    gaussian_moment,
    orbit_product,
    orbit_product_dk,
    walk_orbits,
)


def _counts_by_length(orbits, n_max):
    out = {n: 0 for n in range(1, n_max + 1)}
    for p in orbits:
        out[p.n] += 1
    return out


def test_structural_matrix_shape_and_trace(g_triangle, g_interval_delta_pi):
    a_tri = structural_step_matrix(g_triangle)
    assert a_tri.shape == (6, 6)
    assert np.trace(a_tri) == 0  # no one-step closed orbits without reflection
    a_int = structural_step_matrix(g_interval_delta_pi)
    # both directions can reflect off the interaction and return
    assert np.trace(a_int) == 2
    assert len(enumerate_orbits(g_interval_delta_pi, 1)) == 2


@pytest.mark.parametrize("fixture_name,n_max", [
    ("g_triangle", 6),
    ("g_interval_delta_pi", 6),
    ("g_interval_pi", 4),
    ("g_smooth_star", 4),
])
def test_class_counts_match_brute_force_and_burnside(request, fixture_name, n_max):
    g = request.getfixturevalue(fixture_name)
    adj = structural_step_matrix(g)
    counts = _counts_by_length(enumerate_orbits(g, n_max), n_max)
    for n in range(1, n_max + 1):
        brute = brute_classes(adj, n)
        assert counts[n] == brute
        assert burnside_classes(adj, n) == brute


def test_triangle_shortest_orbits(g_triangle):
    orbits = enumerate_orbits(g_triangle, 4)
    counts = _counts_by_length(orbits, 4)
    assert counts == {1: 0, 2: 0, 3: 2, 4: 0}
    for p in orbits:
        assert p.kinds == ("transmit", "transmit", "transmit")
        assert p.n_primitive == 3
        assert p.repetitions == 1


def test_repetition_bookkeeping(g_interval_pi):
    orbits = enumerate_orbits(g_interval_pi, 4)
    assert [(p.n, p.n_primitive, p.repetitions) for p in orbits] == [
        (2, 2, 1),
        (4, 2, 2),
    ]


def test_interval_amplitudes_closed_form(g_interval_pi):
    length = math.pi
    k = 2.7
    orbits = enumerate_orbits(g_interval_pi, 4)
    for p in orbits:
        traversals = p.n // 2
        expected = 2.0 * length * math.cos(2.0 * k * length * traversals)
        assert orbit_amplitude(p, g_interval_pi, k) == pytest.approx(expected, abs=1e-12)


def test_step_sigma_values(g_delta_star):
    # cross transmission at the degree-3 centre
    assert step_sigma(g_delta_star, 1, 2, "transmit") == pytest.approx(2.0 / 3.0)
    # direct bounce back through the centre
    assert step_sigma(g_delta_star, 1, 0, "transmit") == pytest.approx(-1.0 / 3.0)
    # bounce at a leaf
    assert step_sigma(g_delta_star, 0, 1, "transmit") == pytest.approx(1.0)
    # reflection off the interaction, re-entering the same edge
    assert step_sigma(g_delta_star, 0, 0, "reflect") == pytest.approx(-1.0 / 3.0)


def test_make_orbit_validates_steps(g_triangle, g_interval_delta_pi):
    with pytest.raises(InputError, match="inadmissible step"):
        make_orbit(g_triangle, [0, 0])
    p = make_orbit(g_interval_delta_pi, [0])
    assert p.kinds == ("reflect",)


@pytest.mark.parametrize("state", [6, 99, -1])
def test_make_orbit_rejects_a_state_outside_the_directed_edges(g_delta_star, state):
    # the 3-arm star has directed edges 0 ... 5
    with pytest.raises(InputError, match="outside 0 ... 5"):
        make_orbit(g_delta_star, [0, state])


@pytest.mark.parametrize("state", [0.5, 1.0, "1"])
def test_make_orbit_rejects_a_non_integer_state(g_delta_star, state):
    with pytest.raises(InputError, match="is not an integer"):
        make_orbit(g_delta_star, [state])


def test_orbit_sum_identity(g_interval_delta_pi, g_triangle):
    for g in (g_interval_delta_pi, g_triangle):
        for n in range(1, 7):
            assert orbit_sum_check(g, 3.7, n) <= 1e-10


@pytest.mark.parametrize("fixture_name", ["g_delta_star", "g_interval_delta_pi", "g_triangle"])
def test_amplitude_sums_equal_matrix_traces(request, fixture_name):
    # sum of A_p over the classes of length n = Im tr(S^{n-1} S'), the
    # identity trace_check takes its orbit term from
    g = request.getfixturevalue(fixture_name)
    k = 7.3
    T, dT = assemble_T(g, k, want_dk=True)
    S, dS = big_sigma(g) @ T, big_sigma(g) @ dT
    orbits = enumerate_orbits(g, 5)
    for n in range(1, 6):
        total = sum(orbit_amplitude(p, g, k) for p in orbits if p.n == n)
        expected = np.trace(np.linalg.matrix_power(S, n - 1) @ dS).imag
        assert abs(total - expected) <= 1e-12


@pytest.mark.parametrize("fixture_name,k", [("g_delta_star", 12.0), ("g_smooth_star", 14.0)])
def test_class_weights_are_the_oracle_products(request, fixture_name, k):
    # every class up to length 5: the weights equal the oracle's Python
    # complex product to the bit, and the product-rule derivative carried
    # in the same loop is its prefix/suffix form up to rounding
    g = request.getfixturevalue(fixture_name)
    T, dT = assemble_T(g, k, want_dk=True)
    S, dS = big_sigma(g) @ T, big_sigma(g) @ dT
    re, im, dre, dim = orbits_module._class_weights(orbits_module._classes(g, 5), S, dS)
    found = enumerate_orbits(g, 5)
    assert len(found) == re.size
    for p, a, b, da, db in zip(found, re, im, dre, dim):
        assert complex(a, b) == orbit_product(p, S)
        expected = orbit_product_dk(p, S, dS)
        assert abs(da - expected.real) <= 2e-15
        assert abs(db - expected.imag) <= 2e-15


def test_trace_check_orbit_cutoff_beyond_enumeration(g_delta_star):
    # the same panels; n_max 16 refines more of them (its rows oscillate
    # faster), so the shared rows agree to rounding
    phi = TestFunction(20.0, 0.5)
    long = trace_check(g_delta_star, phi, 16)
    short = trace_check(g_delta_star, phi, 5)
    same = ("k_lo", "k_hi", "panel_width", "n_panels")
    assert [long.quadrature[key] for key in same] == [short.quadrature[key] for key in same]
    assert [row["n_max"] for row in long.rhs_orbits] == list(range(17))
    assert len(short.rhs_orbits) == 6
    for a, b in zip(long.rhs_orbits, short.rhs_orbits):
        assert a["n_max"] == b["n_max"]
        assert abs(a["value"] - b["value"]) <= 1e-14


def _accepted_nodes(q):
    """Nodes and weights of the Clenshaw-Curtis rules the report accepted,
    panel by panel."""
    ends = np.linspace(q["k_lo"], q["k_hi"], q["n_panels"] + 1)
    ks, wts = [], []
    for lo, hi, nodes in zip(ends[:-1], ends[1:], q["panel_levels"]):
        x, w = orbits_module._cc_rule(nodes - 1)
        ks.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        wts.append(0.5 * (hi - lo) * w)
    return np.concatenate(ks), np.concatenate(wts)


def test_each_quadrature_level_is_one_block(g_delta_star, monkeypatch):
    # the node block is about 4,096 entries of each 2E x 2E stack and at
    # least 64 nodes: 4096 // 6^2 = 113 nodes on the 3-edge star, so each
    # nested Clenshaw-Curtis level of its trace check (65, 64 and 112 new
    # nodes at n_max 5) takes one assemble_T call; 64 on a 10-edge star
    assert orbits_module._node_block(g_delta_star) == 113
    assert orbits_module._node_block(random_delta_star(1)) == 64
    sizes, assemble = [], orbits_module.assemble_T

    def counted(g, ks, *args, **kwargs):
        sizes.append(np.size(ks))
        return assemble(g, ks, *args, **kwargs)

    monkeypatch.setattr(orbits_module, "assemble_T", counted)
    trace_check(g_delta_star, TestFunction(20.0, 0.5), 5)
    assert sizes == [65, 64, 112]


def test_batched_quadrature_matches_a_per_node_loop(g_delta_star):
    # reference: T and T' one quadrature node at a time, the phase density
    # summed over the 2x2 edge blocks and the orbit rows by single products,
    # on the nodes of every panel's accepted rule; the rules are nested, so
    # those are all the nodes evaluated, less the 7 interior panel ends
    # (integer here), each evaluated once for the two panels it ends
    g, phi, n_max = g_delta_star, TestFunction(20.0, 0.5), 5
    report = trace_check(g, phi, n_max)
    q = report.quadrature
    ks, wts = _accepted_nodes(q)
    assert ks.size - (q["n_panels"] - 1) == q["n_nodes"] > orbits_module._node_block(g)
    sigma = big_sigma(g)
    tp = np.zeros(ks.size)
    terms = np.zeros((n_max + 1, ks.size))
    for j, k in enumerate(ks):
        T, dT = assemble_T(g, float(k), want_dk=True)
        for d in range(0, T.shape[0], 2):
            t, r_f, r_t = T[d, d + 1], T[d, d], T[d + 1, d + 1]
            dt, dr_f, dr_t = dT[d, d + 1], dT[d, d], dT[d + 1, d + 1]
            tp[j] += ((2 * t * dt - r_t * dr_f - r_f * dr_t) / (t * t - r_t * r_f) / 1j).real
        S, P = sigma @ T, sigma @ dT
        for m in range(1, n_max + 1):
            terms[m, j] = np.trace(P).imag
            P = S @ P
    phis = phi(ks)
    weyl = float(np.sum(wts * phis * tp) / (2.0 * math.pi))
    assert report.rhs_weyl == pytest.approx(weyl, rel=1e-13, abs=0)
    for m, running in enumerate(np.cumsum(terms, axis=0)):
        value = float(np.sum(wts * phis * running) / math.pi)
        assert report.rhs_orbits[m]["value"] == pytest.approx(value, rel=1e-13, abs=1e-15)
        residual = abs(report.lhs - weyl - value)
        assert report.residuals[m]["value"] == pytest.approx(residual, abs=1e-13 * report.lhs)


def test_test_function_shape():
    phi = TestFunction(10.0, 0.5)
    assert phi(10.0) == pytest.approx(1.0)
    assert phi(10.5) == pytest.approx(math.exp(-0.5))
    assert phi.support == (6.0, 14.0)
    assert phi(20.0) < 1e-80  # support only bounds the quadrature window
    xs = np.array([9.0, 10.0, 11.0])
    np.testing.assert_allclose(phi(xs), np.exp(-((xs - 10.0) ** 2) / 0.5), rtol=0, atol=1e-15)


def test_trace_identity_on_the_interval(g_interval_pi):
    phi = TestFunction(10.0, 0.5)
    report = trace_check(g_interval_pi, phi, 6)
    lo, hi = phi.support
    assert report.quadrature["k_lo"] == lo
    assert report.quadrature["k_hi"] == hi
    # mean counting term: (total length / pi) * integral of phi
    assert report.rhs_weyl == pytest.approx(gaussian_moment(10.0, 0.5, lo, hi), rel=1e-10)
    # eigenvalue side: integers 6..14 weighted by phi
    lhs_expected = sum(phi(float(n)) for n in range(6, 15))
    assert report.lhs == pytest.approx(lhs_expected, rel=1e-10)
    assert report.eigenvalue_count == 9
    assert report.weyl_count == pytest.approx(8.0)
    rows = report.residuals
    assert [row["n_max"] for row in rows] == list(range(7))
    for prev, nxt in zip(rows, rows[1:]):
        assert nxt["value"] <= prev["value"] + 1e-12
    assert report.residual(6) <= 1e-6


def test_wider_test_functions_need_fewer_orbits(g_interval_pi):
    narrow = trace_check(g_interval_pi, TestFunction(10.0, 0.25), 2)
    wide = trace_check(g_interval_pi, TestFunction(10.0, 0.5), 2)
    assert narrow.residual(2) > 1e-4
    assert wide.residual(2) < 1e-6
    assert wide.residual(2) < 1e-3 * narrow.residual(2)


def test_incomplete_spectrum_is_refused(g_star3_eq, monkeypatch):
    scan = orbits_module.scan_spectrum

    def lossy_scan(*args, **kwargs):
        # lose one simple root: the eigenvalue count of the range is exact
        res = scan(*args, **kwargs)
        res.roots.remove(next(r for r in res.roots if r.multiplicity == 1))
        return res

    monkeypatch.setattr(orbits_module, "scan_spectrum", lossy_scan)
    phi = TestFunction(4.0, 1.0)
    with pytest.raises(NumericalError, match="spectrum incomplete"):
        trace_check(g_star3_eq, phi, 2)


def test_delay_for_zero_potential_is_twice_total_length(g_star3):
    total = sum(e.length for e in g_star3.edges)
    assert wigner_delay(g_star3, 4.0) == pytest.approx(2.0 * total, abs=1e-10)


def test_delay_correction_for_point_interaction():
    from .conftest import interval

    g = interval(1.0, {"type": "delta", "strength": 2.0, "position": 0.5})
    assert wigner_delay(g, 3.0) == pytest.approx(2.2, abs=1e-10)
    for k in (1.5, 7.0):
        expected = 2.0 + 4.0 * 2.0 / (4.0 * k * k + 4.0)
        assert wigner_delay(g, k) == pytest.approx(expected, abs=1e-10)


def test_enumeration_budget_error_mode(g_triangle, monkeypatch):
    # the walk expands 11 partial paths at n_max 3 and 29 at n_max 12
    monkeypatch.setattr(orbits_module, "_PATH_BUDGET", 20)
    assert len(enumerate_orbits(g_triangle, 3)) == 2
    with pytest.raises(NumericalError, match="exceeded its budget"):
        enumerate_orbits(g_triangle, 12)


@pytest.mark.parametrize("fixture_name,n_max", [
    ("g_triangle", 6),
    ("g_interval_delta_pi", 6),
    ("g_interval_pi", 4),
    ("g_delta_star", 5),
    ("g_smooth_star", 4),
])
def test_enumerated_classes_are_distinct_and_rebuildable(request, fixture_name, n_max):
    g = request.getfixturevalue(fixture_name)
    found = enumerate_orbits(g, n_max)
    keys = [p.key for p in found]
    assert len(set(keys)) == len(keys)
    for p in found:
        assert p.key == min(p.states[i:] + p.states[:i] for i in range(p.n))
        assert make_orbit(g, p.states) == p


ENUMERATION_CASES = [
    ("g_triangle", 6),
    ("g_interval_delta_pi", 6),
    ("g_interval_pi", 4),
    ("g_delta_star", 5),
    ("g_smooth_star", 4),
    ("g_delta_star", 8),  # the trace-formula benchmark's star
    ("g_interval_delta_pi", 12),
    ("g_triangle", 1200),
]


@pytest.mark.parametrize("fixture_name,n_max", ENUMERATION_CASES)
def test_enumeration_matches_the_depth_first_walk(request, fixture_name, n_max):
    # the same classes, representatives, kinds and order as the walk, with
    # Python ints throughout
    g = request.getfixturevalue(fixture_name)
    found = enumerate_orbits(g, n_max)
    assert found == walk_orbits(g, n_max)[0]
    for p in found:
        fields = (*p.states, *p.key, p.n, p.n_primitive, p.repetitions)
        assert all(type(v) is int for v in fields)


@pytest.mark.parametrize("fixture_name,n_max", ENUMERATION_CASES)
def test_path_count_is_the_walks_count(request, fixture_name, n_max):
    g = request.getfixturevalue(fixture_name)
    steps = structural_step_matrix(g)
    assert orbits_module._path_count(steps, n_max) == walk_orbits(g, n_max)[1]


def test_over_budget_enumeration_is_refused_before_walking(g_smooth_star):
    # the smooth star holds 6.1 million partial paths up to length 12: the
    # count alone refuses it, holding no walk
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="exceeded its budget"):
            enumerate_orbits(g_smooth_star, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_long_triangle_orbits_need_no_recursion(g_triangle):
    # two classes (one per sense of rotation) at each multiple of 3
    counts = _counts_by_length(enumerate_orbits(g_triangle, 1200), 1200)
    assert counts == {n: 2 if n % 3 == 0 else 0 for n in range(1, 1201)}


@pytest.mark.parametrize("n", [8, 16, 32, 64, 1024])
def test_clenshaw_curtis_rules_are_exact_and_nested(n):
    # n + 1 nodes integrate every polynomial of degree <= n over [-1, 1]
    # exactly, and the rule of 2n evaluates the nodes of n again
    x, w = orbits_module._cc_rule(n)
    assert x.size == w.size == n + 1
    for d in range(n + 1):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(np.sum(w * x**d) - exact) <= 1e-14
    assert np.array_equal(orbits_module._cc_rule(2 * n)[0][::2], x)


def _integrands(g, phi, n_max, ks):
    """Integrands of rhs_weyl, weyl_count and every rhs_orbits row at ks,
    one row each, from one stacked T, T' and dense S powers."""
    T, dT = assemble_T(g, ks, want_dk=True)
    sigma = big_sigma(g)
    S, P = sigma @ T, sigma @ dT
    weyl = _theta_prime(T, dT) / (2.0 * math.pi)
    terms = np.zeros((n_max + 1, ks.size))
    for m in range(1, n_max + 1):
        terms[m] = np.trace(P, axis1=1, axis2=2).imag
        P = S @ P
    phis = phi(ks)
    return np.vstack([phis * weyl, weyl, phis * np.cumsum(terms, axis=0) / math.pi])


def _gauss_rows(g, phi, n_max, q, nodes=128):
    """rhs_weyl, weyl_count and every rhs_orbits row on the report's panels
    by Gauss-Legendre with ``nodes`` nodes per panel."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    ends = np.linspace(q["k_lo"], q["k_hi"], q["n_panels"] + 1)
    half = 0.5 * np.diff(ends)[:, None]
    ks = (0.5 * (ends[:-1] + ends[1:])[:, None] + half * x).ravel()
    return _integrands(g, phi, n_max, ks) @ (half * w).ravel()


def _last_differences(g, phi, n_max, q):
    """Per row, the sum over panels of |accepted rule - the rule before it|,
    recomputed on the accepted nodes."""
    ends = np.linspace(q["k_lo"], q["k_hi"], q["n_panels"] + 1)
    total = 0.0
    for lo, hi, nodes in zip(ends[:-1], ends[1:], q["panel_levels"]):
        x, w = orbits_module._cc_rule(nodes - 1)
        f = _integrands(g, phi, n_max, 0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        coarse = f[:, ::2] @ orbits_module._cc_rule((nodes - 1) // 2)[1]
        total = total + 0.5 * (hi - lo) * np.abs(f @ w - coarse)
    return total


def _rows_and_errors(report):
    e = report.quadrature["errors"]
    rows = [report.rhs_weyl, report.weyl_count] + [r["value"] for r in report.rhs_orbits]
    return np.array(rows), np.array([e["rhs_weyl"], e["weyl_count"], *e["rhs_orbits"]])


QUADRATURE_CASES = {
    "delta-star-5": ("g_delta_star", 20.0, 5),
    "delta-star-16": ("g_delta_star", 20.0, 16),
    "smooth-star-8": ("g_smooth_star", 12.0, 8),
    "random-delta-star-32": (None, 20.0, 32),
}


def _quadrature_case(request, name):
    fixture, center, n_max = QUADRATURE_CASES[name]
    g = request.getfixturevalue(fixture) if fixture else random_delta_star(1)
    return g, TestFunction(center, 0.5), n_max


@pytest.mark.parametrize("name", list(QUADRATURE_CASES))
def test_nested_quadrature_matches_a_gauss_reference(request, name):
    # every row within 1e-13 of 128 Gauss-Legendre nodes per panel, with
    # an error estimate of at most 1e-11 (at this tolerance it is at the
    # rounding level, which the reference shares), on no more nodes than
    # the 64 Gauss-Legendre nodes per panel of the fixed rule it replaced
    g, phi, n_max = _quadrature_case(request, name)
    report = trace_check(g, phi, n_max)
    q = report.quadrature
    rows, errors = _rows_and_errors(report)
    ref = _gauss_rows(g, phi, n_max, q)
    assert np.all(np.abs(rows - ref) <= 1e-13)
    assert np.all(errors <= 1e-11) and np.all(np.isfinite(errors))
    # neighbours share every panel end
    levels = sum(q["panel_levels"])
    assert levels - (q["n_panels"] - 1) == q["n_nodes"] and levels <= 64 * q["n_panels"]
    assert set(q["panel_levels"]) <= {9, 17, 33, 65, 129, 257, 513, 1025}
    assert not any("quadrature" in d for d in report.diagnostics)


@pytest.mark.parametrize("name", ["delta-star-16", "random-delta-star-32"])
def test_reported_quadrature_error_bounds_the_true_error(request, monkeypatch, name):
    # loosened, the rule stops at coarser levels whose error is well above
    # rounding; each row is still within its reported error of the
    # reference (up to the reference's own rounding), and that error is
    # the difference of each panel's last two rules
    monkeypatch.setattr(orbits_module, "_QUAD_TOL", 1e-6)
    g, phi, n_max = _quadrature_case(request, name)
    report = trace_check(g, phi, n_max)
    rows, errors = _rows_and_errors(report)
    dev = np.abs(rows - _gauss_rows(g, phi, n_max, report.quadrature))
    assert dev.max() > 1e-12
    assert np.all(dev <= errors + 1e-13)
    # and the reported error is the last difference, summed over panels
    last = _last_differences(g, phi, n_max, report.quadrature)
    np.testing.assert_allclose(errors, last, rtol=1e-6, atol=1e-13)


def test_unresolved_panels_are_reported(g_delta_star, monkeypatch):
    # a tolerance no rule meets: every panel stops at the last level, keeps
    # it, and is named with its error in the diagnostics
    monkeypatch.setattr(orbits_module, "_QUAD_TOL", 0.0)
    monkeypatch.setattr(orbits_module, "_CC_LAST", 32)
    report = trace_check(g_delta_star, TestFunction(20.0, 0.5), 5)
    q = report.quadrature
    assert q["panel_levels"] == [33] * q["n_panels"]
    unresolved = [d for d in report.diagnostics if d.startswith("quadrature error")]
    assert len(unresolved) == q["n_panels"]
    assert unresolved[0].endswith("at 33 nodes on (16, 17]")
