"""Semiclassical approximations: actions, correction bounds, and their limits."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qgspectra.edge import edge_profile, transition_matrix
from qgspectra.errors import InputError, NumericalError, TurningPointError
from qgspectra import wkb
from qgspectra.orbits import make_orbit, orbit_weight, wigner_delay
from qgspectra.wkb import (
    compare_with_exact,
    semiclassical_trace_data,
    wkb_correction,
    wkb_profile,
    wkb_solution,
    wkb_transition,
    wkb_wigner_delay,
)

from .conftest import ZERO, interval, star
from .oracles import smooth_action

KS_DOUBLING = (10.0, 20.0, 40.0, 80.0)


def test_action_matches_quadrature(g_smooth):
    for k in KS_DOUBLING:
        data = wkb_solution(g_smooth, 0, k)
        expected = smooth_action(lambda x: 2.0 * math.cos(3.0 * x), 1.0, k)
        assert data.action == pytest.approx(expected, abs=1e-10)
        assert data.action_error <= 1e-10


def test_action_for_zero_potential_is_kL(g_interval_pi):
    data = wkb_solution(g_interval_pi, 0, 4.0)
    assert data.action == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_action_for_constant_potential_is_exact(g_const):
    k = 5.0
    data = wkb_solution(g_const, 0, k)
    assert data.action == pytest.approx(math.pi * math.sqrt(k * k - 4.0), abs=1e-12)


def test_first_correction_decays_quadratically(g_smooth):
    sups = [wkb_correction(g_smooth, 0, k, 1) for k in KS_DOUBLING]
    for a, b in zip(sups, sups[1:]):
        assert 6.0 <= a / b <= 10.0


def test_second_correction_is_much_smaller(g_smooth):
    e1 = wkb_correction(g_smooth, 0, 10.0, 1)
    e2 = wkb_correction(g_smooth, 0, 10.0, 2)
    assert e2 < 1e-2 * e1


def test_correction_order_is_validated(g_smooth):
    for j in (0, 3):
        with pytest.raises(InputError):
            wkb_correction(g_smooth, 0, 10.0, j)


def test_profile_deviation_shrinks_like_k_squared(g_smooth):
    for k in KS_DOUBLING:
        d = compare_with_exact(g_smooth, 0, k)
        assert 0.5 <= k * k * d["deviation"] <= 2.0
        assert d["corrected_deviation"] <= d["deviation"]
        assert d["matched_deviation"] <= 0.1 * d["deviation"]
        assert d["matched_corrected_deviation"] <= 1e-2 * d["matched_deviation"]


def test_profile_helper_agrees_with_report(g_smooth):
    k = 40.0
    xs = np.linspace(0.0, 1.0, 513)
    exact = edge_profile(g_smooth, 0, k, xs)
    plain = wkb_profile(g_smooth, 0, k, xs)
    dev = float(np.max(np.abs(exact - plain)))
    report = compare_with_exact(g_smooth, 0, k)
    assert dev == pytest.approx(report["deviation"], rel=1e-9)
    corrected = wkb_profile(g_smooth, 0, k, xs, corrected=True)
    dev_corr = float(np.max(np.abs(exact - corrected)))
    assert dev_corr == pytest.approx(report["corrected_deviation"], rel=1e-9)


def test_compare_with_exact_sets_up_the_edge_once(g_smooth, monkeypatch):
    # one momentum and one eta grid serve both profiles and the solution
    # data, with the numbers the public helpers give one by one
    k = 20.0
    xs = np.linspace(0.0, 1.0, 513)
    exact = edge_profile(g_smooth, 0, k, xs)
    expected = {
        "deviation": float(np.max(np.abs(exact - wkb_profile(g_smooth, 0, k, xs)))),
        "corrected_deviation": float(
            np.max(np.abs(exact - wkb_profile(g_smooth, 0, k, xs, corrected=True)))
        ),
        "eta1_sup": wkb_solution(g_smooth, 0, k).eta1_sup,
        "action": wkb_solution(g_smooth, 0, k).action,
    }
    calls = []
    for name in ("_momentum", "_eta_grid"):

        def counted(*args, _name=name, _original=getattr(wkb, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(wkb, name, counted)
    report = compare_with_exact(g_smooth, 0, k)
    assert sorted(calls) == ["_eta_grid", "_momentum"]
    assert {key: report[key] for key in expected} == expected


def test_transition_matrix_gap_is_order_k_minus_two(g_smooth):
    defects = []
    for k in KS_DOUBLING:
        gap = np.max(
            np.abs(wkb_transition(g_smooth, 0, k).matrix - transition_matrix(g_smooth, 0, k).matrix)
        )
        defects.append(float(gap))
        assert k * k * gap <= 2.5
    assert defects[-1] < defects[0]


def test_transition_reads_only_the_action(g_smooth, monkeypatch):
    # no eta grid is built: trans is e^{i s(L)} for the action that
    # wkb_solution reports
    actions = {k: wkb_solution(g_smooth, 0, k).action for k in KS_DOUBLING}

    def refused(*args):
        raise AssertionError("eta grid built")

    monkeypatch.setattr(wkb, "_eta_grid", refused)
    for k, action in actions.items():
        t = wkb_transition(g_smooth, 0, k)
        assert t.trans == complex(math.cos(action), math.sin(action))
        assert (t.length, t.r_from, t.r_to) == (1.0, 0.0, 0.0)


def test_semiclassical_weight_converges_to_paired_exact_weight(g_smooth_star):
    p = make_orbit(g_smooth_star, [0, 1])
    gaps = []
    for k in (6.0, 12.0, 24.0, 48.0):
        data = semiclassical_trace_data(p, g_smooth_star, k)
        w = orbit_weight(p, g_smooth_star, k)
        gaps.append(abs(data.estimate - 2.0 * w.real))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-4


def test_semiclassical_data_fields(g_smooth_star):
    p = make_orbit(g_smooth_star, [0, 1])
    data = semiclassical_trace_data(p, g_smooth_star, 12.0)
    assert data.amplitude == pytest.approx(1.0 / 3.0)
    assert data.backscatter_count == 1
    assert data.repetitions == 1
    assert 1.9 < data.period < 2.1


def test_semiclassical_data_requires_transmission_orbits(g_delta_star):
    p = make_orbit(g_delta_star, [0, 0])
    assert "reflect" in p.kinds
    with pytest.raises(InputError, match="transmission-only"):
        semiclassical_trace_data(p, g_delta_star, 9.0)


def test_delay_approximation_improves_with_k(g_smooth_star):
    gaps = [
        abs(wigner_delay(g_smooth_star, k) - wkb_wigner_delay(g_smooth_star, k))
        for k in (5.0, 10.0, 20.0, 40.0)
    ]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-6


def test_non_contracting_expansion_is_refused(g_divergent):
    with pytest.raises(NumericalError, match="not contract"):
        wkb_correction(g_divergent, 0, 7.2, 1)
    with pytest.raises(NumericalError, match="does not contract"):
        wkb_solution(g_divergent, 0, 7.2)
    with pytest.raises(NumericalError, match="does not contract"):
        compare_with_exact(g_divergent, 0, 7.2)


def test_zero_and_constant_edges_are_exact(g_divergent):
    # chi = 0 there, so every eta_j vanishes; a nonzero level must still shrink
    for pot in (ZERO, {"type": "constant", "value": 4.0}):
        g = interval(math.pi, pot)
        assert [wkb_correction(g, 0, 10.0, j) for j in (1, 2)] == [0.0, 0.0]
    for j in (1, 2):
        with pytest.raises(NumericalError, match="does not contract"):
            wkb_correction(g_divergent, 0, 7.2, j)


@pytest.mark.parametrize(
    "pot", [{"type": "expr", "expr": "2*cos(3*x)"}, {"type": "constant", "value": -100.0}]
)
@pytest.mark.parametrize("k", [-10.0, 0.0])
def test_nonpositive_wavenumbers_are_refused(pot, k):
    # a constant -100 edge clears the turning-point check even at k = 0
    g = star([(1.0, pot)] * 3)
    orbit = make_orbit(g, [0, 1])
    entries = {
        "wkb_solution": lambda: wkb_solution(g, 0, k),
        "wkb_correction": lambda: wkb_correction(g, 0, k, 1),
        "wkb_profile": lambda: wkb_profile(g, 0, k, [0.0, 0.5]),
        "wkb_transition": lambda: wkb_transition(g, 0, k),
        "wkb_wigner_delay": lambda: wkb_wigner_delay(g, k),
        "semiclassical_trace_data": lambda: semiclassical_trace_data(orbit, g, k),
        "compare_with_exact": lambda: compare_with_exact(g, 0, k),
    }
    for call in entries.values():
        with pytest.raises(InputError, match="not positive"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("corrected", [False, True])
def test_non_finite_positions_are_refused(g_smooth, corrected, bad):
    # as edge_profile refuses them; a nan position passed the range check
    for xs in ([bad], [0.0, bad]):
        with pytest.raises(InputError, match="finite"):
            wkb_profile(g_smooth, 0, 20.0, xs, corrected)


def test_turning_points_are_refused(g_smooth):
    with pytest.raises(TurningPointError, match="does not clear"):
        wkb_solution(g_smooth, 0, 1.5)


def test_point_interactions_are_refused(g_delta_star):
    with pytest.raises(InputError, match="point interaction"):
        wkb_solution(g_delta_star, 0, 5.0)


@pytest.mark.parametrize("fixture_name", ["g_interval_pi", "g_smooth"])
def test_overflowing_wavenumbers_are_refused(request, fixture_name):
    # k^2 is inf once k > 1.3e154
    g = request.getfixturevalue(fixture_name)
    with pytest.raises(InputError, match="no finite k\\^2"):
        wkb_solution(g, 0, 1e300)
    with pytest.raises(InputError, match="no finite k\\^2"):
        wkb_wigner_delay(g, 1e300)
