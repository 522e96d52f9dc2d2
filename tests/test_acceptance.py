"""Acceptance gates for the engine, one test per criterion.

Run with ``pytest -sv tests/test_acceptance.py`` to see one printed
pass/fail line per criterion; the two xfail entries document identities
whose stated correction term is off by a constant factor (details in the
xfail reasons) and are expected to stay red.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qgspectra.edge import (
    solve_edge,
    subunitarity_threshold,
    transition_matrix,
    verify_subunitary,
)
from qgspectra.fd import fd_spectrum
from qgspectra.orbits import TestFunction, orbit_sum_check, trace_check, wigner_delay
from qgspectra.scattering import assemble_S, theta_prime, unitarity_defect
from qgspectra.spectrum import multiplicity, scan_spectrum
from qgspectra.wkb import compare_with_exact, wkb_solution, wkb_transition, wkb_wigner_delay

from .conftest import interval
from .oracles import delta_eigenvalues, delta_transition_matrix


def _report(cid: str, message: str) -> None:
    print(f"criterion {cid}: PASS — {message}")


def test_criterion_01_neumann_interval_spectrum(g_interval_pi):
    start = time.monotonic()
    res = scan_spectrum(g_interval_pi, 0.5, 50.5)
    elapsed = time.monotonic() - start
    assert len(res.roots) == 50
    worst = max(abs(r.k - n) for n, r in enumerate(res.roots, start=1))
    assert worst < 1e-9
    assert all(r.multiplicity == 1 for r in res.roots)
    assert elapsed < 5.0
    _report("1", f"50 roots, worst error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_point_interaction_closed_forms():
    worst_entry = 0.0
    worst_eig = 0.0
    for strength in (-1.0, 0.7, 2.0):
        for frac in (0.2, 0.5, 0.8):
            for length in (1.0, math.pi / 2):
                g = interval(
                    length,
                    {"type": "delta", "strength": strength, "position": frac * length},
                )
                for k in (0.9, 3.0, 11.0):
                    t = transition_matrix(g, 0, k)
                    expected = delta_transition_matrix(strength, length, frac * length, k)
                    worst_entry = max(worst_entry, float(np.max(np.abs(t.matrix - expected))))
                    for mu in delta_eigenvalues(strength, length, k):
                        worst_eig = max(worst_eig, min(abs(e - mu) for e in t.eigenvalues))
    assert worst_entry <= 1e-12
    assert worst_eig <= 1e-12
    _report("2", f"54 cases; entry gap {worst_entry:.2e}, eigenvalue gap {worst_eig:.2e}")


def test_criterion_03_subunitarity_threshold(g_interval_delta_neg):
    info = subunitarity_threshold(g_interval_delta_neg, detailed=True)
    assert abs(info.K - math.sqrt(3.0) / 2.0) <= 1e-9
    ok_below, _ = verify_subunitary(g_interval_delta_neg, 0, 0.5, 1e-3)
    ok_above, _ = verify_subunitary(g_interval_delta_neg, 0, 1.0, 1e-3)
    assert not ok_below
    assert ok_above
    _report("3", f"K = {info.K:.12f} ({info.method}); 0.5 refused, 1.0 certified")


def test_criterion_04_smooth_unitarity(g_smooth):
    worst_s = 0.0
    worst_w = 0.0
    for k in (5.0, 10.0, 20.0):
        worst_s = max(worst_s, unitarity_defect(assemble_S(g_smooth, k)))
        sol = solve_edge(g_smooth, 0, k)
        worst_w = max(worst_w, abs(sol.wronskian - 2j * k))
    assert worst_s <= 1e-8
    assert worst_w <= 1e-8
    _report("4", f"S defect {worst_s:.2e}, pairing drift {worst_w:.2e}")


def test_criterion_05_orbit_sum_identity(g_interval_delta_pi, g_triangle):
    worst = 0.0
    for g in (g_interval_delta_pi, g_triangle):
        for k in (3.7, 5.3):
            for n in range(1, 7):
                worst = max(worst, orbit_sum_check(g, k, n))
    assert worst < 1e-10
    _report("5", f"n <= 6 on two graphs; worst defect {worst:.2e}")


def test_criterion_06a_trace_identity_interval(g_interval_pi):
    start = time.monotonic()
    report = trace_check(g_interval_pi, TestFunction(20.0, 0.5), 6)
    elapsed = time.monotonic() - start
    resid = report.residual(6)
    assert resid < 1e-6
    assert elapsed < 60.0
    _report("6a", f"residual {resid:.2e} at n_max=6 in {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated counting-density correction for point interactions, "
        "sum_e D_e / (4 k^2 + D_e^2), is dimensionally off by the constant "
        "factor 2/pi: differentiating the total scattering phase gives "
        "theta'(k)/(2 pi) = L/pi + (2/pi) sum_e D_e / (4 k^2 + D_e^2), as the "
        "single-interaction closed form theta' = 2L + 4D/(4k^2+D^2) shows "
        "(at L=1, D=2, k=3 it equals 2.2 exactly, while the stated form "
        "predicts a density differing by (1 - 2/pi) times the correction); "
        "no tolerance of 1e-9 can absorb a 36% constant offset"
    ),
)
def test_criterion_06b_counting_density_correction(g_delta_star):
    strengths = g_delta_star.delta_strengths()
    total = sum(e.length for e in g_delta_star.edges)
    for k in (3.0, 5.0):
        density = theta_prime(g_delta_star, k) / (2.0 * math.pi)
        claimed = total / math.pi + sum(d / (4.0 * k * k + d * d) for d in strengths)
        assert abs(density - claimed) <= 1e-9


def test_criterion_07_wkb_transition_consistency(g_smooth):
    scaled = []
    for k in (10.0, 20.0, 40.0, 80.0):
        gap = float(
            np.max(np.abs(wkb_transition(g_smooth, 0, k).matrix - transition_matrix(g_smooth, 0, k).matrix))
        )
        scaled.append(k * k * gap)
    assert all(s <= 2.5 for s in scaled)
    assert scaled[-1] / (80.0**2) < scaled[0] / (10.0**2)
    _report("7", "k^2-scaled gaps " + ", ".join(f"{s:.3f}" for s in scaled))


def test_criterion_08a_wkb_profile_error_scaling(g_smooth):
    scaled = []
    for k in (10.0, 20.0, 40.0, 80.0):
        scaled.append(k * k * compare_with_exact(g_smooth, 0, k)["deviation"])
    assert all(0.5 <= s <= 2.0 for s in scaled)
    _report("8a", "k^2-scaled deviations " + ", ".join(f"{s:.4f}" for s in scaled))


def test_criterion_08b_constant_potential_action_exact(g_const):
    k = 5.0
    action = wkb_solution(g_const, 0, k).action
    expected = math.pi * math.sqrt(k * k - 4.0)
    assert abs(action - expected) <= 1e-10
    _report("8b", f"action gap {abs(action - expected):.2e}")


def test_criterion_09a_scan_agrees_with_discretization(g_star_fd):
    scan = scan_spectrum(g_star_fd, 0.5, 5.5)
    fd = fd_spectrum(g_star_fd, 0.002, len(scan.ks) + 2, richardson=True)
    positive = [k for k in fd.ks if k > 0.4]
    worst = 0.0
    for root in scan.ks:
        gap = min(abs(root - k) for k in positive)
        worst = max(worst, gap / root)
    assert worst <= 1e-3
    _report("9a", f"{len(scan.ks)} roots cross-checked; worst relative gap {worst:.2e}")


def test_criterion_09b_winding_multiplicity(g_star3_eq):
    count = multiplicity(g_star3_eq, math.pi / 2, 0.3)
    assert count == 2
    _report("9b", "double root at pi/2 counted exactly")


def test_criterion_10a_delay_for_zero_potential(g_star3):
    total = sum(e.length for e in g_star3.edges)
    gap = abs(wigner_delay(g_star3, 4.0) - 2.0 * total)
    assert gap <= 1e-10
    _report("10a", f"delay matches twice the total length, gap {gap:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated delay correction for a single point interaction, "
        "2D/(4k^2+D^2), is half the true value: the energy derivative of "
        "the scattering phase across the interaction gives 4D/(4k^2+D^2) "
        "(at L=1, D=2, k=3 the delay is exactly 2.2 = 2L + 8/40, while the "
        "stated form predicts 2.1), so the 1e-10 tolerance cannot hold"
    ),
)
def test_criterion_10b_delay_correction_for_point_interaction():
    g = interval(1.0, {"type": "delta", "strength": 2.0, "position": 0.5})
    for k in (3.0, 5.0):
        claimed = 2.0 * 2.0 / (4.0 * k * k + 4.0)
        assert abs(wigner_delay(g, k) - 2.0 - claimed) <= 1e-10


def test_criterion_10c_delay_gap_shrinks_with_k(g_smooth):
    gaps = [
        abs(wigner_delay(g_smooth, k) - wkb_wigner_delay(g_smooth, k))
        for k in (5.0, 10.0, 20.0, 40.0)
    ]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-6
    _report("10c", "gaps " + ", ".join(f"{v:.2e}" for v in gaps))
