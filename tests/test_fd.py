"""Finite-difference discretization used as an independent cross-check."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qgspectra.fd import build_discretization, fd_modes, fd_spectrum, kirchhoff_defect
from qgspectra.spectrum import scan_spectrum

from .conftest import interval
from .oracles import attractive_delta_kappa, const_interval_ks

# Values certified against the scattering side of this package; both agree
# to 3.4e-5, far below the tolerance used here.
STAR_FD_KS = [0.65841, 1.46383, 1.8973, 3.17746, 4.32209, 5.41162]


def test_discretization_is_symmetric(g_star3):
    disc = build_discretization(g_star3, 0.05)
    assert np.array_equal(disc.matrix, disc.matrix.T)
    assert np.array_equal(disc.form, disc.form.T)
    assert np.array_equal(disc.mass, np.diag(np.diag(disc.mass)))
    assert disc.n_nodes == 71
    assert disc.h == 0.05


def test_interval_convergence_is_second_order(g_interval_pi):
    errs = []
    for h in (0.02, 0.01, 0.005):
        res = fd_spectrum(g_interval_pi, h, 4)
        assert abs(res.ks[0]) <= 1e-4  # constant mode
        errs.append(abs(res.ks[1] - 1.0))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_result_metadata(g_interval_pi):
    plain = fd_spectrum(g_interval_pi, 0.01, 3)
    assert plain.extrapolated is False
    assert plain.h == 0.01
    assert plain.n_nodes == 316
    rich = fd_spectrum(g_interval_pi, 0.01, 3, richardson=True)
    assert rich.extrapolated is True


def test_constant_potential_closed_form(g_const):
    res = fd_spectrum(g_const, 0.002, 4, richardson=True)
    expected = const_interval_ks(4.0, math.pi, 4)
    for got, want in zip(res.ks, expected):
        assert abs(got - want) <= 1e-9
    assert len(res.negative) == 0


def test_attractive_interaction_bound_state(g_interval_delta_neg):
    res = fd_spectrum(g_interval_delta_neg, 0.002, 3, richardson=True)
    kappa = attractive_delta_kappa(-1.0, 1.0)
    assert len(res.negative) == 1
    assert abs(res.negative[0] + kappa * kappa) <= 1e-5


def test_modes_of_a_deep_well_are_not_crowded_out():
    # a constant -400 on length 6 at h = 0.05 has 40 negative eigenvalues,
    # more than the first eigensolve window of count + 16 holds: the modes
    # widen it as the spectrum does, and keep all five, each an eigenvector
    # of its k^2 whose one-sided end derivative is the discrete Neumann
    # condition's (h / 2) (w - k^2) psi
    h, count = 0.05, 5
    g = interval(6.0, {"type": "constant", "value": -400.0})
    res, modes, disc = fd_modes(g, h, count)
    spectrum = fd_spectrum(g, h, count)
    assert len(res.ks) == count == modes.shape[1]
    assert np.abs(res.ks - spectrum.ks).max() <= 1e-10
    assert len(res.negative) == len(spectrum.negative) == 40
    assert np.array_equal(res.negative, spectrum.negative)
    for k, mode in zip(res.ks, modes.T):
        lam = k * k
        assert np.abs(disc.form @ mode - lam * disc.mass * mode).max() <= 1e-9
        assert kirchhoff_defect(disc, mode) <= (h / 2) * (400.0 + lam) * (1 + 1e-9)


def test_vertex_condition_defect_halves_with_h(g_star3):
    defects = []
    for h in (0.04, 0.02, 0.01):
        _, modes, disc = fd_modes(g_star3, h, 4)
        defects.append(kirchhoff_defect(disc, modes[:, 1]))
    assert 1.7 <= defects[0] / defects[1] <= 2.3
    assert 1.7 <= defects[1] / defects[2] <= 2.3


def test_star_with_interaction_matches_scan(g_star_fd):
    scan = scan_spectrum(g_star_fd, 0.5, 5.5)
    assert len(scan.ks) == len(STAR_FD_KS)
    for got, want in zip(scan.ks, STAR_FD_KS):
        assert abs(got - want) <= 1e-4
    fd = fd_spectrum(g_star_fd, 0.004, len(STAR_FD_KS) + 2, richardson=True)
    positive = [k for k in fd.ks if k > 0.5]
    for root in scan.ks:
        assert min(abs(root - k) for k in positive) <= 1e-3
