"""Independent reference computations for the benchmark.

Nothing here imports ``qgspectra``: the spectra and trace-formula terms are
rebuilt from first principles with numpy/scipy, so agreement with the
program means something.

Star graphs.  Every arm runs from the centre (x = 0) to a leaf (x = L) with
a Neumann condition at the leaf.  Let (a_j, b_j) = (psi(0), psi'(0)) for the
solution on arm j fixed by psi(L) = 1, psi'(L) = 0.  Continuity and the
Kirchhoff condition at the centre hold for some nonzero amplitude iff

    F(k) = sum_j b_j prod_{i != j} a_i = 0,

so the eigenvalues k > 0 are the zeros of F.  For a point interaction of
strength D at x0 the arm solution is a cosine on each side of x0 glued by
continuity and psi'(x0+) - psi'(x0-) = D psi(x0).  For smooth arm potentials
the arm is integrated by ``solve_ivp`` at rtol 1e-12, batched over a k grid.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

ODE_RTOL = 1e-12
ODE_ATOL = 1e-14


# ---------------------------------------------------------------------------
# arm boundary data
# ---------------------------------------------------------------------------


def _delta_arm(ks: np.ndarray, L: float, D: float, x0: float):
    """(psi(0), psi'(0)) on a Neumann-leaf arm with a point interaction."""
    u = ks * (L - x0)
    c = np.cos(u)                     # psi(x0)
    dp_right = ks * np.sin(u)         # psi'(x0+)
    dp_left = dp_right - D * c        # psi'(x0-)
    s0, c0 = np.sin(ks * x0), np.cos(ks * x0)
    a = c * c0 - dp_left * s0 / ks
    b = c * ks * s0 + dp_left * c0
    return a, b


def _smooth_rhs(w: Callable[[float], float], ks: np.ndarray):
    k2 = ks * ks
    n = ks.size

    def rhs(x, y):
        psi, dpsi = y[:n], y[n:]
        return np.concatenate([dpsi, (w(x) - k2) * psi])

    return rhs


def _smooth_arm(ks: np.ndarray, L: float, w: Callable[[float], float]):
    """(psi(0), psi'(0)) on a Neumann-leaf arm carrying w, one batched solve."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    n = ks.size
    y0 = np.concatenate([np.ones(n), np.zeros(n)])
    sol = solve_ivp(_smooth_rhs(w, ks), (L, 0.0), y0, method="DOP853",
                    rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise RuntimeError(f"oracle arm integration failed: {sol.message}")
    y = sol.y[:, -1]
    return y[:n], y[n:]


_SMOOTH = {
    "cos(2*x)": lambda x: math.cos(2.0 * x),
    "cos(3*x)": lambda x: math.cos(3.0 * x),
    "cos(4*x)": lambda x: math.cos(4.0 * x),
}


def _arm_data(ks: np.ndarray, L: float, pot: dict):
    kind = pot["type"]
    if kind == "zero":
        return np.cos(ks * L), ks * np.sin(ks * L)
    if kind == "delta":
        return _delta_arm(ks, L, float(pot["strength"]), float(pot["position"]))
    if kind == "expr" and pot["expr"] in _SMOOTH:
        return _smooth_arm(ks, L, _SMOOTH[pot["expr"]])
    raise ValueError(f"oracle has no arm solution for potential {pot!r}")


def _others_product_sum(a, b):
    """sum_j b_j prod_{i != j} a_i by prefix and suffix products."""
    n = len(a)
    prefix = [1.0] * (n + 1)
    for j in range(n):
        prefix[j + 1] = prefix[j] * a[j]
    total, suffix = 0.0, 1.0
    for j in range(n - 1, -1, -1):
        total = total + b[j] * prefix[j] * suffix
        suffix = suffix * a[j]
    return total


def star_secular(arms: Sequence[Tuple[float, dict]], ks) -> np.ndarray:
    """F(k) = sum_j b_j prod_{i != j} a_i on an array of k."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    data = [_arm_data(ks, L, pot) for L, pot in arms]
    return _others_product_sum([d[0] for d in data], [d[1] for d in data])


def _delta_scalar(arms: Sequence[Tuple[float, dict]]) -> Callable[[float], float]:
    """F(k) for a star of delta/zero arms, in scalar arithmetic for brentq."""
    params = [(L, float(p.get("strength", 0.0)), float(p.get("position", 0.0)))
              for L, p in arms]

    def f(k: float) -> float:
        a, b = [], []
        for L, D, x0 in params:
            u = k * (L - x0)
            c = math.cos(u)
            dp_left = k * math.sin(u) - D * c
            s0, c0 = math.sin(k * x0), math.cos(k * x0)
            a.append(c * c0 - dp_left * s0 / k)
            b.append(c * k * s0 + dp_left * c0)
        return _others_product_sum(a, b)

    return f


def star_roots(arms: Sequence[Tuple[float, dict]], lo: float, hi: float,
               grid_step: float) -> List[float]:
    """Zeros of F on [lo, hi]: sign changes on a grid, refined by brentq."""
    n = max(2, int(math.ceil((hi - lo) / grid_step)) + 1)
    grid = np.linspace(lo, hi, n)
    vals = star_secular(arms, grid)
    if all(p["type"] in ("zero", "delta") for _, p in arms):
        f = _delta_scalar(arms)
    else:
        def f(k: float) -> float:
            return float(star_secular(arms, [k])[0])

    roots = [float(k) for k in grid[vals == 0.0]]
    flips = np.nonzero((vals[:-1] < 0) != (vals[1:] < 0))[0]
    for i in flips:
        if vals[i] != 0.0 and vals[i + 1] != 0.0:
            roots.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15)))
    return sorted(roots)


# ---------------------------------------------------------------------------
# trace-formula terms for delta stars
# ---------------------------------------------------------------------------


def gaussian(center: float, sigma: float):
    def phi(k):
        z = (np.asarray(k, dtype=float) - center) / sigma
        return np.exp(-0.5 * z * z)
    return phi


def gauss_legendre(a: float, b: float, panels: int, nodes: int = 48):
    x, w = np.polynomial.legendre.leggauss(nodes)
    cuts = np.linspace(a, b, panels + 1)
    mids, halves = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * (cuts[1:] - cuts[:-1])
    ks = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    ws = (halves[:, None] * w[None, :]).ravel()
    return ks, ws


def delta_theta_prime(arms: Sequence[Tuple[float, dict]], ks) -> np.ndarray:
    """Closed-form phase density: sum_e [2 L_e + 4 D_e / (4 k^2 + D_e^2)]."""
    ks = np.asarray(ks, dtype=float)
    total = np.zeros_like(ks)
    for L, pot in arms:
        D = float(pot["strength"]) if pot["type"] == "delta" else 0.0
        total += 2.0 * L + 4.0 * D / (4.0 * ks * ks + D * D)
    return total


def _star_sigma(n_arms: int) -> np.ndarray:
    """Vertex scattering on directed edges 2e (leaving c) and 2e+1 (leaving
    the leaf).  Rows: outgoing direction, columns: incoming wave, labelled
    by the outgoing direction it is the reversal of."""
    n = 2 * n_arms
    sig = np.zeros((n, n))
    centre = [2 * e for e in range(n_arms)]
    for da in centre:
        for db in centre:
            sig[da, db] = 2.0 / n_arms - (1.0 if da == db else 0.0)
    for e in range(n_arms):
        sig[2 * e + 1, 2 * e + 1] = 1.0  # Neumann leaf: full reflection
    return sig


def _delta_edge(L: float, D: float, x0: float, k: float):
    """(trans, r_from, r_to) of a point interaction and their k-derivatives."""
    den = 2j * k - D
    ph = np.exp(1j * k * L)
    trans = 2j * k * ph / den
    r_from = D * np.exp(2j * k * x0) / den
    r_to = D * np.exp(2j * k * (L - x0)) / den
    dtrans = trans * (1.0 / k + 1j * L - 2j / den)
    dr_from = r_from * (2j * x0 - 2j / den)
    dr_to = r_to * (2j * (L - x0) - 2j / den)
    return (trans, r_from, r_to), (dtrans, dr_from, dr_to)


def delta_star_S(arms: Sequence[Tuple[float, dict]], k: float):
    """S(k) = Sigma T(k) and S'(k) for a star of point-interaction arms.

    T couples the pair {2e, 2e+1}: T[2e,2e] = r_from, T[2e+1,2e+1] = r_to,
    T[2e,2e+1] = T[2e+1,2e] = trans.
    """
    n = 2 * len(arms)
    T = np.zeros((n, n), dtype=complex)
    dT = np.zeros((n, n), dtype=complex)
    for e, (L, pot) in enumerate(arms):
        D = float(pot["strength"]) if pot["type"] == "delta" else 0.0
        x0 = float(pot.get("position", 0.0))
        vals, dvals = _delta_edge(L, D, x0, k)
        for M, (tr, rf, rt) in ((T, vals), (dT, dvals)):
            d = 2 * e
            M[d, d], M[d + 1, d + 1] = rf, rt
            M[d, d + 1] = M[d + 1, d] = tr
    sig = _star_sigma(len(arms))
    return sig @ T, sig @ dT


def orbit_density(arms: Sequence[Tuple[float, dict]], ks, n_max: int) -> np.ndarray:
    """rows[n-1, j] = Im tr(S^{n-1} S') at ks[j] for n = 1..n_max."""
    ks = np.asarray(ks, dtype=float)
    out = np.zeros((n_max, ks.size))
    for j, k in enumerate(ks):
        S, dS = delta_star_S(arms, float(k))
        power = np.eye(S.shape[0], dtype=complex)
        for n in range(1, n_max + 1):
            out[n - 1, j] = np.trace(power @ dS).imag
            power = power @ S
    return out


def trace_terms(arms, center: float, sigma: float, lo: float, hi: float,
                n_max: int, roots: Sequence[float]) -> Dict[str, object]:
    """lhs, rhs_weyl and the cumulative orbit rows of the trace formula."""
    phi = gaussian(center, sigma)
    panels = max(8, int(math.ceil((hi - lo) / 0.25)))
    ks, ws = gauss_legendre(lo, hi, panels)
    phis = phi(ks)
    lhs = float(np.sum(phi(np.asarray(roots))))
    weyl = float(np.sum(ws * phis * delta_theta_prime(arms, ks)) / (2.0 * math.pi))
    dens = orbit_density(arms, ks, n_max) if n_max >= 1 else np.zeros((0, ks.size))
    rows = [0.0]
    running = np.zeros_like(ks)
    for n in range(1, n_max + 1):
        running = running + dens[n - 1]
        rows.append(float(np.sum(ws * phis * running) / math.pi))
    return {"lhs": lhs, "rhs_weyl": weyl, "rhs_orbits": rows}


def trace_powers(arms, k: float, n_max: int) -> List[complex]:
    """tr S(k)^n for n = 1..n_max."""
    S, _ = delta_star_S(arms, k)
    out, power = [], np.eye(S.shape[0], dtype=complex)
    for _ in range(n_max):
        power = power @ S
        out.append(complex(np.trace(power)))
    return out
