"""Independent reference computations used to freeze expected test values.

Everything here is built from first principles with numpy/scipy only — no
imports from the package under test — so that agreement between the two is
meaningful.  One exception takes a public function of the package:
``dense_secular`` takes T from ``assemble_T`` to check the determinants
built on it.  ``block_fold``
takes the Magnus step matrices as arrays and folds them the way the package
did before it folded M and M' as a 2x2 pair.  ``walk_orbits`` is the
package's former depth-first orbit enumeration, on the package's step table
and class record, kept as the reference of the array enumeration.
"""
from __future__ import annotations

import cmath
import itertools
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq


def interval_delta_secular(length: float, strength: float, position: float) -> Callable[[float], float]:
    """Characteristic function for a Neumann interval with one point interaction.

    Matching cos(k x) on the left of the interaction against A cos(k (L - x))
    on the right gives the root condition

        F(k) = k sin(k L) - D cos(k x0) cos(k (L - x0)) = 0.
    """

    def f(k: float) -> float:
        return k * math.sin(k * length) - strength * math.cos(k * position) * math.cos(
            k * (length - position)
        )

    return f


def roots_on(f: Callable[[float], float], lo: float, hi: float, samples: int = 4001) -> List[float]:
    """All simple roots of f on [lo, hi] by sign-change bracketing plus brentq."""
    grid = np.linspace(lo, hi, samples)
    vals = [f(x) for x in grid]
    roots: List[float] = []
    for i in range(samples - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-14)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def delta_transition(strength: float, length: float, position: float, k: complex) -> Tuple[complex, complex, complex]:
    """Closed-form (trans, r_from, r_to) for one point interaction on an edge."""
    den = 2j * k - strength
    trans = 2j * k * cmath.exp(1j * k * length) / den
    r_from = strength * cmath.exp(2j * k * position) / den
    r_to = strength * cmath.exp(2j * k * (length - position)) / den
    return trans, r_from, r_to


def delta_transition_matrix(strength: float, length: float, position: float, k: complex) -> np.ndarray:
    trans, r_from, r_to = delta_transition(strength, length, position, k)
    return np.array([[trans, r_to], [r_from, trans]], dtype=complex)


def delta_eigenvalues(strength: float, length: float, k: complex) -> Tuple[complex, complex]:
    """Eigenvalues of the point-interaction transition matrix (any position)."""
    mu1 = cmath.exp(1j * k * length)
    mu2 = (2j * k + strength) / (2j * k - strength) * cmath.exp(1j * k * length)
    return mu1, mu2


def central_diff(f: Callable[[float], complex], x: float, h: float = 1e-4) -> complex:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def smooth_action(w: Callable[[float], float], length: float, k: float) -> float:
    """Action integral of sqrt(k^2 - w(x)) over the edge."""
    val, _ = quad(lambda x: math.sqrt(k * k - w(x)), 0.0, length, epsabs=1e-13, epsrel=1e-13, limit=500)
    return val


def brute_classes(adj: np.ndarray, n: int) -> int:
    """Count cyclic-shift classes of closed admissible n-step direction words.

    adj[r, s] = 1 when step s -> r is admissible (rows index the target).
    A word (d_0, ..., d_{n-1}) is admissible when every consecutive pair and
    the wrap-around pair are; words are identified up to rotation.
    """
    size = adj.shape[0]
    seen = set()
    for word in itertools.product(range(size), repeat=n):
        ok = all(adj[word[(i + 1) % n], word[i]] for i in range(n))
        if not ok:
            continue
        canon = min(tuple(word[i:] + word[:i]) for i in range(n))
        seen.add(canon)
    return len(seen)


def _totient(m: int) -> int:
    out = m
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            out -= out // p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


def burnside_classes(adj: np.ndarray, n: int) -> int:
    """Cycle-class count via Burnside: (1/n) * sum_{d | n} phi(n/d) tr(A^d)."""
    total = 0
    a = adj.astype(np.int64)
    for d in range(1, n + 1):
        if n % d:
            continue
        total += _totient(n // d) * int(np.trace(np.linalg.matrix_power(a, d)))
    assert total % n == 0
    return total // n


def const_interval_ks(value: float, length: float, count: int) -> List[float]:
    """Neumann eigenvalue parameters sqrt((n pi / L)^2 + c) for a constant c."""
    return [math.sqrt((n * math.pi / length) ** 2 + value) for n in range(count)]


def attractive_delta_kappa(strength: float, length: float) -> float:
    """Decay rate of the single bound state of one attractive point interaction.

    For strength D < 0 centred on a Neumann interval the even bound state
    cosh(kappa x) gives 2 kappa tanh(kappa L / 2) = -D; the energy is -kappa^2.
    """
    d = -strength
    return float(brentq(lambda t: 2.0 * t * math.tanh(t * length / 2.0) - d, 1e-8, 50.0, xtol=1e-14))


def gaussian_moment(center: float, sigma: float, lo: float, hi: float) -> float:
    """Integral of exp(-(k - center)^2 / (2 sigma^2)) over [lo, hi]."""
    val, _ = quad(
        lambda k: math.exp(-((k - center) ** 2) / (2.0 * sigma * sigma)),
        lo,
        hi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def fundamental_matrix(w: Callable[[float], float], length: float, k: complex) -> Tuple[np.ndarray, np.ndarray]:
    """2x2 fundamental matrix M of -psi'' + w psi = k^2 psi over [0, length]
    and its k-derivative M', by DOP853 on the variational system.

    Column j of M is (psi, psi')(length) for the solution with
    (psi, psi')(0) = e_j; M' solves the same equation with the source
    -2k psi and zero initial data.
    """
    k2 = k * k

    def rhs(x, y):
        # y = (psi, psi', dk psi, dk psi') for both columns, stacked
        y = y.reshape(2, 4)
        v = w(x) - k2
        return np.stack(
            [y[:, 1], v * y[:, 0], y[:, 3], v * y[:, 2] - 2.0 * k * y[:, 0]], axis=1
        ).ravel()

    y0 = np.zeros(8, dtype=complex)
    y0[0] = y0[5] = 1.0
    sol = solve_ivp(rhs, (0.0, length), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    y = sol.y[:, -1].reshape(2, 4)
    return y[:, :2].T.copy(), y[:, 2:].T.copy()


def solution_zeros(
    w: Callable[[float], float], length: float, k: float, delta: Tuple[float, float] = (0.0, 0.0)
) -> Tuple[int, int]:
    """Zeros in (0, length] of the solutions of -psi'' + w psi = k^2 psi that
    start as (psi, psi') = (1, 0) and (0, 1), with a point interaction of
    strength delta[0] at delta[1] (psi' jumps by D psi there; at x = 0 it
    acts on the starting values, and at x = length it moves no zero),
    counted as sign changes of psi on 20001 samples, by DOP853."""
    strength, x0 = delta
    xs = np.linspace(0.0, length, 20001)

    def rhs(x, y):
        return [y[1], (w(x) - k * k) * y[0]]

    counts = []
    for start in ([1.0, 0.0], [0.0, 1.0]):
        kick = strength * start[0] if x0 == 0.0 else 0.0
        psi, y0, a = [], [start[0], start[1] + kick], 0.0
        for b in ([x0, length] if 0.0 < x0 < length else [length]):
            grid = xs[(xs >= a) & (xs <= b)] if a == 0.0 else xs[(xs > a) & (xs <= b)]
            sol = solve_ivp(rhs, (a, b), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                            dense_output=True)
            psi.append(sol.sol(grid)[0])
            y0 = sol.sol(b)
            y0 = [y0[0], y0[1] + strength * y0[0]]
            a = b
        signs = np.sign(np.concatenate(psi)[start[1] == 1.0 :])  # not the zero at 0
        signs = signs[signs != 0]
        counts.append(int(np.sum(signs[1:] != signs[:-1])))
    return counts[0], counts[1]


def block_fold(steps: np.ndarray, dsteps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(M, M') from Magnus steps E and E' = dE/dk, (2, 2, P, n) arrays with n
    a power of two, folded as the 4x4 blocks [[E, E'], [0, E]], whose
    products carry the product rule.

    The blocks are multiplied pairwise along the last axis, the later step
    on the left, each level summing over the inner index in order; M and M'
    are the top-left and top-right blocks of the product, shape (2, 2, P).
    """
    blocks = np.zeros((4, 4) + steps.shape[2:], dtype=complex)
    blocks[:2, :2] = blocks[2:, 2:] = steps
    blocks[:2, 2:] = dsteps
    while blocks.shape[-1] > 1:
        later, earlier = blocks[..., 1::2], blocks[..., ::2]
        prod = later[:, 0, None] * earlier[None, 0]
        for j in range(1, 4):
            prod += later[:, j, None] * earlier[None, j]
        blocks = prod
    return blocks[:2, :2, :, 0], blocks[:2, 2:, :, 0]


def dense_secular(g, ks) -> Tuple[np.ndarray, np.ndarray]:
    """(det S, det(I - S)) at each k of ``ks``, from the dense 2E x 2E
    matrices: S = Sigma T with T from the package's ``assemble_T`` and Sigma
    built here from the graph's vertex table, entry (2/deg) - [d = d'] for
    directions d, d' leaving the same vertex (direction 2e leaves edge e's
    "from" end, 2e + 1 its "to" end)."""
    from qgspectra.scattering import assemble_T

    n = 2 * len(g.edges)
    leaves = [end for e in g.edges for end in (e.u, e.v)]
    sigma = np.zeros((n, n))
    for d in range(n):
        for d2 in range(n):
            if leaves[d] == leaves[d2]:
                sigma[d, d2] = 2.0 / leaves.count(leaves[d]) - (d == d2)
    S = sigma @ assemble_T(g, np.asarray(ks, dtype=complex))
    return np.linalg.det(S), np.linalg.det(np.eye(n) - S)


def walk_orbits(g, n_max: int):
    """(classes, partial paths) of the depth-first orbit enumeration: one
    representative per cyclic class of closed walks with <= n_max steps,
    sorted by (n, least rotation), and the partial paths the walk expanded.

    One depth-first walk from each state s0 covers every length at once: it
    extends paths whose states never drop below s0 and records each step
    back into s0 as a closed walk.  A class is thus met only from its least
    state; the first rotation met represents it and later ones are dropped
    by their least rotation (key).  It takes the step table, the least
    rotation and the class record from the package and has no budget.
    """
    from qgspectra.orbits import _min_rotation, _orbit, _step_table

    table = _step_table(g)
    orbits = []
    seen: set = set()
    spent = 0
    for s0 in range(len(table)):
        # states[i] -> states[i + 1] is a step of kind kinds[i + 1];
        # steps[i] iterates the steps out of states[i] not yet taken
        states, kinds, steps = [s0], [""], [iter(table[s0])]
        while steps:
            for r, kind in steps[-1]:
                if r == s0:
                    cycle = tuple(states)
                    key = _min_rotation(cycle)
                    if key not in seen:
                        seen.add(key)
                        orbits.append(_orbit(cycle, (*kinds[1:], kind), key))
                if r >= s0 and len(states) < n_max:
                    states.append(r)
                    kinds.append(kind)
                    steps.append(iter(table[r]))
                    break
            else:
                # every step out of the path's last state is taken
                spent += 1
                states.pop()
                kinds.pop()
                steps.pop()
    orbits.sort(key=lambda p: (p.n, p.key))
    return orbits, spent
