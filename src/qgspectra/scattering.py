"""Global scattering assembly and the secular function.

The 2E x 2E vertex scattering matrix Sigma is block diagonal over vertices
when directed edges are grouped by their origin: the block at a vertex of
degree nu is (2/nu) J - I (J the all-ones matrix), i.e. backscatter
2/nu - 1 and cross-scattering 2/nu.  The edge transition matrix T(k) couples
only the direction pair {2e, 2e+1} of each edge:

    T[2e, 2e]     = r_from    T[2e, 2e+1]   = trans
    T[2e+1, 2e]   = trans     T[2e+1, 2e+1] = r_to

S(k) = Sigma T(k) is unitary for real k, and the eigenvalue condition is
det(I - S(k)) = 0.  The secular function

    zeta(k) = (det S)^(-1/2) det(I - S)

is real on the real axis once the square root's branch is fixed by
continuous unwrapping of the det S phase along the evaluation path; only its
zeros (not its global sign) carry meaning.  Theta(k) is the continuously
unwrapped phase of det T; its derivative is the Wigner delay.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .edge import _entries, solve_edge
from .errors import NumericalError, PhaseTrackingError
from .graph import MetricGraph

__all__ = [
    "vertex_sigma",
    "big_sigma",
    "assemble_T",
    "assemble_S",
    "BranchState",
    "SecularValue",
    "secular",
    "secular_sweep",
    "theta_prime",
]

_PHASE_STEP_LIMIT = 0.9 * math.pi
# Sigma of each live graph, built on first use
_SIGMAS: "weakref.WeakKeyDictionary[MetricGraph, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)
_KERNEL_PHASE = 1e-12  # eigenphases closer to 0 than this are roots


def vertex_sigma(g: MetricGraph, v: str) -> np.ndarray:
    """deg x deg scattering block at vertex v: (2/deg) J - I."""
    deg = g.degree[v]
    return (2.0 / deg) * np.ones((deg, deg)) - np.eye(deg)


def big_sigma(g: MetricGraph) -> np.ndarray:
    """k-independent 2E x 2E vertex scattering matrix.

    Row d and column d' are coupled iff they leave the same vertex; the
    coupling maps the wave arriving along the reversal of d' into the wave
    leaving along d.
    """
    sigma = _SIGMAS.get(g)
    if sigma is not None:
        return sigma
    n = g.num_directed
    sigma = np.zeros((n, n))
    for v in g.vertices:
        dirs = g.out_directions(v)
        block = vertex_sigma(g, v)
        for a, da in enumerate(dirs):
            for b, db in enumerate(dirs):
                sigma[da, db] = block[a, b]
    _SIGMAS[g] = sigma
    return sigma


def _place(M: np.ndarray, e: int, trans, r_from, r_to) -> None:
    d = 2 * e
    M[d, d] = r_from
    M[d + 1, d + 1] = r_to
    M[d, d + 1] = trans
    M[d + 1, d] = trans


def assemble_T(g: MetricGraph, k: complex, want_dk: bool = False):
    """T(k), or the pair (T(k), T'(k)) when ``want_dk``; either way one
    edge solve per edge."""
    n = g.num_directed
    T = np.zeros((n, n), dtype=complex)
    dT = np.zeros((n, n), dtype=complex) if want_dk else None
    for e in range(g.num_edges):
        t, dt = _entries(solve_edge(g, e, k, want_dk))
        _place(T, e, *t)
        if want_dk:
            _place(dT, e, *dt)
    return (T, dT) if want_dk else T


def assemble_S(g: MetricGraph, k: complex) -> np.ndarray:
    return big_sigma(g) @ assemble_T(g, k)


def unitarity_defect(m: np.ndarray) -> float:
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), 2))


@dataclasses.dataclass
class SecularValue:
    k: complex
    zeta: complex
    det_s_phase: float  # unwrapped
    theta: float  # unwrapped phase of det T
    eigenphase_frac: float  # sum_j frac(theta_j / 2 pi) over the eigenphases of S
    kernel_dim: int  # eigenphases at 0: dim ker(I - S), the multiplicity at k

    @property
    def zeta_real(self) -> float:
        return self.zeta.real


class BranchState:
    """Continuous phase tracking for det S along a k path.

    Evaluations must walk a path with phase steps below pi; larger apparent
    jumps cannot be unwrapped reliably and raise PhaseTrackingError.  det T
    = det S / det Sigma with det Sigma = +-1 independent of k, so the
    unwrapped det T phase is the det S phase plus ``theta_offset``, fixed
    at the first evaluation.
    """

    def __init__(self) -> None:
        self.started = False
        self.phase = 0.0
        self.theta_offset = 0.0

    @classmethod
    def after(cls, v: SecularValue) -> "BranchState":
        """A state that continues the branch from the evaluated value ``v``."""
        state = cls()
        state.started = True
        state.phase = v.det_s_phase
        state.theta_offset = v.theta - v.det_s_phase
        return state

    def advance(self, det_s: complex) -> float:
        step = math.remainder(cmath.phase(det_s) - self.phase, 2.0 * math.pi)
        if self.started and abs(step) >= _PHASE_STEP_LIMIT:
            raise PhaseTrackingError(
                f"phase step {step:+.3f} too large; refine the k grid"
            )
        self.phase += step
        self.started = True
        return self.phase

    def clone(self) -> "BranchState":
        other = BranchState()
        other.started = self.started
        other.phase = self.phase
        other.theta_offset = self.theta_offset
        return other


def _det_w(g: MetricGraph, k: complex, S: Optional[np.ndarray] = None) -> complex:
    """det(I - S(k)); S is assembled unless given."""
    if S is None:
        S = assemble_S(g, k)
    return complex(np.linalg.det(np.eye(S.shape[0]) - S))


def _eigenphases(S: np.ndarray) -> Tuple[float, int]:
    """(sum_j frac(theta_j / 2 pi), number of theta_j at 0) for S's eigenphases.

    Eigenphases within _KERNEL_PHASE of 0 count as exactly 0, so a root on
    an evaluation point is seen by its kernel and counted once.
    """
    theta = np.angle(np.linalg.eigvals(S))
    at_zero = np.abs(theta) <= _KERNEL_PHASE
    frac = np.where(at_zero, 0.0, np.mod(theta / (2.0 * math.pi), 1.0))
    return float(frac.sum()), int(at_zero.sum())


def secular(g: MetricGraph, k: complex, state: BranchState) -> SecularValue:
    """zeta(k) with branch continuation through ``state``.

    The state must be advanced along a path of sufficiently small steps
    starting from the first evaluation (which anchors the branch).
    """
    T = assemble_T(g, k)
    S = big_sigma(g) @ T
    det_s = complex(np.linalg.det(S))
    if det_s == 0:
        raise NumericalError(f"det S vanishes at k={k}; prefactor undefined")
    if not state.started:
        state.theta_offset = cmath.phase(np.linalg.det(T)) - cmath.phase(det_s)
    phase_s = state.advance(det_s)
    # Full (det S)^(-1/2) with the branch fixed by the tracked phase; the
    # modulus factor is 1 on the real axis and restores conjugate symmetry
    # zeta(conj k) = conj zeta(k) off it.
    prefactor = abs(det_s) ** -0.5 * cmath.exp(-0.5j * phase_s)
    zeta = prefactor * _det_w(g, k, S)
    return SecularValue(
        complex(k), zeta, phase_s, phase_s + state.theta_offset, *_eigenphases(S)
    )


def secular_sweep(g: MetricGraph, ks: Sequence[float]) -> List[SecularValue]:
    """Sequential sweep with a fresh branch anchored at the first point."""
    state = BranchState()
    return [secular(g, k, state) for k in ks]


def theta_prime(g: MetricGraph, k: float) -> float:
    """d Theta / dk at real k, via the per-edge trace identity."""
    return _theta_prime(*assemble_T(g, k, want_dk=True))


def _theta_prime(T: np.ndarray, dT: np.ndarray) -> float:
    """d/dk log det T / i from T and T'.

    d/dk log det T = sum_e tr(t_e^{-1} t_e') over the 2x2 edge blocks, here
    read in the display layout [[trans, r_to], [r_from, trans]].  The result
    is real for real k; the imaginary residue is a numerical check discarded
    here.
    """
    total = 0.0 + 0.0j
    for d in range(0, T.shape[0], 2):
        trans, r_from, r_to = T[d, d + 1], T[d, d], T[d + 1, d + 1]
        dtrans, dr_from, dr_to = dT[d, d + 1], dT[d, d], dT[d + 1, d + 1]
        det = trans * trans - r_to * r_from
        tr_adj_dt = trans * dtrans - r_to * dr_from - r_from * dr_to + trans * dtrans
        total += tr_adj_dt / det
    return (total / 1j).real
