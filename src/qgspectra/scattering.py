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

``assemble_T`` takes one k or a 1-D array of k.  Over an array the edge
layer evaluates every edge at every k at once (zero, constant and
point-interaction edges in closed form over (k, edge), each smooth edge
by one batched Magnus propagation), and T and T' come out stacked.  The
secular function along a path is computed from such stacks (``_track``).
``secular`` is its one public evaluator: a scalar k gives one value, a
1-D array the path's values in order.  The branch is fixed by a value,
not by mutable state: a path continues from the evaluated value
``after``, or is anchored at its first point, so two continuations from
one value are two calls.  The eigenphases of S, which a scan needs only
at some points, are taken for the points asked for, in one stacked call.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import weakref
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .edge import _entries, _solve_edges, unitarity_defect
from .errors import NumericalError, PhaseTrackingError
from .graph import MetricGraph

__all__ = [
    "vertex_sigma",
    "big_sigma",
    "assemble_T",
    "assemble_S",
    "SecularValue",
    "secular",
    "theta_prime",
    "unitarity_defect",
]

_PHASE_STEP_LIMIT = 0.9 * math.pi
# Sigma of each live graph, built on first use
_SIGMAS: "weakref.WeakKeyDictionary[MetricGraph, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)
_KERNEL_PHASE = 1e-12  # eigenphases closer to 0 than this are roots
_TRACK_BLOCK = 16  # points of a track assembled at once


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


def _place(t, n: int) -> np.ndarray:
    """Stacked T (or T') from the per-edge entries (trans, r_from, r_to),
    each of shape (n_k, E)."""
    trans, r_from, r_to = t
    M = np.zeros((trans.shape[0], n, n), dtype=complex)
    d = np.arange(0, n, 2)
    M[:, d, d] = r_from
    M[:, d + 1, d + 1] = r_to
    M[:, d, d + 1] = trans
    M[:, d + 1, d] = trans
    return M


def assemble_T(g: MetricGraph, k, want_dk: bool = False):
    """T(k), or the pair (T(k), T'(k)) when ``want_dk``, from one pass of the
    edge layer over every k.  A scalar k gives 2E x 2E matrices; a 1-D array
    of k gives them stacked, shape (len(k), 2E, 2E)."""
    ks = np.asarray(k, dtype=complex)
    t, dt = _entries(_solve_edges(g, ks.reshape(-1), want_dk))
    out = [_place(t, g.num_directed)]
    if want_dk:
        out.append(_place(dt, g.num_directed))
    if ks.ndim == 0:
        out = [M[0] for M in out]
    return tuple(out) if want_dk else out[0]


def assemble_S(g: MetricGraph, k) -> np.ndarray:
    return big_sigma(g) @ assemble_T(g, k)


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


def _det_w(g: MetricGraph, k, S: Optional[np.ndarray] = None):
    """det(I - S(k)) for a scalar k, or their array for a 1-D array of k;
    S is assembled unless given."""
    if S is None:
        S = assemble_S(g, k)
    w = np.linalg.det(np.eye(S.shape[-1]) - S)
    return complex(w) if np.ndim(w) == 0 else w


def _eigenphases(S: np.ndarray) -> Tuple[List[float], List[int]]:
    """Per matrix of the stack S: sum_j frac(theta_j / 2 pi) over its
    eigenphases theta_j, and the number of theta_j at 0.

    Eigenphases within _KERNEL_PHASE of 0 count as exactly 0, so a root on
    an evaluation point is seen by its kernel and counted once.
    """
    theta = np.angle(np.linalg.eigvals(S))
    at_zero = np.abs(theta) <= _KERNEL_PHASE
    frac = np.where(at_zero, 0.0, np.mod(theta / (2.0 * math.pi), 1.0))
    return frac.sum(axis=-1).tolist(), at_zero.sum(axis=-1).tolist()


@dataclasses.dataclass
class _Track:
    """S, det(I - S), zeta and the unwrapped det S phase along a k path, one
    entry per point; theta = phase + theta_offset."""

    ks: np.ndarray
    S: np.ndarray
    det_w: np.ndarray
    zeta: np.ndarray
    phase: np.ndarray
    theta_offset: float

    def values(self, idx: Sequence[int]) -> List[SecularValue]:
        """The SecularValue at each point of ``idx``, with the eigenphases
        of their S from one stacked eigenvalue call."""
        idx = list(idx)
        frac, kernel = _eigenphases(self.S[idx])
        return [
            SecularValue(
                complex(self.ks[i]),
                complex(self.zeta[i]),
                float(self.phase[i]),
                float(self.phase[i] + self.theta_offset),
                f,
                d,
            )
            for i, f, d in zip(idx, frac, kernel)
        ]


def _track(g: MetricGraph, ks, after: Optional[SecularValue] = None) -> _Track:
    """The secular function along the points ``ks`` in order, from stacked
    S, continuing the branch from the evaluated value ``after`` or, without
    it, anchored at the first point.  S is assembled _TRACK_BLOCK points at
    a time, which bounds the temporaries beside it.

    Each step of the det S phase, from ``after`` on, must stay below 0.9 pi
    (PhaseTrackingError otherwise).  det T = det S / det Sigma with det
    Sigma = +-1 independent of k, so theta is the det S phase plus an
    offset, fixed by det T at a fresh path's first point.  The modulus
    factor |det S|^(-1/2) is 1 on the real axis and restores conjugate
    symmetry zeta(conj k) = conj zeta(k) off it.
    """
    ks = np.asarray(ks, dtype=complex).reshape(-1)
    sigma = big_sigma(g)
    S = np.empty((len(ks),) + sigma.shape, dtype=complex)
    det_w = np.empty(len(ks), dtype=complex)
    for lo in range(0, len(ks), _TRACK_BLOCK):
        block = slice(lo, lo + _TRACK_BLOCK)
        T = assemble_T(g, ks[block])
        if lo == 0 and after is None:
            det_t = complex(np.linalg.det(T[0]))
        np.matmul(sigma, T, out=S[block])
        det_w[block] = _det_w(g, None, S[block])
    det_s = np.linalg.det(S)
    if after is None:
        prev, offset = 0.0, None
    else:
        prev, offset = after.det_s_phase, after.theta - after.det_s_phase
    phase = np.empty(len(ks))
    for i, d in enumerate(det_s.tolist()):
        if d == 0:
            raise NumericalError(f"det S vanishes at k={ks[i]}; prefactor undefined")
        step = math.remainder(cmath.phase(d) - prev, 2.0 * math.pi)
        if offset is None:
            offset = cmath.phase(det_t) - cmath.phase(d)
        elif abs(step) >= _PHASE_STEP_LIMIT:
            raise PhaseTrackingError(f"phase step {step:+.3f} too large; refine the k grid")
        prev += step
        phase[i] = prev
    zeta = np.abs(det_s) ** -0.5 * np.exp(-0.5j * phase) * det_w
    return _Track(ks, S, det_w, zeta, phase, offset)


def secular(
    g: MetricGraph, k, after: Optional[SecularValue] = None
) -> Union[SecularValue, List[SecularValue]]:
    """zeta(k) for a scalar k, or the list of values along a 1-D array of
    k in order; the branch continues from the evaluated value ``after``,
    or is anchored at the first point.

    Consecutive points, ``after`` included, must be close enough that the
    det S phase moves less than 0.9 pi between them.
    """
    tr = _track(g, k, after)
    vals = tr.values(range(len(tr.ks)))
    return vals[0] if np.ndim(k) == 0 else vals


def theta_prime(g: MetricGraph, k: float) -> float:
    """d Theta / dk at real k, via the per-edge trace identity."""
    return float(_theta_prime(*assemble_T(g, k, want_dk=True)))


def _theta_prime(T: np.ndarray, dT: np.ndarray):
    """d/dk log det T / i from T and T', per matrix of a stack.

    d/dk log det T = sum_e tr(t_e^{-1} t_e') over the 2x2 edge blocks, here
    read in the display layout [[trans, r_to], [r_from, trans]].  The result
    is real for real k; the imaginary residue is a numerical check discarded
    here.
    """
    d = np.arange(0, T.shape[-1], 2)
    trans, r_from, r_to = T[..., d, d + 1], T[..., d, d], T[..., d + 1, d + 1]
    dtrans, dr_from, dr_to = dT[..., d, d + 1], dT[..., d, d], dT[..., d + 1, d + 1]
    det = trans * trans - r_to * r_from
    tr_adj_dt = trans * dtrans - r_to * dr_from - r_from * dr_to + trans * dtrans
    total = (tr_adj_dt / det).sum(axis=-1)
    return (total / 1j).real
