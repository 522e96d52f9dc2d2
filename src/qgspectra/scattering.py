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
by one batched Magnus propagation), and T and T' come out stacked.

The secular function along a path (``_track``) never forms S: it is
computed from the per-edge entries (trans, r_from, r_to), each of shape
(n, E).  det S = det Sigma prod_e det t_e, with det Sigma = +-1 cached
beside Sigma.  det(I - S) (``_det_w``) is the Schur complement over the
block-diagonal I + T: Sigma = 2 B D^-1 B^T - I for the out-incidence B and
the vertex degrees D, so

    det(I - S) = prod_e det(I + t_e) * det(I_V - 2 D^-1 B^T T (I + T)^-1 B),

a V x V determinant assembled from the closed-form 2 x 2 blocks of
T (I + T)^-1 (Berkolaiko & Kuchment, Introduction to Quantum Graphs, AMS
2013, ch. 2).  A point where some |det(I + t_e)| is below _SCHUR_FLOOR,
such as an equilateral zero-potential star at k = pi, takes the dense
2E x 2E determinant instead; the choice depends on that point alone.

``secular`` is the one public evaluator: a scalar k gives one value, a
1-D array the path's values in order.  The branch is fixed by a value,
not by mutable state: a path continues from the evaluated value
``after``, or is anchored at its first point, so two continuations from
one value are two calls.  The eigenphases of S, which a scan needs only
at some points, are taken for the points asked for, from S built there,
in one stacked call.
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
_KERNEL_PHASE = 1e-12  # eigenphases closer to 0 than this are roots
# A point where some |det(I + t_e)| is below this takes det(I - S) densely.
# The vertex-space determinant's error grows like eps / min |det(I + t_e)|:
# over 2.1e5 random real k on three 10-arm delta stars it stayed below
# 2.5e-14 of the largest |det(I - S)| above this floor, and reached 8e-12
# below 1e-5.
_SCHUR_FLOOR = 1e-3


@dataclasses.dataclass(frozen=True)
class _Layout:
    """Sigma of a graph, det Sigma (+-1), and the scatter table of the
    vertex-space determinant: per edge, the factor 2 / deg of the vertex
    of each entry's row, (E, 4), and the flat float index in a complex V x
    V matrix of the real and imaginary part of each entry, (E, 4, 2), for
    the entries (x00, x01, x10, x11) of the edge's block of T (I + T)^-1."""

    sigma: np.ndarray
    det_sigma: float
    target: np.ndarray
    weight: np.ndarray


# the layout of each live graph, built on first use
_SIGMAS: "weakref.WeakKeyDictionary[MetricGraph, _Layout]" = (
    weakref.WeakKeyDictionary()
)


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
    return _layout(g).sigma


def _layout(g: MetricGraph) -> _Layout:
    layout = _SIGMAS.get(g)
    if layout is not None:
        return layout
    # the vertex each direction leaves, and its degree
    index = {v: i for i, v in enumerate(g.vertices)}
    origin = np.empty(g.num_directed, dtype=int)
    for v in g.vertices:
        origin[g.out_directions(v)] = index[v]
    deg = np.array([g.degree[v] for v in g.vertices])[origin]
    same = origin[:, None] == origin[None, :]
    sigma = np.where(same, 2.0 / deg[:, None], 0.0) - np.eye(g.num_directed)
    # rows and columns of the entries (x00, x01, x10, x11) of each edge's
    # block, which couples its directions (2e, 2e+1)
    pairs = np.arange(g.num_directed).reshape(-1, 2)
    rows, cols = pairs[:, [0, 0, 1, 1]], pairs[:, [0, 1, 0, 1]]
    nv = len(index)
    target = 2 * (origin[rows] * nv + origin[cols])[..., None] + np.arange(2)
    det_sigma = float(np.sign(np.linalg.det(sigma)))
    layout = _SIGMAS[g] = _Layout(sigma, det_sigma, target, 2.0 / deg[rows])
    return layout


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


def _edge_entries(g: MetricGraph, ks: np.ndarray):
    """(trans, r_from, r_to) of every edge at every k of the 1-D complex
    array ``ks``, each of shape (len(ks), E)."""
    t, _ = _entries(_solve_edges(g, ks))
    return t


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


def _det_s(g: MetricGraph, t) -> np.ndarray:
    """det S = det Sigma prod_e det t_e at each point, from the edge entries
    t = (trans, r_from, r_to), each (n, E)."""
    trans, r_from, r_to = t
    return _layout(g).det_sigma * np.prod(r_from * r_to - trans * trans, axis=-1)


def _det_w(g: MetricGraph, k, t=None):
    """det(I - S(k)) for a scalar k, or their array for a 1-D array of k,
    from the edge entries t = (trans, r_from, r_to), each (len(k), E),
    which are evaluated unless given.

    Sigma = 2 B D^-1 B^T - I, with B the 2E x V out-incidence and D the
    vertex degrees, so the Schur complement over the block-diagonal I + T
    gives det(I - S) = det(I + T) det(I_V - 2 D^-1 B^T X B), X = T (I +
    T)^-1.  Per edge, det(I + t_e) = 1 + r_from + r_to + det t_e, and the
    block of X is [[r_from + det t_e, trans], [trans, r_to + det t_e]] /
    det(I + t_e).  A point where some |det(I + t_e)| is below _SCHUR_FLOOR
    takes the dense 2E x 2E determinant instead.
    """
    ks = np.asarray(k, dtype=complex)
    if t is None:
        t = _edge_entries(g, ks.reshape(-1))
    layout = _layout(g)
    trans, r_from, r_to = t
    det_t = r_from * r_to - trans * trans
    det_1t = 1.0 + r_from + r_to + det_t
    dense = np.abs(det_1t).min(axis=-1) < _SCHUR_FLOOR
    x = np.stack((r_from + det_t, trans, trans, r_to + det_t), axis=-1)
    x *= layout.weight / np.where(dense[:, None], 1.0, det_1t)[..., None]
    # sum the real and imaginary parts of the entries into their V x V
    # slots, point by point, in one bincount over the interleaved floats
    n, nv = len(x), len(g.vertices)
    slots = (2 * nv * nv * np.arange(n))[:, None, None, None] + layout.target
    m = np.bincount(slots.ravel(), x.view(float).ravel(), 2 * n * nv * nv)
    a = np.eye(nv) - m.view(complex).reshape(n, nv, nv)
    w = np.prod(det_1t, axis=-1) * np.linalg.det(a)
    if dense.any():
        S = layout.sigma @ _place(tuple(c[dense] for c in t), g.num_directed)
        w[dense] = np.linalg.det(np.eye(g.num_directed) - S)
    return complex(w[0]) if ks.ndim == 0 else w


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
    """The edge entries t = (trans, r_from, r_to), det(I - S), zeta and the
    unwrapped det S phase along a k path, one row per point; theta = phase
    + theta_offset."""

    sigma: np.ndarray
    ks: np.ndarray
    t: Tuple[np.ndarray, np.ndarray, np.ndarray]
    det_w: np.ndarray
    zeta: np.ndarray
    phase: np.ndarray
    theta_offset: float

    def values(self, idx: Sequence[int]) -> List[SecularValue]:
        """The SecularValue at each point of ``idx``, with the eigenphases
        of their S, built from the entries, in one stacked eigenvalue call."""
        idx = list(idx)
        S = self.sigma @ _place(tuple(c[idx] for c in self.t), len(self.sigma))
        frac, kernel = _eigenphases(S)
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
    """The secular function along the points ``ks`` in order, from the edge
    entries, continuing the branch from the evaluated value ``after`` or,
    without it, anchored at the first point.

    det S = det Sigma prod_e det t_e, with det Sigma = +-1 independent of k,
    so theta, the phase of det T, is the det S phase plus an offset, fixed
    at a fresh path's first point.  Each step of the det S phase, from
    ``after`` on, must stay below 0.9 pi (PhaseTrackingError otherwise).
    The modulus factor |det S|^(-1/2) is 1 on the real axis and restores
    conjugate symmetry zeta(conj k) = conj zeta(k) off it.
    """
    ks = np.asarray(ks, dtype=complex).reshape(-1)
    t = _edge_entries(g, ks)
    det_s = _det_s(g, t)
    det_w = _det_w(g, ks, t)
    det_sigma = _layout(g).det_sigma
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
            offset = cmath.phase(det_sigma * d) - cmath.phase(d)  # det T = det Sigma det S
        elif abs(step) >= _PHASE_STEP_LIMIT:
            raise PhaseTrackingError(f"phase step {step:+.3f} too large; refine the k grid")
        prev += step
        phase[i] = prev
    zeta = np.abs(det_s) ** -0.5 * np.exp(-0.5j * phase) * det_w
    return _Track(big_sigma(g), ks, t, det_w, zeta, phase, offset)


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
