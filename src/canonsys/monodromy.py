"""Assembly of the matrix solution across the singularity.

To the left of sigma the matrix W is the plain fundamental solution.  To the
right it is assembled from the boundary-value matrices of both sides and the
interface matrix R(z):

    W(t, z) = U_minus(z) R(z)^T  U_plus(z)^{-1} V(t, z),

where V is any non-singular matrix solution on the right piece (anchored to
the identity at s_plus by default, which keeps U_plus well conditioned and
makes det V = 1).  The factor U_minus R^T U_plus^{-1} V is invariant under
V -> V C for constant non-singular C.  Since tr(z J H) = 0, det U_plus(V) =
det V, so U_plus^{-1} is the adjugate over det V.init: no computed
determinant is divided by, which keeps W accurate where its entries grow
like e^(|Im z| len).

Also here: the rank-one comparison matrix M(z) tying together assemblies
that differ only in the discrete parameters, the intermediate Weyl
coefficient, and a Gram-matrix estimator for the number of negative squares
of the kernel (W(z) J W(w)* - J)/(z - conj(w)).

Per side and z, the fundamental solution anchored to the identity at the
regular endpoint and the boundary pairs of its rows come from one
integration, cached on the problem under ``("basis", side, z)``
(:func:`canonsys.boundary.side_basis`; at most ``hamiltonian.PER_Z_CAP``
entries, least recently used evicted first).  ``factorisation``, and with
it the assembly right of sigma and ``monodromy_matrix``, reads both sides
and asks for both bases at once (``boundary.side_bases``), so a fresh z
integrates them in one batch; the readers of one side build only it.  A
caller that reads many z, such as the kernel points of ``kernel_gram``,
takes them in chunks (``boundary.z_chunks``), the bases of each chunk
integrated in one batch, and reads them here.  W left of sigma and the
default V are those fundamental solutions; U_minus, U_plus and the entry
limits behind M(z) are read off those boundary pairs, and the Weyl
coefficient off the left one at the extrapolation nodes.  For a V with
another anchor, U_plus(V) = V.init adj(Phi(V.anchor_t)) U_plus by linearity
(Phi the cached basis, det Phi = 1); an anchor outside the basis's range
raises DomainError, and nothing integrates boundary pairs of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import boundary as bd
from . import solver as sv
from .errors import DomainError
from .hamiltonian import IndefHamiltonianA, build_R, eval_p, symplectic_j

TOL_EIG_REL = 1e-8   # negative-squares threshold relative to the Gram norm

_J = symplectic_j()


@dataclass(frozen=True)
class MonodromyFactorisation:
    """All factors of one assembly at fixed z."""

    z: complex
    u_minus: np.ndarray
    u_plus: np.ndarray
    r: np.ndarray
    v: sv.Solution
    prefactor: np.ndarray        # U^- R^T adj(U^+) / det V.init

    def w(self, t: float) -> np.ndarray:
        return self.prefactor @ self.v.eval(t)


@dataclass(frozen=True)
class KernelSignature:
    grid: tuple
    gram: np.ndarray
    neg_count: int
    min_eig: float


def u_minus(ih: IndefHamiltonianA, z: complex) -> np.ndarray:
    """Boundary-value matrix of the left fundamental solution (det = 1)."""
    return bd.side_basis(ih, "minus", z).matrix


def default_v(ih: IndefHamiltonianA, z: complex) -> sv.Solution:
    """Matrix solution on the right piece anchored to I at s_plus."""
    return bd.side_basis(ih, "plus", z).solution


def u_plus(ih: IndefHamiltonianA, z: complex,
           v: Optional[sv.Solution] = None) -> np.ndarray:
    """Boundary-value matrix of V on the right piece (det = det V).

    The boundary pairs depend on V only through its anchor: the rows of V
    are V.init Phi(V.anchor_t)^(-1) times the rows of the cached basis Phi,
    so U_plus(V) = V.init adj(Phi(V.anchor_t)) U_plus (DomainError for a
    V.anchor_t outside the basis's range).
    """
    z = sv.finite_z(z)
    if v is not None:
        sv.check_nonsingular(v.init, "V on the right piece")
    basis = bd.side_basis(ih, "plus", z)
    if v is None:
        return basis.matrix
    return v.init @ bd.adj(basis.solution.eval(v.anchor_t)) @ basis.matrix


def factorisation(ih: IndefHamiltonianA, z: complex,
                  v: Optional[sv.Solution] = None
                  ) -> MonodromyFactorisation:
    z = sv.finite_z(z)
    bd.side_bases(ih, [z])  # the sides not cached yet, in one batch
    vv = default_v(ih, z) if v is None else v
    um = u_minus(ih, z)
    up = bd.check_det(u_plus(ih, z, v), vv.det_init, "U^+")
    r = build_R(ih, z)
    pre = um @ r.T @ bd.adj(up) / vv.det_init
    return MonodromyFactorisation(z, um, up, r, vv, pre)


def assemble_W(ih: IndefHamiltonianA, z: complex, t: float) -> np.ndarray:
    """The assembled matrix at one point (direct solution left of sigma)."""
    z = sv.finite_z(z)
    if not (ih.s_minus <= t <= ih.s_plus):
        raise DomainError(f"t={t} outside [{ih.s_minus}, {ih.s_plus}]")
    if t < ih.sigma:
        return bd.side_basis(ih, "minus", z).solution.eval(t)
    if t == ih.sigma:
        raise DomainError("the assembled matrix is not defined at sigma itself")
    return factorisation(ih, z).w(t)


def monodromy_matrix(ih: IndefHamiltonianA, z: complex) -> np.ndarray:
    """The assembled matrix at s_plus."""
    return assemble_W(ih, z, ih.s_plus)


# ---------------------------------------------------------------------------
# comparison of discrete parameters and the Weyl coefficient

def m_matrix(ih: IndefHamiltonianA, z: complex) -> np.ndarray:
    """Rank-one matrix of entry limits driving the comparison identity.

    The limits of (w12, w22) of the left solution at sigma are the second
    column of U_minus.
    """
    um = u_minus(ih, z)
    col = um[:, 1]
    row = np.array([um[1, 1], -um[0, 1]], dtype=complex)
    return np.outer(col, row)


def _same_hamiltonian(ih1: IndefHamiltonianA, ih2: IndefHamiltonianA) -> bool:
    if ih1.delta != ih2.delta:
        return False
    for side in ("minus", "plus"):
        a, b = ih1.side(side), ih2.side(side)
        if a.interval != b.interval:
            return False
        ts = np.linspace(*a.interval, 37)[1:-1]
        if not np.allclose(a.matrix(ts), b.matrix(ts), rtol=1e-12, atol=1e-12):
            return False
    return True


def compare_discrete(ih1: IndefHamiltonianA, ih2: IndefHamiltonianA,
                     z: complex, t: float) -> np.ndarray:
    """Residual of W2 - W1 = (p2 - p1) M(z) W1 at one point right of sigma."""
    if not _same_hamiltonian(ih1, ih2):
        raise DomainError("the two problems must share the same Hamiltonian")
    if not (ih1.sigma < t <= ih1.s_plus):
        raise DomainError("comparison only applies right of sigma")
    z = sv.finite_z(z)
    w1 = assemble_W(ih1, z, t)
    w2 = assemble_W(ih2, z, t)
    dp = eval_p(ih2, z) - eval_p(ih1, z)
    return w2 - w1 - dp * m_matrix(ih1, z) @ w1


def weyl_intermediate(ih: IndefHamiltonianA, z: complex) -> complex:
    """Limit of w12/w22 of the left solution at sigma (Im z != 0).

    Extrapolated from w12/w22 of the cached left fundamental solution at
    the extrapolation nodes, on every side alike.
    """
    z = sv.finite_z(z)
    if z.imag == 0.0:
        raise DomainError("the intermediate Weyl coefficient needs Im z != 0")
    h = ih.h_minus
    hs = bd.node_distances(h.length, h.length)
    xs = ih.sigma - hs
    w = bd.side_basis(ih, "minus", z).solution.eval(xs)
    ratio = w[:, 0, 1] / w[:, 1, 1]
    val, err = bd.neville_limit(hs, ratio)
    if err > bd.TOL_LIMIT * max(1.0, abs(val)):
        raise bd.LimitError(f"Weyl coefficient limit did not converge at z={z}",
                            samples=list(zip(xs, ratio)), err_est=err)
    return complex(val)


# ---------------------------------------------------------------------------
# kernel signature

def kernel_grid_fault(points: Sequence[complex]) -> Optional[str]:
    """Why ``points`` cannot be the grid of ``kernel_gram``, or None: it
    is empty, repeats a point, or holds a point and its conjugate (a real
    point is its own)."""
    if not points:
        return "kernel grid is empty"
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i != j and p == q:
                return "kernel grid points must be pairwise distinct"
            if p == q.conjugate():
                return "kernel grid must avoid conjugate pairs (and real points)"
    return None


def kernel_gram(w_fun: Callable[[complex], np.ndarray],
                points: Sequence[complex]) -> KernelSignature:
    """Eigenvalue count of the block Gram matrix of the J-form kernel.

    ``points`` must be pairwise distinct with no point equal to another's
    conjugate (this excludes real points, where the kernel needs the
    difference-quotient limit).  neg_count is a lower bound for the number
    of negative squares of the kernel.  DomainError names the first point
    whose W is not finite, or, when the Gram matrix overflows, the point
    whose W is largest.
    """
    pts = [complex(p) for p in points]
    fault = kernel_grid_fault(pts)
    if fault is not None:
        raise DomainError(fault)
    m = len(pts)
    ws = [np.asarray(w_fun(p), dtype=complex) for p in pts]
    for p, w in zip(pts, ws):
        if not np.isfinite(w).all():
            raise DomainError(f"W at z={p} is not finite: {w.tolist()}")
    gram = np.empty((2 * m, 2 * m), dtype=complex)
    with np.errstate(all="ignore"):  # an overflow is reported below
        for i in range(m):
            for j in range(m):
                block = ((ws[i] @ _J @ ws[j].conj().T - _J)
                         / (pts[i] - np.conj(pts[j])))
                gram[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block
        gram = 0.5 * (gram + gram.conj().T)
    if not np.isfinite(gram).all():
        size = [float(np.abs(w).max()) for w in ws]
        i = int(np.argmax(size))
        raise DomainError(f"the kernel Gram matrix overflows: |W| reaches "
                          f"{size[i]:.3e} at z={pts[i]}")
    eig = np.linalg.eigvalsh(gram)
    scale = float(np.abs(eig).max())
    neg = int(np.sum(eig < -TOL_EIG_REL * max(scale, 1e-300)))
    return KernelSignature(tuple(pts), gram, neg, float(eig.min()))
