"""Assembly of the matrix solution across the singularity.

To the left of sigma the matrix W is the plain fundamental solution.  To the
right it is assembled from the boundary-value matrices of both sides and the
interface matrix R(z):

    W(t, z) = U_minus(z) R(z)^T  U_plus(z)^{-1} V(t, z),

where V is any non-singular matrix solution on the right piece (anchored to
the identity at s_plus by default, which keeps U_plus well conditioned and
makes det V = 1).  The factor U_minus R^T U_plus^{-1} V is invariant under
V -> V C for constant non-singular C.

Also here: the rank-one comparison matrix M(z) tying together assemblies
that differ only in the discrete parameters, the intermediate Weyl
coefficient, and a Gram-matrix estimator for the number of negative squares
of the kernel (W(z) J W(w)* - J)/(z - conj(w)).

Per side and z, the fundamental solution anchored to the identity at the
regular endpoint and the boundary pairs of its rows come from one
integration, cached on the problem under ``("basis", side, z, rtol, atol)``
(:func:`canonsys.boundary.side_basis`; at most ``hamiltonian.PER_Z_CAP``
entries, least recently used evicted first).  W left of sigma and the default
V are those fundamental solutions; U_minus, U_plus of the default V, the entry
limits behind M(z) and the Weyl coefficient are read off those boundary pairs.
Only ``u_plus`` of a V with another anchor integrates boundary pairs itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import boundary as bd
from . import solver as sv
from .errors import ConditioningError, DomainError
from .hamiltonian import IndefHamiltonianA, build_R, eval_p, symplectic_j

PIPE_RTOL = 1e-12
PIPE_ATOL = 1e-12
COND_LIMIT = 1e12
TOL_DET = 1e-9
TOL_EIG_REL = 1e-8   # negative-squares threshold relative to the Gram norm

_J = symplectic_j()


@dataclass(frozen=True)
class MonodromyFactorisation:
    """All factors of one assembly at fixed z."""

    z: complex
    u_minus: np.ndarray
    u_plus: np.ndarray
    r: np.ndarray
    v: sv.MatrixSolution
    prefactor: np.ndarray        # U^- R^T (U^+)^{-1}
    det_report: tuple            # (det u_minus, det u_plus, det v at s_plus)

    def w(self, t: float) -> np.ndarray:
        return self.prefactor @ self.v.eval(t)


@dataclass(frozen=True)
class KernelSignature:
    grid: tuple
    gram: np.ndarray
    neg_count: int
    min_eig: float


def u_minus(ih: IndefHamiltonianA, z: complex,
            rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> np.ndarray:
    """Boundary-value matrix of the left fundamental solution (det = 1)."""
    return bd.side_basis(ih, "minus", z, rtol, atol).matrix


def default_v(ih: IndefHamiltonianA, z: complex,
              rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> sv.MatrixSolution:
    """Matrix solution on the right piece anchored to I at s_plus."""
    return bd.side_basis(ih, "plus", z, rtol, atol).solution


def u_plus(ih: IndefHamiltonianA, z: complex,
           v: Optional[sv.MatrixSolution] = None,
           rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> np.ndarray:
    """Boundary-value matrix of V on the right piece (det = det V).

    The boundary pairs depend on V only through its anchor; a V anchored to
    the identity at s_plus (the default one) reads the cached pairs.
    """
    z = sv.finite_z(z)
    if v is None or (v.t0 == ih.s_plus and np.array_equal(v.init, np.eye(2))):
        return bd.side_basis(ih, "plus", z, rtol, atol).matrix
    if abs(np.linalg.det(v.init)) < 1e-12:
        raise DomainError("V must be non-singular on the right piece")
    pairs = bd.gamma_columns(ih, "plus", z, v.t0, v.init.T,
                             rtol=rtol, atol=atol)
    return np.array([p.vec for p in pairs])


def factorisation(ih: IndefHamiltonianA, z: complex,
                  v: Optional[sv.MatrixSolution] = None,
                  rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL
                  ) -> MonodromyFactorisation:
    z = sv.finite_z(z)
    vv = default_v(ih, z, rtol, atol) if v is None else v
    um = u_minus(ih, z, rtol, atol)
    up = u_plus(ih, z, vv, rtol, atol)
    cond = np.linalg.cond(up)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"U^+ too ill-conditioned to invert (cond={cond:.3e})", matrix=up)
    r = build_R(ih, z)
    pre = um @ r.T @ np.linalg.inv(up)
    dets = (complex(np.linalg.det(um)), complex(np.linalg.det(up)),
            complex(np.linalg.det(vv.eval(ih.s_plus))))
    return MonodromyFactorisation(z, um, up, r, vv, pre, dets)


def assemble_W(ih: IndefHamiltonianA, z: complex, t: float,
               v: Optional[sv.MatrixSolution] = None,
               rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> np.ndarray:
    """The assembled matrix at one point (direct solution left of sigma)."""
    z = sv.finite_z(z)
    if not (ih.s_minus <= t <= ih.s_plus):
        raise DomainError(f"t={t} outside [{ih.s_minus}, {ih.s_plus}]")
    if t < ih.sigma:
        return bd.side_basis(ih, "minus", z, rtol, atol).solution.eval(t)
    if t == ih.sigma:
        raise DomainError("the assembled matrix is not defined at sigma itself")
    fac = factorisation(ih, z, v, rtol, atol)
    return fac.w(t)


def monodromy_matrix(ih: IndefHamiltonianA, z: complex,
                     rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> np.ndarray:
    """The assembled matrix at s_plus."""
    return assemble_W(ih, z, ih.s_plus, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# comparison of discrete parameters and the Weyl coefficient

def m_matrix(ih: IndefHamiltonianA, z: complex,
             rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> np.ndarray:
    """Rank-one matrix of entry limits driving the comparison identity.

    The limits of (w12, w22) of the left solution at sigma are the second
    column of U_minus.
    """
    um = u_minus(ih, z, rtol, atol)
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
                     z: complex, t: float,
                     rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> np.ndarray:
    """Residual of W2 - W1 = (p2 - p1) M(z) W1 at one point right of sigma."""
    if not _same_hamiltonian(ih1, ih2):
        raise DomainError("the two problems must share the same Hamiltonian")
    if not (ih1.sigma < t <= ih1.s_plus):
        raise DomainError("comparison only applies right of sigma")
    z = sv.finite_z(z)
    w1 = assemble_W(ih1, z, t, rtol=rtol, atol=atol)
    w2 = assemble_W(ih2, z, t, rtol=rtol, atol=atol)
    dp = eval_p(ih2, z) - eval_p(ih1, z)
    return w2 - w1 - dp * m_matrix(ih1, z, rtol, atol) @ w1


def weyl_intermediate(ih: IndefHamiltonianA, z: complex,
                      rtol: float = PIPE_RTOL, atol: float = PIPE_ATOL) -> complex:
    """Limit of w12/w22 of the left solution at sigma (Im z != 0).

    Extrapolated from the ratio of the second components sampled with the
    boundary pairs of the left fundamental solution's rows.
    """
    z = sv.finite_z(z)
    if z.imag == 0.0:
        raise DomainError("the intermediate Weyl coefficient needs Im z != 0")
    p12, p22 = bd.side_basis(ih, "minus", z, rtol, atol).pairs
    if not p12.samples:
        # indivisible side: second components are constant up to sigma
        return complex(p12.gamma_r / p22.gamma_r)
    xs = np.array([x for x, _, _ in p12.samples])
    ratio = (np.array([y2 for _, y2, _ in p12.samples])
             / np.array([y2 for _, y2, _ in p22.samples]))
    h = ih.h_minus
    hs = bd.node_distances(h.length, h.length)
    val, err = bd.neville_limit(hs, ratio)
    if err > bd.TOL_LIMIT * max(1.0, abs(val)):
        raise bd.LimitError(f"Weyl coefficient limit did not converge at z={z}",
                            samples=list(zip(xs, ratio)), err_est=err)
    return complex(val)


# ---------------------------------------------------------------------------
# kernel signature

def kernel_gram(w_fun: Callable[[complex], np.ndarray],
                points: Sequence[complex],
                tol_eig_rel: float = TOL_EIG_REL) -> KernelSignature:
    """Eigenvalue count of the block Gram matrix of the J-form kernel.

    ``points`` must be pairwise distinct with no point equal to another's
    conjugate (this excludes real points, where the kernel needs the
    difference-quotient limit).  neg_count is a lower bound for the number
    of negative squares of the kernel.
    """
    pts = [complex(p) for p in points]
    m = len(pts)
    for i in range(m):
        for j in range(m):
            if i != j and pts[i] == pts[j]:
                raise DomainError("kernel grid points must be pairwise distinct")
            if pts[i] == np.conj(pts[j]):
                raise DomainError(
                    "kernel grid must avoid conjugate pairs (and real points)")
    ws = [np.asarray(w_fun(p), dtype=complex) for p in pts]
    gram = np.empty((2 * m, 2 * m), dtype=complex)
    for i in range(m):
        for j in range(m):
            block = (ws[i] @ _J @ ws[j].conj().T - _J) / (pts[i] - np.conj(pts[j]))
            gram[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block
    gram = 0.5 * (gram + gram.conj().T)
    eig = np.linalg.eigvalsh(gram)
    scale = float(np.abs(eig).max()) if eig.size else 0.0
    neg = int(np.sum(eig < -tol_eig_rel * max(scale, 1e-300)))
    return KernelSignature(tuple(pts), gram, neg, float(eig.min()))
