"""Regularised boundary values at the inner singularity.

The second solution component has a plain limit at sigma; the first is
replaced by the weighted functional S(x) = sum_{n<=Delta} z^n w_n(x)^T J y(x)
minus a correction proportional to that limit.  S is accumulated from its
derivative -z^(Delta+1) w_Delta^T H y by the solver's panel quadrature, with
w_Delta evaluated at the collocation nodes (see :mod:`canonsys.solver`), and
both quantities are extrapolated to sigma by a Neville tableau on the
geometric nodes x_k = sigma -+ eps0 * 2^-k, Ridders-style: the tableau entry
with the smallest self-consistency error wins and that error is reported.

On an indivisible side no limits are needed: the boundary value is plain
endpoint evaluation at the regular end (exact, by the closed form of
solutions there).

Per side and z, two results are computed once and kept in the problem's
cache (``IndefHamiltonianA.memo``): ``basis_solution``, the fundamental
solution anchored to the identity at the regular endpoint, under the key
``("fundamental", side, z, rtol, atol)``, and ``basis_boundary``, the
boundary pairs of its two rows, under ``("boundary", side, z, rtol, atol)``.
Shooting (``solve_from_gamma``) and the assembly in
:mod:`canonsys.monodromy` read both from there.  The cache keeps at most
``hamiltonian.PER_Z_CAP`` such entries (32 z with both kinds on both
sides), least recently used evicted first.  ``gamma_columns`` and
``gamma_vec`` with other anchors always integrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _chebpanels as cp
from . import solver as sv
from . import wpoly as wp
from .errors import ConditioningError, DomainError, LimitError
from .hamiltonian import IndefHamiltonianA, Side, build_R

EPS0_FRAC = 0.1      # first extrapolation node distance, relative to side length
K_NODES = 20         # geometric halvings of the node distance
TOL_LIMIT = 1e-6     # err_est above this (relative) raises LimitError
GAMMA_RTOL = 1e-12   # internal integrations run tighter than the public solver
GAMMA_ATOL = 1e-12
COND_LIMIT = 1e12


@dataclass(frozen=True)
class RegularisedBoundary:
    """Boundary pair of one solution on one side: (gamma_s, gamma_r)."""

    side: Side
    z: complex
    gamma_s: complex
    gamma_r: complex
    err_est: float
    samples: tuple  # (x_k, second component, regularised functional) triples

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.gamma_s, self.gamma_r], dtype=complex)


def neville_limit(hs, vals):
    """Extrapolate vals(h) to h = 0; returns (value, err_est).

    Polynomial extrapolation through (h_k, val_k) evaluated at zero, tracking
    the entry with the smallest Ridders error (max difference to its two
    parents) and aborting a row once errors grow well past the best seen.
    """
    hs = np.asarray(hs, dtype=np.float64)
    vals = [complex(v) for v in vals]
    n = len(vals)
    best = vals[0]
    best_err = abs(vals[1] - vals[0]) if n > 1 else 0.0
    prev = list(vals)
    first_col = None
    for m in range(1, n):
        cur = []
        row_best = np.inf
        for i in range(n - m):
            denom = hs[i] - hs[i + m]
            val = (hs[i] * prev[i + 1] - hs[i + m] * prev[i]) / denom
            err = max(abs(val - prev[i + 1]), abs(val - prev[i]))
            cur.append(val)
            row_best = min(row_best, err)
            if err < best_err:
                best_err = err
                best = val
        if m == 1:
            first_col = cur
        if row_best > 8.0 * best_err and m > 2:
            break
        prev = cur
    if first_col is not None and len(first_col) >= 4:
        # scatter of the deepest linear extrapolants: ~0 for smooth
        # sequences, ~ the sample noise when that dominates; keeps err_est
        # honest when tableau entries agree by chance
        tail = np.abs(np.diff(np.asarray(first_col[-4:])))
        best_err = max(best_err, 0.5 * float(np.median(tail)))
    return best, float(best_err)


def node_distances(length: float, span: float, eps0: Optional[float] = None,
                   k_nodes: int = K_NODES) -> np.ndarray:
    """Distances of the extrapolation nodes to sigma, largest first."""
    e0 = min(EPS0_FRAC * length if eps0 is None else float(eps0), 0.5 * span)
    return e0 * 0.5 ** np.arange(k_nodes + 1)


def _correction_values(ih: IndefHamiltonianA, side: Side, z: complex,
                       w_funcs, xs: np.ndarray) -> np.ndarray:
    """sum over n <= Delta-1, Delta+1 <= j <= 2 Delta - n of z^(n+j) w_n^T J w_j."""
    delta = ih.delta
    out = np.zeros(len(xs), dtype=complex)
    diagonal = ih.side(side).is_diagonal
    for n in range(0, delta):
        for j in range(delta + 1, 2 * delta - n + 1):
            if j >= len(w_funcs):
                if diagonal and n % 2 == j % 2:
                    continue  # pairs of equal parity vanish identically
                raise DomainError(
                    f"w-family too short: need index {j} for the boundary sum")
            if diagonal and n % 2 == j % 2:
                continue
            out += z ** (n + j) * w_funcs[n].j_pair(w_funcs[j], xs)
    return out


def _initial_functional(z, w_funcs, delta, t_a, y_cols):
    """S(t_a) per column: sum_n z^n w_n(t_a)^T J y."""
    out = np.zeros(y_cols.shape[1], dtype=complex)
    for n in range(delta + 1):
        w = w_funcs[n](t_a)
        out += z ** n * (w[0] * (-y_cols[1, :]) + w[1] * y_cols[0, :])
    return out


def gamma_columns(ih: IndefHamiltonianA, side: Side, z: complex,
                  t_anchor: float, y_cols, w_funcs=None,
                  eps0: Optional[float] = None, k_nodes: int = K_NODES,
                  rtol: float = GAMMA_RTOL, atol: float = GAMMA_ATOL,
                  tol_limit: float = TOL_LIMIT):
    """Boundary pairs of the solutions with given values at the anchor.

    ``y_cols`` is a (2, m) matrix whose columns anchor m solutions at
    ``t_anchor``; all m are solved together with their regularised
    functionals.  Returns a list of m RegularisedBoundary objects.
    """
    h = ih.side(side)
    z = sv.finite_z(z)
    y_cols = np.asarray(y_cols, dtype=np.complex128).reshape(2, -1)
    m = y_cols.shape[1]
    rep = ih.indivisible(side)
    reg = h.regular_endpoint(side)
    sing = ih.sigma

    if rep is not None and rep.is_indivisible:
        # endpoint evaluation is exact there; move the anchor value to reg
        if abs(t_anchor - reg) > 1e-12 * (h.length + 1.0):
            samp = _indivisible_transport(ih, side, z, t_anchor, y_cols)
        else:
            samp = y_cols
        return [RegularisedBoundary(side, z, complex(samp[0, i]),
                                    complex(samp[1, i]), 0.0, ())
                for i in range(m)]

    if w_funcs is None:
        w_funcs = wp.w_family_for(ih, side)
    delta = ih.delta
    span = abs(t_anchor - sing)
    if span <= 0:
        raise DomainError("anchor coincides with the singularity")
    hs = node_distances(h.length, span, eps0, k_nodes)
    direction = 1.0 if sing > t_anchor else -1.0
    xs = sing - direction * hs
    t_end = float(xs[-1])

    state0 = np.concatenate([y_cols.T.reshape(-1),
                             _initial_functional(z, w_funcs, delta, t_anchor, y_cols)])
    dense = sv.integrate_dense(h, z, t_anchor, state0, [t_end], ncols=m,
                               wd=w_funcs[delta], zdelta=z ** (delta + 1),
                               rtol=rtol, atol=atol, sing=sing)
    states = dense.eval_state(xs)                      # (k+1, 3m)
    corr = _correction_values(ih, side, z, w_funcs, xs)
    out = []
    for i in range(m):
        y2 = states[:, 2 * i + 1]
        s_vals = states[:, 2 * m + i]
        gr, err_r = neville_limit(hs, y2)
        g_vals = s_vals - gr * corr
        gs, err_s = neville_limit(hs, g_vals)
        err = max(err_r, err_s)
        scale = max(1.0, abs(gs), abs(gr))
        if not np.isfinite(err) or err > tol_limit * scale:
            raise LimitError(
                f"boundary limit did not converge on side {side} at z={z} "
                f"(err_est={err:.3e})",
                samples=list(zip(xs, y2, g_vals)), err_est=err)
        out.append(RegularisedBoundary(side, z, complex(gs), complex(gr),
                                       float(err),
                                       tuple(zip(xs.tolist(), y2, g_vals))))
    return out


def _indivisible_transport(ih, side, z, t_from, y_cols):
    """Values at the regular endpoint of solutions known at t_from.

    On an indivisible side of type pi/2 the closed form moves values along:
    second components are constant, first ones shift by -z y2 int h2.
    """
    h = ih.side(side)
    breaks = h.panels(side)
    a2 = cp.cumulative_from_start(h.h2, breaks)  # int_reg^t h2
    out = y_cols.copy()
    out[0, :] = y_cols[0, :] + z * y_cols[1, :] * float(a2(t_from))
    return out


def _anchor_of(fhat, ih: IndefHamiltonianA, side: Side):
    h = ih.side(side)
    reg = h.regular_endpoint(side)
    sing = ih.sigma
    t_a, _ = fhat.anchor
    if abs(t_a - sing) < 0.25 * h.length:
        lo, hi = fhat.interval
        if lo - 1e-12 <= reg <= hi + 1e-12:
            t_a = reg
    return float(t_a), np.asarray(fhat.eval(t_a), dtype=np.complex128)


def gamma_vec(fhat, ih: IndefHamiltonianA, side: Side, w_funcs=None,
              **opts) -> RegularisedBoundary:
    """Stacked boundary pair (gamma_s, gamma_r) of one solution sampler."""
    t_a, y_a = _anchor_of(fhat, ih, side)
    return gamma_columns(ih, side, fhat.z, t_a, y_a.reshape(2, 1),
                         w_funcs=w_funcs, **opts)[0]


def gamma_r(fhat, ih: IndefHamiltonianA, side: Side, **opts):
    """Limit of the second solution component at sigma, with err estimate."""
    rb = gamma_vec(fhat, ih, side, **opts)
    return rb.gamma_r, rb.err_est


def gamma_s(fhat, ih: IndefHamiltonianA, side: Side, w_funcs=None, **opts):
    """Limit of the regularised first-component functional, with err estimate."""
    rb = gamma_vec(fhat, ih, side, w_funcs=w_funcs, **opts)
    return rb.gamma_s, rb.err_est


def basis_solution(ih: IndefHamiltonianA, side: Side, z: complex,
                   rtol: float = GAMMA_RTOL,
                   atol: float = GAMMA_ATOL) -> sv.MatrixSolution:
    """Fundamental solution of one side, identity at its regular endpoint.

    Computed once per (side, z, rtol, atol) and cached on the problem.
    """
    z = sv.finite_z(z)
    h = ih.side(side)
    return ih.memo(("fundamental", side, z, rtol, atol),
                   lambda: sv.fundamental(h, z, init=np.eye(2),
                                          t0=h.regular_endpoint(side),
                                          side=side, rtol=rtol, atol=atol))


def basis_boundary(ih: IndefHamiltonianA, side: Side, z: complex,
                   rtol: float = GAMMA_RTOL, atol: float = GAMMA_ATOL):
    """Boundary pairs of the rows of ``basis_solution``, with their samples.

    A tuple of two RegularisedBoundary, computed once per
    (side, z, rtol, atol) and cached on the problem.
    """
    z = sv.finite_z(z)
    reg = ih.side(side).regular_endpoint(side)
    return ih.memo(("boundary", side, z, rtol, atol),
                   lambda: tuple(gamma_columns(ih, side, z, reg, np.eye(2),
                                               rtol=rtol, atol=atol)))


def solve_from_gamma(ih: IndefHamiltonianA, side: Side, z: complex, c,
                     rtol: float = GAMMA_RTOL, atol: float = GAMMA_ATOL):
    """The unique solution whose boundary pair equals c (shooting).

    The basis solutions anchored at the regular endpoint and their boundary
    pairs depend only on (side, z) and come from the problem's cache; the
    2x2 system they form is solved for the coefficients.  A singular basis
    matrix would contradict bijectivity of the boundary map and raises
    instead.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (2,):
        raise DomainError("c must be a 2-vector")
    h = ih.side(side)
    z = sv.finite_z(z)
    reg = h.regular_endpoint(side)
    rep = ih.indivisible(side)
    if rep is not None and rep.is_indivisible:
        breaks = h.panels(side)
        a2 = cp.cumulative_from_start(h.h2, breaks)

        def fn(t, c=c):
            return np.array([c[0] - z * c[1] * a2(t), c[1]], dtype=complex)

        return sv.ClosedFormSampler(fn, z, h, h.interval, reg)

    basis = basis_solution(ih, side, z, rtol, atol)
    cols = [basis.row_sampler(0), basis.row_sampler(1)]
    pairs = basis_boundary(ih, side, z, rtol, atol)
    g = np.column_stack([p.vec for p in pairs])
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"boundary matrix of the basis is numerically singular "
            f"(cond={cond:.3e}), contradicting bijectivity", matrix=g)
    coeffs = np.linalg.solve(g, c)
    return sv.CombinedSampler(coeffs, cols)


def interface_residual(ih: IndefHamiltonianA, fhat_minus, fhat_plus,
                       z: complex) -> np.ndarray:
    """Gamma_plus(f+) - R(z) Gamma_minus(f-); small iff the pair matches."""
    gm = gamma_vec(fhat_minus, ih, "minus")
    gp = gamma_vec(fhat_plus, ih, "plus")
    return gp.vec - build_R(ih, z) @ gm.vec
