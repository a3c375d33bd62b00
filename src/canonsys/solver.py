"""Adaptive integration of the canonical system at fixed complex z.

The vector equation is y' = z J H(t) y; the matrix form is solved for
Y = W^T column-wise (the transposes of the rows of W solve the vector
equation), so one kernel covers both.  Dense output comes from the quartic
interpolant of the embedded Dormand-Prince pair; integrations never step into
the singular endpoint, they stop at a configurable cutoff.

An internal augmented channel integrates the regularised boundary functional
S = sum_n z^n w_n(t)^T J y(t) alongside y; module :mod:`canonsys.boundary`
extrapolates it to the singularity.  Forming S from y after the fact would
cancel catastrophically, integrating it does not.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

import numpy as np

from . import _chebpanels as cp
from . import _kernels as _k
from .errors import (DomainError, EvaluationError, IntegrationError,
                     SingularityProximityError)
from .hamiltonian import Hamiltonian, Side, symplectic_j

RK_RTOL = 1e-10
RK_ATOL = 1e-10
EPS_CUT_FRAC = 1e-6   # default cutoff distance to sigma, relative to length
MAX_STEPS = 30000
DET_TOL = 1e-9        # |det W - det init| <= DET_TOL * (1+|z|) * length

_J = symplectic_j()


def finite_z(z) -> complex:
    """``z`` as a complex number; DomainError when it is not finite.

    Checked before any integration or cache lookup: a NaN never equals
    itself, so it would miss every cache entry and add a new one.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z={z} is not finite")
    return z


def _pack_entries(h: Hamiltonian):
    return (h.h1.breaks, h.h1.kinds, h.h1.params,
            h.h2.breaks, h.h2.kinds, h.h2.params,
            h.h3.breaks, h.h3.kinds, h.h3.params)


_EMPTY_WD = (np.zeros(2), np.zeros((1, 2)), np.zeros((1, 2)))


def pack_wfunction(w, breaks) -> tuple:
    """(breaks, c1, c2) arrays for the kernel's evaluation of one w_n."""
    comps = []
    for comp in (w.comp1, w.comp2):
        if isinstance(comp, cp.PanelFunction):
            pb, pc = comp.packed()
            comps.append((pb, pc))
        else:
            pf = cp.materialize(lambda ts, c=comp: np.broadcast_to(
                np.asarray(c(ts), dtype=np.float64), np.shape(ts)), breaks)
            comps.append(pf.packed())
    (b1, c1), (b2, c2) = comps
    if len(b1) != len(b2) or not np.allclose(b1, b2):
        # re-fit the narrower one onto the common chain
        base = b1 if len(b1) >= len(b2) else b2
        return pack_wfunction(
            type(w)(w.side, w.index, w.omega,
                    cp.PanelFunction(b1, c1) if not np.array_equal(b1, base) else w.comp1,
                    cp.PanelFunction(b2, c2) if not np.array_equal(b2, base) else w.comp2),
            base)
    return b1, np.ascontiguousarray(c1), np.ascontiguousarray(c2)


class _Segment:
    """Accepted steps of one kernel run with vectorised dense evaluation."""

    __slots__ = ("ts", "ys", "qs", "edges", "order", "lo", "hi")

    def __init__(self, ts, ys, qs):
        self.ts = ts
        self.ys = ys
        self.qs = qs
        n = len(ts) - 1
        if n <= 0 or ts[-1] >= ts[0]:
            self.edges = ts
            self.order = np.arange(max(n, 0))
        else:
            self.edges = ts[::-1]
            self.order = np.arange(n)[::-1]
        self.lo = float(self.edges[0])
        self.hi = float(self.edges[-1])

    def eval(self, tq):
        tq = np.asarray(tq, dtype=np.float64)
        if len(self.ts) == 1:
            return np.broadcast_to(self.ys[0], tq.shape + self.ys[0].shape).copy()
        k_asc = np.clip(np.searchsorted(self.edges, tq, side="right") - 1,
                        0, len(self.order) - 1)
        k = self.order[k_asc]
        t_old = self.ts[k]
        h = self.ts[k + 1] - self.ts[k]
        x = (tq - t_old) / h
        xp = x[..., None] ** np.arange(1, 5)
        return self.ys[k] + h[..., None] * np.einsum("...ij,...j->...i",
                                                     self.qs[k], xp)


class DenseSolution:
    """Dense output over one or two segments sharing the anchor point."""

    def __init__(self, segments, z, h, anchor_t, anchor_y):
        self.segments = [s for s in segments if s is not None]
        self.z = z
        self.h = h
        self.anchor_t = anchor_t
        self.anchor_y = anchor_y
        self.lo = min(s.lo for s in self.segments)
        self.hi = max(s.hi for s in self.segments)

    def covers(self, a, b, slack=1e-12):
        pad = slack * (self.hi - self.lo + 1.0)
        return self.lo - pad <= a and b <= self.hi + pad

    def eval_state(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        dim = self.segments[0].ys.shape[1]
        out = np.empty(ts.shape + (dim,), dtype=np.complex128)
        done = np.zeros(ts.shape, dtype=bool)
        for seg in self.segments:
            pad = 1e-12 * (abs(seg.hi) + abs(seg.lo) + 1.0)
            m = (~done) & (ts >= seg.lo - pad) & (ts <= seg.hi + pad)
            if np.any(m):
                out[m] = seg.eval(np.clip(ts[m], seg.lo, seg.hi))
                done[m] = True
        if not np.all(done):
            bad = ts[~done]
            raise DomainError(f"evaluation outside the integrated range: {bad[:3]}")
        return out


class SolutionSampler:
    """Evaluable solution t -> C^2 of the canonical system at fixed z."""

    def __init__(self, dense: DenseSolution, column: int = 0, tol=(RK_RTOL, RK_ATOL)):
        self._dense = dense
        self._col = column
        self.z = dense.z
        self.h = dense.h
        self.tol = tol
        self.anchor = (dense.anchor_t,
                       dense.anchor_y[2 * column:2 * column + 2].copy())
        self.interval = (dense.lo, dense.hi)

    def eval(self, ts):
        st = self._dense.eval_state(ts)
        out = st[..., 2 * self._col:2 * self._col + 2]
        return out[0] if np.ndim(ts) == 0 else out

    __call__ = eval


class CombinedSampler:
    """Linear combination of samplers solving the same system at the same z."""

    def __init__(self, coeffs, samplers):
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self.samplers = list(samplers)
        self.z = self.samplers[0].z
        self.h = self.samplers[0].h
        s0 = self.samplers[0]
        self.anchor = (s0.anchor[0],
                       sum(c * s.eval(s0.anchor[0])
                           for c, s in zip(self.coeffs, self.samplers)))
        self.interval = s0.interval

    def eval(self, ts):
        acc = self.coeffs[0] * self.samplers[0].eval(ts)
        for c, s in zip(self.coeffs[1:], self.samplers[1:]):
            acc = acc + c * s.eval(ts)
        return acc

    __call__ = eval


class ClosedFormSampler:
    """Wrap an explicit solution formula in the sampler interface."""

    def __init__(self, fn, z, h, interval, anchor_t):
        self._fn = fn
        self.z = z
        self.h = h
        self.interval = interval
        self.anchor = (anchor_t, np.asarray(fn(anchor_t), dtype=np.complex128))

    def eval(self, ts):
        ts_arr = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        out = np.stack([np.asarray(self._fn(t), dtype=np.complex128)
                        for t in ts_arr])
        return out[0] if np.ndim(ts) == 0 else out

    __call__ = eval


def _raise_for_status(status, t_reached, context):
    if status == _k.OK:
        return
    if status == _k.STEP_UNDERFLOW:
        raise SingularityProximityError(
            f"{context}: step size underflow at t={t_reached}", t_reached)
    if status == _k.MAX_STEPS:
        raise IntegrationError(f"{context}: step budget exhausted at t={t_reached}")
    raise IntegrationError(
        f"{context}: repeated step rejections near t={t_reached} "
        f"(non-finite Hamiltonian entries or blow-up)")


def _run(h, z, t0, t1, state0, ncols, wd, zdelta, rtol, atol, max_steps):
    use_aux = wd is not None
    wb, wc1, wc2 = wd if use_aux else _EMPTY_WD
    status, nacc, ts, ys, qs, t_reached = _k.rk45_integrate(
        *_pack_entries(h), wb, wc1, wc2, use_aux, complex(zdelta),
        complex(z), float(t0), float(t1),
        np.ascontiguousarray(state0, dtype=np.complex128), ncols,
        float(rtol), float(atol), int(max_steps))
    _raise_for_status(status, t_reached, f"integration on [{t0}, {t1}] at z={z}")
    return _Segment(ts[:nacc + 1].copy(), ys[:nacc + 1].copy(), qs[:nacc].copy())


def integrate_dense(h: Hamiltonian, z: complex, t0: float, state0,
                    targets: Sequence[float], ncols: int = 1,
                    wd=None, zdelta=0j, rtol=RK_RTOL, atol=RK_ATOL,
                    max_steps=MAX_STEPS) -> DenseSolution:
    """Integrate from t0 toward each target (at most one per direction)."""
    state0 = np.asarray(state0, dtype=np.complex128)
    segs = []
    for t1 in targets:
        if t1 == t0:
            continue
        segs.append(_run(h, z, t0, t1, state0, ncols, wd, zdelta,
                         rtol, atol, max_steps))
    if not segs:
        segs = [_Segment(np.array([t0]), state0[None, :].copy(),
                         np.zeros((0, len(state0), 4), np.complex128))]
    return DenseSolution(segs, z, h, t0, state0)


def _targets_for(h: Hamiltonian, t0: float, side: Optional[Side],
                 cutoff: Optional[float]):
    lo, hi = h.interval
    if side is None:
        return [t for t in (lo, hi) if t != t0]
    sing = h.singular_endpoint(side)
    reg = h.regular_endpoint(side)
    eps_cut = EPS_CUT_FRAC * h.length if cutoff is None else float(cutoff)
    stop = sing - math.copysign(eps_cut, sing - reg)
    return [t for t in (reg, stop) if t != t0]


def solve_row(h: Hamiltonian, z: complex, t0: float, y0,
              side: Optional[Side] = None, cutoff: Optional[float] = None,
              rtol: float = RK_RTOL, atol: float = RK_ATOL) -> SolutionSampler:
    """Solution of y' = z J H y with y(t0) = y0, dense over the side.

    ``side`` marks which endpoint is singular ("minus": the right one,
    "plus": the left one); integration stops at ``cutoff`` before it
    (default 1e-6 of the interval length).  Without a side both endpoints are
    treated as regular and the whole closed interval is covered.
    """
    z = finite_z(z)
    lo, hi = h.interval
    if not (lo <= t0 <= hi):
        raise DomainError(f"t0={t0} outside [{lo}, {hi}]")
    y0 = np.asarray(y0, dtype=np.complex128)
    if y0.shape != (2,):
        raise DomainError("y0 must be a 2-vector")
    dense = integrate_dense(h, z, t0, y0, _targets_for(h, t0, side, cutoff),
                            ncols=1, rtol=rtol, atol=atol)
    return SolutionSampler(dense, 0, (rtol, atol))


class MatrixSolution:
    """W(t, z) with the transposes of its rows solving the vector system."""

    def __init__(self, dense: DenseSolution, init, t0):
        self._dense = dense
        self.z = dense.z
        self.h = dense.h
        self.t0 = t0
        self.init = np.asarray(init, dtype=np.complex128)
        self.det_init = complex(np.linalg.det(self.init))
        self.interval = (dense.lo, dense.hi)

    def eval(self, ts):
        st = self._dense.eval_state(ts)
        # state is Y = W^T column-stacked, i.e. the row-major entries of W
        w = st[..., :4].reshape(st.shape[:-1] + (2, 2))
        return w[0] if np.ndim(ts) == 0 else w

    __call__ = eval

    def row_sampler(self, i: int) -> SolutionSampler:
        """Transposed i-th row of W as a vector solution sampler."""
        return SolutionSampler(self._dense, i, (RK_RTOL, RK_ATOL))

    def det_error(self, raw: bool = False) -> float:
        """max |det W - det init| over the accepted grid.

        Near a singular endpoint the entries grow like the inverse distance
        and the determinant's two products cancel below what float64 can
        resolve; unless ``raw`` is set, nodes whose deviation sits inside
        that representation floor (16 eps times the product magnitudes) are
        reported as zero, so the result measures genuine integrator drift.
        """
        eps = np.finfo(np.float64).eps
        worst = 0.0
        for seg in self._dense.segments:
            y = seg.ys[:, :4].reshape(-1, 2, 2)
            det = y[:, 0, 0] * y[:, 1, 1] - y[:, 0, 1] * y[:, 1, 0]
            err = np.abs(det - self.det_init)
            if not raw:
                floor = 16.0 * eps * (np.abs(y[:, 0, 0] * y[:, 1, 1])
                                      + np.abs(y[:, 0, 1] * y[:, 1, 0]))
                err = np.where(err <= floor, 0.0, err)
            worst = max(worst, float(err.max()))
        return worst


def fundamental(h: Hamiltonian, z: complex, t_grid=None, init=None,
                t0: Optional[float] = None, side: Optional[Side] = None,
                cutoff: Optional[float] = None, rtol: float = RK_RTOL,
                atol: float = RK_ATOL) -> MatrixSolution:
    """Matrix solution with W(t0) = init (identity at the left endpoint by
    default); ``t_grid`` is validated to lie inside the covered range."""
    z = finite_z(z)
    lo, hi = h.interval
    if t0 is None:
        t0 = lo if side in (None, "minus") else hi
    if init is None:
        init = np.eye(2, dtype=np.complex128)
    init = np.asarray(init, dtype=np.complex128)
    if abs(np.linalg.det(init)) < 1e-14:
        raise DomainError("init must be non-singular")
    state0 = init.reshape(-1)  # row-major entries of W = column-stacked W^T
    dense = integrate_dense(h, z, t0, state0, _targets_for(h, t0, side, cutoff),
                            ncols=2, rtol=rtol, atol=atol)
    sol = MatrixSolution(dense, init, t0)
    if t_grid is not None:
        for t in np.atleast_1d(t_grid):
            if not dense.covers(t, t):
                raise DomainError(f"t={t} outside the integrated range "
                                  f"[{dense.lo}, {dense.hi}]")
    return sol


def greens_residual(u, f, x1: float, x2: float, n_panels: int = 24) -> complex:
    """Defect of the bilinear identity tying two solutions at parameters w, z.

    Returns (z - conj(w)) * int_{x1}^{x2} u^* H f  minus the boundary pairing
    u(x1)^* J f(x1) - u(x2)^* J f(x2); the magnitude bounds the structural
    error of the integrator and the quadrature.
    """
    if x2 <= x1:
        raise DomainError("need x1 < x2")
    for s in (u, f):
        lo, hi = s.interval
        if not (lo - 1e-12 <= x1 and x2 <= hi + 1e-12):
            raise DomainError(
                f"sampler covers [{lo}, {hi}], requested [{x1}, {x2}]")
    if u.h is not f.h:
        raise DomainError("samplers solve different Hamiltonians")
    h = u.h
    z = f.z
    w = u.z

    def integrand(ts):
        uu = u.eval(ts)
        ff = f.eval(ts)
        m = h.matrix(ts)
        hf1 = m[:, 0, 0] * ff[:, 0] + m[:, 0, 1] * ff[:, 1]
        hf2 = m[:, 1, 0] * ff[:, 0] + m[:, 1, 1] * ff[:, 1]
        return np.conj(uu[:, 0]) * hf1 + np.conj(uu[:, 1]) * hf2

    inner = np.unique(np.concatenate([
        [x1, x2], h.inner_breaks()[(h.inner_breaks() > x1) & (h.inner_breaks() < x2)]]))
    total = 0j
    for a, b in zip(inner[:-1], inner[1:]):
        total += cp.panel_quad_complex(integrand, a, b, n_panels)
    u1 = u.eval(x1)
    u2 = u.eval(x2)
    f1 = f.eval(x1)
    f2 = f.eval(x2)
    boundary = (np.conj(u1) @ _J @ f1) - (np.conj(u2) @ _J @ f2)
    return (z - np.conj(w)) * total - boundary
