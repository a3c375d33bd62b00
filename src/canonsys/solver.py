"""Integration of the canonical system at fixed complex z.

The vector equation is y' = z J H(t) y; the matrix form is solved for
Y = W^T column-wise (the transposes of the rows of W solve the vector
equation), so one path covers both.  It is solved by Chebyshev-panel
collocation (spectral integration): on each panel the Volterra form
Y = y_a + z Q (J H Y), with Q the cumulative-integration matrix at the
DEGREE + 1 first-kind Chebyshev nodes, gives a 2x2 propagator basis; all
panels are solved in one batched linear solve and chained by 2x2 products.
The nodes are interior, so H is never evaluated at a panel end, and
integrations stop at a configurable cutoff before a singular endpoint,
toward which the panels are halved geometrically.  A panel is split while
the trailing Chebyshev coefficients of its basis exceed rtol, or the noise
floor of its float nodes, times the basis's overall size; the number of
splits is bounded (``MAX_SPLITS``).
Dense output evaluates each panel's Chebyshev series.

The regularised boundary functional S = sum_n z^n w_n(t)^T J y(t) used by
module :mod:`canonsys.boundary` is obtained from its derivative
-z^(Delta+1) w_Delta^T H y, known at the nodes once y is, by the same
cumulative integration.  Forming S from y pointwise would cancel
catastrophically, integrating its derivative does not.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

import numpy as np

from . import _chebpanels as cp
from .errors import DomainError, IntegrationError, SingularityProximityError
from .hamiltonian import Hamiltonian, Side, symplectic_j

RK_RTOL = 1e-10
RK_ATOL = 1e-10
EPS_CUT_FRAC = 1e-6   # default cutoff distance to sigma, relative to length
MAX_SPLITS = 2000     # panel splits per integration before IntegrationError
TAIL_COEFS = 3        # trailing Chebyshev coefficients in the resolution test

_EPS = np.finfo(np.float64).eps
_TOL_FLOOR = 64.0 * _EPS     # below this rtol is rounding noise
_NODE_NOISE = 1e-2           # tail noise per relative node displacement
_WIDTH_FLOOR = 64.0 * _EPS   # narrowest panel, relative to |t|

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


class PanelChain(cp.PanelFunction):
    """One integration as Chebyshev series on a chain of panels.

    ``ts`` (``breaks``) holds the panel breaks in integration order, ``ys``
    the state at every collocation node, panel after panel, and ``coefs``
    per panel the DEGREE + 2 Chebyshev coefficients of the state.
    """

    __slots__ = ("ys", "lo", "hi")

    def __init__(self, breaks, ys, coefs):
        super().__init__(breaks, coefs)
        self.ys = ys
        self.lo = float(min(breaks[0], breaks[-1]))
        self.hi = float(max(breaks[0], breaks[-1]))

    @property
    def ts(self):
        return self.breaks

    eval = cp.PanelFunction.__call__


class DenseSolution:
    """Dense output over one or two segments sharing the anchor point."""

    def __init__(self, segments, z, h, anchor_t, anchor_y):
        self.segments = list(segments)
        self.z = z
        self.h = h
        self.anchor_t = anchor_t
        self.anchor_y = anchor_y
        self.lo = min(s.lo for s in self.segments)
        self.hi = max(s.hi for s in self.segments)

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

    def __init__(self, dense: DenseSolution, column: int = 0):
        self._dense = dense
        self._col = column
        self.z = dense.z
        self.h = dense.h
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


def _initial_breaks(h: Hamiltonian, t0: float, t1: float,
                    sing: Optional[float]) -> np.ndarray:
    """Breaks from t0 to t1: the Hamiltonian's inner breaks, and geometric
    halvings toward ``sing`` when t1 is its cutoff (closer to it than t0)."""
    direction = 1.0 if t1 > t0 else -1.0
    pts = [t for t in h.inner_breaks()
           if direction * (t - t0) > 0.0 and direction * (t1 - t) > 0.0]
    if sing is not None and abs(sing - t1) < abs(sing - t0):
        cut = abs(sing - t1)
        floor = max(1.5 * cut, _WIDTH_FLOOR * max(1.0, abs(sing)))
        d = 0.5 * abs(sing - t0)
        while d > floor:
            pts.append(sing - direction * d)
            d *= 0.5
    gap = _WIDTH_FLOOR * max(1.0, abs(t0), abs(t1))
    out = [t0]
    for t in sorted(pts, key=lambda t: direction * t):
        if abs(t - out[-1]) > gap and abs(t1 - t) > gap:
            out.append(t)
    return np.array(out + [t1])


def _panel_bases(z: complex, a: np.ndarray, b: np.ndarray, hm: np.ndarray):
    """Collocation solve of Y = y_a + z Q (J H Y) on every panel [a_k, b_k].

    ``hm`` is H at the panels' nodes, (P, n, 2, 2).  Returns the propagator
    basis ``phi`` (P, n, 2, 2), the node values for start values e1, e2 as
    columns, and the integrand ``z J H phi`` at the nodes.
    """
    n = cp.DEGREE + 1
    jh = _J @ hm
    zq = (0.5 * z * (b - a))[:, None, None] * cp.CUMINT
    # rows (i, c), columns (j, d): delta - z hw Q_ij (J H_j)_cd
    m = -(zq[:, :, None, :, None] * jh.transpose(0, 2, 1, 3)[:, None])
    m = m.reshape(len(a), 2 * n, 2 * n) + np.eye(2 * n)
    with np.errstate(all="ignore"):
        phi = np.linalg.solve(m, np.tile(np.eye(2), (n, 1))).reshape(hm.shape)
        return phi, z * (jh @ phi)


def _resolved(a, b, phi, rtol, atol):
    """Per panel: do the trailing Chebyshev coefficients of the basis sit
    below the tolerance times its overall size (all components and columns)?

    The tolerance is rtol, raised to the panel's noise floor: its nodes are
    floats, off their ideal positions by up to eps |t| relative to the panel
    width, which no split lowers below ``_NODE_NOISE`` times that.
    """
    c = np.abs(np.einsum("kj,pjab->pkab", cp._VALS_TO_COEFS, phi))
    scale = c.reshape(len(c), -1).max(axis=1)
    tail = c[:, -TAIL_COEFS:].reshape(len(c), -1).max(axis=1)
    noise = _NODE_NOISE * _EPS * np.maximum(np.abs(a), np.abs(b)) / np.abs(b - a)
    with np.errstate(over="ignore"):  # a bound that overflows accepts
        return tail <= np.maximum(max(rtol, _TOL_FLOOR), noise) * scale + atol


def _collocate(h, z, t0, t1, state0, ncols, wd, zdelta, rtol, atol, sing):
    """One direction of ``integrate_dense`` as a PanelChain."""
    context = f"integration on [{t0}, {t1}] at z={z}"
    direction = 1.0 if t1 > t0 else -1.0
    pending = _initial_breaks(h, t0, t1, sing)
    pending = list(zip(pending[:-1], pending[1:]))
    done = []
    splits = 0
    while pending:
        a, b = np.array(pending).T
        t = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * cp._NODES
        hm = h.matrix(t.ravel()).reshape(t.shape + (2, 2))
        bad = ~np.isfinite(hm).all(axis=(1, 2, 3))
        if not bad.any():
            phi, f = _panel_bases(z, a, b, hm)
            bad = ~np.isfinite(phi).all(axis=(1, 2, 3))
        if bad.any():
            t_bad = float(a[bad][np.argmin(direction * a[bad])])
            raise SingularityProximityError(
                f"{context}: non-finite Hamiltonian entries or propagator "
                f"on the panel from t={t_bad}", t_bad)
        ok = _resolved(a, b, phi, rtol, atol)
        done.extend(zip(a[ok], b[ok], t[ok], hm[ok], phi[ok], f[ok]))
        pending = []
        for ak, bk in zip(a[~ok], b[~ok]):
            if abs(bk - ak) < 2.0 * _WIDTH_FLOOR * max(1.0, abs(ak), abs(bk)):
                raise SingularityProximityError(
                    f"{context}: panel width underflow at t={ak}", float(ak))
            splits += 1
            if splits > MAX_SPLITS:
                raise IntegrationError(
                    f"{context}: {MAX_SPLITS} panel splits did not resolve "
                    f"the solution near t={ak}")
            mid = 0.5 * (ak + bk)
            pending += [(ak, mid), (mid, bk)]
    done.sort(key=lambda p: direction * p[0])
    a, b, t, hm, phi, f = (np.array(col) for col in zip(*done))
    hw = 0.5 * (b - a)

    # chain the 2x2 propagators: start values of every panel
    prop = np.eye(2) + hw[:, None, None] * np.einsum("j,pjab->pab", cp.END_WEIGHTS, f)
    starts = np.empty((len(a) + 1, 2, ncols), dtype=np.complex128)
    starts[0] = state0[:2 * ncols].reshape(ncols, 2).T
    for k in range(len(a)):
        starts[k + 1] = prop[k] @ starts[k]
    finite = np.isfinite(starts).all(axis=(1, 2))
    if not finite.all():
        k = max(int(np.argmin(finite)) - 1, 0)
        raise SingularityProximityError(
            f"{context}: solution overflow on the panel from t={a[k]}", float(a[k]))
    y = phi @ starts[:-1, None]                     # (P, n, 2, ncols)
    fy = f @ starts[:-1, None]
    nodes = [y.transpose(0, 1, 3, 2).reshape(len(a), -1, 2 * ncols)]
    first = [starts[:-1].transpose(0, 2, 1).reshape(len(a), 2 * ncols)]
    slopes = [fy.transpose(0, 1, 3, 2).reshape(len(a), -1, 2 * ncols)]
    if wd is not None:
        # S' = -z^(Delta+1) w_Delta^T H y, integrated by the same rule
        w = np.asarray(wd(t.ravel()), dtype=np.float64).reshape(t.shape + (2,))
        g = -zdelta * np.einsum("pja,pjab,pjbc->pjc", w, hm, y)
        s_start = state0[2 * ncols:] + np.concatenate([
            np.zeros((1, ncols)),
            np.cumsum(hw[:, None] * np.einsum("j,pjc->pc", cp.END_WEIGHTS, g), axis=0)])
        nodes.append(s_start[:-1, None] + hw[:, None, None]
                     * np.einsum("ij,pjc->pic", cp.CUMINT, g))
        first.append(s_start[:-1])
        slopes.append(g)
    nodes, first, slopes = (np.concatenate(x, axis=-1) for x in (nodes, first, slopes))
    coefs = hw[:, None, None] * np.einsum("ij,pjd->pid", cp.CUMINT_COEFS, slopes)
    coefs[:, 0] += first
    breaks = np.append(a, b[-1])
    return PanelChain(breaks, nodes.reshape(-1, nodes.shape[-1]), coefs)


def integrate_dense(h: Hamiltonian, z: complex, t0: float, state0,
                    targets: Sequence[float], ncols: int = 1,
                    wd=None, zdelta=0j, rtol=RK_RTOL, atol=RK_ATOL,
                    sing: Optional[float] = None) -> DenseSolution:
    """Solve from t0 toward each target (at most one per direction).

    ``state0`` stacks ``ncols`` start vectors, followed by one start value
    per column of the functional S when ``wd`` (w_Delta, an evaluable
    t -> R^2) is given; S' = -zdelta w_Delta^T H y.  ``sing`` is a singular
    endpoint a target may approach; panels are refined toward it.
    """
    z = complex(z)
    state0 = np.asarray(state0, dtype=np.complex128)
    chains = [_collocate(h, z, float(t0), float(t1), state0, ncols, wd,
                         complex(zdelta), rtol, atol, sing)
              for t1 in targets if t1 != t0]
    if not chains:
        raise DomainError(f"no target other than t0={t0} to integrate to")
    return DenseSolution(chains, z, h, t0, state0)


def _targets_for(h: Hamiltonian, t0: float, side: Optional[Side],
                 cutoff: Optional[float]):
    """(targets, singular endpoint or None) of a solve over one side."""
    lo, hi = h.interval
    if side is None:
        return [t for t in (lo, hi) if t != t0], None
    sing = h.singular_endpoint(side)
    reg = h.regular_endpoint(side)
    eps_cut = EPS_CUT_FRAC * h.length if cutoff is None else float(cutoff)
    stop = sing - math.copysign(eps_cut, sing - reg)
    return [t for t in (reg, stop) if t != t0], sing


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
    targets, sing = _targets_for(h, t0, side, cutoff)
    dense = integrate_dense(h, z, t0, y0, targets, ncols=1, rtol=rtol,
                            atol=atol, sing=sing)
    return SolutionSampler(dense, 0)


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
        return SolutionSampler(self._dense, i)

    def det_error(self, raw: bool = False) -> float:
        """max |det W - det init| over the collocation nodes.

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


def fundamental(h: Hamiltonian, z: complex, init=None,
                t0: Optional[float] = None, side: Optional[Side] = None,
                cutoff: Optional[float] = None, rtol: float = RK_RTOL,
                atol: float = RK_ATOL) -> MatrixSolution:
    """Matrix solution with W(t0) = init (identity at the left endpoint by
    default)."""
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
    targets, sing = _targets_for(h, t0, side, cutoff)
    dense = integrate_dense(h, z, t0, state0, targets, ncols=2, rtol=rtol,
                            atol=atol, sing=sing)
    return MatrixSolution(dense, init, t0)


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
