"""Integration of the canonical system at complex z.

The vector equation is y' = z J H(t) y; the matrix form is solved for
Y = W^T column-wise (the transposes of the rows of W solve the vector
equation), so one path covers both.  It is solved by Chebyshev-panel
collocation (spectral integration): on each panel the Volterra form
Y = y_a + z Q (J H Y), with Q the cumulative-integration matrix at the
DEGREE + 1 first-kind Chebyshev nodes, gives a 2x2 propagator basis; the
panels of a round are solved in batched linear solves and chained by 2x2
products.  A panel's unknowns are ordered by component, then node, so its
matrix is four contiguous n x n blocks, each a scaled copy of Q with its
columns weighted by one entry of J H.  Where H has a zero off-diagonal at
all of a panel's nodes (a diagonal H, as in Krein strings), the diagonal
blocks are the identity and one n x n Schur complement, I + z^2 G with G
real, is solved in place of the 2n x 2n system; every other panel solves
the 2n x 2n system, whose blocks are broadcast products written in place.
The nodes are interior, so H is never evaluated at a panel end, and
integrations stop at a configurable cutoff before a singular endpoint,
toward which the panels are halved geometrically.  A panel is split while
the trailing Chebyshev coefficients of its basis exceed rtol, or the noise
floor of its float nodes, times the basis's overall size; the number of
splits is bounded (``MAX_SPLITS``).
Every collocation round of a chain (``FirstRound``) holds what of it does
not depend on z: its panels, H at their nodes and the Schur tables of its
diagonal panels, the real products of ``_schur_factors``.  One function
makes every round (``_round``), the only one that evaluates H at nodes or
forms a table; a solve takes the tables of each chain's pending round and
forms none.  A chain starts from its first round, the panels of
``_initial_breaks``; ``integrate_dense`` builds it per chain unless the run
passes a kept one (``Run.first``), and :mod:`canonsys.boundary` keeps one
per side of a problem.  A kept round is built once (``refined_round``):
every panel that fails the resolution test at the fixed probe ``PROBE_Z``
stands in it as its two halves, so a z that splits the same panels, as
most z do, solves the halves in its first round and evaluates no H.  A
kept round never changes after it is built; only the rounds of panels
split off later evaluate H, and only those count toward ``MAX_SPLITS``.
``integrate_dense`` is the one entry for every integration.  It takes a
sequence of runs (``Run``: z, Hamiltonian, anchor, start state, targets,
singular endpoint, kept first round), at one z or at many, and collocates
the chains of all runs as one batch: each round solves and tests the
pending panels of every chain in one ``_panel_bases`` and one ``_resolved``
call, each panel with its chain's z, and one loop chains the 2x2
propagators of all.  Each chain keeps its own z, first round, splits and
chain, and every batched step treats a panel alike whatever else is in the
batch, so a run's arrays are the same bits alone or with others.  That
holds across z because a chain's z and z*z are Python numbers, spread over
its panels when the batch holds several z: numpy's complex product of two
arrays may round z*z differently from Python's (a fused multiply-add),
while its product of an array with a spread value rounds as with the
number.  The panels of each kind, diagonal or coupled, are solved in
blocks of at most ``SOLVE_BLOCK``, which bounds the memory of a batch of
many z.  Each chain keeps the propagators of its panels
(``PanelChain.phi``); a caller that keeps a chain can hand a later
run at the same z and tolerances whose chain starts from a break of that
chain's first round the panels from that break on (``Run.solved``) in
place of a first round: that chain solves no panel, since it would resolve
the same ones to the same bits, and is only chained from its own start
state.
The chaining loop takes the propagators of all chains at once; the node
values and slopes of the states, one batched matmul per chain, and their
Chebyshev coefficients, one more, are formed per group of chains of at most
``GROUP`` = 4 ``SOLVE_BLOCK`` panels (``groups``, the one grouping of every
batched stage after a solve), which bounds their temporaries however many z
a batch holds.  No panel array of a batch is copied whole: a chain resolved
in its first round keeps that round's breaks and H (a kept round's by
reference) and views of its solve.
Dense output (``Solution``) is the start state itself at the anchor,
exactly, and each panel's Chebyshev series elsewhere (``in_range`` decides,
here and for the callers, whether a point lies in a solution's range); a
row of a matrix solution is a view of the same state, and a combination of
rows (``CombinedSampler``) evaluates that state once.  Each chain also keeps
the state at its nodes (``PanelChain.ys``), the H values the collocation
used there (``PanelChain.hm``) and per panel its index in the first round
(``PanelChain.origin``), from which :mod:`canonsys.boundary` forms the
regularised boundary functional without evaluating H again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _chebpanels as cp
from .errors import DomainError, IntegrationError, SingularityProximityError
from .hamiltonian import Hamiltonian, Side, symplectic_j

RK_RTOL = 1e-12   # the one tolerance of every pipeline integration
RK_ATOL = 1e-12
EPS_CUT_FRAC = 1e-6   # default cutoff distance to sigma, relative to length
MAX_SPLITS = 2000     # panel splits per integration before IntegrationError
TAIL_COEFS = 3        # trailing Chebyshev coefficients in the resolution test
SINGULAR_DET = 1e-12  # relative |det| of a singular start matrix, at most
SOLVE_BLOCK = 64      # panels per batched collocation solve (peak memory)
GROUP = 4 * SOLVE_BLOCK  # panels per group of the stages after it (``groups``)
PROBE_Z = 1j          # the z at which a kept first round is refined once

_EPS = np.finfo(np.float64).eps
_TOL_FLOOR = 64.0 * _EPS     # below this rtol is rounding noise
_NODE_NOISE = 1e-2           # tail noise per relative node displacement
_WIDTH_FLOOR = 64.0 * _EPS   # narrowest panel, relative to |t|

_J = symplectic_j()
# right-hand side of every panel solve, unknowns ordered (component, node):
# start values e1 and e2 as columns
_UNIT_STARTS = np.repeat(np.eye(2), cp.DEGREE + 1, axis=0)
_UNIT_STARTS.setflags(write=False)


def finite_z(z) -> complex:
    """``z`` as a complex number; DomainError when it is not finite.

    Checked before any integration or cache lookup: a NaN never equals
    itself, so it would miss every cache entry and add a new one.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z={z} is not finite")
    return z


def det_residual(m: np.ndarray, d: complex) -> float:
    """|det m - d| relative to |m11 m22| + |m12 m21|.

    That sum is the size of the two products that cancel in det m, so the
    residual measures how far det m is from d in units of its own rounding;
    the raw |det m - d| grows with the entries even when they are accurate.
    NaN or inf when an entry or product is not finite.
    """
    with np.errstate(all="ignore"):
        prods = abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0])
        return float(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - d) / prods)


def check_nonsingular(m: np.ndarray, what: str) -> None:
    """DomainError unless the 2x2 matrix ``m`` is non-singular beyond
    rounding: |det m| must exceed ``SINGULAR_DET`` relative to the products
    that cancel in it (``det_residual`` against 0).  The test does not
    depend on the scale of m, only on how much of its determinant cancels.
    """
    res = det_residual(m, 0.0)
    if not res > SINGULAR_DET:  # NaN for the zero matrix fails too
        raise DomainError(f"{what} must be non-singular: |det| is {res:.3e} "
                          f"of the products it cancels from (at most "
                          f"{SINGULAR_DET:.0e} is singular)")


def finite_start(value, shape, what: str) -> np.ndarray:
    """``value`` as a complex array of ``shape``; DomainError when its shape
    differs or an entry is not finite, before any integration starts."""
    arr = np.asarray(value, dtype=np.complex128)
    if arr.shape != shape:
        raise DomainError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} has non-finite entries: {arr.tolist()}")
    return arr


class PanelChain(cp.PanelFunction):
    """One integration as Chebyshev series on a chain of panels.

    ``ts`` (``breaks``) holds the panel breaks in integration order, ``ys``
    the state and ``hm`` H at every collocation node, panel after panel, and
    ``coefs`` per panel the DEGREE + 2 Chebyshev coefficients of the state.
    ``origin`` holds per panel its index in the chain's first round, -1 for
    a panel split off in a later round, and ``phi`` per panel the
    propagator basis of its collocation solve (read-only), (P, 2, DEGREE +
    1, 2), which a caller may hand a later run (``Run.solved``).
    """

    __slots__ = ("ys", "hm", "origin", "phi", "lo", "hi")

    def __init__(self, breaks, ys, hm, coefs, origin, phi):
        super().__init__(breaks, coefs)
        self.ys = ys
        self.hm = hm
        self.origin = origin
        self.phi = phi
        self.lo = float(min(breaks[0], breaks[-1]))
        self.hi = float(max(breaks[0], breaks[-1]))

    @property
    def ts(self):
        return self.breaks


def in_range(t, lo: float, hi: float):
    """Whether ``t`` (a number or an array) lies in [lo, hi], widened by
    1e-12 (|lo| + |hi| + 1) for rounding in the ends; NaN never does."""
    pad = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    return (t >= lo - pad) & (t <= hi + pad)


class Solution:
    """A solution of Y' = z J H Y at fixed z, dense over one or two chains
    (``segments``) from the anchor, where ``eval_state`` returns ``state0``,
    the stacked start vectors of the solved columns, exactly.

    ``eval`` returns a 2-vector for one column, else one row per column: W
    for a matrix solution, whose rows' transposes solve the vector system.
    ``row_sampler(i)`` views row i: it shares the chains and range of its
    ``base`` solution and takes its slice of the same state.
    """

    def __init__(self, segments, z, h, anchor_t, state0):
        self.segments = list(segments)
        self.z = z
        self.h = h
        self.anchor_t = anchor_t
        self.state0 = state0
        self.interval = (min(s.lo for s in self.segments),
                         max(s.hi for s in self.segments))
        self.base = self
        self.row = None

    def eval_state(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        out = np.empty(ts.shape + self.state0.shape, dtype=np.complex128)
        done = ts == self.anchor_t
        out[done] = self.state0
        for seg in self.segments:
            m = (~done) & in_range(ts, seg.lo, seg.hi)
            if np.any(m):
                out[m] = seg(np.clip(ts[m], seg.lo, seg.hi))
                done[m] = True
        if not np.all(done):
            raise DomainError(
                f"t={float(ts[~done][0])} outside the integrated range "
                f"[{self.interval[0]}, {self.interval[1]}]")
        return out

    def _pick(self, st, ts):
        """This solution's value in the dense state ``st`` at ``ts``: its
        row's slice for a row view, else the state, one row per column."""
        if self.row is not None:
            st = st[..., 2 * self.row:2 * self.row + 2]
        elif st.shape[-1] > 2:
            st = st.reshape(st.shape[:-1] + (-1, 2))
        return st[0] if np.ndim(ts) == 0 else st

    def eval(self, ts):
        return self._pick(self.eval_state(ts), ts)

    __call__ = eval

    def row_sampler(self, i: int) -> "Solution":
        """The transposed i-th row as a vector solution: a view sharing this
        solution's chains and range."""
        view = object.__new__(Solution)
        view.__dict__.update(vars(self.base), row=i)
        return view

    @property
    def init(self) -> np.ndarray:
        """W at the anchor, of a matrix solution."""
        return self.state0.reshape(2, 2)

    @property
    def det_init(self) -> complex:
        m = self.init
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def det_error(self) -> float:
        """max |det W - det init| over the collocation nodes, of a matrix
        solution.

        Near a singular endpoint the entries grow like the inverse distance
        and the determinant's two products cancel below what float64 can
        resolve; nodes whose deviation sits inside that representation floor
        (16 eps times the product magnitudes) are reported as zero, so the
        result measures genuine integrator drift.
        """
        y = np.concatenate([seg.ys for seg in self.segments]).reshape(-1, 2, 2)
        p, q = y[:, 0, 0] * y[:, 1, 1], y[:, 0, 1] * y[:, 1, 0]
        err = np.abs(p - q - self.det_init)
        floor = 16.0 * _EPS * (np.abs(p) + np.abs(q))
        return float(np.where(err <= floor, 0.0, err).max())


class CombinedSampler:
    """Linear combination of samplers solving the same system at the same z.

    ``eval`` evaluates each distinct ``Solution`` that the terms view
    (``Solution.base``) once per call and takes every such term's value
    from that one state; other samplers (nested combinations, say) are
    evaluated as they are.  The terms c_i * value_i are summed in the
    order of ``samplers``.
    """

    def __init__(self, coeffs, samplers):
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self.samplers = list(samplers)
        if not self.samplers:
            raise DomainError("a combination needs at least one sampler")
        if self.coeffs.shape != (len(self.samplers),):
            raise DomainError(
                f"{len(self.samplers)} samplers need as many coefficients, "
                f"got shape {self.coeffs.shape}")
        if not np.isfinite(self.coeffs).all():
            raise DomainError(
                f"non-finite coefficients: {self.coeffs.tolist()}")
        s0 = self.samplers[0]
        for s in self.samplers[1:]:
            if s.z != s0.z:
                raise DomainError(f"samplers at different z: {s0.z} and {s.z}")
            if s.h is not s0.h:
                raise DomainError("samplers solve different Hamiltonians")
        self.z = s0.z
        self.h = s0.h
        self.anchor_t = s0.anchor_t
        self.interval = s0.interval

    def eval(self, ts):
        states = {}
        acc = None
        for c, s in zip(self.coeffs, self.samplers):
            if isinstance(s, Solution):
                st = states.get(s.base)
                if st is None:
                    st = states[s.base] = s.base.eval_state(ts)
                term = c * s._pick(st, ts)
            else:
                term = c * s.eval(ts)
            acc = term if acc is None else acc + term
        return acc

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


@dataclass(frozen=True)
class FirstRound:
    """The z-independent part of one collocation round of a chain: its
    panels [a_k, b_k], in integration order, H at their nodes, (P, DEGREE +
    1, 2, 2), and ``schur``, the Schur tables of its diagonal panels in
    order (A_1, G and A_0's row sums of ``_schur_factors``).  ``_round``
    makes every round; a chain's first is its start, and a round kept for
    many z is refined once (``refined_round``).  The arrays are read-only,
    so one round can be kept and shared by every thread that integrates."""

    a: np.ndarray
    b: np.ndarray
    hm: np.ndarray
    schur: tuple


def _h_at_nodes(h: Hamiltonian, a, b) -> np.ndarray:
    """H at the nodes of the panels [a_k, b_k], (P, DEGREE + 1, 2, 2)."""
    t = cp.nodes_between(a, b)
    return h.matrix(t.ravel()).reshape(t.shape + (2, 2))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def first_round(h: Hamiltonian, t0: float, t1: float,
                sing: Optional[float]) -> FirstRound:
    """The first round of the chain from t0 to t1 (``_initial_breaks``)."""
    breaks = _initial_breaks(h, t0, t1, sing)
    return _round(h, breaks[:-1].copy(), breaks[1:].copy())


def _schur_factors(hw: np.ndarray, hm: np.ndarray):
    """The real tables of ``_diagonal_bases`` for panels with half-widths
    ``hw`` and H at their nodes ``hm``: A_1, G = A_0 A_1, (P, n, n), and
    A_0's row sums, (P, n, 1), with A_c = hw Q diag(H_cc)."""
    with np.errstate(all="ignore"):  # non-finite H fails its chain later
        a0 = cp.CUMINT * (hw[:, None] * hm[:, :, 0, 0])[:, None, :]
        a1 = cp.CUMINT * (hw[:, None] * hm[:, :, 1, 1])[:, None, :]
        return a1, a0 @ a1, a0.sum(axis=2, keepdims=True)


def _diagonal(hm: np.ndarray) -> np.ndarray:
    """Per panel: is H diagonal at all of its nodes (``hm``)?"""
    return ~(hm[:, :, 0, 1].any(axis=1) | hm[:, :, 1, 0].any(axis=1))


def _round(h: Hamiltonian, a: np.ndarray, b: np.ndarray) -> FirstRound:
    """The round of the panels [a_k, b_k]: H at their nodes and the Schur
    tables of the diagonal ones, all read-only.  The one place either is
    formed, for a first round, a probe's halves and a split's halves."""
    hm = _h_at_nodes(h, a, b)
    d = _diagonal(hm)
    return FirstRound(_frozen(a), _frozen(b), _frozen(hm), tuple(
        map(_frozen, _schur_factors(0.5 * (b[d] - a[d]), hm[d]))))


def halves(a, b):
    """The halves [a_k, m_k], [m_k, b_k] of the panels [a_k, b_k], in
    pairs, as a split forms them."""
    mid = 0.5 * (a + b)
    return np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()


def _coupled_bases(z, hw: np.ndarray, hm: np.ndarray) -> np.ndarray:
    """``phi`` of panels with half-widths ``hw`` from the full 2n x 2n
    system I - z hw Q (J H), (P, 2, n, 2); ``z`` as ``_panel_bases`` takes
    it.

    The unknowns are ordered by component, then node, so the matrix is four
    contiguous n x n blocks: block (c, d) is delta_cd I - z hw Q diag((J H)_cd
    at the nodes), one broadcast product written in place; the right-hand
    side is the same for every panel (``_UNIT_STARTS``).  J H is read off H
    with the sign folded in: (J H)_0d = -H_1d and (J H)_1d = H_0d.
    """
    p, n = len(hw), cp.DEGREE + 1
    zq = (-z * hw[:, None, None]) * cp.CUMINT
    m = np.empty((p, 2, n, 2, n), dtype=np.complex128)
    for c, sign in ((0, -1.0), (1, 1.0)):
        for d in range(2):
            np.multiply(zq, sign * hm[:, None, :, 1 - c, d],
                        out=m[:, c, :, d, :])
    m.reshape(p, -1)[:, ::2 * n + 1] += 1.0
    return np.linalg.solve(m.reshape(p, 2 * n, 2 * n),
                           _UNIT_STARTS).reshape(p, 2, n, 2)


def _diagonal_bases(z, zz, parts) -> np.ndarray:
    """``phi`` of panels whose H is diagonal at every node, from an n x n
    Schur complement, (P, 2, n, 2); ``z`` and ``zz`` = z*z as
    ``_panel_bases`` takes them.  ``parts`` covers the panels in order,
    each (j, A_1, G, r0): a slice of the panels and their real tables
    (``_schur_factors``).

    With A_c = hw Q diag(H_cc) (real), the system is [[I, z A_1],
    [-z A_0, I]] (y0, y1) = (r0, r1).  Eliminating y0 leaves
    (I + z^2 A_0 A_1) y1 = r1 + z A_0 r0, then y0 = r0 - z A_1 y1; the
    start values r are 1 in one component and 0 in the other, so A_0 r0 is
    A_0's row sums.  The products of real tables stay real: only the n x n
    matrix and the right-hand side carry z.
    """
    p, n = parts[-1][0].stop, cp.DEGREE + 1
    m = np.empty((p, n, n), dtype=np.complex128)
    rhs = np.empty((p, n, 2), dtype=np.complex128)
    for j, _, g, r0 in parts:
        np.multiply(_take(zz, j), g, out=m[j])
        rhs[j, :, :1] = _take(z, j) * r0
    m.reshape(p, -1)[:, ::n + 1] += 1.0
    rhs[:, :, 1] = 1.0
    y1 = np.linalg.solve(m, rhs)
    phi = np.empty((p, 2, n, 2), dtype=np.complex128)
    phi[:, 1] = y1
    for j, a1, _, _ in parts:
        phi[j, 0] = (a1 @ y1[j].view(np.float64)).view(np.complex128)
    phi[:, 0] *= -z
    phi[:, 0, :, 0] += 1.0
    return phi


def _take(x, k):
    """Panels ``k`` of a value per panel; a Python number is every panel's."""
    return x if np.ndim(x) == 0 else x[k]


def groups(sizes) -> list:
    """Consecutive slices of items of ``sizes`` panels (or columns) each,
    in order, each holding at most ``GROUP`` of them, or one item that
    holds more: the one grouping of every batched stage after a solve
    (the chains' products here, S' in :mod:`canonsys.boundary` and the
    columns of its Neville tableau).  It bounds their temporaries whatever
    the size of the batch; each stage treats an item alike in any group."""
    out, lo, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > GROUP:
            out.append(slice(lo, i))
            lo, total = i, 0
        total += size
    if lo < len(sizes):
        out.append(slice(lo, len(sizes)))
    return out


def _parts(tables, lo: int, hi: int) -> list:
    """The Schur tables of the diagonal panels lo:hi of a batch as
    ``_diagonal_bases`` takes them (slices from lo): views of the tables
    of the chains, ``tables`` in the batch's order, that hold them."""
    parts, start = [], 0
    for tab in tables:
        stop = start + len(tab[0])
        s, e = max(start, lo), min(stop, hi)
        if e > s:
            parts.append((slice(s - lo, e - lo),
                          *(t[s - start:e - start] for t in tab)))
        start = stop
    return parts


def _panel_bases(z, zz, a: np.ndarray, b: np.ndarray, hm: np.ndarray,
                 tables):
    """Collocation solve of Y = y_a + z Q (J H Y) on every panel [a_k, b_k].

    ``z`` and ``zz`` are the panels' z and z*z, the square formed by Python
    (``_collocate``): Python numbers when all panels share one z, else one
    per panel, (P, 1, 1).  ``hm`` is H at the panels' nodes, (P, n, 2, 2).
    Returns the propagator basis ``phi``, the node values for start values
    e1, e2 as columns, and the integrand ``z J H phi`` at the nodes, both
    laid out (P, 2, n, 2): component, node, column.

    The panels whose H has zero off-diagonal entries at all of their nodes
    are solved through the n x n Schur complement of their systems
    (``_diagonal_bases``), every other panel through the full 2n x 2n
    system (``_coupled_bases``), each kind at most ``SOLVE_BLOCK`` panels
    per call, which bounds the temporaries of a batch of many z.
    ``tables`` lists, for the batch's chains in order, the Schur tables of
    each chain's diagonal panels (``FirstRound.schur``); the solve forms
    none.  Each solve treats a panel alone, so its ``phi`` and ``f`` are
    the same bits whatever else is in the batch.
    """
    diag = _diagonal(hm)
    dk, ck = np.flatnonzero(diag), np.flatnonzero(~diag)
    phi = np.empty((len(a), 2, cp.DEGREE + 1, 2), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for lo in range(0, len(dk), SOLVE_BLOCK):
            k = dk[lo:lo + SOLVE_BLOCK]
            phi[k] = _diagonal_bases(_take(z, k), _take(zz, k),
                                     _parts(tables, lo, lo + len(k)))
        for lo in range(0, len(ck), SOLVE_BLOCK):
            k = ck[lo:lo + SOLVE_BLOCK]
            phi[k] = _coupled_bases(_take(z, k), 0.5 * (b[k] - a[k]), hm[k])
    return phi, _slopes(z, hm, phi)


def _props(a, b, f) -> np.ndarray:
    """The 2x2 propagator of every panel [a_k, b_k] from its slopes ``f``
    (laid out as ``_panel_bases`` returns them): I plus the half-width
    times their integral over the panel (``END_WEIGHTS``), (P, 2, 2)."""
    with np.errstate(all="ignore"):  # a non-finite panel fails its chain
        ends = (cp.END_WEIGHTS @ f.view(np.float64)).view(np.complex128)
        return np.eye(2) + (0.5 * (b - a))[:, None, None] * ends


def _slopes(z, hm: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The integrand ``z J H phi`` at the nodes of panels with H ``hm`` and
    propagator basis ``phi`` there, laid out as ``phi``; ``z`` as
    ``_panel_bases`` takes it.  Each panel's slopes are the same bits
    whatever else is in the batch."""
    with np.errstate(all="ignore"):
        zh = np.reshape(z, (-1, 1, 1, 1)) * hm
        f = np.empty_like(phi)
        for c in range(2):
            np.multiply(zh[:, :, 1 - c, 0, None], phi[:, 0], out=f[:, c])
            f[:, c] += zh[:, :, 1 - c, 1, None] * phi[:, 1]
        np.negative(f[:, 0], out=f[:, 0])
    return f


def _resolved(a, b, phi, rtol, atol):
    """Per panel: do the trailing Chebyshev coefficients of the basis sit
    below the tolerance times its overall size (all components and columns)?

    ``phi`` is laid out as ``_panel_bases`` returns it.  The tolerance is
    rtol, raised to the panel's noise floor: its nodes are floats, off
    their ideal positions by up to eps |t| relative to the panel width,
    which no split lowers below ``_NODE_NOISE`` times that.
    """
    c = np.abs((cp._VALS_TO_COEFS @ phi.view(np.float64)).view(np.complex128))
    scale = c.reshape(len(c), -1).max(axis=1)
    tail = c[:, :, -TAIL_COEFS:].reshape(len(c), -1).max(axis=1)
    noise = _NODE_NOISE * _EPS * np.maximum(np.abs(a), np.abs(b)) / np.abs(b - a)
    with np.errstate(over="ignore"):  # a bound that overflows accepts
        return tail <= np.maximum(max(rtol, _TOL_FLOOR), noise) * scale + atol


def _too_narrow(a, b):
    """Per panel [a_k, b_k]: is it too narrow to split?"""
    return np.abs(b - a) < 2.0 * _WIDTH_FLOOR * np.maximum(
        1.0, np.maximum(np.abs(a), np.abs(b)))


def refined_round(h: Hamiltonian, rnd: FirstRound) -> FirstRound:
    """``rnd`` refined for a round kept for many z: every panel that fails
    the resolution test at ``PROBE_Z`` (``_resolved`` at the default
    tolerances) replaced by its halves (``_round``), so a z that splits the
    same panels solves their halves in its first round.  A panel whose
    basis is not finite at the probe, or that is too narrow to split, stays
    whole, so refining raises nothing: its chain fails or splits it as it
    would in an unrefined round."""
    z, a, b, hm, schur = PROBE_Z, rnd.a, rnd.b, rnd.hm, rnd.schur
    phi, _ = _panel_bases(z, z * z, a, b, hm, [schur])
    split = (~_resolved(a, b, phi, RK_RTOL, RK_ATOL)
             & np.isfinite(phi).all(axis=(1, 2, 3)) & ~_too_narrow(a, b))
    if not split.any():
        return rnd
    # each split panel's place holds its two halves, in integration order
    fresh = _round(h, *halves(a[split], b[split]))
    idx = np.repeat(np.arange(len(a)), np.where(split, 2, 1))
    at = np.flatnonzero(split[idx])
    row = (np.cumsum(_diagonal(hm)) - 1)[idx]  # a whole panel's table row
    a, b, hm = a[idx], b[idx], hm[idx]
    a[at], b[at], hm[at] = fresh.a, fresh.b, fresh.hm
    d = _diagonal(hm)
    half = split[idx][d]
    pick = np.where(half, len(schur[0]) + np.cumsum(half) - 1, row[d])
    return FirstRound(_frozen(a), _frozen(b), _frozen(hm), tuple(
        _frozen(np.concatenate(t)[pick]) for t in zip(schur, fresh.schur)))


class _Chain:
    """One chain of a batch while it is collocated: its z and z*z (Python
    numbers), its pending round (``rnd``: the run's first round, kept
    (``Run.first``) or built, then the halves of each split) and the
    panels' index in the first round, the arrays of its resolved panels per
    round (those of a round it resolves whole are that round's, and views
    of its solve), and the error that ended it, if any.  A chain handed its
    resolved panels (``Run.solved``) in place of a first round starts with
    them done and has no pending round."""

    def __init__(self, z: complex, run: "Run", t1: float, state0):
        self.z, self.zz = z, z * z
        self.h, self.state0 = run.h, state0
        t0 = float(run.t0)
        self.context = f"integration on [{t0}, {t1}] at z={z}"
        self.direction = 1.0 if t1 > t0 else -1.0
        self.done = []
        if run.solved is None:
            self.rnd = (run.first if run.first is not None
                        else first_round(run.h, t0, t1, run.sing))
            self.origin = np.arange(len(self.rnd.a))
        else:
            a, b, _, hm, phi = run.solved
            f = _slopes(z, hm, phi)
            self.done.append((*run.solved, f, _props(a, b, f)))
        self.splits = 0
        self.error = None
        self.chain = None  # the PanelChain, once chained

    def fail_at(self, bad) -> None:
        """End the chain at the first pending panel, in its direction, that
        ``bad`` marks: its H or its propagator is not finite."""
        a = self.rnd.a[bad]
        t_bad = float(a[np.argmin(self.direction * a)])
        self.error = SingularityProximityError(
            f"{self.context}: non-finite Hamiltonian entries or propagator "
            f"on the panel from t={t_bad}", t_bad)

    def settle(self, phi, f, prop, ok, bad) -> bool:
        """Keep the panels of this round that ``ok`` marks resolved, with
        their propagator bases, slopes and propagators, and split the
        others, or end the chain at the first that ``bad`` marks (its
        propagator is not finite); whether a next round is pending."""
        if bad.any():
            self.fail_at(bad)
            return False
        a, b, hm, origin = self.rnd.a, self.rnd.b, self.rnd.hm, self.origin
        if ok.all():
            self.done.append((a, b, origin, hm, phi, f, prop))
            return False
        self.done.append((a[ok], b[ok], origin[ok], hm[ok], phi[ok], f[ok],
                          prop[ok]))
        a, b = a[~ok], b[~ok]
        # the first panel that is too narrow to split, or whose split
        # exceeds MAX_SPLITS, ends the integration
        narrow = _too_narrow(a, b)
        k_narrow = int(np.argmax(narrow)) if narrow.any() else len(a)
        k_over = MAX_SPLITS - self.splits
        if k_narrow < len(a) and k_narrow <= k_over:
            ak = float(a[k_narrow])
            self.error = SingularityProximityError(
                f"{self.context}: panel width underflow at t={ak}", ak)
            return False
        if k_over < len(a):
            self.error = IntegrationError(
                f"{self.context}: {MAX_SPLITS} panel splits did not "
                f"resolve the solution near t={a[k_over]}")
            return False
        self.splits += len(a)
        self.rnd = _round(self.h, *halves(a, b))
        self.origin = np.full(len(self.rnd.a), -1)
        return True

    def panels(self):
        """(a, b, origin, hm, phi, f, prop) of every resolved panel, in
        integration order."""
        if len(self.done) == 1:
            return self.done[0]
        cols = [np.concatenate(col) for col in zip(*self.done)]
        order = np.argsort(self.direction * cols[0], kind="stable")
        return [col[order] for col in cols]


def _cat(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _collocate(starts, rtol, atol):
    """The chained ``_Chain`` of every (z, run, target, start state) of
    ``starts``, collocated as one batch: each round solves and tests the
    pending panels of all chains at once, each
    panel with its chain's z and z*z spread over it, and one loop chains the
    propagators of all, those of a chain handed its resolved panels too.
    Only panels split off after the first round evaluate H.  Every step
    treats a chain's panels alike whatever else is in the batch, so a
    chain's arrays do not depend on it.  When chains fail, the error of the
    first, in the order of ``starts``, is raised."""
    chains = [_Chain(*start) for start in starts]
    pending = [c for c in chains if not c.done]
    while pending:
        for c in pending:
            bad = ~np.isfinite(c.rnd.hm).all(axis=(1, 2, 3))
            if bad.any():
                c.fail_at(bad)
        pending = [c for c in pending if c.error is None]
        if not pending:
            break
        rounds = [c.rnd for c in pending]
        a, b = _cat([r.a for r in rounds]), _cat([r.b for r in rounds])
        # one z as Python numbers: numpy multiplies an array by a number
        # faster than by an array, and to the same bits
        if all(c.z == pending[0].z for c in pending):
            z, zz = pending[0].z, pending[0].zz
        else:
            sizes = [len(r.a) for r in rounds]
            z, zz = (np.repeat(np.array(v), sizes)[:, None, None] for v in
                     ([c.z for c in pending], [c.zz for c in pending]))
        phi, f = _panel_bases(z, zz, a, b, _cat([r.hm for r in rounds]),
                              [r.schur for r in rounds])
        ok = _resolved(a, b, phi, rtol, atol)
        bad = ~np.isfinite(phi).all(axis=(1, 2, 3))
        prop = _props(a, b, f)
        nxt, lo = [], 0
        for c in pending:
            sl = slice(lo, lo + len(c.rnd.a))
            lo = sl.stop
            if c.settle(phi[sl], f[sl], prop[sl], ok[sl], bad[sl]):
                nxt.append(c)
        pending = nxt
    live = [c for c in chains if c.error is None]
    if live:
        _chain_all(live)
    for c in chains:
        if c.error is not None:
            raise c.error
    return chains


def _chain_all(chains) -> None:
    """Set the PanelChain of every collocated chain, or its overflow
    error; their start values have one size.  One loop chains the 2x2
    propagators of all, padded with the identity past a chain's end; the
    node values, slopes and coefficients are formed per group of chains
    (``groups``), one batched product each.  A chain keeps its own panel
    arrays, copied nowhere: a chain resolved in its first round keeps that
    round's breaks and H (a kept round's by reference) and views of its
    solve."""
    parts = [c.panels() for c in chains]
    sizes = [len(part[0]) for part in parts]
    n, ncols = cp.DEGREE + 1, len(chains[0].state0) // 2
    # step k of every chain at once: props[k] and starts[k] hold one 2x2
    # block per chain, the identity past a chain's end
    props = np.zeros((max(sizes), len(chains), 2, 2), dtype=np.complex128)
    props[..., 0, 0] = props[..., 1, 1] = 1.0
    starts = np.empty((max(sizes) + 1, len(chains), 2, ncols),
                      dtype=np.complex128)
    for i, c in enumerate(chains):
        props[:sizes[i], i] = parts[i][6]
        starts[0, i] = c.state0.reshape(ncols, 2).T
    with np.errstate(all="ignore"):  # an overflow is reported below
        for k in range(max(sizes)):
            np.matmul(props[k], starts[k], out=starts[k + 1])
    for i, c in enumerate(chains):
        finite = np.isfinite(starts[:sizes[i] + 1, i]).all(axis=(1, 2))
        if not finite.all():
            a = parts[i][0][max(int(np.argmin(finite)) - 1, 0)]
            c.error = SingularityProximityError(
                f"{c.context}: solution overflow on the panel from "
                f"t={a}", float(a))
    if any(c.error is not None for c in chains):
        return
    for g in groups(sizes):
        a, b = (_cat([part[j] for part in parts[g]]) for j in (0, 1))
        s0 = _cat([starts[:sizes[i], i] for i in range(g.start, g.stop)])
        ends = np.cumsum(sizes[g])
        spans = [slice(hi - size, hi) for size, hi in zip(sizes[g], ends)]
        # node values and slopes, (P, 2, n, ncols), each chain's from its
        # own arrays; the state's columns are stacked as in state0, so a
        # node's row is (column, component)
        p = len(a)
        y = np.empty((p, 2 * n, ncols), dtype=np.complex128)
        slopes = np.empty_like(y)
        for part, sl in zip(parts[g], spans):
            np.matmul(part[4].reshape(-1, 2 * n, 2), s0[sl], out=y[sl])
            np.matmul(part[5].reshape(-1, 2 * n, 2), s0[sl], out=slopes[sl])
        y = y.reshape(p, 2, n, ncols)
        slopes = slopes.reshape(p, 2, n, ncols)
        coefs = (cp.CUMINT_COEFS @ slopes.view(np.float64)).view(np.complex128)
        coefs *= (0.5 * (b - a))[:, None, None, None]
        coefs[:, :, 0] += s0
        ys = y.transpose(0, 2, 3, 1).reshape(p, n, 2 * ncols)
        coefs = coefs.transpose(0, 2, 3, 1).reshape(p, n + 1, 2 * ncols)
        for c, part, sl in zip(chains[g], parts[g], spans):
            pa, pb, origin, hm, phi = part[:5]
            c.chain = PanelChain(np.append(pa, pb[-1]),
                                 ys[sl].reshape(-1, 2 * ncols),
                                 hm.reshape(-1, 2, 2), coefs[sl], origin,
                                 _frozen(phi))


def check_tolerances(rtol, atol) -> None:
    """DomainError naming ``rtol`` or ``atol`` when it is not a finite,
    non-negative number.  0 is valid: the rounding floor applies."""
    for name, value in (("rtol", rtol), ("atol", atol)):
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan
        if not (math.isfinite(x) and x >= 0.0):
            raise DomainError(f"{name}={value!r} must be a finite number >= 0")


@dataclass(frozen=True)
class Run:
    """One solve of ``integrate_dense``: Y' = z J H Y from ``t0``, where
    ``state0`` stacks the start vectors of the solved columns, toward each
    target (at most one per direction).  ``sing`` is a singular endpoint a
    target may approach; panels are refined toward it.  ``first`` is the
    first round of the chain toward a run's one target, for a caller that
    keeps that z-independent round; None: ``first_round`` builds it,
    unless the run is handed its solved panels.  ``solved`` holds, for a
    run with one target, the resolved panels of that chain at the run's z
    and tolerances, (a, b, origin, H at the nodes, ``phi``), for a caller
    that keeps them from an earlier chain (``PanelChain.phi``), whose
    ``origin`` it keeps: the chain then has no first round, solves no
    panel and only chains them from ``state0``; None: collocated.
    """

    z: complex
    h: Hamiltonian
    t0: float
    state0: object
    targets: Sequence[float]
    sing: Optional[float] = None
    first: Optional[FirstRound] = None
    solved: Optional[tuple] = None


class Integration(tuple):
    """The Solution of every run of one ``integrate_dense`` call, in
    the order of the runs; ``segments`` lists the chains of all."""

    @property
    def segments(self):
        return [seg for dense in self for seg in dense.segments]


def integrate_dense(runs: Sequence[Run], rtol=RK_RTOL,
                    atol=RK_ATOL) -> Integration:
    """Solve every run, each at its own z, in one batch (``_collocate``):
    the chains of all runs go through each collocation round and the
    chaining loop together, each keeping its own z, first round, splits and
    chain, so a run's arrays are the same bits alone or with others.  The
    start states of the runs must have one size.
    """
    check_tolerances(rtol, atol)
    jobs = []
    for run in runs:
        state0 = np.array(run.state0, dtype=np.complex128)  # the anchor state
        ends = [t1 for t1 in run.targets if t1 != run.t0]
        if not ends:
            raise DomainError(f"no target other than t0={run.t0} to "
                              f"integrate to")
        jobs.append((run, complex(run.z), state0, ends))
    if len({state0.shape for _, _, state0, _ in jobs}) > 1:
        raise DomainError("the runs of one integration need start states "
                          "of one size")
    chains = iter(_collocate([(z, run, float(t1), state0)
                              for run, z, state0, ends in jobs for t1 in ends],
                             rtol, atol))
    return Integration(Solution([next(chains).chain for _ in ends], z, run.h,
                                run.t0, state0)
                       for run, z, state0, ends in jobs)


def _targets_for(h: Hamiltonian, t0: float, side: Optional[Side],
                 cutoff: Optional[float]):
    """(targets, singular endpoint or None) of a solve over one side from
    t0, which must lie in the closed interval and, on a side with a
    singular endpoint, no closer to it than the cutoff."""
    lo, hi = h.interval
    if not (lo <= t0 <= hi):
        raise DomainError(f"t0={t0} outside [{lo}, {hi}]")
    if side is None:
        return [t for t in (lo, hi) if t != t0], None
    sing = h.singular_endpoint(side)
    reg = h.regular_endpoint(side)
    eps_cut = EPS_CUT_FRAC * h.length if cutoff is None else float(cutoff)
    if not (0.0 <= eps_cut < h.length):  # NaN fails too
        raise DomainError(f"cutoff={cutoff!r} must be finite, >= 0 and below "
                          f"the side's length {h.length}")
    if abs(sing - t0) < eps_cut:
        raise DomainError(f"t0={t0} lies within the cutoff {eps_cut} of the "
                          f"singular endpoint {sing}")
    stop = sing - math.copysign(eps_cut, sing - reg)
    return [t for t in (reg, stop) if t != t0], sing


def solve_row(h: Hamiltonian, z: complex, t0: float, y0,
              side: Optional[Side] = None, cutoff: Optional[float] = None,
              rtol: float = RK_RTOL, atol: float = RK_ATOL) -> Solution:
    """Solution of y' = z J H y with y(t0) = y0, dense over the side.

    ``side`` marks which endpoint is singular ("minus": the right one,
    "plus": the left one); integration stops at ``cutoff`` before it
    (default 1e-6 of the interval length).  Without a side both endpoints are
    treated as regular and the whole closed interval is covered.
    """
    z = finite_z(z)
    y0 = finite_start(y0, (2,), "y0")
    targets, sing = _targets_for(h, t0, side, cutoff)
    sol, = integrate_dense([Run(z, h, t0, y0, targets, sing)], rtol=rtol,
                           atol=atol)
    return sol


def fundamental(h: Hamiltonian, z: complex, init=None,
                t0: Optional[float] = None, side: Optional[Side] = None,
                cutoff: Optional[float] = None, rtol: float = RK_RTOL,
                atol: float = RK_ATOL) -> Solution:
    """Matrix solution with W(t0) = init (identity at the left endpoint by
    default)."""
    z = finite_z(z)
    lo, hi = h.interval
    if t0 is None:
        t0 = lo if side in (None, "minus") else hi
    init = finite_start(np.eye(2) if init is None else init, (2, 2), "init")
    check_nonsingular(init, "init")
    state0 = init.reshape(-1)  # row-major entries of W = column-stacked W^T
    targets, sing = _targets_for(h, t0, side, cutoff)
    sol, = integrate_dense([Run(z, h, t0, state0, targets, sing)],
                           rtol=rtol, atol=atol)
    return sol


def greens_residual(u, f, x1: float, x2: float) -> complex:
    """Defect of the bilinear identity tying two solutions at parameters w, z.

    Returns (z - conj(w)) * int_{x1}^{x2} u^* H f  minus the boundary pairing
    u(x1)^* J f(x1) - u(x2)^* J f(x2); the magnitude bounds the structural
    error of the integrator and the quadrature.
    """
    if x2 <= x1:
        raise DomainError("need x1 < x2")
    for s in (u, f):
        lo, hi = s.interval
        if not (in_range(x1, lo, hi) and in_range(x2, lo, hi)):
            raise DomainError(
                f"sampler covers [{lo}, {hi}], requested [{x1}, {x2}]")
    if u.h is not f.h:
        raise DomainError("samplers solve different Hamiltonians")
    h = u.h
    z = f.z
    w = u.z

    def integrand(ts):
        return np.einsum("na,nab,nb->n", np.conj(u.eval(ts)), h.matrix(ts),
                         f.eval(ts))

    inner = np.unique(np.concatenate([
        [x1, x2], h.inner_breaks()[(h.inner_breaks() > x1) & (h.inner_breaks() < x2)]]))
    total = 0j
    for a, b in zip(inner[:-1], inner[1:]):
        total += cp.panel_quad_complex(integrand, a, b)
    u1 = u.eval(x1)
    u2 = u.eval(x2)
    f1 = f.eval(x1)
    f2 = f.eval(x2)
    boundary = (np.conj(u1) @ _J @ f1) - (np.conj(u2) @ _J @ f2)
    return (z - np.conj(w)) * total - boundary
