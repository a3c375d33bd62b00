"""Regularised boundary values at the inner singularity.

The second solution component has a plain limit at sigma; the first is
replaced by the weighted functional S(x) = sum_{n<=Delta} z^n w_n(x)^T J y(x)
minus a correction proportional to that limit.  Forming S from y pointwise
would cancel catastrophically; instead its derivative
-z^(Delta+1) w_Delta^T H y is formed at the collocation nodes of the
solver's panels from the node values of y and H the solver stored there and
integrated by the same spectral rule (``_chebpanels.cumulative_coefs``)
from S at the anchor.  Both quantities are extrapolated to sigma by a Neville
tableau on the geometric nodes x_k = sigma -+ eps0 * 2^-k, Ridders-style:
the tableau entry with the smallest self-consistency error wins and that
error is reported.

Runs are taken in batches (``_runs``), each run at its own z: the runs of
a batch are integrated in one ``solver.integrate_dense`` call, S' is formed
and integrated at the nodes of their chains, and y2 and S evaluated at
their extrapolation nodes, one pass per group of runs (``solver.groups``,
at most ``solver.GROUP`` panels), and the limits of y2 and S of every
column of every run take one tableau call (two, y2 first, where S needs a
correction by the limit of y2: Delta >= 2 or a side that is not diagonal),
each column keeping its own z, nodes and winning entry, the columns in
blocks cut by the same helper.  A run's powers of z are Python numbers
spread over its nodes, so its pairs are the same bits alone or in any
batch (see :mod:`canonsys.solver`).  A caller that reads both sides of a z
asks for both bases at once (``side_bases``); one that reads one side
builds only that side; one that reads many z takes them in chunks of at
most ``PER_Z_CAP // 2`` z (``z_chunks``), the bases of each built in one
batch.

On an indivisible side, H = h xi_phi xi_phi^T of rank one with a fixed
angle phi, no limit is taken: the boundary pair of a solution is its value
at the regular endpoint, for every phi.  The same run (``_runs``) serves
all sides: it integrates the anchored solutions out to the last
extrapolation node, or, on an indivisible side with an interior anchor,
only back to the regular endpoint, where it reads the pairs (``err_est``
0, no samples).

What of a run from the regular endpoint does not depend on z is computed
once per side and kept in the problem's fixed store
(``IndefHamiltonianA.memo``) under ``("plan", side)``, beside the
w-families: the ``SidePlan`` holds the first round of the run's chain (its
panels, refined once at the solver's fixed probe z, ``solver.PROBE_Z``, H
at their nodes and the Schur tables of the diagonal ones) and w_Delta^T H
at those nodes, all read-only, and never changes after it is built.
``_runs`` passes it to the integrator as the run's first round
(``solver.Run.first``) and reads its w-values back for the limits, so a
fresh z that splits no panel beyond the plan's runs one collocation round
and evaluates neither H, nor w_Delta, nor a Schur table of a plan's panel;
on the example no z with |Re z| <= 8 and |Im z| <= 5 splits one.  Such a
z counts no split toward ``solver.MAX_SPLITS``, and at z = 0 the basis
keeps the probe's halves, where one panel would do.  y2 and S at the
extrapolation nodes come from one evaluation on the chain's panels.

Per side and z, one integration is computed once and kept in the problem's
cache (``IndefHamiltonianA.memo``) under ``("basis", side, z)``:
``side_basis``, the fundamental solution Phi anchored to the identity at the
regular endpoint, integrated out to the last extrapolation node, together
with the boundary pairs of its two rows (the rows of the boundary matrix U);
its chain keeps the propagators of its panels (``solver.PanelChain.phi``).
``side_bases`` reads several sides and z.  The cache keeps at most
``hamiltonian.PER_Z_CAP`` such entries (32 z on both sides), least
recently used evicted first.

The boundary map is linear and the solutions of a side are y = Phi^T c, so
every pair is read off that basis: ``SideBasis.pair(c)`` is U^T c, with
c = Phi(t)^(-T) y(t) = adj(Phi(t))^T y(t) from the value at any t in the
basis's range (det Phi = 1).  Shooting (``solve_from_gamma``), ``gamma_vec``
and the assembly in :mod:`canonsys.monodromy` read it there and integrate
nothing of their own; a point outside the basis's range (within about 9.5e-8
of the side's length from sigma, or off the side) raises DomainError, as any
evaluation there does.  ``gamma_columns`` takes its pairs from a given
anchor and start state instead: the run's own are that state, S anchored
at the anchor and the Neville tableau of its limits.  From an interior
anchor that is a plan break far enough from sigma to end at the plan's
last node (every side's midpoint is), on a side that is not indivisible,
it reads the side's basis at its z, built first when it is missing: it
takes the basis's resolved panels from that break on (``_basis_panels``)
and solves no collocation system, since a run from a break of the plan
resolves the same panels as the basis, to the same bits.  w_n at the
anchor is kept per such break and at the regular endpoint
(``_anchor_w``).  From any other anchor it collocates its own chain from a
first round of its own, and nothing is kept for it.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _chebpanels as cp
from . import solver as sv
from . import wpoly as wp
from .errors import CanonsysError, ConditioningError, DomainError, LimitError
from .hamiltonian import (PER_Z_CAP, PER_Z_KIND, IndefHamiltonianA, Side,
                          build_R)

EPS0_FRAC = 0.1      # first extrapolation node distance, relative to side length
K_NODES = 20         # geometric halvings of the node distance
TOL_LIMIT = 1e-6     # err_est above this (relative) raises LimitError
DET_RESIDUAL_TOL = 1e-8  # normalised |det U - d| above this raises ConditioningError


@dataclass(frozen=True)
class RegularisedBoundary:
    """Boundary pair of one solution on one side: (gamma_s, gamma_r)."""

    side: Side
    z: complex
    gamma_s: complex
    gamma_r: complex
    err_est: float
    # (x_k, second component, regularised functional) triples; none on an
    # indivisible side, whose pair is the value at the regular endpoint
    samples: tuple

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.gamma_s, self.gamma_r], dtype=complex)


def neville_limit(hs, vals):
    """Extrapolate vals(h) to h = 0; returns (value, err_est).

    Polynomial extrapolation through (h_k, val_k) evaluated at zero.  The
    whole tableau is formed first, one column at a time; then the entry with
    the smallest Ridders error (max difference to its two parents; the first
    such entry when several tie) wins, among the columns up to and including
    the first column m > 2 whose smallest error exceeds 8 times the best
    seen before it.

    ``hs`` must be finite, and pairwise distinct per sequence.  ``vals`` of
    shape (n,) gives one sequence on the 1-D ``hs`` and returns (complex,
    float); of shape (n, k) it gives k sequences and returns (values, errs)
    arrays of length k.  Their nodes are the 1-D ``hs``, shared, or the
    columns of an (n, k) ``hs``, one per sequence (sides of different
    length).  Column c is exactly ``neville_limit(hs[:, c], vals[:, c])``
    (``hs`` itself when shared), so the sequences are taken in blocks of
    columns (``solver.groups``), which bounds the tableau's memory.
    """
    hs = np.asarray(hs, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.complex128)
    if (not (hs.ndim == 1 or hs.shape == vals.shape)
            or not np.isfinite(hs).all()):
        raise DomainError(f"nodes must be a finite 1-D sequence or one per "
                          f"column of the values {vals.shape}, got {hs!r}")
    if vals.ndim not in (1, 2) or len(vals) != len(hs) or len(hs) == 0:
        raise DomainError(f"need as many values as nodes, at least one: "
                          f"nodes {hs.shape}, values {vals.shape}")
    n = len(vals)
    k = vals.size // n
    h = hs.reshape(n, -1)  # (n, 1) shared or (n, k)
    if not np.diff(np.sort(h, axis=0), axis=0).all():
        raise DomainError(f"nodes must be pairwise distinct, got {hs!r}")
    seqs = vals.reshape(n, k)
    best = np.empty(k, dtype=np.complex128)
    best_err = np.empty(k)
    for g in sv.groups([1] * k):
        best[g], best_err[g] = _neville_block(
            h if h.shape[1] == 1 else h[:, g], seqs[:, g])
    if vals.ndim == 1:
        return complex(best[0]), float(best_err[0])
    return best, best_err


def _neville_block(h, vals):
    """``neville_limit`` of the k sequences ``vals``, (n, k), on the nodes
    ``h``, (n, 1) shared or (n, k), checked: (values, errs)."""
    n, k = vals.shape
    cols = np.arange(k)
    idx = np.arange(n)
    # h as complex, one copy per sequence: the products below would cast
    # and broadcast it at every step
    hc = np.empty((n, k), dtype=np.complex128)
    hc[...] = h
    with np.errstate(all="ignore"):  # non-finite samples give inf/NaN errors
        # tableau column m in tab[m, :n - m]; the NaN beyond gives errors
        # that never win
        tab = np.full((n, n, k), np.nan, dtype=np.complex128)
        tab[0] = vals
        left = np.empty((n, k), dtype=np.complex128)
        for m in range(1, n):
            prev = tab[m - 1, :n - m + 1]
            cur = tab[m, :n - m]
            np.multiply(hc[:n - m], prev[1:], out=left[:n - m])
            np.multiply(hc[m:], prev[:-1], out=cur)
            np.subtract(left[:n - m], cur, out=cur)
            # the denominators h_i - h_(i+m), divided in as complex
            cur /= h[:n - m] - h[m:]
        # every entry's distance to its two parents, all columns at once
        err = np.empty((n, n, k))
        err[0] = err[:, n - 1] = np.inf
        cur, prev = tab[1:, :n - 1], tab[:-1]
        gap = cur - prev[:, 1:]
        np.abs(gap, out=err[1:, :n - 1])
        np.subtract(cur, prev[:, :-1], out=gap)
        np.maximum(err[1:, :n - 1], np.abs(gap), out=err[1:, :n - 1])
        err[np.isnan(err)] = np.inf  # a NaN entry never wins
        win = err.argmin(axis=1)  # first smallest error per column
        # cand[m]: the smallest error of column m; cand[0] that of the start
        cand = err[idx[:, None], win, cols]
        # (scalar abs: np.abs of an array can differ from it in the last bit)
        cand[0] = [abs(d) for d in tab[0, 1] - tab[0, 0]] if n > 1 else 0.0
        # the first column m > 2 that grows past 8x the running best ends
        # the search; it still counts
        grown = cand > 8.0 * np.minimum.accumulate(cand, axis=0)
        grown[:3] = False
        last = np.where(grown.any(axis=0), grown.argmax(axis=0), n - 1)
        cand[idx[:, None] > last] = np.inf
        # strict improvement over the running best: the first minimum wins,
        # and a NaN start error (argmin takes the first NaN) is never
        # improved on
        pick = cand.argmin(axis=0)
        best = tab[pick, win[pick, cols], cols]
        best_err = cand[pick, cols]
        if n >= 5:
            # scatter of the deepest linear extrapolants: ~0 for smooth
            # sequences, ~ the sample noise when that dominates; keeps
            # err_est honest when tableau entries agree by chance.  The
            # median of the three is the largest of the pairwise minima
            # (NaN when one is, as np.median gives it)
            d0, d1, d2 = np.abs(np.diff(tab[1, n - 5:n - 1], axis=0))
            mid = np.maximum(np.minimum(d0, d1),
                             np.minimum(np.maximum(d0, d1), d2))
            floor = 0.5 * mid
            # max(best_err, floor) as Python takes it: a NaN best_err stays
            best_err = np.where(floor > best_err, floor, best_err)
    return best, best_err


def adj(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 2x2 matrix: adj(m) m = det(m) I.

    Every matrix inverted in the pipeline has a known determinant, so its
    inverse is the adjugate over that constant; dividing by a computed
    determinant instead cancels once the entries grow like e^(|Im z| len).
    """
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


det_residual = sv.det_residual


def check_det(m: np.ndarray, d: complex, what: str) -> np.ndarray:
    """``m`` itself when its entries are finite and det m = d up to rounding.

    Above ``DET_RESIDUAL_TOL`` the normalised residual (``det_residual``)
    says the factor cannot be trusted and ConditioningError is raised.  A
    factor whose entries are not finite, or so large that the products of
    its determinant are not, has overflowed, and the error says so.
    """
    if not np.isfinite(m).all():
        raise ConditioningError(f"{what}: entries not finite (overflowed)",
                                matrix=m)
    with np.errstate(all="ignore"):
        prods = abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0])
    if not np.isfinite(prods):
        raise ConditioningError(
            f"{what}: entries overflowed: the products of its determinant "
            f"exceed float64 (largest |entry| {np.abs(m).max():.3e})",
            matrix=m)
    res = det_residual(m, d)
    if not res <= DET_RESIDUAL_TOL:
        raise ConditioningError(
            f"{what}: det residual {res:.3e} against det {complex(d):.6g} "
            f"(tolerance {DET_RESIDUAL_TOL:.0e})", matrix=m)
    return m


def node_distances(length: float, span: float) -> np.ndarray:
    """Distances of the extrapolation nodes to sigma, largest first."""
    return min(EPS0_FRAC * length, 0.5 * span) * 0.5 ** np.arange(K_NODES + 1)


def _extrapolation_nodes(h, sing: float, t_anchor: float):
    """(distances to sigma, nodes) of the extrapolation nodes of a run from
    ``t_anchor``, largest distance first (``node_distances``)."""
    hs = node_distances(h.length, abs(t_anchor - sing))
    return hs, sing - np.sign(sing - t_anchor) * hs


def _correction_values(ih: IndefHamiltonianA, side: Side, z: complex,
                       w_funcs, xs: np.ndarray) -> Optional[np.ndarray]:
    """sum over n <= Delta-1, Delta+1 <= j <= 2 Delta - n of z^(n+j) w_n^T J w_j;
    None when no pair contributes (Delta = 1 on a diagonal side)."""
    delta = ih.delta
    out = None
    diagonal = ih.side(side).is_diagonal
    for n in range(0, delta):
        for j in range(delta + 1, 2 * delta - n + 1):
            if diagonal and n % 2 == j % 2:
                continue  # pairs of equal parity vanish identically
            if out is None:
                out = np.zeros(len(xs), dtype=complex)
            out += z ** (n + j) * w_funcs[n].j_pair(w_funcs[j], xs)
    return out


@dataclass(frozen=True)
class SidePlan(sv.FirstRound):
    """The z-independent part of a side's run from its regular endpoint:
    the first round of its chain, refined once at ``solver.PROBE_Z``
    (panels, H at their nodes and the Schur tables of the diagonal ones,
    ``solver.refined_round``), and, on a side that is not indivisible,
    w_Delta^T H at those nodes, (P, DEGREE + 1, 2).  Built once, read-only
    and kept on the problem under ``("plan", side)`` for its life."""

    wh: Optional[np.ndarray] = None


def _side_plan(ih: IndefHamiltonianA, side: Side, h, t0, t1, sing) -> SidePlan:
    """The side's plan, built from the chain t0 -> t1 on first use.

    Passed to the integrator as the first round (``solver.Run.first``) of
    runs from the regular endpoint, which all end at the same last
    extrapolation node, so the plan needs no key beyond the side.
    """
    def build():
        rnd = sv.refined_round(h, sv.first_round(h, t0, t1, sing))
        if ih.indivisible(side).is_indivisible:
            return SidePlan(rnd.a, rnd.b, rnd.hm, rnd.schur)
        t = cp.nodes_between(rnd.a, rnd.b)
        wh = np.einsum("pja,pjab->pjb", wp.w_family_for(ih, side)[ih.delta](t),
                       rnd.hm)
        wh.setflags(write=False)
        return SidePlan(rnd.a, rnd.b, rnd.hm, rnd.schur, wh)

    return ih.memo(("plan", side), build)


def _w_at(ih: IndefHamiltonianA, side: Side, t: float) -> np.ndarray:
    """w_n at t for n <= Delta, (Delta + 1, 2)."""
    return np.array([f(t) for f in wp.w_family_for(ih, side)[:ih.delta + 1]])


def _anchor_w(ih: IndefHamiltonianA, side: Side, t: float,
              end: float) -> tuple:
    """(w_n at the anchor ``t`` for n <= Delta, whether a run from t to
    ``end`` reads the side's plan).  When it does, w_n is read-only and
    kept under ``("anchor", side, t)``; else nothing is kept.

    A run from the regular endpoint starts from the plan.  One from an
    interior anchor reads the side's basis when its own first round
    (``solver._initial_breaks``) is the end of the plan's before refining:
    the same last node, and the same breaks from t on.  It then solves the
    plan's panels from t on, splits them and resolves their halves exactly
    as the basis did at the same z, since every step treats a panel alike
    whatever else is in its chain or batch.  The test reads breaks alone
    and runs once per serving break.  A run ends at the plan's last node
    when |t - sigma| is at least 2 EPS0_FRAC times the side's length
    (``node_distances``), and a side's midpoint is its plan's first
    geometric break.
    """
    key = ("anchor", side, t)
    w = ih.cache.get(key)
    if w is not None:
        return w, True
    h, sing = ih.side(side), ih.sigma
    reg = h.regular_endpoint(side)
    if t != reg:
        if end != float(_extrapolation_nodes(h, sing, reg)[1][-1]):
            return _w_at(ih, side, t), False
        full = sv._initial_breaks(h, reg, end, sing)
        own = sv._initial_breaks(h, t, end, sing)
        if not np.array_equal(own, full[len(full) - len(own):]):
            return _w_at(ih, side, t), False

    def build():
        w = _w_at(ih, side, t)
        w.setflags(write=False)
        return w

    return ih.memo(key, build), True


def _basis_panels(basis: "SideBasis", t: float) -> tuple:
    """The resolved panels of the basis's chain from its break ``t`` on, as
    ``solver.Run.solved`` takes them: breaks, index in the side plan
    (``origin``), H at the nodes and propagators ``phi``."""
    chain = basis.solution.segments[0]
    j = int(np.flatnonzero(chain.breaks == t)[0])
    return (chain.breaks[j:-1], chain.breaks[j + 1:], chain.origin[j:],
            chain.hm.reshape(-1, cp.DEGREE + 1, 2, 2)[j:], chain.phi[j:])


class _Limited(NamedTuple):
    """A run whose boundary pairs are limits at sigma: its side and z, its
    anchor and anchored columns, its side's w-family and w_n at the anchor
    for n <= Delta, its chain, the side plan its panels' ``origin`` indexes
    (None: a first round of its own), and the distances ``hs`` of its
    extrapolation nodes ``xs`` to sigma."""

    side: Side
    z: complex
    t_anchor: float
    y_cols: np.ndarray
    w_funcs: list
    w_anchor: np.ndarray
    chain: sv.PanelChain
    plan: Optional[SidePlan]
    hs: np.ndarray
    xs: np.ndarray


def _functional(ih: IndefHamiltonianA, runs):
    """S of the solutions of every run: per run S at the anchor, one entry
    per anchored column, and the Chebyshev coefficients of S's change from
    the anchor on every panel of the run's chain.  A plan gives w at the
    anchor and w_Delta^T H on the panels it holds; only panels split off
    beyond it evaluate w_Delta.  S' = -z^(Delta+1) w_Delta^T H y is formed
    at the nodes of all chains, each run's -z^(Delta+1) a Python number
    spread over its nodes, and integrated panel by panel in one pass; a
    caller with many runs takes them in groups (``solver.groups``)."""
    delta = ih.delta
    n = cp.DEGREE + 1
    s0s, whs = [], []
    for run in runs:
        chain, plan, y_cols, z = run.chain, run.plan, run.y_cols, run.z
        # S at the anchor per column: sum_n z^n w_n^T J y
        s0s.append(sum(z ** k * (w[0] * (-y_cols[1, :]) + w[1] * y_cols[0, :])
                       for k, w in enumerate(run.w_anchor)))
        a, b = chain.breaks[:-1], chain.breaks[1:]
        wh = np.empty((len(a), n, 2))
        if plan is None:
            fresh = np.ones(len(a), dtype=bool)
        else:
            fresh = chain.origin < 0
            wh[~fresh] = plan.wh[chain.origin[~fresh]]
        if fresh.any():
            t = cp.nodes_between(a[fresh], b[fresh])
            wh[fresh] = np.einsum("pja,pjab->pjb", run.w_funcs[delta](t),
                                  chain.hm.reshape(len(a), n, 2, 2)[fresh])
        whs.append(wh.reshape(-1, 2))
    wh = np.concatenate(whs)[:, None, :, None]
    # y at every node in real numbers: (node, column, component, re/im)
    y = np.concatenate([run.chain.ys for run in runs]).view(np.float64)
    y = y.reshape(len(wh), -1, 2, 2)
    ds = wh[:, :, 0] * y[:, :, 0] + wh[:, :, 1] * y[:, :, 1]
    scale = np.repeat(np.array([-run.z ** (delta + 1) for run in runs]),
                      [len(run.chain.ys) for run in runs])
    ds = scale[:, None] * ds.view(np.complex128)[..., 0]
    return s0s, cp.cumulative_coefs(ds, [run.chain.breaks for run in runs])


def _limit_pairs(ih: IndefHamiltonianA, runs):
    """Boundary pairs of every column of every run, each at its own z: the
    Neville limits of y2 and of the corrected S, one list per run.

    S is formed and integrated per group of runs (``solver.groups``), and
    y2 and S at the extrapolation nodes of a group's runs come from one
    evaluation on the chains' panels, the state's second components and
    S's coefficients side by side.  Where S needs no correction by the
    limit of y2 (``_correction_values``), the limits of y2 and S of all
    columns take one tableau; else those of y2 take one, and those of the
    corrected S one more."""
    m = runs[0].y_cols.shape[1]
    s0s, both = [], []
    for g in sv.groups([len(run.chain.breaks) - 1 for run in runs]):
        s0, s_coefs = _functional(ih, runs[g])
        s0s += s0
        rows, lo, hi = [], [], []
        for run, sc in zip(runs[g], s_coefs):
            k = run.chain.locate(run.xs)
            rows.append(np.concatenate([run.chain.coefs[k][..., 1::2], sc[k]],
                                       axis=-1))
            lo.append(run.chain.breaks[k])
            hi.append(run.chain.breaks[k + 1])
        both.append(cp.series_values(
            np.concatenate(rows), np.concatenate(lo), np.concatenate(hi),
            np.concatenate([run.xs for run in runs[g]])))
    both = np.concatenate(both).reshape(len(runs), -1, 2 * m)
    corrs = [_correction_values(ih, run.side, run.z, run.w_funcs, run.xs)
             for run in runs]
    # one column per solution, run after run: (nodes, runs * m)
    y2s = np.concatenate(list(both[..., :m]), axis=1)
    s_vals = np.concatenate([s0 + b for s0, b in zip(s0s, both[..., m:])],
                            axis=1)
    hs = np.repeat(np.stack([run.hs for run in runs], axis=1), m, axis=1)
    if all(corr is None for corr in corrs):
        # S needs no correction: one tableau takes the columns of y2 and S
        # side by side, each as it would alone
        lims, errs = neville_limit(np.concatenate([hs, hs], axis=1),
                                   np.concatenate([y2s, s_vals], axis=1))
        (grs, gss), (errs_r, errs_s) = np.split(lims, 2), np.split(errs, 2)
        g_cols = s_vals
    else:
        grs, errs_r = neville_limit(hs, y2s)
        corr = np.stack([np.zeros(len(run.xs), dtype=complex) if c is None
                         else c for run, c in zip(runs, corrs)], axis=1)
        g_cols = s_vals - grs * np.repeat(corr, m, axis=1)
        gss, errs_s = neville_limit(hs, g_cols)
    grs, gss = grs.tolist(), gss.tolist()
    errs_r, errs_s = errs_r.tolist(), errs_s.tolist()
    out = []
    for r, run in enumerate(runs):
        pairs = []
        for c in range(r * m, (r + 1) * m):
            y2, g_vals, gs, gr = y2s[:, c], g_cols[:, c], gss[c], grs[c]
            err = max(errs_r[c], errs_s[c])
            scale = max(1.0, abs(gs), abs(gr))
            if not np.isfinite(err) or err > TOL_LIMIT * scale:
                raise LimitError(
                    f"boundary limit did not converge on side {run.side} at "
                    f"z={run.z} (err_est={err:.3e})",
                    samples=list(zip(run.xs, y2, g_vals)), err_est=err)
            pairs.append(RegularisedBoundary(
                run.side, run.z, complex(gs), complex(gr), float(err),
                tuple(zip(run.xs.tolist(), y2, g_vals))))
        out.append(pairs)
    return out


def _runs(ih: IndefHamiltonianA, requests):
    """For each (side, z, t_anchor, y_cols) of ``requests``: the solutions
    at z anchored by the columns of ``y_cols`` at ``t_anchor``, integrated
    to the side's last extrapolation node, and their boundary pairs.  All
    runs are integrated in one batch (``solver.integrate_dense``), and the
    limits of all runs on sides that are not indivisible are taken together
    (``_limit_pairs``).  The columns of all requests must have one size.

    On an indivisible side the pairs are the values at the regular endpoint,
    to which alone a run from an interior anchor integrates; on any other
    side they are the limits at sigma.  A run from the regular endpoint
    starts from the side's plan (``_side_plan``).  One from an interior
    anchor where the plan serves (``_anchor_w``) reads the side's basis at
    its z: it takes the basis's resolved panels from the anchor on
    (``_basis_panels``) and solves no panel.  The bases of those runs that
    are not cached are built first, all in one batch (``_build_bases``).  A
    basis cached under a zero of another sign is not the same bits, and
    such a run, like one from any other anchor, collocates its own chain.
    Returns per request (``solver.Solution``, one RegularisedBoundary per
    column).
    """
    starts, bases = [], {}
    for side, z, t_anchor, y_cols in requests:
        h, sing = ih.side(side), ih.sigma
        reg = h.regular_endpoint(side)
        lo, hi = h.interval
        if not (lo <= t_anchor <= hi):  # NaN fails too
            raise DomainError(f"anchor t={t_anchor} outside side {side}'s "
                              f"interval [{lo}, {hi}]")
        if t_anchor == sing:
            raise DomainError("anchor coincides with the singularity")
        hs, xs = _extrapolation_nodes(h, sing, t_anchor)
        target, w_anchor, key = float(xs[-1]), None, None
        if ih.indivisible(side).is_indivisible:
            if t_anchor != reg:
                target = reg  # where the pairs are read: no chain toward sigma
        else:
            w_anchor, kept = _anchor_w(ih, side, t_anchor, target)
            if kept and t_anchor != reg:
                key = (side, z)
                bases[key] = ih.cache.get((PER_Z_KIND, side, z))
        starts.append((reg, target, hs, xs, w_anchor, key))
    todo = [key for key, basis in bases.items() if basis is None]
    if todo:
        bases.update(_build_bases(ih, todo))
    runs, plans = [], []
    for (side, z, t_anchor, y_cols), start in zip(requests, starts):
        h, sing = ih.side(side), ih.sigma
        reg, target, *_, key = start
        basis = bases.get(key)
        if basis is not None and repr(basis.solution.z) != repr(z):
            basis = None  # a zero of another sign: not the same bits
        plan = (_side_plan(ih, side, h, reg, target, sing)
                if t_anchor == reg or basis is not None else None)
        solved = None if basis is None else _basis_panels(basis, t_anchor)
        runs.append(sv.Run(z, h, t_anchor, y_cols.T.reshape(-1), [target],
                           sing, plan if solved is None else None, solved))
        plans.append(plan)
    sols = sv.integrate_dense(runs)
    pairs, limited = [], []
    for request, sol, start, plan in zip(requests, sols, starts, plans):
        side, z, t_anchor, y_cols = request
        reg, _, hs, xs, w_anchor, _ = start
        if w_anchor is None:  # an indivisible side
            pairs.append([RegularisedBoundary(side, z, complex(gs),
                                              complex(gr), 0.0, ())
                          for gs, gr in sol.eval_state(reg).reshape(-1, 2)])
            continue
        limited.append(_Limited(side, z, t_anchor, y_cols,
                                wp.w_family_for(ih, side), w_anchor,
                                sol.segments[0], plan, hs, xs))
        pairs.append(None)
    if limited:
        found = iter(_limit_pairs(ih, limited))
        pairs = [next(found) if p is None else p for p in pairs]
    return list(zip(sols, pairs))


def gamma_columns(ih: IndefHamiltonianA, side: Side, z: complex,
                  t_anchor: float, y_cols):
    """Boundary pairs of the solutions with given values at the anchor,
    integrated from there.

    ``y_cols`` is a (2, m) matrix whose columns anchor m solutions at
    ``t_anchor``; all m are solved together.  Returns a list of m
    RegularisedBoundary objects.
    """
    return gamma_columns_batch(ih, [(side, z, t_anchor, y_cols)])[0]


def gamma_columns_batch(ih: IndefHamiltonianA, requests) -> list:
    """``gamma_columns`` of every (side, z, t_anchor, y_cols) of
    ``requests``, integrated in one batch (``_runs``); each request's
    columns give the same pairs as alone.  All ``y_cols`` must have as
    many columns.  Returns one list of RegularisedBoundary per request.
    """
    reqs = [(side, sv.finite_z(z), t_anchor,
             np.asarray(y_cols, dtype=np.complex128).reshape(2, -1))
            for side, z, t_anchor, y_cols in requests]
    return [pairs for _, pairs in _runs(ih, reqs)]


def gamma_vec(fhat, ih: IndefHamiltonianA, side: Side) -> RegularisedBoundary:
    """Stacked boundary pair (gamma_s, gamma_r) of one solution sampler.

    Read off the side's cached basis (``SideBasis.pair``) from the
    sampler's value at the regular endpoint, or at its anchor when it does
    not reach that endpoint (DomainError outside the basis's range).
    """
    reg = ih.side(side).regular_endpoint(side)
    t_a = reg if sv.in_range(reg, *fhat.interval) else float(fhat.anchor_t)
    y_a = np.asarray(fhat.eval(t_a), dtype=np.complex128)
    basis = side_basis(ih, side, fhat.z)
    return basis.pair(adj(basis.solution.eval(t_a)).T @ y_a)


@dataclass(frozen=True)
class SideBasis:
    """Fundamental solution Phi of one side, identity at its regular
    endpoint, and the boundary pairs of its two rows (rows of the boundary
    matrix U).  A run from a serving break of the side plan at the same z
    takes the propagators of the solution's chain
    (``solver.PanelChain.phi``) in place of solving those panels
    (``_basis_panels``)."""

    solution: sv.Solution
    pairs: tuple

    @property
    def matrix(self) -> np.ndarray:
        return np.array([p.vec for p in self.pairs])

    def pair(self, c) -> RegularisedBoundary:
        """Boundary pair of the solution y = Phi^T c, whose value at the
        regular endpoint is c: U^T c, with samples and error estimate
        combined from the rows' ones."""
        c0, c1 = np.asarray(c, dtype=np.complex128)
        p0, p1 = self.pairs
        samples = tuple((x, c0 * y0 + c1 * y1, c0 * g0 + c1 * g1)
                        for (x, y0, g0), (_, y1, g1)
                        in zip(p0.samples, p1.samples))
        return RegularisedBoundary(
            p0.side, p0.z, complex(c0 * p0.gamma_s + c1 * p1.gamma_s),
            complex(c0 * p0.gamma_r + c1 * p1.gamma_r),
            float(abs(c0) * p0.err_est + abs(c1) * p1.err_est), samples)


def _build_bases(ih: IndefHamiltonianA, todo) -> dict:
    """The bases of the (side, z) pairs of ``todo``, integrated in one batch
    (``_runs``) and stored in the problem's cache; per pair the value the
    cache holds, the first one stored.

    One integration gives each basis: the solution is the dense output of
    the pairs' run, from the regular endpoint to the last extrapolation
    node, one chain, which keeps the propagators of its panels.
    """
    eye = np.eye(2, dtype=np.complex128)
    runs = _runs(ih, [(side, z, ih.side(side).regular_endpoint(side), eye)
                      for side, z in todo])
    return {(side, z): ih.cache.store((PER_Z_KIND, side, z),
                                      SideBasis(sol, tuple(pairs)))
            for (side, z), (sol, pairs) in zip(todo, runs)}


def z_chunks(ih: IndefHamiltonianA, zs, sides=("minus", "plus")):
    """``zs`` in order, at most ``PER_Z_CAP // 2`` z per chunk (32), the
    largest chunk whose bases on both sides cannot evict each other: the
    one place a z grid is cut into batches.  Before a chunk of two or more
    z is yielded, the bases of ``sides`` its finite z lack are built in one
    batch; a batch that raises is built again z by z, and a z that fails
    alone is left to its read, which raises its own error.  Read each chunk
    before asking for the next, or a grid longer than the cache
    (``PER_Z_CAP`` bases) evicts its first bases before they are read."""
    zs = list(zs)
    step = PER_Z_CAP // 2
    for lo in range(0, len(zs), step):
        chunk = zs[lo:lo + step]
        if len(chunk) > 1:
            todo = {z: [(side, z) for side in sides
                        if (PER_Z_KIND, side, z) not in ih.cache]
                    for z in map(complex, chunk) if cmath.isfinite(z)}
            todo = [pairs for pairs in todo.values() if pairs]
            try:
                if todo:
                    _build_bases(ih, [pair for pairs in todo for pair in pairs])
            except CanonsysError:  # each z again alone
                for pairs in todo:
                    with contextlib.suppress(CanonsysError):
                        _build_bases(ih, pairs)
        yield chunk


def side_bases(ih: IndefHamiltonianA, zs, sides=("minus", "plus")) -> list:
    """The bases of ``sides`` at every z of ``zs``, one tuple per z, each
    cached on the problem per (side, z) and read chunk by chunk
    (``z_chunks``).  A z missing at its read (a single z, or one that
    failed in its chunk) is built then, with its sides not cached yet; a z
    that fails raises its own error, the one it raises built alone.
    """
    zs = [sv.finite_z(z) for z in zs]

    def build(side, z):
        # missing at its read: a single z, one that failed in its chunk, or
        # one a thread evicted since
        todo = [(s, z) for s in sides
                if s == side or (PER_Z_KIND, s, z) not in ih.cache]
        return _build_bases(ih, todo)[side, z]

    return [tuple(ih.memo((PER_Z_KIND, side, z),
                          functools.partial(build, side, z))
                  for side in sides)
            for chunk in z_chunks(ih, zs, sides) for z in chunk]


def side_basis(ih: IndefHamiltonianA, side: Side, z: complex) -> SideBasis:
    """The basis of one side, cached on the problem per (side, z); only
    that side is integrated when it is missing (``side_bases``)."""
    return side_bases(ih, [z], (side,))[0][0]


def solve_from_gamma(ih: IndefHamiltonianA, side: Side, z: complex, c):
    """The unique solution whose boundary pair equals c (shooting).

    The basis solutions anchored at the regular endpoint and their boundary
    pairs depend only on (side, z) and come from the problem's cache
    (``side_basis``); the 2x2 system they form has det 1 and is solved by
    its adjugate.  A basis matrix whose determinant is not 1 up to rounding
    would contradict bijectivity of the boundary map and raises instead.
    The sampler covers the basis's range, from the regular endpoint to the
    last extrapolation node; on an indivisible side U = I and its value at
    the regular endpoint is c.
    """
    c = sv.finite_start(c, (2,), "c")
    z = sv.finite_z(z)
    basis = side_basis(ih, side, z)
    cols = [basis.solution.row_sampler(0), basis.solution.row_sampler(1)]
    g = check_det(basis.matrix.T, 1.0, "boundary matrix of the basis "
                  "(contradicting bijectivity)")
    return sv.CombinedSampler(adj(g) @ c, cols)


def interface_residual(ih: IndefHamiltonianA, fhat_minus, fhat_plus,
                       z: complex) -> np.ndarray:
    """Gamma_plus(f+) - R(z) Gamma_minus(f-); small iff the pair matches.

    Both pairs are read off the cached bases (``gamma_vec``); for samplers
    built from those bases the residual is then an algebraic identity and
    checks the assembly, not the extrapolation.  ``run_validation`` checks
    the interface with pairs of runs from the sides' midpoints instead.
    """
    gm = gamma_vec(fhat_minus, ih, "minus")
    gp = gamma_vec(fhat_plus, ih, "plus")
    return gp.vec - build_R(ih, z) @ gm.vec
