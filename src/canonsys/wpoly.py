"""Iterated Volterra integrals and the regularising function family.

The integral operator maps f to the cumulative integral of J H f taken from
the *regular* endpoint of a side (for the right-hand side this is the
endpoint variant: -int_t^{s+} JHf equals int_{s+}^t JHf, so one code path
covers both orientations).  The functions w_n built from it weigh the
regularised boundary value at the singularity; on diagonal Hamiltonians they
reduce to a scalar recursion that alternates between an integral anchored at
the regular endpoint and one pinned at the singularity:

    w_0 = 1,
    w_{n+1}(t) = -int_reg^t h2 w_n   (n even),
    w_{n+1}(t) = -int_t^sing h1 w_n  (n odd),

with the vector function carrying w_n in the second component for even n and
in the first for odd n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _chebpanels as cp
from .errors import ConfigError, IntegrationError, UnsupportedSpecError
from .hamiltonian import Hamiltonian, IndefHamiltonianA, Side

DERIV_TOL = 1e-6     # finite-difference check of w_n' = J H w_{n-1}
MATCH_TOL = 1e-8     # diagonal vs general construction agreement


class _Const:
    """Constant function compatible with PanelFunction evaluation."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.full_like(t, self.value)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WFunction:
    """One regularising function: evaluable t -> R^2 with its coefficient."""

    side: Side
    index: int
    omega: float
    comp1: object  # callables t -> float array; _Const(0.0) when absent
    comp2: object

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=np.float64)
        out = np.stack([np.broadcast_to(self.comp1(ts), ts.shape),
                        np.broadcast_to(self.comp2(ts), ts.shape)], axis=-1)
        return out

    def j_pair(self, other: "WFunction", ts):
        """w_self(t)^T J w_other(t) pointwise."""
        a = self(ts)
        b = other(ts)
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _check_finite(F, what):
    """The antiderivative ``F``; IntegrationError naming the first panel on
    which it is not finite."""
    bad = ~np.isfinite(F.coefs).reshape(len(F.coefs), -1).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise IntegrationError(
            f"{what} is not integrable on panel "
            f"[{F.breaks[k]}, {F.breaks[k + 1]}]")
    return F


def volterra_transform(h: Hamiltonian, f, side: Side):
    """The integral operator applied to an evaluable C^2-valued f.

    Returns an evaluable t -> C^2.  f must map a float array to an array with
    trailing dimension 2.
    """
    def integrand(ts):  # J H f = (-(h3 f1 + h2 f2), h1 f1 + h3 f2)
        v = np.asarray(f(ts))
        h1, h2, h3 = h.h1(ts), h.h2(ts), h.h3(ts)
        return np.stack([-(h3 * v[..., 0] + h2 * v[..., 1]),
                         h1 * v[..., 0] + h3 * v[..., 1]], axis=-1)

    return _check_finite(cp.cumulative_from_start(integrand, h.panels(side)),
                         "J H f")


# ---------------------------------------------------------------------------
# diagonal construction

def _diagonal_scalars(h: Hamiltonian, side: Side, n_max: int):
    """Scalar functions w_0..w_n_max of the diagonal recursion."""
    breaks = h.panels(side)
    ws = [_Const(1.0)]
    for n in range(1, n_max + 1):
        prev = ws[-1]
        if (n - 1) % 2 == 0:
            fn = (lambda ts, p=prev: -h.h2(ts) * np.asarray(p(ts)))
            ws.append(_check_finite(cp.cumulative_from_start(fn, breaks),
                                    f"h2*w_{n - 1}"))
        else:
            fn = (lambda ts, p=prev: h.h1(ts) * np.asarray(p(ts)))
            ws.append(cp.cumulative_from_singular(fn, breaks))
    return ws


def build_w_family(h: Hamiltonian, side: Side, n_max: int,
                   omegas: Optional[Sequence[float]] = None):
    """w_0..w_n_max on one side, diagonal recursion or general construction."""
    if omegas is not None:
        return [w_n_general(h, side, n, omegas) for n in range(n_max + 1)]
    if not h.is_diagonal:
        raise UnsupportedSpecError(
            "non-diagonal Hamiltonian: the coefficient sequence omega is not "
            "constructive here; supply it and use w_n_general")
    scalars = _diagonal_scalars(h, side, n_max)
    reg = h.regular_endpoint(side)
    out = []
    zero = _Const(0.0)
    for n, w in enumerate(scalars):
        if n % 2 == 0:
            omega = 1.0 if n == 0 else float(w(reg))
            out.append(WFunction(side, n, omega, zero, w))
        else:
            out.append(WFunction(side, n, 0.0, w, zero))
    return out


def w_n_diagonal(h: Hamiltonian, side: Side, n: int) -> WFunction:
    """n-th regularising function via the diagonal scalar recursion."""
    return build_w_family(h, side, n)[n]


def w_n_general(h: Hamiltonian, side: Side, n: int,
                omegas: Sequence[float]) -> WFunction:
    """n-th regularising function as nested Volterra applications.

    omegas supplies omega_1..omega_n (omega_0 = 1 implied by index 0);
    the function is sum_k I^k (0, omega_{n-k})^T evaluated Horner-style.
    """
    if omegas is None or len(omegas) < n + 1:
        raise ConfigError(
            f"w_{n} needs omega_0..omega_{n} (got "
            f"{0 if omegas is None else len(omegas)})")
    if omegas[0] != 1.0:
        raise ConfigError("omega_0 must equal 1")
    if n == 0:
        return WFunction(side, 0, 1.0, _Const(0.0), _Const(1.0))

    # Horner from the innermost coefficient:
    # A_0 = (0, omega_0), A_j = I(A_{j-1}) + (0, omega_j); the result is A_n.
    def acc(ts):
        ts = np.asarray(ts, dtype=np.float64)
        return np.stack([np.zeros_like(ts), np.ones_like(ts)], axis=-1)

    for j in range(1, n + 1):
        inner = volterra_transform(h, acc, side)

        def acc(ts, inner=inner, c=float(omegas[j])):
            v = np.array(inner(ts))
            v[..., 1] = v[..., 1] + c
            return v

    final = acc

    def comp1(ts):
        return np.real(final(ts))[..., 0]

    def comp2(ts):
        return np.real(final(ts))[..., 1]

    return WFunction(side, n, float(omegas[n]), comp1, comp2)


def omega_sequence(ih: IndefHamiltonianA, side: Side, n_max: int):
    """omega_0..omega_n_max for a side (user override or diagonal recursion)."""
    user = ih.omegas(side)
    if user is not None:
        return tuple(user[:n_max + 1])
    fam = w_family_for(ih, side, n_max)
    return tuple(w.omega for w in fam)


def w_family_for(ih: IndefHamiltonianA, side: Side, n_max: Optional[int] = None):
    """Family w_0..w_{n_max} for one side of a problem, memoised on it.

    The default n_max is 2*delta for non-diagonal sides and 2*delta - 1 for
    diagonal ones (the top function pairs to zero with w_0 there and never
    enters the boundary-value sums).
    """
    h = ih.side(side)
    if n_max is None:
        n_max = 2 * ih.delta - 1 if h.is_diagonal else 2 * ih.delta
    user = ih.omegas(side)
    if user is None and not h.is_diagonal:
        raise ConfigError(
            f"side {side} is non-diagonal: supply omega_{side} in the problem")
    return ih.memo(("wfam", side, n_max),
                   lambda: build_w_family(h, side, n_max, omegas=user))


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class DeltaReport:
    w_delta_in_L2: bool
    w_deltaminus1_in_L2: bool
    consistent: bool
    tail_norms: list


def _l2_tail(h: Hamiltonian, side: Side, w: WFunction):
    breaks = h.panels(side)

    def integrand(ts):
        v = w(ts)
        return (h.h1(ts) * v[..., 0] ** 2 + 2.0 * h.h3(ts) * v[..., 0] * v[..., 1]
                + h.h2(ts) * v[..., 1] ** 2)

    _, integrals = cp._panel_integrals(integrand, breaks)
    from .hamiltonian import _tail_diagnostic
    return _tail_diagnostic(np.abs(integrals))


def delta_diagnostic(h: Hamiltonian, side: Side, delta: int,
                     omegas: Optional[Sequence[float]] = None) -> DeltaReport:
    """Numeric test that delta is the first index with w_delta in L2(H)."""
    if delta < 1:
        raise ConfigError("delta must be >= 1")
    fam = build_w_family(h, side, delta, omegas=omegas)
    rep_d = _l2_tail(h, side, fam[delta])
    rep_dm1 = _l2_tail(h, side, fam[delta - 1])
    consistent = rep_d.converges and not rep_dm1.converges
    return DeltaReport(rep_d.converges, rep_dm1.converges, consistent,
                       [rep_dm1.tail_estimates, rep_d.tail_estimates])
