"""Piecewise-Chebyshev representation of functions on panels refined
geometrically toward a singular endpoint.

Hamiltonian entries blow up like powers of the distance to the singularity
sigma; on panels whose endpoints are ``sigma -+ L * 2**-k`` they are smooth
with moderate variation, so a fixed-degree Chebyshev interpolant per panel is
spectrally accurate.  Antiderivatives are taken exactly in coefficient space
and chained cumulatively across panels, which is how the iterated Volterra
integrals and the regularising functions are built and cached.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import IntegrationError

DEGREE = 23          # per-panel interpolation degree
N_GEOMETRIC = 45     # geometric halvings toward the singular endpoint; the
                     # deepest break must stay resolvable in float64

# first-kind Chebyshev points (strictly interior: integrands are never
# evaluated at panel endpoints, where entries may be infinite)
_NODES = np.cos(np.pi * (2 * np.arange(DEGREE + 1) + 1) / (2 * (DEGREE + 1)))
_VALS_TO_COEFS = np.linalg.inv(_cheb.chebvander(_NODES, DEGREE))

# Spectral integration on [-1, 1]: node values of f map to the DEGREE + 2
# Chebyshev coefficients of its interpolant's antiderivative from -1
# (CUMINT_COEFS), to that antiderivative at the nodes (CUMINT, the matrix Q of
# the collocation solve) and at x = 1 (END_WEIGHTS, Fejer's first rule).
CUMINT_COEFS = np.stack([_cheb.chebint(e, lbnd=-1)
                         for e in np.eye(DEGREE + 1)], axis=1) @ _VALS_TO_COEFS
CUMINT = _cheb.chebvander(_NODES, DEGREE + 1) @ CUMINT_COEFS
END_WEIGHTS = np.ones(DEGREE + 2) @ CUMINT_COEFS
# shared by every thread that integrates: a stray in-place write would
# corrupt all later results, so it raises instead
for _table in (_NODES, _VALS_TO_COEFS, CUMINT_COEFS, CUMINT, END_WEIGHTS):
    _table.setflags(write=False)
del _table


def geometric_panels(reg: float, sing: float, inner_breaks=()) -> np.ndarray:
    """Panel breakpoints from the regular endpoint toward the singular one.

    Breaks sit at ``sing -+ L * 2**-k`` plus any ``inner_breaks`` (piece
    boundaries of a piecewise Hamiltonian); the chain stops once breaks become
    unresolvable in float64 near ``sing``.
    """
    length = abs(sing - reg)
    if length <= 0:
        raise ValueError("empty interval")
    direction = 1.0 if sing > reg else -1.0
    eps_floor = 64.0 * np.finfo(np.float64).eps * max(1.0, abs(sing))
    pts = [reg]
    for b in inner_breaks:
        if direction * (b - reg) > 1e-13 * length and direction * (sing - b) > 1e-13 * length:
            pts.append(float(b))
    for k in range(1, N_GEOMETRIC + 1):
        d = length * 0.5 ** k
        if d < eps_floor:
            break
        pts.append(sing - direction * d)
    pts = sorted(set(pts), key=lambda x: direction * x)
    # drop breaks collapsing onto a neighbour
    out = [pts[0]]
    for p in pts[1:]:
        if abs(p - out[-1]) > eps_floor:
            out.append(p)
    return np.array(out)


class PanelFunction:
    """A function stored as Chebyshev series on a chain of panels.

    ``coefs`` has one row of series coefficients per panel, optionally
    followed by trailing dimensions (a vector- or complex-valued function);
    values have the shape of ``t`` followed by those dimensions.
    ``breaks`` is monotone (either direction); evaluation clamps to the
    covered range, which for antiderivatives anchored inside the chain is the
    documented behaviour (the chain always extends far beyond any point the
    pipeline evaluates at).
    """

    __slots__ = ("breaks", "coefs", "_asc")

    def __init__(self, breaks: np.ndarray, coefs: np.ndarray):
        self.breaks = np.asarray(breaks, dtype=np.float64)
        self.coefs = np.asarray(coefs)
        self._asc = self.breaks[-1] >= self.breaks[0]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        tt = np.atleast_1d(t)
        k = self.locate(tt)
        out = series_values(self.coefs[k], self.breaks[k],
                            self.breaks[k + 1], tt)
        return out.reshape(t.shape + self.coefs.shape[2:])[()]

    def locate(self, t) -> np.ndarray:
        """Index of the panel of every point of ``t``, clamped to the chain."""
        n = len(self.breaks) - 1
        br = self.breaks if self._asc else self.breaks[::-1]
        k = np.minimum(np.maximum(np.searchsorted(br, t, side="right") - 1,
                                  0), n - 1)
        return k if self._asc else n - 1 - k


def series_values(coefs, a, b, t) -> np.ndarray:
    """Values at the points ``t`` (at least 1-D) of Chebyshev series on
    panels, point by point: ``coefs`` holds one series per point,
    (t.shape, degree + 1, ...), on the panel [a, b] of that point (clamped
    to it).

    The basis is built in place by the three-term recurrence T_i =
    T_(i-1) 2x - T_(i-2), in the same operations and layout as
    ``numpy.polynomial.chebyshev.chebvander``, so the values are the same
    bits, without its per-call overhead.
    """
    x = np.minimum(np.maximum((2.0 * t - a - b) / (b - a), -1.0), 1.0)
    deg = coefs.shape[t.ndim] - 1
    v = np.empty((deg + 1,) + x.shape)
    rows = list(v)
    np.multiply(x, 0.0, out=rows[0])
    rows[0] += 1.0  # x * 0 + 1 as chebvander forms it: NaN stays NaN
    if deg > 0:
        rows[1][...] = x
        x2 = 2.0 * x
        for i in range(2, deg + 1):
            np.multiply(rows[i - 1], x2, out=rows[i])
            np.subtract(rows[i], rows[i - 2], out=rows[i])
    c = coefs.reshape(t.shape + (deg + 1, -1))
    out = np.einsum("...j,...jm->...m", np.moveaxis(v, 0, -1), c)
    return out.reshape(t.shape + coefs.shape[t.ndim + 1:])


def panel_nodes(breaks) -> np.ndarray:
    """Nodes (..., P, DEGREE + 1) of the panels between breaks (last axis)."""
    breaks = np.asarray(breaks, dtype=np.float64)
    return nodes_between(breaks[..., :-1], breaks[..., 1:])


def nodes_between(a, b) -> np.ndarray:
    """Nodes (..., P, DEGREE + 1) of the panels [a_k, b_k], which need not
    be adjacent."""
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _node_integrals(vals, hw):
    """Antiderivatives and definite integrals on every panel, of half-width
    ``hw``, of the integrand whose values at the panels' nodes are ``vals``,
    panel after panel; values may be real or complex and carry trailing
    dimensions.  Returns the DEGREE + 2 Chebyshev coefficients of each
    panel's antiderivative from its first break, (P, DEGREE + 2, ...), and
    the panel integrals, (P, ...).  Each panel is one product with the
    constant tables, so a panel's result does not depend on the others.
    """
    vals = np.asarray(vals)
    p, rest = len(hw), vals.shape[1:]
    v = np.ascontiguousarray(vals.reshape(p, DEGREE + 1, -1))
    if np.iscomplexobj(v):
        v = v.view(np.float64)  # real and imaginary parts as columns
    coef = (CUMINT_COEFS @ v) * hw[:, None, None]
    integrals = (END_WEIGHTS @ v) * hw[:, None]
    if np.iscomplexobj(vals):
        coef, integrals = coef.view(vals.dtype), integrals.view(vals.dtype)
    return coef.reshape((p, DEGREE + 2) + rest), integrals.reshape((p,) + rest)


def _half_widths(breaks) -> np.ndarray:
    return 0.5 * np.diff(np.asarray(breaks, dtype=np.float64))


def _panel_integrals(fn, breaks):
    """``_node_integrals`` of ``fn`` on the chain ``breaks``, called once on
    all nodes (flat)."""
    return _node_integrals(fn(panel_nodes(breaks).ravel()),
                           _half_widths(breaks))


def tail_ratio(integrals) -> float:
    """Median ratio of consecutive panel integrals among the last four, over
    the pairs whose first integral is not below 1e-300 in magnitude; 0 when
    there is no such pair (the integrals vanish)."""
    last = integrals[-4:]
    ratios = [last[i + 1] / last[i]
              for i in range(len(last) - 1) if abs(last[i]) > 1e-300]
    return float(np.median(ratios)) if ratios else 0.0


def _geometric_ratio(integrals):
    """Common ratio of the innermost panel integrals (0 when they vanish)."""
    r = tail_ratio(integrals)
    if abs(r) >= 0.999:
        raise IntegrationError(
            f"integral does not converge at the singular endpoint "
            f"(panel ratio {r:.6f}); innermost panel integrals "
            f"{integrals[-4:].tolist()}")
    return r


def cumulative_from_values(vals, breaks) -> PanelFunction:
    """F(t) = integral from breaks[0] to t of the integrand whose values at
    ``panel_nodes(breaks)`` are ``vals``."""
    return PanelFunction(breaks, cumulative_coefs(vals, [breaks])[0])


def cumulative_coefs(vals, chains) -> list:
    """Per chain of breaks in ``chains``, the coefficients (P, DEGREE + 2,
    ...) of F(t) = integral from its first break to t of the integrand
    whose values at the nodes of all chains, chain after chain, are
    ``vals``.  The panels of all chains are integrated in one pass; the
    running sum is taken per chain, so a chain's coefficients do not depend
    on the others."""
    hws = [_half_widths(br) for br in chains]
    coef, integrals = _node_integrals(vals, np.concatenate(hws))
    out, lo = [], 0
    for hw in hws:
        hi = lo + len(hw)
        c = coef[lo:hi]
        c[1:, 0] += np.cumsum(integrals[lo:hi - 1], axis=0)
        out.append(c)
        lo = hi
    return out


def cumulative_from_start(fn, breaks) -> PanelFunction:
    """F(t) = integral of fn from breaks[0] to t, on the whole chain."""
    return cumulative_from_values(fn(panel_nodes(breaks).ravel()), breaks)


def cumulative_from_singular(fn, breaks) -> PanelFunction:
    """F(t) = integral of fn from the singular end (breaks[-1] side) to t.

    The unresolved remainder between breaks[-1] and the true singular point is
    added as a geometric tail estimate, so F is anchored at the singularity
    itself.  Requires fn integrable there (checked via the panel ratio).
    """
    coef, integrals = _panel_integrals(fn, breaks)
    n = len(integrals)
    # Node positions inside a panel are quantised to the float grid around the
    # singular point; panels narrower than ~1e9 ulp carry relative integral
    # noise above 1e-9.  Estimate the geometric ratio at the deepest panel
    # still below that noise level and continue the model past it.
    widths = np.abs(np.diff(breaks))
    quant = np.finfo(np.float64).eps * max(1.0, abs(breaks[-1])) / widths
    usable = np.nonzero(quant <= 1e-9)[0]
    k0 = int(usable[-1]) if len(usable) else n - 1
    r = _geometric_ratio(integrals[:k0 + 1])
    tail_k0 = integrals[k0] * r / (1.0 - r)  # sum of model panels beyond k0
    # suffix[k] = integral from breaks[k+1] to the singular point
    inner = integrals[1:k0 + 1][::-1]
    suffix = np.concatenate([np.cumsum(inner)[::-1], [0.0]]) + tail_k0
    suffix = np.concatenate([suffix, tail_k0 * r ** np.arange(1, n - k0)])
    coef[:, 0] -= suffix + integrals
    return PanelFunction(breaks, coef)


def panel_quad_complex(fn, a: float, b: float) -> complex:
    """Definite integral of a smooth function by 24 fixed Chebyshev panels."""
    _, integrals = _panel_integrals(fn, np.linspace(a, b, 25))
    return complex(np.sum(integrals))
