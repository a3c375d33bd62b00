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


def geometric_panels(reg: float, sing: float, inner_breaks=(),
                     n_geo: int = N_GEOMETRIC) -> np.ndarray:
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
    for k in range(1, n_geo + 1):
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
        n = len(self.breaks) - 1
        br = self.breaks if self._asc else self.breaks[::-1]
        k = np.clip(np.searchsorted(br, tt, side="right") - 1, 0, n - 1)
        if not self._asc:
            k = n - 1 - k
        a, b = self.breaks[k], self.breaks[k + 1]
        x = np.clip((2.0 * tt - a - b) / (b - a), -1.0, 1.0)
        vander = _cheb.chebvander(x, self.coefs.shape[1] - 1)
        c = self.coefs[k].reshape(tt.shape + (self.coefs.shape[1], -1))
        out = np.einsum("...j,...jm->...m", vander, c)
        return out.reshape(t.shape + self.coefs.shape[2:])[()]


def _panel_integrals(fn, breaks):
    """Antiderivatives and definite integrals of ``fn`` on every panel.

    ``fn`` is called once, on the nodes of all panels together (a flat
    array); its values may be real or complex and may carry trailing
    dimensions.  Returns the DEGREE + 2 Chebyshev coefficients of each
    panel's antiderivative from its first break, shape (P, DEGREE + 2, ...),
    and the panel integrals, shape (P, ...).
    """
    breaks = np.asarray(breaks, dtype=np.float64)
    a, b = breaks[:-1], breaks[1:]
    t = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _NODES
    vals = np.asarray(fn(t.ravel()))
    vals = vals.reshape(t.shape + vals.shape[1:])
    hw = (0.5 * (b - a)).reshape((-1,) + (1,) * (vals.ndim - 2))
    coef = np.einsum("ij,pj...->pi...", CUMINT_COEFS, vals) * hw[:, None]
    integrals = np.einsum("j,pj...->p...", END_WEIGHTS, vals) * hw
    return coef, integrals


def _geometric_ratio(integrals, rel_floor=1e-280):
    """Common ratio of the innermost panel integrals (0 when they vanish)."""
    last = integrals[-4:]
    if np.max(np.abs(last)) < rel_floor:
        return 0.0
    ratios = [last[i + 1] / last[i]
              for i in range(len(last) - 1) if abs(last[i]) > rel_floor]
    if not ratios:
        return 0.0
    r = float(np.median(ratios))
    if abs(r) >= 0.999:
        raise IntegrationError(
            f"integral does not converge at the singular endpoint "
            f"(panel ratio {r:.6f}); innermost panel integrals {last.tolist()}"
        )
    return r


def cumulative_from_start(fn, breaks) -> PanelFunction:
    """F(t) = integral of fn from breaks[0] to t, on the whole chain."""
    coef, integrals = _panel_integrals(fn, breaks)
    coef[1:, 0] += np.cumsum(integrals[:-1], axis=0)
    return PanelFunction(breaks, coef)


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


def panel_quad_complex(fn, a: float, b: float, n_panels: int = 16) -> complex:
    """Definite integral of a smooth function by fixed Chebyshev panels."""
    _, integrals = _panel_integrals(fn, np.linspace(a, b, n_panels + 1))
    return complex(np.sum(integrals))
