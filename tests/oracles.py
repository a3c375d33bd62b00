"""Exact oracles beyond the example's exponent 2, for the tests.

``reparametrised_problem_dict`` maps the example through a piecewise-affine
change of variable, whose closed forms are the example's at the points
``phi_inverse`` gives; ``bessel_w`` is
the fundamental solution on a side of diag(s^alpha, s^-alpha), s = |t - 1|,
from Bessel functions.  ``ClosedFormSampler`` puts an explicit solution
formula behind the sampler interface of ``canonsys.Solution``.
"""

import numpy as np
from scipy.special import jv

import canonsys as cs


def _power(c, center, exponent):
    return {"type": "power", "c": c, "center": center, "exponent": exponent}


def _s_breaks(breaks, slopes) -> list:
    """The s-breaks of phi's pieces, from 0."""
    s = [0.0]
    for t0, t1, m in zip(breaks, breaks[1:], slopes):
        s.append(s[-1] + (t1 - t0) / m)
    return s


def phi_inverse(breaks, slopes, t: float) -> float:
    """s = phi^-1(t) for the phi of ``reparametrised_problem_dict``; at
    t = 2 exactly the problem's right end."""
    breaks, slopes = [float(b) for b in breaks], [float(m) for m in slopes]
    k = min(int(np.searchsorted(breaks, t, side="right")) - 1,
            len(slopes) - 1)
    return _s_breaks(breaks, slopes)[k] + (t - breaks[k]) / slopes[k]


def reparametrised_problem_dict(breaks, slopes) -> dict:
    """The example (d0 = -2, d1 = 0, s_plus = 2) in the variable s of
    t = phi(s), phi piecewise affine and increasing with phi(0) = 0.

    ``breaks`` are the t-breaks of phi's pieces, from 0 through 1 to 2, and
    ``slopes`` their slopes phi'.  On the piece from s_k, where
    t - 1 = m (s - c) with c = s_k + (1 - t_k) / m, H(t) = diag((t - 1)^2,
    (t - 1)^-2) becomes m H(phi(s)) = diag(m^3 |s - c|^2, m^-1 |s - c|^-2):
    ``power`` pieces.  The two pieces next to sigma are centred on its image
    s_sigma exactly (c is the same sum of floats).  W(s, z) =
    closed_W(phi(s), z), and the boundary matrices and M(z) are the
    example's.
    """
    breaks, slopes = [float(t) for t in breaks], [float(m) for m in slopes]
    assert breaks[0] == 0.0 and breaks[-1] == 2.0 and 1.0 in breaks
    s = _s_breaks(breaks, slopes)
    sigma = s[breaks.index(1.0)]
    sides = {"h_minus": [], "h_plus": []}
    for k, m in enumerate(slopes):
        t0, t1 = breaks[k], breaks[k + 1]
        center = s[k] + (1.0 - t0) / m
        sides["h_minus" if t1 <= 1.0 else "h_plus"].append({
            "interval": [s[k], s[k + 1]],
            "h1": _power(m ** 3, center, 2.0),
            "h2": _power(1.0 / m, center, -2.0)})
    problem = cs.example_problem_dict()
    problem.update(interval=[0.0, s[-1]], sigma=sigma,
                   **{key: {"kind": "piecewise", "pieces": pieces}
                      for key, pieces in sides.items()})
    return problem


def power_law_side(alpha: float, side: str):
    """diag(s^alpha, s^-alpha), s = |t - 1|, on side ``side`` of sigma = 1."""
    interval = (0.0, 1.0) if side == "minus" else (1.0, 2.0)
    spec = {"kind": "piecewise", "pieces": [{
        "interval": list(interval), "h1": _power(1.0, 1.0, alpha),
        "h2": _power(1.0, 1.0, -alpha)}]}
    return cs.hamiltonian_from_spec(spec, interval, singular=1.0)


def _bessel_basis(alpha: float, side: str, z: complex, s: float):
    """Two solutions of y' = z J H y on ``power_law_side(alpha, side)`` at
    distance s from sigma, as the columns of a 2x2 matrix.

    With J = [[0, -1], [1, 0]] the system is y1' = -z s^-alpha y2 and
    y2' = z s^alpha y1 in t; in s = |t - 1| either side gives
    y2'' - (alpha / s) y2' + z^2 y2 = 0, solved by y2 = s^nu C_nu(z s),
    nu = (alpha + 1) / 2, with y1 = +-y2'(s) / (z s^alpha) (+ on the plus
    side, where s grows with t).  For C = J_nu and J_-nu, y2'(s) is
    z s^nu J_(nu - 1)(z s) and -z s^nu J_(1 - nu)(z s).
    """
    nu = 0.5 * (alpha + 1.0)
    x, sign = z * s, 1.0 if side == "plus" else -1.0
    y2 = s ** nu * np.array([jv(nu, x), jv(-nu, x)])
    y1 = sign * s ** (nu - alpha) * np.array([jv(nu - 1.0, x),
                                             -jv(1.0 - nu, x)])
    return np.array([y1, y2])


def bessel_w(alpha: float, side: str, z: complex, t: float) -> np.ndarray:
    """W(t, z) of ``solver.fundamental`` on ``power_law_side(alpha, side)``:
    the identity at the regular endpoint (t = 0 or 2), its rows' transposes
    solving the system, so W(t) = (B(t) B(t0)^-1)^T for any basis B."""
    t0 = 0.0 if side == "minus" else 2.0
    b = _bessel_basis(alpha, side, complex(z), abs(t - 1.0))
    b0 = _bessel_basis(alpha, side, complex(z), abs(t0 - 1.0))
    return (b @ np.linalg.inv(b0)).T


class ClosedFormSampler:
    """Wrap an explicit solution formula in the sampler interface."""

    def __init__(self, fn, z, h, interval, anchor_t):
        self._fn = fn
        self.z = z
        self.h = h
        self.interval = interval
        self.anchor_t = anchor_t

    def eval(self, ts):
        ts_arr = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        out = np.stack([np.asarray(self._fn(t), dtype=np.complex128)
                        for t in ts_arr])
        return out[0] if np.ndim(ts) == 0 else out

    __call__ = eval
