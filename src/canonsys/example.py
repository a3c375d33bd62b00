"""Built-in problem with fully explicit closed forms, used as the oracle.

The Hamiltonian is diag((t-1)^2, (t-1)^-2) on (0, s_plus) with the
singularity at sigma = 1; its fundamental solution, the boundary-value
matrices on both sides of the singularity and the rank-one comparison matrix
all have elementary sin/cos expressions.  With the distinguished parameter
choice d0 = -s_plus/(s_plus - 1), d1 = 0, oe = 0 the assembled matrix
coincides with the closed-form fundamental solution on the whole interval,
which is the end-to-end acceptance check of the numeric pipeline.

Entries like sin(zt)/z and (sin u - u cos u)/u^3 have removable singularities
at z = 0; they are evaluated by short Taylor series for small arguments to
avoid cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary as bd
from . import monodromy as mo
from . import wpoly as wp
from .errors import ConfigError, DomainError, PoleError
from .hamiltonian import (IndefHamiltonianA, build_R, hamiltonian_from_spec,
                          indef_hamiltonian)

SIGMA = 1.0
S_MINUS = 0.0


def _sinc(u: complex) -> complex:
    """sin(u)/u with the removable singularity filled in."""
    if abs(u) < 1e-4:
        u2 = u * u
        return 1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0
    return np.sin(u) / u


def _gfun(u: complex) -> complex:
    """(sin u - u cos u)/u^3; direct evaluation cancels below |u| ~ 0.5."""
    if abs(u) < 0.5:
        acc = 0.0 + 0.0j
        u2 = u * u
        term = 1.0 + 0.0j
        for k in range(1, 9):
            coeff = 2.0 * k / math.factorial(2 * k + 1)
            acc += (-1) ** (k + 1) * coeff * term
            term *= u2
        return acc
    return (np.sin(u) - u * np.cos(u)) / (u * u * u)


@dataclass(frozen=True)
class ExampleConfig:
    """Problem parameters; defaults reproduce the distinguished choice."""

    s_plus: float = 2.0
    d0: float | None = None  # None -> -s_plus/(s_plus - 1)
    d1: float = 0.0
    oe: int = 0
    b: tuple = ()

    def __post_init__(self):
        if not self.s_plus > 1.0:
            raise ConfigError(f"s_plus must exceed 1, got {self.s_plus!r}")
        if self.oe < 0 or len(self.b) != self.oe:
            raise ConfigError("b must have length oe")

    @property
    def d0_value(self) -> float:
        return (-self.s_plus / (self.s_plus - 1.0)
                if self.d0 is None else float(self.d0))


def closed_W(t: float, z: complex, s_plus: float = 2.0) -> np.ndarray:
    """The explicit fundamental solution; valid on [0, s_plus] away from 1."""
    if not (S_MINUS <= t <= s_plus):
        raise PoleError(f"t={t} outside [0, {s_plus}]")
    if t == SIGMA:
        raise PoleError("closed-form entries have first-order poles at t = 1")
    z = complex(z)
    u = z * t
    s0 = t * _sinc(u)                    # sin(zt)/z
    g1 = z * t ** 3 * _gfun(u)           # (sin(zt) - zt cos(zt))/z^2
    su, cu = np.sin(u), np.cos(u)
    return np.array([
        [(s0 - cu) / (t - 1.0), g1 - (t - 1.0) * su],
        [su / (t - 1.0), s0 - (t - 1.0) * cu],
    ], dtype=complex)


def closed_w1(t, s_end: float):
    """First component of the regularising function of index one."""
    t = np.asarray(t, dtype=np.float64)
    return 1.0 / (t - 1.0) - 1.0 / (s_end - 1.0)


def closed_Uminus(z: complex) -> np.ndarray:
    z = complex(z)
    s0 = _sinc(z)
    g1 = z * _gfun(z)
    sz, cz = np.sin(z), np.cos(z)
    return np.array([
        [z * sz - s0 + 2.0 * cz, g1],
        [z * cz - sz, s0],
    ], dtype=complex)


def closed_Uplus_inv(z: complex, s_plus: float = 2.0) -> np.ndarray:
    z = complex(z)
    s0 = _sinc(z)
    g1 = z * _gfun(z)
    sz, cz = np.sin(z), np.cos(z)
    q = 1.0 / (s_plus - 1.0)
    return np.array([
        [s0, -g1],
        [-z * cz - q * sz, z * sz + q * s0 + cz - q * cz],
    ], dtype=complex)


def closed_Uplus(z: complex, s_plus: float = 2.0) -> np.ndarray:
    m = closed_Uplus_inv(z, s_plus)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]],
                    dtype=complex) / det


def closed_N(z: complex) -> np.ndarray:
    """Rank-one comparison matrix built from the limits at the singularity."""
    z = complex(z)
    s0 = _sinc(z)
    g1 = z * _gfun(z)
    return np.array([
        [s0 * g1, -g1 * g1],
        [s0 * s0, -s0 * g1],
    ], dtype=complex)


def closed_p(cfg: ExampleConfig, z: complex) -> complex:
    z = complex(z)
    val = -cfg.d0_value * z - cfg.d1 * z * z
    for j, bj in enumerate(cfg.b):
        # b indices are 1-based from the top power downward
        val += bj * z ** (2 + len(cfg.b) - j)
    return val


def example_problem(cfg: ExampleConfig = ExampleConfig()) -> IndefHamiltonianA:
    """The built-in problem tuple for the worked configuration."""
    hm = hamiltonian_from_spec({"kind": "named", "name": "inverse-square"},
                               (S_MINUS, SIGMA), singular=SIGMA)
    hp = hamiltonian_from_spec({"kind": "named", "name": "inverse-square"},
                               (SIGMA, cfg.s_plus), singular=SIGMA)
    return indef_hamiltonian(hm, hp, delta=1, d=(cfg.d0_value, cfg.d1),
                             oe=cfg.oe, b=cfg.b)


def example_problem_dict(cfg: ExampleConfig = ExampleConfig()) -> dict:
    """The same problem in its JSON wire form."""
    return {
        "interval": [S_MINUS, cfg.s_plus],
        "sigma": SIGMA,
        "h_minus": {"kind": "named", "name": "inverse-square"},
        "h_plus": {"kind": "named", "name": "inverse-square"},
        "delta": 1,
        "d": [cfg.d0_value, cfg.d1],
        "oe": cfg.oe,
        "b": list(cfg.b),
    }


def reference_W(cfg: ExampleConfig, t: float, z: complex) -> np.ndarray:
    """Closed-form assembled matrix for arbitrary discrete parameters.

    Left of the singularity the parameters do not enter; right of it the
    assembly differs from the distinguished one by the rank-one correction
    (p(z) - p*(z)) N(z) W with p*(z) = s_plus/(s_plus-1) z.
    """
    w = closed_W(t, z, cfg.s_plus)
    if t < SIGMA:
        return w
    z = complex(z)
    p_star = cfg.s_plus / (cfg.s_plus - 1.0) * z
    return w + (closed_p(cfg, z) - p_star) * (closed_N(z) @ w)


DEFAULT_Z_GRID = (1.0, -1.0, 1j, -1j, np.pi, 2.0 + 3.0j)


def default_t_grid(s_plus: float) -> tuple:
    """The t grid of ``run_validation`` when none is given: 0.25 and 0.5
    left of sigma, and right of it the midpoint of sigma and s_plus and
    s_plus itself; (0.25, 0.5, 1.5, 2.0) at the default s_plus = 2."""
    return (0.25, 0.5, 0.5 * (SIGMA + s_plus), s_plus)


def _checked_t_grid(t_grid, s_plus: float) -> list:
    """The points of ``t_grid`` as floats; DomainError naming ``t_grid``
    and the point when one is not a finite number in [S_MINUS, s_plus]
    other than sigma."""
    ts = []
    for t in t_grid:
        try:
            x = float(t)
        except (TypeError, ValueError):
            x = math.nan
        if not (S_MINUS <= x <= s_plus and x != SIGMA):  # NaN fails too
            raise DomainError(f"t_grid point {t!r} must be a finite number "
                              f"in [{S_MINUS}, {s_plus}] other than sigma "
                              f"= {SIGMA}")
        ts.append(x)
    return ts


def run_validation(cfg: ExampleConfig = ExampleConfig(),
                   z_grid=DEFAULT_Z_GRID, t_grid=None,
                   threshold: float = 1e-6) -> dict:
    """Run the numeric pipeline on the built-in problem and diff every
    artifact against its closed form; returns max abs errors per artifact.
    ``t_grid`` defaults to ``default_t_grid(cfg.s_plus)``.  A ``threshold``
    that is not a finite number >= 0, or a ``t_grid`` point that is not a
    finite number on the problem's interval other than sigma, raises
    DomainError before anything is integrated."""
    try:
        limit = float(threshold)
    except (TypeError, ValueError):
        limit = math.nan
    if not (math.isfinite(limit) and limit >= 0.0):
        raise DomainError(f"threshold={threshold!r} must be a finite "
                          f"number >= 0")
    ts = _checked_t_grid(default_t_grid(cfg.s_plus) if t_grid is None
                         else t_grid, cfg.s_plus)
    ih = example_problem(cfg)
    zs = [complex(z) for z in z_grid]
    err = {k: 0.0 for k in
           ("fundamental_left", "assembled_W", "u_minus", "u_plus",
            "comparison_matrix", "w_1", "interface", "det_minus_one",
            "z_zero_identity")}
    observed = {"q_sigma": {}, "neg_count": None}
    rng = np.random.default_rng(20260808)
    pts = rng.uniform(-3, 3, 8) + 1j * rng.uniform(0.2, 2.5, 8)
    # the bases read below, chunk by chunk; the grid z of a chunk are
    # checked before the next chunk is built, so their midpoint runs, a
    # batch as large, add to no more cached bases than a batch of bases does
    lo = 0
    for warm in bd.z_chunks(ih, zs + [0.0] + list(pts)):
        chunk = zs[lo:lo + len(warm)]  # the grid z among them
        lo += len(warm)
        interface = []  # the midpoint runs of the chunk, both sides per z
        for z in chunk:
            for t in ts:
                got = mo.assemble_W(ih, z, t)
                want = reference_W(cfg, t, z)
                key = "fundamental_left" if t < SIGMA else "assembled_W"
                err[key] = max(err[key], float(np.abs(got - want).max()))
            um = mo.u_minus(ih, z)
            err["u_minus"] = max(err["u_minus"],
                                 float(np.abs(um - closed_Uminus(z)).max()))
            # U_plus of the V anchored at the closed form at s_plus
            up = closed_W(cfg.s_plus, z, cfg.s_plus) @ mo.u_plus(ih, z)
            err["u_plus"] = max(err["u_plus"], float(np.abs(
                up - closed_Uplus(z, cfg.s_plus)).max()))
            err["comparison_matrix"] = max(
                err["comparison_matrix"],
                float(np.abs(mo.m_matrix(ih, z) - closed_N(z)).max()))
            wmono = mo.monodromy_matrix(ih, z)
            with np.errstate(all="ignore"):  # a W that overflows: inf/NaN
                det = np.linalg.det(wmono)
            err["det_minus_one"] = max(err["det_minus_one"], abs(det - 1.0))
            # interface: Gamma_plus of the rows of W right of sigma against
            # R Gamma_minus of its rows left of it, integrated afresh from
            # the sides' midpoints; read off the cached bases, the residual
            # would be the identity prefactor U_plus = U_minus R^T
            fac = mo.factorisation(ih, z)
            wm = bd.side_basis(ih, "minus", z).solution
            mids = [0.5 * sum(ih.side(side).interval)
                    for side in ("minus", "plus")]
            interface += [("minus", z, mids[0], wm.eval(mids[0]).T),
                          ("plus", z, mids[1], fac.w(mids[1]).T)]
            if z.imag != 0.0:
                q = mo.weyl_intermediate(ih, z)
                observed["q_sigma"][str(z)] = [q.real, q.imag]
        if not chunk:
            continue
        # the midpoint runs of the chunk in one batch.  Each has its own
        # start state at its midpoint, its own S anchored there and its
        # own Neville tableau; the z is cached, so from the midpoint (a
        # break of the side plan) on it shares the basis chain's
        # propagators and solves no panel
        found = bd.gamma_columns_batch(ih, interface)
        for k, z in enumerate(chunk):
            gam_m, gam_p = (np.array([p.vec for p in pairs])
                            for pairs in found[2 * k:2 * k + 2])
            res = gam_p - gam_m @ build_R(ih, z).T
            err["interface"] = max(err["interface"], float(np.abs(res).max()))

    for side, s_end in (("minus", S_MINUS), ("plus", cfg.s_plus)):
        w1 = wp.w_family_for(ih, side)[1]  # the family the pipeline reads
        lo, hi = ih.side(side).interval
        samp = np.linspace(lo, hi, 41)[1:-1]
        err["w_1"] = max(err["w_1"], float(np.abs(
            w1(samp)[..., 0] - closed_w1(samp, s_end)).max()))

    err["z_zero_identity"] = float(
        np.abs(mo.monodromy_matrix(ih, 0.0) - np.eye(2)).max())

    sig = mo.kernel_gram(lambda z: mo.monodromy_matrix(ih, z), pts)
    observed["neg_count"] = sig.neg_count

    return {
        "config": {"s_plus": cfg.s_plus, "d0": cfg.d0_value, "d1": cfg.d1,
                   "oe": cfg.oe, "b": list(cfg.b)},
        "threshold": limit,
        "max_abs_err": err,
        "observed": observed,
        "pass": bool(all(v <= limit for v in err.values())),
    }
