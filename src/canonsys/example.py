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
from dataclasses import dataclass, field

import numpy as np

from .errors import PoleError
from .hamiltonian import IndefHamiltonianA, hamiltonian_from_spec, indef_hamiltonian

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
            raise ValueError("s_plus must exceed 1")

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
                             oe=cfg.oe, b=cfg.b, validate_psd=False)


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
DEFAULT_T_GRID = (0.25, 0.5, 1.5, 2.0)


def run_validation(cfg: ExampleConfig = ExampleConfig(),
                   z_grid=DEFAULT_Z_GRID, t_grid=DEFAULT_T_GRID,
                   threshold: float = 1e-6) -> dict:
    """Run the numeric pipeline on the built-in problem and diff every
    artifact against its closed form; returns max abs errors per artifact."""
    from . import boundary as bd
    from . import monodromy as mo
    from . import solver as sv
    from . import wpoly as wp

    ih = example_problem(cfg)
    zs = [complex(z) for z in z_grid]
    ts = [float(t) for t in t_grid]
    err = {k: 0.0 for k in
           ("fundamental_left", "assembled_W", "u_minus", "u_plus",
            "comparison_matrix", "w_1", "interface", "det_minus_one",
            "z_zero_identity")}
    observed = {"q_sigma": {}, "neg_count": None}

    for z in zs:
        for t in ts:
            got = mo.assemble_W(ih, z, t)
            want = reference_W(cfg, t, z)
            key = "fundamental_left" if t < SIGMA else "assembled_W"
            err[key] = max(err[key], float(np.abs(got - want).max()))
        um = mo.u_minus(ih, z)
        err["u_minus"] = max(err["u_minus"],
                             float(np.abs(um - closed_Uminus(z)).max()))
        v_closed = sv.fundamental(ih.h_plus, z, init=closed_W(cfg.s_plus, z, cfg.s_plus),
                                  t0=cfg.s_plus, side="plus",
                                  rtol=mo.PIPE_RTOL, atol=mo.PIPE_ATOL)
        up = mo.u_plus(ih, z, v_closed)
        err["u_plus"] = max(err["u_plus"],
                            float(np.abs(up - closed_Uplus(z, cfg.s_plus)).max()))
        err["comparison_matrix"] = max(
            err["comparison_matrix"],
            float(np.abs(mo.m_matrix(ih, z) - closed_N(z)).max()))
        wmono = mo.monodromy_matrix(ih, z)
        err["det_minus_one"] = max(err["det_minus_one"],
                                   abs(np.linalg.det(wmono) - 1.0))
        fac = mo.factorisation(ih, z)
        wm = bd.side_basis(ih, "minus", z, mo.PIPE_RTOL, mo.PIPE_ATOL).solution
        for i in (0, 1):
            fp = sv.CombinedSampler(fac.prefactor[i, :],
                                    [fac.v.row_sampler(0), fac.v.row_sampler(1)])
            res = bd.interface_residual(ih, wm.row_sampler(i), fp, z)
            err["interface"] = max(err["interface"], float(np.abs(res).max()))
        if z.imag != 0.0:
            q = mo.weyl_intermediate(ih, z)
            observed["q_sigma"][str(z)] = [q.real, q.imag]

    for side, s_end in (("minus", S_MINUS), ("plus", cfg.s_plus)):
        w1 = wp.w_n_diagonal(ih.side(side), side, 1)
        lo, hi = ih.side(side).interval
        samp = np.linspace(lo, hi, 41)[1:-1]
        err["w_1"] = max(err["w_1"], float(np.abs(
            w1(samp)[..., 0] - closed_w1(samp, s_end)).max()))

    err["z_zero_identity"] = float(
        np.abs(mo.monodromy_matrix(ih, 0.0) - np.eye(2)).max())

    rng = np.random.default_rng(20260808)
    pts = rng.uniform(-3, 3, 8) + 1j * rng.uniform(0.2, 2.5, 8)
    sig = mo.kernel_gram(lambda z: mo.monodromy_matrix(ih, z), pts)
    observed["neg_count"] = sig.neg_count

    return {
        "config": {"s_plus": cfg.s_plus, "d0": cfg.d0_value, "d1": cfg.d1,
                   "oe": cfg.oe, "b": list(cfg.b)},
        "threshold": threshold,
        "max_abs_err": err,
        "observed": observed,
        "pass": bool(all(v <= threshold for v in err.values())),
    }
