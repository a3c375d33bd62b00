"""Hamiltonians of 2x2 canonical systems and the indefinite problem tuple.

A Hamiltonian here is a real, positive semi-definite 2x2 matrix function
H(t) = [[h1, h3], [h3, h2]] on an interval, stored in one of three
serialisable forms (named builtin, piecewise power/polynomial entries,
sampled table with piecewise-linear interpolation) and compiled to packed
arrays of power and polynomial pieces, evaluated vectorised.

The indefinite problem couples two such Hamiltonians across an inner
singularity sigma together with finitely many real parameters; those
parameters enter the computation only through a polynomial p(z) and the
unitriangular interface matrix R(z) = [[1, p(z)], [0, 1]].
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as _poly

from . import _chebpanels as cp
from .errors import (ConfigError, DomainError, EvaluationError,
                     IndeterminateError, UnsupportedSpecError)

Side = Literal["minus", "plus"]

TOL_PSD = 1e-10     # relative PSD slack
TOL_INDIV = 1e-8    # indivisibility residual
TOL_TAIL = 1e-8     # tail smallness in the integrability diagnostics

# Hamiltonian entry piece kinds
KIND_POWER = 0  # c * |t - center| ** exponent
KIND_POLY = 1   # c0 + c1 t + ... + c7 t^7  (padded with zeros)
PARAM_WIDTH = 8

# Per-z results a problem keeps, least recently used evicted first: room for
# 32 z on both sides (see ProblemCache).  boundary.z_chunks cuts a z grid at
# PER_Z_CAP // 2 z, the largest chunk whose bases cannot evict each other,
# and integrates each chunk's bases in one batch.
PER_Z_KIND = "basis"
PER_Z_CAP = 32 * 2

_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def is_minus(side) -> bool:
    """Whether ``side`` is "minus"; DomainError naming it when it is neither
    side, before anything is computed or cached under it."""
    if side not in ("minus", "plus"):
        raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")
    return side == "minus"


def _number(value, key: str, integer: bool = False) -> float:
    """A finite real number (an integral one if ``integer``) read from a
    config; ConfigError names the key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or (integer and not x.is_integer()):
        raise ConfigError(f"{key} must be a finite "
                          f"{'integer' if integer else 'number'}, got {value!r}")
    return int(x) if integer else x


def _numbers(value, key: str, size: Optional[int] = None) -> list:
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        raise ConfigError(f"{key} must be a list of {size or ''} numbers, "
                          f"got {value!r}")
    return [_number(x, key) for x in value]


def symplectic_j() -> np.ndarray:
    return _J.copy()


# ---------------------------------------------------------------------------
# entry packing

class PackedEntry:
    """One scalar entry as (breaks, kinds, params) arrays."""

    __slots__ = ("breaks", "kinds", "params")

    def __init__(self, breaks, kinds, params):
        self.breaks = np.ascontiguousarray(breaks, dtype=np.float64)
        self.kinds = np.ascontiguousarray(kinds, dtype=np.int64)
        self.params = np.ascontiguousarray(params, dtype=np.float64)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            return float(self(t[None])[0])
        # |t-a|^p is inf at the singular point for p < 0, and large
        # parameters overflow; callers treat non-finite entries as errors
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if len(self.kinds) == 1:  # no piece to search for
                return self._piece(0, t)
            idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1,
                          0, len(self.kinds) - 1)
            out = np.empty_like(t)
            for k in np.unique(idx):
                m = idx == k
                out[m] = self._piece(k, t[m])
        return out

    def _piece(self, k: int, t: np.ndarray) -> np.ndarray:
        """Piece ``k``'s formula at every point of ``t``."""
        if self.kinds[k] == KIND_POWER:
            c, a, p = self.params[k, :3]
            return np.zeros_like(t) if c == 0.0 else c * np.abs(t - a) ** p
        return _poly.polyval(t, self.params[k])

    @property
    def is_zero(self) -> bool:
        for k in range(len(self.kinds)):
            if self.kinds[k] == KIND_POWER:
                if self.params[k, 0] != 0.0:
                    return False
            elif np.any(self.params[k] != 0.0):
                return False
        return True

    @property
    def inner_breaks(self):
        return self.breaks[1:-1]


def _pack_pieces(pieces, lo, hi):
    """pieces: list of (a, b, kind, params_row). Must tile [lo, hi]."""
    breaks = [lo]
    kinds, params = [], []
    for a, b, kind, row in pieces:
        if not a < b or abs(a - breaks[-1]) > 1e-12 * (abs(hi - lo) + 1.0):
            raise ConfigError(f"entry pieces do not tile the interval at t={a}")
        breaks.append(b)
        kinds.append(kind)
        pr = np.zeros(PARAM_WIDTH)
        pr[:len(row)] = row
        params.append(pr)
    if abs(breaks[-1] - hi) > 1e-12 * (abs(hi - lo) + 1.0):
        raise ConfigError("entry pieces do not reach the right endpoint")
    breaks[-1] = hi
    return PackedEntry(np.array(breaks), np.array(kinds), np.array(params))


def _entry_pieces_from_dict(e, a: float, b: float, key: str):
    if not isinstance(e, dict):
        raise ConfigError(f"{key} must be an object, got {e!r}")
    unknown = set(e) - {"type", "value", "coeffs", "c", "center", "exponent"}
    if unknown:
        raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
    typ = e.get("type")

    def get(name, read=_number):
        if name not in e:
            raise ConfigError(f"{key}: a {typ} entry needs the key {name!r}")
        return read(e[name], f"{key}.{name}")

    if typ == "const":
        return (a, b, KIND_POLY, [get("value")])
    if typ == "poly":
        coeffs = get("coeffs", _numbers)
        if len(coeffs) > PARAM_WIDTH:
            raise ConfigError(f"{key}: poly entries support at most "
                              f"{PARAM_WIDTH} coefficients")
        return (a, b, KIND_POLY, coeffs)
    if typ == "power":
        return (a, b, KIND_POWER, [get("c"), get("center"), get("exponent")])
    raise ConfigError(f"unknown {key} type {typ!r} (expected const|poly|power)")


_NAMED_SPECS = ("inverse-square", "indivisible-inverse-square", "identity")


def _named_entries(name: str, lo: float, hi: float, singular: float):
    if name == "identity":
        return ([(lo, hi, KIND_POLY, [1.0])],
                [(lo, hi, KIND_POLY, [1.0])],
                [(lo, hi, KIND_POLY, [0.0])])
    if name == "inverse-square":
        return ([(lo, hi, KIND_POWER, [1.0, singular, 2.0])],
                [(lo, hi, KIND_POWER, [1.0, singular, -2.0])],
                [(lo, hi, KIND_POLY, [0.0])])
    if name == "indivisible-inverse-square":
        return ([(lo, hi, KIND_POLY, [0.0])],
                [(lo, hi, KIND_POWER, [1.0, singular, -2.0])],
                [(lo, hi, KIND_POLY, [0.0])])
    raise ConfigError(f"unknown named Hamiltonian {name!r}; "
                      f"available: {', '.join(_NAMED_SPECS)}")


# ---------------------------------------------------------------------------
# Hamiltonian

@dataclass(frozen=True)
class Hamiltonian:
    """H(t) = [[h1, h3], [h3, h2]] on (interval[0], interval[1])."""

    interval: tuple[float, float]
    h1: PackedEntry
    h2: PackedEntry
    h3: PackedEntry
    spec: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"invalid interval {self.interval}")

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]

    @functools.cached_property
    def is_diagonal(self) -> bool:
        """Whether h3 is zero everywhere; checked once per Hamiltonian."""
        return self.h3.is_zero

    @functools.cached_property
    def samples(self):
        """(ts, H(ts)) at the ``_interior_samples`` of the whole interval,
        read-only: the structural checks' points, evaluated once."""
        ts, ms = _sampled(self, *self.interval)
        ts.setflags(write=False)
        ms.setflags(write=False)
        return ts, ms

    def matrix(self, ts):
        """H at an array of points, shape (len(ts), 2, 2); no domain check."""
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        out = np.empty((len(ts), 2, 2))
        out[:, 0, 0] = self.h1(ts)
        out[:, 1, 1] = self.h2(ts)
        out[:, 0, 1] = out[:, 1, 0] = self.h3(ts)
        return out

    def inner_breaks(self):
        b = np.concatenate([self.h1.inner_breaks, self.h2.inner_breaks,
                            self.h3.inner_breaks])
        return np.unique(b)

    def singular_endpoint(self, side: Side) -> float:
        return self.interval[1] if is_minus(side) else self.interval[0]

    def regular_endpoint(self, side: Side) -> float:
        return self.interval[0] if is_minus(side) else self.interval[1]

    def panels(self, side: Side) -> np.ndarray:
        return cp.geometric_panels(self.regular_endpoint(side),
                                   self.singular_endpoint(side),
                                   self.inner_breaks())


def eval_H(h: Hamiltonian, t: float) -> np.ndarray:
    """H(t) as a real symmetric 2x2 matrix; t must lie strictly inside."""
    lo, hi = h.interval
    if not (lo < t < hi):
        raise DomainError(f"t={t} outside the open interval ({lo}, {hi})")
    m = h.matrix(np.array([t]))[0]
    if not np.all(np.isfinite(m)):
        raise EvaluationError(f"non-finite Hamiltonian entry at t={t}: {m.tolist()}")
    return m


def hamiltonian_from_spec(spec: dict, interval,
                          singular: float | None = None) -> Hamiltonian:
    """Compile a serialisable side spec into a Hamiltonian on ``interval``."""
    lo, hi = float(interval[0]), float(interval[1])
    if not isinstance(spec, dict):
        raise ConfigError("Hamiltonian spec must be an object")
    kind = spec.get("kind")
    allowed_top = {"kind", "name", "pieces", "t", "h1", "h2", "h3"}
    unknown = set(spec) - allowed_top
    if unknown:
        raise ConfigError(f"unknown Hamiltonian spec keys {sorted(unknown)}")

    if kind == "named":
        if singular is None:
            raise ConfigError("named Hamiltonian specs need the singular endpoint")
        if "name" not in spec:
            raise ConfigError("named Hamiltonian spec needs the key 'name' "
                              f"(one of {', '.join(_NAMED_SPECS)})")
        e1, e2, e3 = _named_entries(spec["name"], lo, hi, float(singular))
        return Hamiltonian((lo, hi), _pack_pieces(e1, lo, hi),
                           _pack_pieces(e2, lo, hi), _pack_pieces(e3, lo, hi),
                           spec)
    if kind == "piecewise":
        pieces = spec.get("pieces")
        if not pieces or not isinstance(pieces, list):
            raise ConfigError("piecewise spec needs a non-empty pieces list")
        rows = {"h1": [], "h2": [], "h3": []}
        for k, p in enumerate(pieces):
            key = f"pieces[{k}]"
            if not isinstance(p, dict):
                raise ConfigError(f"{key} must be an object, got {p!r}")
            unknown = set(p) - {"interval", "h1", "h2", "h3"}
            if unknown:
                raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
            ab = _numbers(p.get("interval"), f"{key}.interval", 2)
            for name in rows:
                entry = p.get(name, {"type": "const", "value": 0.0})
                rows[name].append(_entry_pieces_from_dict(
                    entry, *ab, f"{key}.{name}"))
        return Hamiltonian((lo, hi),
                           _pack_pieces(rows["h1"], lo, hi),
                           _pack_pieces(rows["h2"], lo, hi),
                           _pack_pieces(rows["h3"], lo, hi), spec)
    if kind == "table":
        ts = np.array(_numbers(spec.get("t"), "t"))
        if len(ts) < 2 or np.any(np.diff(ts) <= 0):
            raise ConfigError("table nodes must be strictly increasing, >= 2 of them")
        if abs(ts[0] - lo) > 1e-12 or abs(ts[-1] - hi) > 1e-12:
            raise ConfigError("table nodes must span the interval")
        packed = []
        for name in ("h1", "h2", "h3"):
            vals = np.array(_numbers(spec.get(name, [0.0] * len(ts)), name))
            if len(vals) != len(ts):
                raise ConfigError(f"table {name} needs one value per node")
            c1 = np.diff(vals) / np.diff(ts)   # one linear piece per gap
            rows = zip(vals[:-1] - c1 * ts[:-1], c1)
            packed.append(_pack_pieces([(a, b, KIND_POLY, row) for a, b, row
                                        in zip(ts[:-1], ts[1:], rows)], lo, hi))
        return Hamiltonian((lo, hi), *packed, spec)
    raise ConfigError(f"unknown Hamiltonian kind {kind!r} (expected named|piecewise|table)")


def identity_hamiltonian(interval=(0.0, 1.0)) -> Hamiltonian:
    return hamiltonian_from_spec({"kind": "named", "name": "identity"},
                                 interval, singular=interval[1])


# ---------------------------------------------------------------------------
# structural diagnostics

def _interior_samples(a: float, b: float) -> np.ndarray:
    # 241 Chebyshev-distributed points, strictly interior (entries may blow
    # up at the ends)
    n = 241
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (2 * k - 1) / (2 * n))
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def _sampled(h: Hamiltonian, a: float, b: float):
    ts = _interior_samples(a, b)
    return ts, h.matrix(ts)


def check_psd(h: Hamiltonian):
    """Max relative negative eigenvalue over sampled points; ConfigError
    above ``TOL_PSD``."""
    ts, ms = h.samples
    if not np.all(np.isfinite(ms)):
        bad = ts[~np.all(np.isfinite(ms.reshape(len(ts), 4)), axis=1)]
        raise EvaluationError(f"non-finite Hamiltonian entries near t={bad[:3]}")
    eig = np.linalg.eigvalsh(ms)
    scale = np.maximum(np.abs(eig).max(axis=1), 1e-300)
    worst = float((-eig[:, 0] / scale).max())
    if worst > TOL_PSD:
        t_bad = ts[int((-eig[:, 0] / scale).argmax())]
        raise ConfigError(
            f"Hamiltonian not positive semi-definite: relative eigenvalue "
            f"{-worst:.3e} at t={t_bad}")
    return worst


@dataclass(frozen=True)
class IndivisibleReport:
    is_indivisible: bool
    phi: Optional[float]      # type angle in [0, pi) when indivisible
    residual: float           # max off-line part of H(t), relative


def indivisible_type(h: Hamiltonian, a: float, b: float) -> IndivisibleReport:
    """Detect Ran H(t) = span{xi_phi} a.e. on (a, b) by sampling."""
    lo, hi = h.interval
    if not (lo <= a < b <= hi):
        raise DomainError(f"need {lo} <= a < b <= {hi}, got ({a}, {b})")
    ts, ms = h.samples if (a, b) == h.interval else _sampled(h, a, b)
    peak = np.abs(ms).max()
    if peak <= 1e-300:
        raise IndeterminateError(
            "H vanishes at every sample point; the set {H=0} must be null")
    ms = ms / peak  # the test is scale-free; this keeps the squares finite
    norms = np.linalg.norm(ms, axis=(1, 2))
    keep = norms > 1e-14 * norms.max()
    # average of trace-normalised samples; rank one iff all ranges align
    avg = (ms[keep] / norms[keep, None, None]).mean(axis=0)
    _, vecs = np.linalg.eigh(avg)
    xi = vecs[:, -1]
    proj = np.eye(2) - np.outer(xi, xi)
    off = proj @ ms[keep] @ proj
    residual = float((np.linalg.norm(off, axis=(1, 2)) / norms[keep]).max())
    if residual <= TOL_INDIV:
        phi = math.atan2(xi[1], xi[0]) % math.pi
        return IndivisibleReport(True, phi, residual)
    return IndivisibleReport(False, None, residual)


@dataclass(frozen=True)
class ConditionReport:
    converges: bool
    tail_estimates: list
    total: Optional[float]    # estimated integral when convergent


def _tail_diagnostic(panel_integrals) -> ConditionReport:
    """Convergent when the panel integrals decay geometrically (ratio below
    0.999), or when the last one is below ``TOL_TAIL`` relative to the sum
    with a ratio below 1; the total adds the geometric tail."""
    P = np.asarray(panel_integrals, dtype=np.float64)
    S = float(np.sum(P))
    r = cp.tail_ratio(P)
    small = abs(P[-1]) <= TOL_TAIL * max(1.0, abs(S))
    if (small and r < 1.0) or 0.0 <= r < 0.999:
        return ConditionReport(True, P.tolist(), S + float(P[-1] * r / (1.0 - r)))
    return ConditionReport(False, P.tolist(), None)


def check_I(h: Hamiltonian, side: Side) -> ConditionReport:
    """Integrability of h1 toward the side's singular endpoint (condition on
    the (1,1) channel); a diagnostic, never an error."""
    breaks = h.panels(side)
    _, integrals = cp._panel_integrals(h.h1, breaks)
    return _tail_diagnostic(np.abs(integrals))


def check_HS(h: Hamiltonian, side: Side) -> ConditionReport:
    """Nested-integral condition: integral of (integral of h2 from the regular
    endpoint) times h1 toward the side's singular endpoint."""
    breaks = h.panels(side)
    inner = cp.cumulative_from_start(h.h2, breaks)  # from the regular endpoint
    _, integrals = cp._panel_integrals(lambda t: inner(t) * h.h1(t), breaks)
    return _tail_diagnostic(np.abs(integrals))


# ---------------------------------------------------------------------------
# the indefinite problem tuple

class ProblemCache:
    """Results computed once per problem, shared by every caller and thread.

    Keys whose first element is ``PER_Z_KIND`` are the per-z side bases
    (``boundary.side_bases``), ``(PER_Z_KIND, side, z)``; at most
    ``PER_Z_CAP`` of them are kept, the least recently used evicted first.
    Every other key (the z-independent w-families, one per side, side
    plans, ``boundary.SidePlan``, and w_n at the anchors that read a plan
    or a basis) is kept for the life of the problem and built once, under
    the lock that guards both stores (reentrant: a plan's build looks up its
    w-family), and never replaced, except by its continuation (``grow``).
    A per-z ``build`` runs outside it, so an integration never blocks other
    lookups; when two threads build the same per-z key, the first result
    stored is the one every caller gets.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._per_z: OrderedDict = OrderedDict()
        self._fixed: dict = {}

    def lookup(self, key, build):
        with self._lock:
            if key[0] != PER_Z_KIND:
                if key not in self._fixed:
                    self._fixed[key] = build()
                return self._fixed[key]
            if key in self._per_z:
                self._per_z.move_to_end(key)
                return self._per_z[key]
        return self.store(key, build())

    def store(self, key, value):
        """Store ``value`` under the per-z ``key`` unless a value is stored
        there already; returns the stored value, the one every caller gets."""
        with self._lock:
            value = self._per_z.setdefault(key, value)
            self._per_z.move_to_end(key)
            while len(self._per_z) > PER_Z_CAP:
                self._per_z.popitem(last=False)
        return value

    def grow(self, key, extend):
        """The value ``extend`` returns for the one stored under the fixed
        ``key``, stored in its place under the lock: it must hold the old
        value's items unchanged and may add more, so every caller of the old
        one reads the same items (a w-family continued to a larger n)."""
        with self._lock:
            value = self._fixed[key] = extend(self._fixed[key])
            return value

    def get(self, key):
        """The value stored under ``key``, or None; nothing is built and no
        entry is touched."""
        with self._lock:
            return self._per_z.get(key, self._fixed.get(key))

    def __contains__(self, key) -> bool:
        """Whether a value is stored under ``key``; no entry is touched."""
        with self._lock:
            return key in self._per_z or key in self._fixed

    def per_z_size(self) -> int:
        with self._lock:
            return len(self._per_z)


@dataclass(frozen=True)
class IndefHamiltonianA:
    """Two Hamiltonians joined at an inner singularity plus discrete data.

    ``d`` has length 2*delta; ``b`` has length oe with b[0] != 0 when oe > 0.
    ``omega_minus``/``omega_plus`` override the regularising coefficient
    sequences (required for non-diagonal sides, computed otherwise).
    ``indiv_minus``/``indiv_plus``, the sides' indivisibility reports, are
    computed on construction.
    """

    h_minus: Hamiltonian
    h_plus: Hamiltonian
    delta: int
    d: tuple
    oe: int = 0
    b: tuple = ()
    omega_minus: Optional[tuple] = None
    omega_plus: Optional[tuple] = None
    indiv_minus: IndivisibleReport = field(init=False)
    indiv_plus: IndivisibleReport = field(init=False)

    def __post_init__(self):
        s_lo, sig = self.h_minus.interval
        sig2, s_hi = self.h_plus.interval
        if abs(sig - sig2) > 1e-12 * (abs(s_hi - s_lo) + 1.0):
            raise ConfigError("h_minus and h_plus must meet at sigma")
        if not (s_lo < sig < s_hi):
            raise ConfigError("need s_lo < sigma < s_hi, all finite")
        if self.delta < 1:
            raise ConfigError("delta must be a positive integer")
        if len(self.d) != 2 * self.delta:
            raise ConfigError(f"d must have length 2*delta = {2 * self.delta}")
        if self.oe < 0 or len(self.b) != self.oe:
            raise ConfigError("b must have length oe")
        if self.oe > 0 and self.b[0] == 0.0:
            raise ConfigError("b[0] must be non-zero when oe > 0")
        for om, nm in ((self.omega_minus, "omega_minus"),
                       (self.omega_plus, "omega_plus")):
            if om is not None:
                if len(om) < 2 * self.delta + 1:
                    raise ConfigError(f"{nm} needs at least 2*delta+1 entries")
                if om[0] != 1.0:
                    raise ConfigError(f"{nm}[0] must equal 1")
        for name, h in (("indiv_minus", self.h_minus),
                        ("indiv_plus", self.h_plus)):
            object.__setattr__(self, name, indivisible_type(h, *h.interval))
        if self.indiv_minus.is_indivisible and self.indiv_plus.is_indivisible:
            raise UnsupportedSpecError(
                "both intervals are indivisible (kind (B)/(C)); for those "
                "the monodromy matrix is simply the transpose of the "
                "interface matrix, W(s_+, z) = R(z)^T, and no numerical "
                "pipeline is needed")
        object.__setattr__(self, "cache", ProblemCache())

    @property
    def sigma(self) -> float:
        return self.h_minus.interval[1]

    @property
    def s_minus(self) -> float:
        return self.h_minus.interval[0]

    @property
    def s_plus(self) -> float:
        return self.h_plus.interval[1]

    def side(self, side: Side) -> Hamiltonian:
        return self.h_minus if is_minus(side) else self.h_plus

    def indivisible(self, side: Side) -> IndivisibleReport:
        return self.indiv_minus if is_minus(side) else self.indiv_plus

    def omegas(self, side: Side):
        return self.omega_minus if is_minus(side) else self.omega_plus

    def memo(self, key, build):
        """The cached value under ``key``, computed by ``build()`` once."""
        return self.cache.lookup(key, build)


def indef_hamiltonian(h_minus: Hamiltonian, h_plus: Hamiltonian, delta: int,
                      d: Sequence[float], oe: int = 0, b: Sequence[float] = (),
                      omega_minus=None, omega_plus=None) -> IndefHamiltonianA:
    """Validate and assemble the problem tuple; runs structural checks."""
    check_psd(h_minus)
    check_psd(h_plus)
    return IndefHamiltonianA(
        h_minus, h_plus, int(delta), tuple(float(x) for x in d),
        int(oe), tuple(float(x) for x in b),
        None if omega_minus is None else tuple(map(float, omega_minus)),
        None if omega_plus is None else tuple(map(float, omega_plus)))


_PROBLEM_KEYS = {"interval", "sigma", "h_minus", "h_plus", "delta", "d",
                 "oe", "b", "omega_minus", "omega_plus"}


def problem_from_dict(cfg: dict) -> IndefHamiltonianA:
    """Build the problem from its JSON form (strict about unknown keys)."""
    if not isinstance(cfg, dict):
        raise ConfigError("problem config must be an object")
    unknown = set(cfg) - _PROBLEM_KEYS
    if unknown:
        raise ConfigError(f"unknown problem keys {sorted(unknown)}")
    missing = {"interval", "sigma", "h_minus", "h_plus", "delta", "d"} - set(cfg)
    if missing:
        raise ConfigError(f"missing problem keys {sorted(missing)}")
    s_lo, s_hi = _numbers(cfg["interval"], "interval", 2)
    sigma = _number(cfg["sigma"], "sigma")
    sides = []
    for key, iv in (("h_minus", (s_lo, sigma)), ("h_plus", (sigma, s_hi))):
        try:
            sides.append(hamiltonian_from_spec(cfg[key], iv, singular=sigma))
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    omegas = [None if cfg.get(key) is None else _numbers(cfg[key], key)
              for key in ("omega_minus", "omega_plus")]
    return indef_hamiltonian(
        *sides, _number(cfg["delta"], "delta", True), _numbers(cfg["d"], "d"),
        _number(cfg.get("oe", 0), "oe", True), _numbers(cfg.get("b", []), "b"),
        *omegas)


# ---------------------------------------------------------------------------
# discrete data: the polynomial p and interface matrix R

def build_p(ih: IndefHamiltonianA) -> np.ndarray:
    """Ascending coefficients of p(z); constant term is always zero."""
    delta, oe = ih.delta, ih.oe
    coeffs = np.zeros(2 * delta + oe + 1)
    for n in range(1, 2 * delta + 1):
        coeffs[n] = -ih.d[n - 1]
    for n in range(2 * delta + 1, 2 * delta + oe + 1):
        coeffs[n] = ih.b[oe + 2 * delta - n]  # b_{oe+2*delta+1-n}, 1-based
    return coeffs


def eval_p(ih: IndefHamiltonianA, z) -> complex:
    with np.errstate(over="ignore", invalid="ignore"):
        p = _poly.polyval(z, build_p(ih))
    if not np.isfinite(p):
        raise DomainError(f"p(z) overflows at z={z}: d or b too large")
    return p


def build_R(ih: IndefHamiltonianA, z) -> np.ndarray:
    """Interface matrix [[1, p(z)], [0, 1]]; det is exactly one."""
    r = np.eye(2, dtype=complex)
    r[0, 1] = eval_p(ih, z)
    return r
