"""Command-line surface: config ingestion, orchestration, machine output.

Exit codes: 0 success, 1 computation error, 2 configuration error.  Output is
deterministic for a fixed config and seed: CSV prints IEEE doubles with 17
significant digits, JSON is emitted with sorted keys, and z grids run
serially, in input order.  The ``monodromy``, ``regbv``, ``kernel-signature``
and ``weyl`` grids are taken in chunks (``boundary.z_chunks``): the bases of
a chunk are integrated in one batch and read before the next chunk is
built; ``fundamental`` integrates the fundamental solutions of each chunk
in one batch.  ``--jobs`` is validated and has no effect.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import boundary as bd
from . import example as ex
from . import monodromy as mo
from . import solver as sv
from . import wpoly as wp
from .errors import CanonsysError, ConfigError
from .hamiltonian import (IndefHamiltonianA, _number, check_HS, check_I,
                          check_psd, problem_from_dict)

_RUN_KEYS = {"problem", "z_grid", "t_grid", "output"}
# bounds on the point counts, checked before anything is allocated:
# kernel_gram forms a (2m)^2 complex Gram matrix, 64 MB at m = 1000
MAX_RECT_Z = 10_000
MAX_KERNEL_POINTS = 1_000
# w_n costs time and memory linear in n: 5.6 s and 124 MB at n = 10000
MAX_WPOLY_N = 1_000


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_complex(value, what: str) -> complex:
    """One z value from the command line or a config; ConfigError names it.

    A string is parsed as a complex literal ("1+2j", "1+2i"); anything else
    must be a JSON number or an [re, im] pair of them.
    """
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], what), _number(value[1], what))
    if not isinstance(value, str):
        return complex(_number(value, what))
    text = value.strip()  # only a trailing i is the unit: "inf" keeps its i
    try:
        z = complex(text[:-1] + "j" if text.endswith("i") else text)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse complex number {value!r} in {what}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"non-finite complex number {value!r} in {what}")
    return z


def _finite_float(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {value!r} in {what}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {value!r} in {what}")
    return x


def _count(value, what: str, most: float = math.inf) -> int:
    n = _number(value, what, integer=True)
    if n < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    if n > most:
        raise ConfigError(f"{what} must be at most {most}, got {value!r}")
    return n


def _parse_complex_list(text: str, what: str):
    out = [_finite_complex(tok, what) for tok in text.split(",") if tok.strip()]
    if not out:
        raise ConfigError(f"empty {what}")
    return out


def _parse_float_list(text: str, what: str):
    out = [_finite_float(tok, what) for tok in text.split(",") if tok.strip()]
    if not out:
        raise ConfigError(f"empty {what}")
    return out


def _rect_grid(spec, what):
    try:
        a, b, n = spec["re"]
        c, d, m = spec["im"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError('rectangle z_grid needs {"re": [a,b,n], "im": [c,d,m]}') from exc
    n, m = _count(n, "z_grid re count"), _count(m, "z_grid im count")
    if n * m > MAX_RECT_Z:
        raise ConfigError(f"rectangle {what} holds more than {MAX_RECT_Z} z")
    re = np.linspace(_number(a, "z_grid re"), _number(b, "z_grid re"), n)
    im = np.linspace(_number(c, "z_grid im"), _number(d, "z_grid im"), m)
    return [complex(r, i) for i in im for r in re]


def _z_grid_from(args, cfg):
    if getattr(args, "z_grid", None) is not None:
        text = args.z_grid
        if text.startswith("{"):
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed rectangle --z-grid: {exc.msg}") from exc
            return _rect_grid(spec, "--z-grid")
        return _parse_complex_list(text, "--z-grid")
    zg = cfg.get("z_grid")
    if zg is None:
        return [complex(z) for z in ex.DEFAULT_Z_GRID]
    if isinstance(zg, dict):
        return _rect_grid(zg, "z_grid")
    if not isinstance(zg, list):
        raise ConfigError("z_grid must be a list or a rectangle object")
    if not zg:
        raise ConfigError("empty z_grid")
    return [_finite_complex(z, "z_grid") for z in zg]


def _t_grid_from(args, cfg, default, lo, hi, sigma=None):
    """The points of ``--t-grid``, else of the config's ``t_grid``, else
    ``default``; ConfigError naming the flag or key when a given point lies
    outside [lo, hi] or at ``sigma``, before any work."""
    what, tg = "--t-grid", getattr(args, "t_grid", None)
    if tg is not None:
        ts = _parse_float_list(tg, what)
    else:
        what, tg = "t_grid", cfg.get("t_grid")
        if tg is None:
            return list(default)
        if not isinstance(tg, list):
            raise ConfigError("t_grid must be a list of numbers")
        if not tg:
            raise ConfigError("empty t_grid")
        ts = [_number(t, what) for t in tg]
    for t in ts:
        if not lo <= t <= hi or t == sigma:
            at = "" if sigma is None else f" and differ from sigma = {sigma}"
            raise ConfigError(f"{what} point {t!r} must lie in [{lo}, {hi}]"
                              f"{at}")
    return ts


def _load_config(args, keys=_RUN_KEYS) -> dict:
    """The config of ``--config`` ({} without one), holding only ``keys``
    and an ``output.format`` the subcommand writes; ConfigError naming
    the bad key otherwise."""
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = set(cfg) - keys
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)} for "
                          f"{args.command}")
    out = cfg.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output must be an object")
    unknown = set(out) - {"format", "path"}
    if unknown:
        raise ConfigError(f"unknown output keys {sorted(unknown)}")
    writes = {"monodromy": ("csv", "json"), "fundamental": ("csv",),
              "wpoly": ("csv",)}.get(args.command, ("json",))
    if out.get("format") not in (None, *writes):
        raise ConfigError(f"output.format must be {' or '.join(writes)} for "
                          f"{args.command}, got {out['format']!r}")
    # config-level output settings are defaults; CLI flags win
    if out.get("path") and not getattr(args, "output", None):
        args.output = out["path"]
    if out.get("format") and getattr(args, "emit", None) is None:
        args.emit = out["format"]
    return cfg


def _setup(args):
    """Config and problem (the example by default)."""
    cfg = _load_config(args)
    problem = cfg.get("problem")
    ih = ex.example_problem() if problem is None else problem_from_dict(problem)
    return cfg, ih


def _map_grid(ih, zs, fn, sides=("minus", "plus")):
    """``fn`` of every z of ``zs``, in input order, reading the bases of
    ``sides`` chunk by chunk (``boundary.z_chunks``), so however long the
    grid, no basis is evicted from the cache before it is read.  A z that
    fails raises its own error in ``fn``, as without the batch."""
    return [fn(z) for chunk in bd.z_chunks(ih, zs, sides) for z in chunk]


def _emit(args, text: str):
    path = getattr(args, "output", None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


_W_HEADER = ["t", "z_re", "z_im", "W11_re", "W11_im", "W12_re", "W12_im",
             "W21_re", "W21_im", "W22_re", "W22_im", "det_err"]


def _w_row(t, z, w, det_err):
    """One CSV row of a 2x2 matrix at (t, z): real and imaginary parts."""
    parts = np.stack([w.real, w.imag], axis=-1).ravel()
    return [float(t), z.real, z.imag, *map(float, parts), det_err]


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_fundamental(args):
    cfg, ih = _setup(args)
    zs = _z_grid_from(args, cfg)
    side = args.side
    h = ih.side(side)
    # the solution's range: from the regular endpoint to the default cutoff
    reg = h.regular_endpoint(side)
    (stop,), sing = sv._targets_for(h, reg, side, None)
    ts = _t_grid_from(args, cfg, np.linspace(*h.interval, 9)[1:-1],
                      min(reg, stop), max(reg, stop))

    rows = []
    # sv.fundamental(h, z, side=side, t0=reg) of a chunk's z in one batch
    for chunk in bd.z_chunks(ih, zs, ()):
        runs = [sv.Run(z, h, reg, np.eye(2).ravel(), [stop], sing)
                for z in chunk]
        for z, w in zip(chunk, sv.integrate_dense(runs)):
            det_err = w.det_error()
            rows += [_w_row(t, z, wt, det_err)
                     for t, wt in zip(ts, w.eval(ts))]
    _emit(args, _csv(rows, _W_HEADER))
    return 0


def _cmd_wpoly(args):
    cfg, ih = _setup(args)
    if args.n < 0:
        raise ConfigError(f"--n must be a non-negative integer, got {args.n}")
    if args.n > MAX_WPOLY_N:
        raise ConfigError(f"--n must be at most {MAX_WPOLY_N}, got {args.n}")
    side = args.side
    h = ih.side(side)
    w = wp.w_family_for(ih, side, max(args.n, 1))[args.n]
    lo, hi = h.interval
    pad = 1e-3 * (hi - lo)
    ts = _t_grid_from(args, cfg, np.linspace(lo + pad, hi - pad, 33), lo, hi,
                      ih.sigma)
    vals = w(np.asarray(ts))
    rows = [[float(t), float(v[0]), 0.0, float(v[1]), 0.0]
            for t, v in zip(ts, vals)]
    _emit(args, _csv(rows, ["t", "w1_re", "w1_im", "w2_re", "w2_im"]))
    return 0


def _cmd_regbv(args):
    cfg, ih = _setup(args)
    zs = _z_grid_from(args, cfg)
    side = args.side
    y0 = _parse_complex_list(args.init, "--init")
    if len(y0) != 2:
        raise ConfigError("--init must give two complex components")

    def work(z):
        # y0 is the value at the regular endpoint: the pair is U^T y0
        rb = bd.side_basis(ih, side, z).pair(y0)
        entry = {
            "z": [z.real, z.imag],
            "gamma_s": [rb.gamma_s.real, rb.gamma_s.imag],
            "gamma_r": [rb.gamma_r.real, rb.gamma_r.imag],
            "err_est": rb.err_est,
        }
        if args.verbose:
            entry["samples"] = [[float(x), [v.real, v.imag], [g.real, g.imag]]
                                for x, v, g in rb.samples]
        return entry

    _emit_json(args, _map_grid(ih, zs, work, (side,)))
    return 0


def _cmd_monodromy(args):
    cfg, ih = _setup(args)
    zs = _z_grid_from(args, cfg)
    t = ih.s_plus if args.t is None else _finite_float(args.t, "--t")
    if not ih.s_minus <= t <= ih.s_plus or t == ih.sigma:
        raise ConfigError(f"--t must lie in [{ih.s_minus}, {ih.s_plus}] and "
                          f"differ from sigma = {ih.sigma}, got {t!r}")

    def work(z):
        return z, mo.assemble_W(ih, z, t)

    sides = ("minus",) if t < ih.sigma else ("minus", "plus")
    results = _map_grid(ih, zs, work, sides)
    if (args.emit or "csv") == "json":
        with np.errstate(over="ignore", invalid="ignore"):  # inf when W overflows
            dets = [np.linalg.det(w) for _, w in results]
        _emit_json(args, [{
            "z": [z.real, z.imag], "t": t,
            "W": [[[w[i, j].real, w[i, j].imag] for j in (0, 1)] for i in (0, 1)],
            "det": [det.real, det.imag],
        } for (z, w), det in zip(results, dets)])
    else:
        # det_err: |det W - 1| in units of the products that cancel in det W
        rows = [_w_row(t, z, w, bd.det_residual(w, 1.0)) for z, w in results]
        _emit(args, _csv(rows, _W_HEADER))
    return 0


def _cmd_kernel_signature(args):
    _, ih = _setup(args)
    if args.points is not None:
        pts = _parse_complex_list(args.points, "--points")
        _count(len(pts), "--points", MAX_KERNEL_POINTS)
        fault = mo.kernel_grid_fault(pts)
        if fault is not None:
            raise ConfigError(f"--points: {fault}")
    else:
        n = _count(args.random_grid, "--random-grid", MAX_KERNEL_POINTS)
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        pts = list(rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 2.5, n))
    pts = [complex(p) for p in pts]
    ws = _map_grid(ih, pts, lambda z: mo.monodromy_matrix(ih, z))
    sig = mo.kernel_gram(dict(zip(pts, ws)).__getitem__, pts)
    _emit_json(args, {
        "points": [[p.real, p.imag] for p in sig.grid],
        "neg_count": sig.neg_count,
        "min_eig": sig.min_eig,
        "seed": args.seed,
    })
    return 0


def _cmd_weyl(args):
    _, ih = _setup(args)
    zs = _parse_complex_list(args.z, "--z")
    qs = _map_grid(ih, zs, lambda z: mo.weyl_intermediate(ih, z), ("minus",))
    _emit_json(args, [{"z": [z.real, z.imag], "q_sigma": [q.real, q.imag]}
                      for z, q in zip(zs, qs)])
    return 0


def _cmd_validate_example(args):
    _load_config(args, {"output"})
    s_plus = _finite_float(args.s_plus, "--s-plus")
    if s_plus <= ex.SIGMA:
        raise ConfigError(f"--s-plus must exceed sigma = {ex.SIGMA}, "
                          f"got {s_plus!r}")
    d0 = None if args.d0 is None else _finite_float(args.d0, "--d0")
    b = () if args.b is None else tuple(_parse_float_list(args.b, "--b"))
    cfg_obj = ex.ExampleConfig(s_plus=s_plus, d0=d0,
                               d1=_finite_float(args.d1, "--d1"), oe=len(b), b=b)
    threshold = _finite_float(args.threshold, "--threshold")
    if threshold < 0.0:
        raise ConfigError(f"--threshold must be >= 0, got {args.threshold!r}")
    report = ex.run_validation(cfg_obj, threshold=threshold)
    _emit_json(args, report)
    return 0 if report["pass"] else 1


def check_conditions(ih: IndefHamiltonianA) -> dict:
    """All structural diagnostics of a problem; never raises on a verdict.

    PSD sampling, integrability conditions toward sigma, indivisibility and
    the delta consistency test are reported per side; none of them gates a
    later computation.
    """
    report = {}
    for side in ("minus", "plus"):
        h = ih.side(side)
        psd = check_psd(h)
        ci = check_I(h, side)
        chs = check_HS(h, side)
        indiv = ih.indivisible(side)
        dd = None
        if h.is_diagonal or ih.omegas(side):
            dd = wp.delta_diagnostic(
                h, side, ih.delta,
                omegas=None if h.is_diagonal else ih.omegas(side))
        report[side] = {
            "psd_worst": psd,
            "condition_I": ci.converges,
            "condition_HS": chs.converges,
            "indivisible": indiv.is_indivisible,
            "delta_consistent": None if dd is None else dd.consistent,
        }
    return report


def _cmd_check_conditions(args):
    _, ih = _setup(args)
    report = check_conditions(ih)
    width = 13
    head = ("side", "psd_worst", "cond_I", "cond_HS", "indivisible", "delta_ok")
    lines = ["".join(f"{h:<{width}}" for h in head)]
    for side, r in report.items():
        cells = (side, f"{r['psd_worst']:.2e}", r["condition_I"],
                 r["condition_HS"], r["indivisible"],
                 "n/a" if r["delta_consistent"] is None else r["delta_consistent"])
        lines.append("".join(f"{str(c):<{width}}" for c in cells))
    sys.stderr.write("\n".join(lines) + "\n")
    _emit_json(args, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="canonsys",
        description="Fundamental solutions and monodromy matrices of 2x2 "
                    "canonical systems with one inner singularity")
    p.add_argument("--config", help="JSON run config (problem, grids, output)")
    p.add_argument("--output", help="write output to this file instead of stdout")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility, no effect: every z "
                        "grid runs serially (default 1)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("fundamental", help="fundamental solution on one side")
    q.add_argument("--side", choices=("minus", "plus"), default="minus")
    q.add_argument("--z-grid", help='comma list "1,2j,1+2j" or rectangle JSON')
    q.add_argument("--t-grid", help="comma list of evaluation points")
    q.set_defaults(func=_cmd_fundamental)

    q = sub.add_parser("wpoly", help="regularising function values as CSV")
    q.add_argument("--side", choices=("minus", "plus"), default="minus")
    q.add_argument("--n", type=int, default=1)
    q.add_argument("--t-grid")
    q.set_defaults(func=_cmd_wpoly)

    q = sub.add_parser("regbv", help="regularised boundary values per z")
    q.add_argument("--side", choices=("minus", "plus"), default="minus")
    q.add_argument("--z-grid")
    q.add_argument("--init", default="0,1",
                   help="solution value at the regular endpoint, two complex numbers")
    q.add_argument("--verbose", action="store_true",
                   help="include the pre-limit sample sequence")
    q.set_defaults(func=_cmd_regbv)

    q = sub.add_parser("monodromy", help="assembled matrix over a z grid")
    q.add_argument("--z-grid")
    q.add_argument("--t", type=float, help="evaluation point (default s_plus)")
    q.add_argument("--emit", choices=("csv", "json"),
                   help="output format (default csv, or the config's)")
    q.set_defaults(func=_cmd_monodromy)

    q = sub.add_parser("kernel-signature", help="negative squares estimate")
    q.add_argument("--points",
                   help="comma list of complex grid points: pairwise "
                        "distinct, none real and no conjugate pair")
    q.add_argument("--random-grid", type=int, default=8,
                   help="number of random points (default 8)")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_kernel_signature)

    q = sub.add_parser("weyl", help="intermediate Weyl coefficient")
    q.add_argument("--z", required=True, help="comma list, Im z != 0")
    q.set_defaults(func=_cmd_weyl)

    q = sub.add_parser("validate-example",
                       help="run the full pipeline against the closed forms")
    q.add_argument("--threshold", type=float, default=1e-6)
    q.add_argument("--s-plus", type=float, default=2.0)
    q.add_argument("--d0", type=float, default=None)
    q.add_argument("--d1", type=float, default=0.0)
    q.add_argument("--b", help="comma list b_1..b_oe (sets oe)")
    q.set_defaults(func=_cmd_validate_example)

    q = sub.add_parser("check-conditions",
                       help="structural diagnostics of the configured problem")
    q.set_defaults(func=_cmd_check_conditions)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _count(args.jobs, "--jobs")
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error [canonsys]: {exc}\n")
        return 2
    except CanonsysError as exc:
        sys.stderr.write(f"computation error [{type(exc).__name__}]: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
