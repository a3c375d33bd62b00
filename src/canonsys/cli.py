"""Command-line surface: config ingestion, orchestration, machine output.

Exit codes: 0 success, 1 computation error, 2 configuration error.  Output is
deterministic for a fixed config and seed: CSV prints IEEE doubles with 17
significant digits, JSON is emitted with sorted keys, and z-grid work items
are dispatched to a bounded thread pool but collected in input order.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import boundary as bd
from . import example as ex
from . import monodromy as mo
from . import solver as sv
from . import wpoly as wp
from .errors import CanonsysError, ConfigError
from .hamiltonian import (IndefHamiltonianA, check_HS, check_I, check_psd,
                          indivisible_type, problem_from_dict)

_RUN_KEYS = {"problem", "z_grid", "t_grid", "tolerances", "output"}
_TOL_KEYS = {"rk_rtol", "rk_atol"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_complex(value, what: str) -> complex:
    """One z value from the command line or a config; ConfigError names it."""
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            z = complex(float(value[0]), float(value[1]))
        elif isinstance(value, str):
            z = complex(value.strip().replace("i", "j"))
        else:
            z = complex(value)
    except (TypeError, ValueError, OverflowError) as exc:
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


def _count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value != int(value) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _parse_complex_list(text: str, what: str):
    out = [_finite_complex(tok, what) for tok in text.split(",") if tok.strip()]
    if not out:
        raise ConfigError(f"empty {what}")
    return out


def _parse_float_list(text: str, what: str):
    return [_finite_float(tok, what) for tok in text.split(",") if tok.strip()]


def _rect_grid(spec):
    try:
        a, b, n = spec["re"]
        c, d, m = spec["im"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError('rectangle z_grid needs {"re": [a,b,n], "im": [c,d,m]}') from exc
    re = np.linspace(_finite_float(a, "z_grid re"), _finite_float(b, "z_grid re"),
                     _count(n, "z_grid re count"))
    im = np.linspace(_finite_float(c, "z_grid im"), _finite_float(d, "z_grid im"),
                     _count(m, "z_grid im count"))
    return [complex(r, i) for i in im for r in re]


def _z_grid_from(args, cfg):
    if getattr(args, "z_grid", None):
        text = args.z_grid
        if text.startswith("{"):
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed rectangle --z-grid: {exc.msg}") from exc
            return _rect_grid(spec)
        return _parse_complex_list(text, "--z-grid")
    zg = cfg.get("z_grid")
    if zg is None:
        return [complex(z) for z in ex.DEFAULT_Z_GRID]
    if isinstance(zg, dict):
        return _rect_grid(zg)
    if not isinstance(zg, list):
        raise ConfigError("z_grid must be a list or a rectangle object")
    return [_finite_complex(z, "z_grid") for z in zg]


def _t_grid_from(args, cfg, default):
    if getattr(args, "t_grid", None):
        return _parse_float_list(args.t_grid, "--t-grid")
    tg = cfg.get("t_grid")
    if tg is not None:
        if not isinstance(tg, list):
            raise ConfigError("t_grid must be a list of numbers")
        return [_finite_float(t, "t_grid") for t in tg]
    return list(default)


def _load_config(args) -> dict:
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
    unknown = set(cfg) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    _tols(cfg)
    out = cfg.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output must be an object")
    unknown = set(out) - {"format", "path"}
    if unknown:
        raise ConfigError(f"unknown output keys {sorted(unknown)}")
    if out.get("format") not in (None, "csv", "json"):
        raise ConfigError("output format must be csv or json")
    # config-level output settings are defaults; CLI flags win
    if out.get("path") and not getattr(args, "output", None):
        args.output = out["path"]
    if out.get("format") and getattr(args, "emit", None) is None:
        args.emit = out["format"]
    return cfg


def _problem_from(cfg: dict) -> IndefHamiltonianA:
    problem = cfg.get("problem")
    if problem is None:
        return ex.example_problem()
    return problem_from_dict(problem)


def _tols(cfg: dict):
    """(rk_rtol, rk_atol) of the config: finite numbers, rtol > 0, atol >= 0."""
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    unknown = set(tol) - _TOL_KEYS
    if unknown:
        raise ConfigError(f"unknown tolerance keys {sorted(unknown)} "
                          f"(allowed: {sorted(_TOL_KEYS)})")
    vals = []
    for key, default in (("rk_rtol", mo.PIPE_RTOL), ("rk_atol", mo.PIPE_ATOL)):
        x = tol.get(key, default)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"tolerances {key} must be a number, got {x!r}")
        vals.append(_finite_float(x, f"tolerances {key}"))
    rtol, atol = vals
    if rtol <= 0:
        raise ConfigError(f"tolerances rk_rtol must be > 0, got {rtol!r}")
    if atol < 0:
        raise ConfigError(f"tolerances rk_atol must be >= 0, got {atol!r}")
    return rtol, atol


def _jobs(args) -> int:
    """Worker threads: --jobs, else CANON_JOBS, else 1; each must be >= 1."""
    if args.jobs is not None:
        what, text = "--jobs", str(args.jobs)
    else:
        what, text = "CANON_JOBS", os.environ.get("CANON_JOBS") or "1"
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"{what} must be a positive integer, got {text!r}")
    return jobs


def _map_ordered(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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
    cfg = _load_config(args)
    ih = _problem_from(cfg)
    rtol, atol = _tols(cfg)
    zs = _z_grid_from(args, cfg)
    side = args.side
    h = ih.side(side)
    ts = _t_grid_from(args, cfg, np.linspace(*h.interval, 9)[1:-1])

    def work(z):
        w = sv.fundamental(h, z, side=side, rtol=rtol, atol=atol,
                           t0=h.regular_endpoint(side))
        return [_w_row(t, z, w.eval(t), w.det_error()) for t in ts]

    rows = [r for chunk in _map_ordered(work, zs, _jobs(args)) for r in chunk]
    _emit(args, _csv(rows, _W_HEADER))
    return 0


def _cmd_wpoly(args):
    cfg = _load_config(args)
    ih = _problem_from(cfg)
    if args.n < 0:
        raise ConfigError(f"--n must be a non-negative integer, got {args.n}")
    side = args.side
    h = ih.side(side)
    w = wp.w_family_for(ih, side, max(args.n, 1))[args.n]
    lo, hi = h.interval
    pad = 1e-3 * (hi - lo)
    ts = _t_grid_from(args, cfg, np.linspace(lo + pad, hi - pad, 33))
    vals = w(np.asarray(ts))
    rows = [[float(t), float(v[0]), 0.0, float(v[1]), 0.0]
            for t, v in zip(ts, vals)]
    _emit(args, _csv(rows, ["t", "w1_re", "w1_im", "w2_re", "w2_im"]))
    return 0


def _cmd_regbv(args):
    cfg = _load_config(args)
    ih = _problem_from(cfg)
    rtol, atol = _tols(cfg)
    zs = _z_grid_from(args, cfg)
    side = args.side
    y0 = _parse_complex_list(args.init, "--init")
    if len(y0) != 2:
        raise ConfigError("--init must give two complex components")
    reg = ih.side(side).regular_endpoint(side)

    def work(z):
        rb = bd.gamma_columns(ih, side, z, reg,
                              np.array(y0).reshape(2, 1),
                              rtol=rtol, atol=atol)[0]
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

    _emit_json(args, _map_ordered(work, zs, _jobs(args)))
    return 0


def _cmd_monodromy(args):
    cfg = _load_config(args)
    ih = _problem_from(cfg)
    rtol, atol = _tols(cfg)
    zs = _z_grid_from(args, cfg)
    t = float(args.t) if args.t is not None else ih.s_plus

    def work(z):
        w = mo.assemble_W(ih, z, t, rtol=rtol, atol=atol)
        return z, w

    results = _map_ordered(work, zs, _jobs(args))
    if (args.emit or "csv") == "json":
        _emit_json(args, [{
            "z": [z.real, z.imag], "t": t,
            "W": [[[w[i, j].real, w[i, j].imag] for j in (0, 1)] for i in (0, 1)],
            "det": [np.linalg.det(w).real, np.linalg.det(w).imag],
        } for z, w in results])
    else:
        rows = [_w_row(t, z, w, abs(np.linalg.det(w) - 1.0))
                for z, w in results]
        _emit(args, _csv(rows, _W_HEADER))
    return 0


def _cmd_kernel_signature(args):
    cfg = _load_config(args)
    ih = _problem_from(cfg)
    rtol, atol = _tols(cfg)
    if args.points:
        pts = _parse_complex_list(args.points, "--points")
    else:
        rng = np.random.default_rng(args.seed)
        n = args.random_grid or 8
        pts = list(rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 2.5, n))
    sig = mo.kernel_gram(lambda z: mo.monodromy_matrix(ih, z, rtol=rtol, atol=atol),
                         pts)
    _emit_json(args, {
        "points": [[p.real, p.imag] for p in sig.grid],
        "neg_count": sig.neg_count,
        "min_eig": sig.min_eig,
        "seed": args.seed,
    })
    return 0


def _cmd_weyl(args):
    cfg = _load_config(args)
    ih = _problem_from(cfg)
    rtol, atol = _tols(cfg)
    zs = _parse_complex_list(args.z, "--z")
    out = []
    for z in zs:
        q = mo.weyl_intermediate(ih, z, rtol=rtol, atol=atol)
        out.append({"z": [z.real, z.imag], "q_sigma": [q.real, q.imag]})
    _emit_json(args, out)
    return 0


def _cmd_validate_example(args):
    cfg_obj = ex.ExampleConfig(
        s_plus=args.s_plus,
        d0=args.d0,
        d1=args.d1,
        oe=0 if args.b is None else len(_parse_float_list(args.b, "--b")),
        b=() if args.b is None else tuple(_parse_float_list(args.b, "--b")),
    )
    report = ex.run_validation(cfg_obj, threshold=args.threshold)
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
        end = "hi" if side == "minus" else "lo"
        psd = check_psd(h)
        ci = check_I(h, end)
        chs = check_HS(h, end)
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
    cfg = _load_config(args)
    ih = _problem_from(cfg)
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
    p.add_argument("--config", help="JSON run config (problem, grids, tolerances)")
    p.add_argument("--output", help="write output to this file instead of stdout")
    p.add_argument("--jobs", type=int, help="worker threads for z grids "
                                            "(default: CANON_JOBS or 1)")
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
    q.add_argument("--points", help="comma list of complex grid points")
    q.add_argument("--random-grid", type=int, help="number of random points")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error [canonsys]: {exc}\n")
        return 2
    except CanonsysError as exc:
        sys.stderr.write(f"computation error [{type(exc).__name__}]: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
