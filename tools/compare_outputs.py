"""Compare the outputs of two checkouts of canonsys bit for bit.

    python3 tools/compare_outputs.py OTHER_CHECKOUT [--far-first]

Dumps, once with this checkout's ``src/`` and once with OTHER_CHECKOUT's,
each in its own interpreter:

- ``monodromy_matrix`` of the example at 306 seeded z (real, imaginary and
  complex, 0 among them), each fresh on one problem, or the error it raises;
- ``monodromy_matrix`` at 20 seeded z on the example with its plus side,
  and then with its minus side, made indivisible of angle 0.7, or the
  error it raises: a fresh z solves the diagonal panels of one side beside
  the coupled ones of the other in one batch; and at those z the pairs of
  ``gamma_columns`` anchored at the identity at the indivisible side's
  midpoint, which are its values at the regular endpoint;
- the bases of both sides at 40 seeded z: each chain's breaks, node states,
  H at the nodes and Chebyshev coefficients, the solution's values at
  ``N_POINTS`` evenly spaced points of its range, the values of each of its
  rows (``row_sampler``) and of the shot ``solve_from_gamma`` at one seeded
  c there, and each boundary pair with its error estimate and samples;
- at those 40 z, ``fundamental`` on the minus side at ``N_POINTS`` points of
  its range, and its ``det_error``;
- at those 40 z, the boundary pairs (with error estimates and samples) of
  ``gamma_columns_batch`` runs anchored at the identity at ``ANCHORS``:
  each side's midpoint, the breaks 0.875 and 1.125 of the side plans, and
  0.3, all of one z in one batch;
- at those 40 z, the pairs of the interface runs as ``run_validation``
  builds them: from each side's midpoint, the minus run anchored at the
  minus basis's value there and the plus run at ``factorisation(ih,
  z).w`` there (both states taken from a second problem), in one batch,
  once before the z's bases exist on the problem and once after;
- on the example with its minus side split into two identical ``power``
  pieces at t = 0.3, at 20 seeded z, the pairs of ``gamma_columns_batch``
  runs anchored at the identity at 0.3 (a plan break from which a run's
  own first round is not the end of the plan's) and at the midpoint
  (where it is), once before the minus basis exists and once after, so
  the edge of that test is pinned;
- the exit code and the stdout and stderr bytes of ``validate-example``,
  of ``validate-example --s-plus 3``, of ``validate-example --config CFG
  --b 1`` (oe = 1, b = [1]; CFG, written to a temporary directory, sends
  the report to a file there, whose bytes are dumped too: a config of
  ``validate-example`` holds only ``output``), of ``monodromy --emit json`` over 40 z with ``--jobs 1`` and ``--jobs
  2``, of ``regbv --side plus --verbose`` and of ``weyl --z`` over those z
  (``weyl`` over the non-real ones, and once over all of them, which exits
  1 at the first real z), of ``kernel-signature --random-grid 8 --seed
  0``, and of ``fundamental``, of ``--jobs 2 fundamental`` over those z and
  of ``wpoly --n 1`` and ``--n 2`` on each side.

With ``--far-first`` every problem first computes ``monodromy_matrix`` at a
far z (|z| about 40), and the CLI grids and those of the indivisible
problems start with that z, so the runs that follow start from what that z
left on the problem.  Arrays are compared as bytes, so a zero of another
sign or another NaN counts as a difference.
Prints each difference, with the largest difference of its entries or, when
the shapes differ (a basis split into other panels), both shapes; a basis
whose chain differs also gets a line for its values, which keep one shape.
Exits 1 if an output differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

FAR_Z = 28.0 + 28.0j
SEED = 20261020
N_POINTS = 41
# interior anchors of gamma_columns: the sides' midpoints (None), which
# start from their plans' tails, and three that do not
ANCHORS = (("minus", None), ("plus", None), ("minus", 0.875), ("plus", 1.125),
           ("minus", 0.3))


def _grid(n: int, seed: int) -> list:
    """n seeded z: one in six real, one in six imaginary, the rest in the
    box |Re z| <= 8, |Im z| <= 5; the first is 0."""
    rng = np.random.default_rng(seed)
    out = [0j]
    for k in range(1, n):
        re, im = rng.uniform(-8.0, 8.0), rng.uniform(-5.0, 5.0)
        out.append(complex(re, 0.0) if k % 6 == 1 else
                   complex(0.0, im) if k % 6 == 2 else complex(re, im))
    return out


def _fresh_problem(cs, far: bool):
    ih = cs.example_problem()
    if far:
        cs.monodromy_matrix(ih, FAR_Z)
    return ih


def _indivisible_problem(cs, phi: float, side: str, c: float = 1.5) -> dict:
    """The example with one side replaced by c |t - 1|^-2 xi xi^T,
    xi = (cos phi, sin phi): indivisible of angle phi."""
    def entry(v):
        if abs(v) < 1e-12:
            return {"type": "const", "value": 0.0}
        return {"type": "power", "c": v, "center": 1.0, "exponent": -2}

    co, si = np.cos(phi), np.sin(phi)
    problem = cs.example_problem_dict()
    problem["h_" + side] = {"kind": "piecewise", "pieces": [{
        "interval": [0.0, 1.0] if side == "minus" else [1.0, 2.0],
        "h1": entry(c * co * co), "h2": entry(c * si * si),
        "h3": entry(c * co * si)}]}
    return problem


def _split_problem(cs) -> dict:
    """The example with its minus side as two identical ``power`` pieces
    split at t = 0.3, which makes 0.3 a break of the side plan."""
    def piece(interval):
        return {"interval": interval,
                "h1": {"type": "power", "c": 1.0, "center": 1.0,
                       "exponent": 2},
                "h2": {"type": "power", "c": 1.0, "center": 1.0,
                       "exponent": -2}}

    problem = cs.example_problem_dict()
    problem["h_minus"] = {"kind": "piecewise",
                          "pieces": [piece([0.0, 0.3]), piece([0.3, 1.0])]}
    return problem


def _attempt(fn):
    """fn()'s value, or the type and message of the library error it
    raised."""
    from canonsys.errors import CanonsysError
    try:
        return fn()
    except CanonsysError as exc:
        return f"{type(exc).__name__}: {exc}"


def _cli(argv) -> tuple:
    from canonsys import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _pair(p) -> np.ndarray:
    """gamma_s, gamma_r, err_est and the samples of a boundary pair."""
    return np.concatenate([[p.gamma_s, p.gamma_r, p.err_est],
                           np.array(p.samples, dtype=complex).ravel()])


def _interface(bd, ih, z, mids, starts, key: str, out: dict) -> None:
    """Into ``out``: the pairs of the interface runs at z from the sides'
    midpoints ``mids``, anchored at ``starts`` (minus, plus), or the error
    they raise."""
    if isinstance(starts, str):
        out[key] = starts
        return
    found = _attempt(lambda: bd.gamma_columns_batch(
        ih, [(side, z, t, y) for side, t, y
             in zip(("minus", "plus"), mids, starts)]))
    if isinstance(found, str):
        out[key] = found
        return
    for side, pairs in zip(("minus", "plus"), found):
        for c, p in enumerate(pairs):
            out[f"{key} {side} column {c}"] = _pair(p)


def dump(far: bool) -> dict:
    import canonsys as cs
    from canonsys import boundary as bd

    out = {}
    ih = _fresh_problem(cs, far)
    for k, z in enumerate(_grid(306, SEED)):
        out[f"monodromy[{k}] z={z}"] = _attempt(
            lambda: cs.monodromy_matrix(ih, z))
    for side in ("plus", "minus"):
        ih = cs.problem_from_dict(_indivisible_problem(cs, 0.7, side))
        mid = 0.5 * sum(ih.side(side).interval)
        for k, z in enumerate(([FAR_Z] if far else []) + _grid(20, SEED + 3)):
            out[f"indivisible {side} monodromy[{k}] z={z}"] = _attempt(
                lambda: cs.monodromy_matrix(ih, z))
            if z == FAR_Z:  # older checkouts run out of splits there
                continue
            key = f"indivisible {side} midpoint[{k}] z={z}"
            found = _attempt(lambda: bd.gamma_columns(ih, side, z, mid,
                                                      np.eye(2)))
            if isinstance(found, str):
                out[key] = found
                continue
            for c, p in enumerate(found):
                out[f"{key} column {c}"] = _pair(p)
    ih, ref = _fresh_problem(cs, far), _fresh_problem(cs, far)
    mids = [0.5 * sum(ih.side(side).interval) for side in ("minus", "plus")]
    shot_c = np.random.default_rng(SEED + 4).normal(size=(2, 2)) @ [1.0, 1.0j]
    for k, z in enumerate(_grid(40, SEED + 1)):
        starts = _attempt(lambda: [
            bd.side_basis(ref, "minus", z).solution.eval(mids[0]).T,
            cs.factorisation(ref, z).w(mids[1]).T])
        _interface(bd, ih, z, mids, starts,
                   f"interface[{k}] before the bases z={z}", out)
        for side in ("minus", "plus"):
            basis = _attempt(lambda: bd.side_basis(ih, side, z))
            key = f"basis[{k}] {side} z={z}"
            if isinstance(basis, str):
                out[key] = basis
                continue
            sol = basis.solution
            # an older checkout keeps the chains behind a private wrapper
            for c, seg in enumerate(getattr(sol, "_dense", sol).segments):
                for name in ("breaks", "ys", "hm", "coefs"):
                    out[f"{key} chain {c} {name}"] = getattr(seg, name)
            ts = np.linspace(*sol.interval, N_POINTS)
            out[f"{key} values"] = sol.eval(ts)
            for r, p in enumerate(basis.pairs):
                out[f"{key} pair {r}"] = _pair(p)
                out[f"{key} row {r} values"] = sol.row_sampler(r).eval(ts)
            out[f"{key} shot values"] = _attempt(
                lambda: cs.solve_from_gamma(ih, side, z, shot_c).eval(ts))
        w = _attempt(lambda: cs.fundamental(ih.h_minus, z, side="minus"))
        key = f"fundamental[{k}] minus z={z}"
        if isinstance(w, str):
            out[key] = w
        else:
            out[f"{key} values"] = w.eval(np.linspace(*w.interval, N_POINTS))
            out[f"{key} det_error"] = w.det_error()
        _interface(bd, ih, z, mids, starts,
                   f"interface[{k}] after the bases z={z}", out)
        anchors = [(side, 0.5 * sum(ih.side(side).interval) if t is None
                    else t) for side, t in ANCHORS]
        found = _attempt(lambda: bd.gamma_columns_batch(
            ih, [(side, z, t, np.eye(2)) for side, t in anchors]))
        if isinstance(found, str):
            out[f"gamma_columns[{k}] z={z}"] = found
            continue
        for (side, t), pairs in zip(anchors, found):
            for c, p in enumerate(pairs):
                out[f"gamma_columns[{k}] {side} t={t} z={z} column {c}"] = (
                    _pair(p))
    ih = cs.problem_from_dict(_split_problem(cs))
    if far:
        cs.monodromy_matrix(ih, FAR_Z)
    for k, z in enumerate(_grid(20, SEED + 5)):
        for when in ("before", "after"):
            if when == "after":
                _attempt(lambda: bd.side_basis(ih, "minus", z))
            key = f"split minus[{k}] {when} the basis z={z}"
            found = _attempt(lambda: bd.gamma_columns_batch(
                ih, [("minus", z, t, np.eye(2)) for t in (0.3, 0.5)]))
            if isinstance(found, str):
                out[key] = found
                continue
            for t, pairs in zip((0.3, 0.5), found):
                for c, p in enumerate(pairs):
                    out[f"{key} t={t} column {c}"] = _pair(p)
    grid = _grid(40, SEED + 2)
    if far:
        grid = [FAR_Z] + grid
    zs, non_real = (",".join(f"{z.real!r}{z.imag:+}j" for z in g)
                    for g in (grid, [z for z in grid if z.imag != 0.0]))
    runs = {"validate-example": ["validate-example"],
            "validate-example s_plus 3": ["validate-example", "--s-plus", "3"],
            "monodromy jobs 1": ["monodromy", "--emit", "json", "--z-grid", zs],
            "monodromy jobs 2": ["--jobs", "2", "monodromy", "--emit", "json",
                                 "--z-grid", zs],
            "regbv": ["regbv", "--side", "plus", "--verbose", "--z-grid", zs],
            "weyl": ["weyl", "--z", non_real],
            "weyl with real z": ["weyl", "--z", zs],
            "kernel-signature": ["kernel-signature", "--random-grid", "8",
                                 "--seed", "0"]}
    for side in ("minus", "plus"):
        runs[f"fundamental {side}"] = ["fundamental", "--side", side]
        runs[f"fundamental {side} jobs 2"] = ["--jobs", "2", "fundamental",
                                              "--side", side, "--z-grid", zs]
        for n in ("1", "2"):
            runs[f"wpoly {side} n {n}"] = ["wpoly", "--side", side, "--n", n]
    for name, argv in runs.items():
        out[f"cli {name}"] = _cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, report = (os.path.join(tmp, name)
                       for name in ("config.json", "report.json"))
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"output": {"path": report}}, fh)
        out["cli validate-example config oe 1"] = _cli(
            ["--config", cfg, "validate-example", "--b", "1"])
        with open(report, "rb") as fh:
            out["cli validate-example config oe 1 report"] = fh.read()
    return out


def _as_bytes(value):
    """A form of ``value`` that is equal exactly when the bits are."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_as_bytes(v) for v in value)
    if isinstance(value, (float, complex)):
        return np.asarray(value).tobytes()
    return value


def _gap(a, b) -> str:
    """How two outputs differ: for two arrays both shapes when those
    differ, else the largest difference of their entries; else both
    texts."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape:
            return f"shape {a.shape} != {b.shape}"
        return f"max |difference| {float(np.max(np.abs(a - b))):.3e}"
    return f"{str(a)[:200]!r} != {str(b)[:200]!r}"


def compare(mine: dict, theirs: dict) -> tuple:
    """(lines, count): a line per output whose bytes differ, and the number
    of those.  A basis whose chain differs also gets a line for its values
    at fixed points, the same bits or not, so a change of its panels is
    sized."""
    diffs = {key: "only in one" for key in set(mine) ^ set(theirs)}
    for key in mine:
        if key in theirs and _as_bytes(mine[key]) != _as_bytes(theirs[key]):
            diffs[key] = _gap(mine[key], theirs[key])
    count = len(diffs)
    for key in [k for k in diffs if " chain " in k]:
        values = key.split(" chain ")[0] + " values"
        if values in mine and values in theirs and values not in diffs:
            diffs[values] = (_gap(mine[values], theirs[values])
                             + " (the same bits)")
    return [f"{key}: {diffs[key]}" for key in sorted(diffs)], count


def _dump_in(checkout: str, far: bool, path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", path]
    if far:
        cmd.append("--far-first")
    subprocess.run(cmd, env=env, check=True, cwd=checkout)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", nargs="?", help="the checkout to compare with")
    p.add_argument("--far-first", action="store_true",
                   help="compute a far z on every problem first")
    p.add_argument("--dump", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        with open(args.dump, "wb") as fh:
            pickle.dump(dump(args.far_first), fh)
        return 0
    if not args.other:
        p.error("give the checkout to compare with")
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        mine = _dump_in(here, args.far_first, os.path.join(tmp, "mine.pkl"))
        theirs = _dump_in(os.path.abspath(args.other), args.far_first,
                          os.path.join(tmp, "theirs.pkl"))
    lines, count = compare(mine, theirs)
    for line in lines:
        print(line)
    print(f"{len(mine)} outputs compared, {count} differ")
    return 1 if count else 0


if __name__ == "__main__":
    raise SystemExit(main())
