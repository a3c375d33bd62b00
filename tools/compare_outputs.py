"""Compare the outputs of two checkouts of canonsys bit for bit.

    python3 tools/compare_outputs.py OTHER_CHECKOUT [--far-first]

Dumps, once with this checkout's ``src/`` and once with OTHER_CHECKOUT's,
each in its own interpreter:

- ``monodromy_matrix`` of the example at 306 seeded z (real, imaginary and
  complex, 0 among them), each fresh on one problem, or the error it raises;
- the bases of both sides at 40 seeded z: each chain's breaks, node states,
  H at the nodes and Chebyshev coefficients, and each boundary pair with its
  error estimate and samples;
- the stdout bytes and exit code of ``validate-example``, of ``monodromy
  --emit json`` over 40 z with ``--jobs 1`` and ``--jobs 2``, and of
  ``regbv --side plus --verbose`` over those z.

With ``--far-first`` every problem first computes ``monodromy_matrix`` at a
far z (|z| about 40), and the CLI grids start with that z, so the runs that
follow start from what that z left on the problem.  Arrays are compared as
bytes, so a zero of another sign or another NaN counts as a difference.
Prints each difference and exits 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

FAR_Z = 28.0 + 28.0j
SEED = 20261020


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def _pair(p) -> tuple:
    return (p.side, p.z, p.gamma_s, p.gamma_r, p.err_est,
            np.array([[x, y, g] for x, y, g in p.samples], dtype=complex))


def dump(far: bool) -> dict:
    import canonsys as cs
    from canonsys import boundary as bd

    out = {}
    ih = _fresh_problem(cs, far)
    for k, z in enumerate(_grid(306, SEED)):
        out[f"monodromy[{k}] z={z}"] = _attempt(
            lambda: cs.monodromy_matrix(ih, z))
    ih = _fresh_problem(cs, far)
    for k, z in enumerate(_grid(40, SEED + 1)):
        for side in ("minus", "plus"):
            basis = _attempt(lambda: bd.side_basis(ih, side, z))
            key = f"basis[{k}] {side} z={z}"
            if isinstance(basis, str):
                out[key] = basis
                continue
            for c, seg in enumerate(basis.solution._dense.segments):
                for name in ("breaks", "ys", "hm", "coefs"):
                    out[f"{key} chain {c} {name}"] = getattr(seg, name)
            for r, p in enumerate(basis.pairs):
                out[f"{key} pair {r}"] = _pair(p)
    grid = _grid(40, SEED + 2)
    if far:
        grid = [FAR_Z] + grid
    zs = ",".join(f"{z.real!r}{z.imag:+}j" for z in grid)
    runs = {"validate-example": ["validate-example"],
            "monodromy jobs 1": ["monodromy", "--emit", "json", "--z-grid", zs],
            "monodromy jobs 2": ["--jobs", "2", "monodromy", "--emit", "json",
                                 "--z-grid", zs],
            "regbv": ["regbv", "--side", "plus", "--verbose", "--z-grid", zs]}
    for name, argv in runs.items():
        out[f"cli {name}"] = _cli(argv)
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


def compare(mine: dict, theirs: dict) -> list:
    diffs = [f"only in one: {key}" for key in sorted(set(mine) ^ set(theirs))]
    for key in mine:
        if key in theirs and _as_bytes(mine[key]) != _as_bytes(theirs[key]):
            a, b = mine[key], theirs[key]
            try:
                gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                diffs.append(f"{key}: max |difference| {gap:.3e}")
            except (TypeError, ValueError):
                diffs.append(f"{key}: {str(a)[:200]!r} != {str(b)[:200]!r}")
    return diffs


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
    diffs = compare(mine, theirs)
    for line in diffs:
        print(line)
    print(f"{len(mine)} outputs compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
