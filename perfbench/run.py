#!/usr/bin/env python3
"""Layered benchmark of the canonsys pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``worker.py``) whose environment is pinned: ``CANON_JOBS`` and
``CANONSYS_BACKEND`` are removed (their values are recorded in the stamp, and
the backend is never forced), BLAS pools get one thread, numpy's huge-page
advice is off, and the library is imported from this checkout's ``src``.
With ``--trace 0`` the last line holds the end-to-end metrics of
``BENCHMARK.json``; set-up time is the median of ``SETUP_REPEATS`` fresh
interpreters that import the library and build the problem with its
w-families.  Times are scaled to a reference host speed.  With
``--trace 1`` it holds the per-layer metrics derived from the spans of a
traced run.  The line before it is a stamp: backend, Python and numpy
versions, nproc, the host-speed loop time and the timings before they were
scaled to the reference host (see ``hostspeed.py``).

Any failure to build, import or run exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED_OUT = ("CANON_JOBS", "CANONSYS_BACKEND")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
before = hostspeed.loop_s()
t0 = time.perf_counter()
import canonsys
from canonsys import wpoly
ih = canonsys.example_problem()
for side in ("minus", "plus"):
    wpoly.w_family_for(ih, side)
t1 = time.perf_counter()
print(canonsys.__file__)
print(repr(t1 - t0), repr(hostspeed.scaled(t1 - t0, before, hostspeed.loop_s())))
"""


def child_env() -> tuple[dict, dict]:
    """Environment of every child, and the pinned-out values it had."""
    env = dict(os.environ)
    recorded = {k: env.pop(k, None) for k in PINNED_OUT}
    # numpy asks for transparent huge pages on large arrays by default;
    # whether a 2 MB page gets backed then depends on address layout, which
    # makes peak RSS jump by megabytes at random between identical runs
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMPY_MADVISE_HUGEPAGE="0")
    return env, recorded


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median wall time of import + problem + w-family build, each in a
    fresh interpreter: (scaled to the reference host, as measured)."""
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S, check=True)
        path, secs, secs_scaled = out.stdout.split()
        if SRC.resolve() not in Path(path).resolve().parents:
            raise ValueError(f"set-up imported canonsys from {path}")
        measured.append(float(secs))
        scaled.append(float(secs_scaled))
    return statistics.median(scaled), statistics.median(measured)


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def metric_table(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    units = metric_table(args.trace)
    env, recorded = child_env()
    try:
        res = run_worker(args, env)
        values = dict(res["metrics"])
        if not args.trace:
            values["setup_s"], unscaled = setup_seconds(env)
            res["stamp"]["unscaled"]["setup_s"] = unscaled
    except (subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    unknown = set(values) - set(units)
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    absent = sorted(set(units) - set(values))
    if absent:
        print(f"absent metrics (their functions were not found): {absent}",
              file=sys.stderr)
    stamp = dict(res["stamp"], workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 env_removed=recorded, untraced=res["absent"])
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
