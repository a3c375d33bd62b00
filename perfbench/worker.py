"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` in a fresh interpreter whose environment pins every
setting a workload depends on.  With ``--trace 1`` the library's public
functions are wrapped by ``tracer.Tracer`` for the whole run, set-up
included, and the spans are written to ``.perfbench/`` in the checkout.
Without it, the host's speed is sampled during the run (``hostspeed``) and
the end-to-end times are scaled by it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tr
from workloads import TOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_canonsys():
    """Import the library from this checkout's ``src`` and nowhere else."""
    import canonsys
    import canonsys.cli  # noqa: F401  (makes canonsys.cli an attribute)
    src = (ROOT / "src").resolve()
    if src not in Path(canonsys.__file__).resolve().parents:
        raise SystemExit(f"canonsys imported from {canonsys.__file__}, not {src}")
    return canonsys


def measure(wl, seconds: float, tracer=None, sampler=None) -> dict:
    """Closed loop: the next operation starts when the previous one is
    checked, until ``seconds`` have passed (at least one operation).

    With a ``hostspeed.Sampler`` entered, the time its samples took is taken
    out of each operation, and each operation's time is also given scaled
    to the reference host by the samples taken during it.
    """
    durations, scaled, errors = [], [], []
    rss = None
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    while not durations or end < deadline:
        inp = wl.next_input()
        if tracer is not None:
            tracer.op = len(durations)
        busy = sampler.busy if sampler is not None else 0.0
        t0 = time.perf_counter()
        try:
            out = wl.call(inp)
        except wl.cs.CanonsysError:
            out = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        if sampler is not None:
            durations.append(t1 - t0 - (sampler.busy - busy))
            scaled.append(sampler.scaled(durations[-1], t0, t1))
        else:
            durations.append(t1 - t0)
        errors.append(np.inf if out is None else wl.check(inp, out))
        if len(durations) == wl.rss_ops:
            rss = peak_rss_mb()
        end = time.perf_counter()
    return {"durations": durations, "scaled": scaled, "errors": errors,
            "rss": peak_rss_mb() if rss is None else rss}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cs = import_canonsys()
    wl = WORKLOADS[args.workload](cs, args.seed)
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(cs)
    try:
        wl.setup()
        if tracer is not None:
            res = measure(wl, args.seconds, tracer)
        else:
            with hostspeed.Sampler() as sampler:
                res = measure(wl, args.seconds, sampler=sampler)
    finally:
        if tracer is not None:
            tracer.uninstall()

    n = len(res["durations"])
    calib = 1e3 * hostspeed.loop_s()
    failed = sum(1 for e in res["errors"] if not e <= TOL)
    if args.trace:
        op_wall = sum(res["durations"])
        metrics = tr.layer_metrics(tracer, n, op_wall, tr.span_cost_s())
        finite = [e for e in res["errors"] if np.isfinite(e)]
        if finite:
            metrics["example.max_abs_err"] = max(finite)
        metrics["host.calib_ms"] = calib
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "ops_per_s": n / sum(res["scaled"]),
            "op_ms_p50": 1e3 * statistics.median(res["scaled"]),
            "peak_rss_mb": res["rss"],
        }
    print(json.dumps({
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "absent": tracer.missing if tracer is not None else [],
        "stamp": {
            "backend": cs.BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "calib_ms": calib,
            "unscaled": {"ops_per_s": n / sum(res["durations"]),
                         "op_ms_p50": 1e3 * statistics.median(res["durations"])},
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
