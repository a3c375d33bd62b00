#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny size (about 30 s).

    python3 perfbench/selftest.py

Checks that
- every metric named in BENCHMARK.json is emitted with its unit, untraced
  and traced, on the three workloads whose operations take seconds
  (``validate`` takes a minute per operation; which metrics are emitted
  does not depend on the workload);
- an operation checked against a deliberately wrong reference counts as
  failed, and the host's speed is sampled while it runs;
- the ``validate`` check rejects a failing report;
- ``grid-jobs2`` output at ``--jobs 2`` is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import worker  # noqa: E402
from workloads import TOL, GridJobs2, GridSerial, Validate, run_cli  # noqa: E402


def expect(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def result_line(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"),
                          "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    lines = out.stdout.strip().splitlines()
    expect("stamp" in json.loads(lines[-2]), "no stamp line before the result")
    return json.loads(lines[-1])


def check_metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in ("grid-serial", "grid-jobs2", "shoot"):
            res = result_line(wl, trace)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{wl}: {res['failed']} of {res['attempted']} ops failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{wl} trace {trace}: metrics {got} != {want}")
            expect(all(isinstance(v["value"], float | int)
                       for v in res["metrics"].values()), "non-numeric value")


def check_wrong_reference_fails(cs) -> None:
    def wrong(t, z, s_plus):
        return cs.closed_W(t, z, s_plus) + 1.0

    wl = GridSerial(cs, seed=3, reference=wrong)
    wl.setup()
    with hostspeed.Sampler() as sampler:
        res = worker.measure(wl, seconds=0, sampler=sampler)
    expect(len(res["errors"]) == 1 and not res["errors"][0] <= TOL,
           f"wrong reference not detected: {res['errors']}")
    expect(len(sampler.times) > 2 and len(res["scaled"]) == 1,
           "host speed not sampled during the operation")
    bad = Validate(cs, seed=0)
    report = json.dumps({"pass": False, "max_abs_err": {"w_1": 1.0}})
    expect(bad.check(None, (0, report)) == np.inf, "failing report accepted")
    expect(bad.check(None, (1, "")) == np.inf, "non-zero exit accepted")


def check_jobs_identical(cs) -> None:
    wl = GridJobs2(cs, seed=5)
    zs = wl.next_input()
    serial = run_cli(cs, wl.argv(zs, 1))
    pooled = run_cli(cs, wl.argv(zs, 2))
    expect(serial[0] == pooled[0] == 0, "monodromy CLI failed")
    expect(serial[1].encode() == pooled[1].encode(),
           "--jobs 2 output differs from --jobs 1")


def main() -> int:
    cs = worker.import_canonsys()
    check_wrong_reference_fails(cs)
    check_jobs_identical(cs)
    check_metrics_emitted()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
