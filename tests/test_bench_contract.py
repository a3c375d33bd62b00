"""What the benchmark in ``perfbench/`` needs from the library.

A traced benchmark run wraps library functions by name
(``perfbench/tracer.py``) and ends with one JSON line of per-layer metrics,
which ``perfbench/run.py`` parses.  A renamed function, a changed result
layout or a non-finite metric (``json.dumps`` writes ``NaN``, which is not
JSON) breaks that line.  An untraced run calls each workload's operations
(``perfbench/workloads.py``) through options and names of the library, such
as ``--jobs`` and ``wpoly.w_family_for``, and counts an operation that raises
``CanonsysError`` as failed (``perfbench/worker.py``); losing one of them
fails every operation.  These tests read ``perfbench/`` and change nothing
there.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

import canonsys as cs
import canonsys.cli  # noqa: F401  (the tracer wraps canonsys.cli.main)

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["grid-serial", "grid-jobs2", "validate",
                                  "shoot"])
def test_untraced_workload_operation_passes_its_check(name):
    wl = _load("workloads")
    workload = wl.WORKLOADS[name](cs, 3101)
    workload.setup()
    inp = workload.next_input()
    assert workload.check(inp, workload.call(inp)) <= wl.TOL
    assert issubclass(cs.CanonsysError, Exception)


def test_traced_operations_give_strict_json_metrics():
    tr = _load("tracer")
    tracer = tr.Tracer()
    tracer.install(cs)
    try:
        ih = cs.example_problem()
        t0 = time.perf_counter()
        tracer.op = 0
        cs.monodromy_matrix(ih, 0.3 + 0.8j)
        tracer.op = 1
        f = cs.solve_from_gamma(ih, "plus", -0.5 + 0.2j, [1.0, 1j])
        cs.gamma_vec(f, ih, "plus")
        tracer.op = None
        op_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    assert tracer.missing == []
    dense = [s for s in tracer.spans if s.name == "solver.integrate_dense"]
    memo = [s for s in tracer.spans
            if s.name == "hamiltonian.IndefHamiltonianA.memo"]
    assert dense and memo
    assert all(type(s.extra) is int and s.extra > 0 for s in dense)
    assert all(type(s.extra) is bool for s in memo)

    metrics = tr.layer_metrics(tracer, 2, op_wall, tr.span_cost_s())
    json.dumps(metrics, allow_nan=False)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) <= {m["name"] for m in spec["per_layer"]}
    assert isinstance(cs.BACKEND, str)  # stamped on every benchmark result
