"""In-memory span tracer for the canonsys pipeline, installed from outside.

The tracer replaces public functions of the library modules with wrappers
that record one span per call: name, start, end, parent span, thread, the
thread's CPU time inside the call and the benchmark operation that caused
it.  Nothing in the library changes; the
wrappers are module attributes, so calls between functions of the library
(which look the names up in their module at call time) are traced as well.
A target that no longer exists is skipped, and the metrics derived from it
are reported as absent.

Spans stay in memory until the run ends, when they are written out as JSON
lines and reduced to the per-layer metrics of ``layer_metrics``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute) pairs wrapped by the traced run.  Attributes with a dot
# are methods: "IndefHamiltonianA.memo" wraps the method on the class.
TARGETS = {
    "wpoly": ("w_family_for", "build_w_family"),
    "solver": ("integrate_dense", "fundamental"),
    "boundary": ("gamma_columns", "gamma_vec", "solve_from_gamma",
                 "neville_limit", "interface_residual"),
    "monodromy": ("u_minus", "default_v", "u_plus", "factorisation",
                  "assemble_W", "monodromy_matrix", "m_matrix",
                  "weyl_intermediate", "kernel_gram"),
    "hamiltonian": ("IndefHamiltonianA.memo",),
    "cli": ("main",),
    "example": ("run_validation",),
}


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float  # CPU seconds of the calling thread: busy, not waiting for the GIL
    thread: int
    op: int | None
    extra: object  # steps of an integration, hit flag of a memo lookup


def _steps(result):
    """Accepted steps of a DenseSolution, or None when its layout changed."""
    try:
        return sum(len(seg.ts) - 1 for seg in result.segments)
    except (AttributeError, TypeError):
        return None


def _memo_call(orig, args, kwargs):
    """Call IndefHamiltonianA.memo(self, key, build) and report a hit.

    The lookup is a hit when ``build`` is not called.  When the signature
    differs from that, the call goes through unchanged and the hit is
    unknown (None).
    """
    if len(args) < 3 or not callable(args[2]) or kwargs:
        return orig(*args, **kwargs), None
    built = []
    build = args[2]

    def counting_build():
        built.append(True)
        return build()

    return orig(args[0], args[1], counting_build), not built


_CALL_HOOKS = {"IndefHamiltonianA.memo": _memo_call}
_RESULT_HOOKS = {"integrate_dense": _steps}


class Tracer:
    """Collects spans; ``op`` is the id of the operation being measured."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, call_hook=None, result_hook=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(sid)
            extra = None
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                if call_hook is None:
                    result = fn(*args, **kwargs)
                else:
                    result, extra = call_hook(fn, args, kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
            if result_hook is not None:
                extra = result_hook(result)
            spans.append(Span(sid, parent, name, start, end, cpu,
                              threading.get_ident(), op, extra))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every target in ``TARGETS`` found in ``package``.

        Re-exports of a wrapped function on the package itself are replaced
        too, so callers that use ``canonsys.<name>`` are traced.
        """
        for mod_name, attrs in TARGETS.items():
            module = getattr(package, mod_name, None)
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                owner, leaf = module, attr
                if "." in attr:
                    cls, leaf = attr.split(".")
                    owner = getattr(module, cls, None)
                orig = getattr(owner, leaf, None) if owner is not None else None
                if not callable(orig):
                    self.missing.append(name)
                    continue
                wrapped = self.wrap(orig, name, _CALL_HOOKS.get(attr),
                                    _RESULT_HOOKS.get(attr))
                self._set(owner, leaf, wrapped)
                self.installed.add(name)
                if "." not in attr and getattr(package, leaf, None) is orig:
                    self._set(package, leaf, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Extra seconds one traced call costs over a plain call."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def layer_metrics(tracer: Tracer, n_ops: int, op_wall_s: float,
                  span_cost: float) -> dict:
    """Per-layer metrics from the spans of one run.

    Times are busy time, the calling thread's CPU seconds, so that calls
    waiting for the GIL in the CLI's thread pool are not counted twice.
    Counts and times are per measured operation unless the name says
    otherwise; spans recorded outside an operation (the in-process set-up)
    only enter ``wpoly.w_family_for.s``.  A function that was wrapped but
    never called reads 0; a metric whose function was not found, or whose
    result no longer carries the data, is left out.
    """
    child_cpu = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_cpu[s.parent] += s.cpu
    in_ops = defaultdict(list)
    setup_cpu = defaultdict(float)
    for s in tracer.spans:
        if s.op is None:
            setup_cpu[s.name] += s.cpu
        else:
            in_ops[s.name].append(s)
    present = tracer.installed

    def count(name):
        return len(in_ops[name]) / n_ops

    def busy(name):
        return sum(s.cpu for s in in_ops[name]) / n_ops

    def self_busy(name):
        return sum(s.cpu - child_cpu[s.sid] for s in in_ops[name]) / n_ops

    out = {}

    def put(metric, name, fn):
        if name in present:
            out[metric] = fn(name)

    put("solver.integrate_dense.calls_per_op", "solver.integrate_dense", count)
    put("solver.integrate_dense.s", "solver.integrate_dense", busy)
    steps = [s.extra for s in in_ops["solver.integrate_dense"]]
    if steps and None not in steps and sum(steps) > 0:
        out["solver.integrate_dense.steps_per_op"] = sum(steps) / n_ops
        out["solver.integrate_dense.us_per_step"] = (
            1e6 * busy("solver.integrate_dense") * n_ops / sum(steps))
    put("hamiltonian.memo.lookups", "hamiltonian.IndefHamiltonianA.memo", count)
    hits = [s.extra for s in in_ops["hamiltonian.IndefHamiltonianA.memo"]]
    if hits and None not in hits:
        out["hamiltonian.memo.hit_ratio"] = sum(hits) / len(hits)
    for name in ("boundary.gamma_columns", "boundary.solve_from_gamma"):
        put(f"{name}.calls_per_op", name, count)
        put(f"{name}.self_s", name, self_busy)
    put("boundary.neville_limit.calls", "boundary.neville_limit", count)
    put("boundary.neville_limit.s", "boundary.neville_limit", busy)
    for name in ("monodromy.u_minus", "monodromy.default_v", "monodromy.u_plus"):
        put(f"{name}.s", name, busy)
    put("monodromy.factorisation.self_s", "monodromy.factorisation", self_busy)
    put("monodromy.assemble_W.calls", "monodromy.assemble_W", count)
    # busy time of all assemble_W calls, on any thread, over the wall time
    # of the operations: about 1 when the GIL serialises the CLI's pool
    put("cli.pool.parallelism", "monodromy.assemble_W",
        lambda name: busy(name) * n_ops / op_wall_s)
    put("wpoly.w_family_for.calls", "wpoly.w_family_for", count)
    put("wpoly.w_family_for.s", "wpoly.w_family_for", lambda name: setup_cpu[name])
    n_spans = sum(len(v) for v in in_ops.values())
    out["trace.overhead_share"] = n_spans * span_cost / op_wall_s
    return out
