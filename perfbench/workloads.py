"""The benchmark's workloads: seeded inputs, one operation each, and its check.

Every workload is a closed loop with one caller.  An operation calls only the
stable public API (``monodromy_matrix``, ``solve_from_gamma``, ``gamma_vec``,
``cli.main``) and is checked against the closed forms of
``canonsys.example``; it fails when its error exceeds ``TOL``, the acceptance
tolerance, or when the library raises one of its own errors.

``z`` is drawn from the acceptance region |Re z| <= 4, |Im z| <= 3, stratified:
the region is cut into 48 unit squares and the real axis into 8 unit
segments, which every run visits in one fixed shuffled order, a segment
before every six squares; the seed places each ``z`` in its cell.  One ``z``
costs more the larger |z| is (about 3600 integrator steps near 0, 4600 at
the corners), and a ``shoot`` run covers only two ``z``, so drawing them from
anywhere in the region would make the cost of a run depend on its seed.
Within a unit cell it varies by a few percent.  One ``z`` in seven is real,
the first of every run among them.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

TOL = 1e-6


def _z_cells():
    """(lowest Re, lowest Im, height) of every cell in visiting order."""
    fixed = np.random.default_rng(0)
    squares = [(re, im, 1) for re in range(-4, 4) for im in range(-3, 3)]
    segments = [(re, 0, 0) for re in range(-4, 4)]
    squares = [squares[k] for k in fixed.permutation(len(squares))]
    segments = [segments[k] for k in fixed.permutation(len(segments))]
    return [cell for i, seg in enumerate(segments)
            for cell in (seg, *squares[6 * i:6 * i + 6])]


Z_CELLS = _z_cells()


def z_stream(rng: np.random.Generator):
    """Endless seeded z sequence; pairwise distinct with probability one."""
    while True:
        for re_lo, im_lo, height in Z_CELLS:
            re = float(rng.uniform(re_lo, re_lo + 1))
            im = float(rng.uniform(im_lo, im_lo + height))
            yield complex(re, im)


def run_cli(cs, argv) -> tuple[int, str]:
    """In-process ``canonsys`` invocation; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cs.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One closed-loop workload.

    ``call`` does the timed work of one operation and returns what ``check``
    needs; ``check`` returns the operation's error, which must not exceed
    ``TOL``.  ``rss_ops`` is the number of operations after which peak
    memory is read, so it covers the same amount of work however many
    operations a run completes.
    """

    name = ""
    rss_ops = 1

    def __init__(self, cs, seed: int, reference=None):
        self.cs = cs
        self.rng = np.random.default_rng(seed)
        self.reference = reference or cs.closed_W
        self.ih = None

    def setup(self):
        """Build the problem and both w-families, as a user's session does."""
        self.ih = self.cs.example_problem()
        for side in ("minus", "plus"):
            self.cs.wpoly.w_family_for(self.ih, side)

    def next_input(self):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> float:
        raise NotImplementedError

    def w_error(self, z: complex, w) -> float:
        s_plus = self.ih.s_plus
        return float(np.abs(np.asarray(w) - self.reference(s_plus, z, s_plus)).max())


class GridSerial(Workload):
    """``monodromy_matrix`` at a fresh z on one problem per operation."""

    name = "grid-serial"
    rss_ops = 3

    def __init__(self, cs, seed, reference=None):
        super().__init__(cs, seed, reference)
        self.zs = z_stream(self.rng)

    def next_input(self):
        return next(self.zs)

    def call(self, z):
        return self.cs.monodromy_matrix(self.ih, z)

    def check(self, z, w):
        return self.w_error(z, w)


class GridJobs2(Workload):
    """``canonsys --jobs 2 monodromy --z-grid z1,z2 --emit json``.

    Each invocation builds its own problem, as a user's run does.
    """

    name = "grid-jobs2"
    rss_ops = 2
    z_per_call = 2
    jobs = 2

    def __init__(self, cs, seed, reference=None):
        super().__init__(cs, seed, reference)
        self.zs = z_stream(self.rng)

    def next_input(self):
        return [next(self.zs) for _ in range(self.z_per_call)]

    def argv(self, zs, jobs):
        # repr of a complex round-trips exactly through the CLI's parser
        return ["--jobs", str(jobs), "monodromy",
                "--z-grid", ",".join(repr(z) for z in zs), "--emit", "json"]

    def call(self, zs):
        return run_cli(self.cs, self.argv(zs, self.jobs))

    def check(self, zs, out):
        code, text = out
        if code != 0:
            return np.inf
        rows = json.loads(text)
        if [complex(*r["z"]) for r in rows] != zs:
            return np.inf
        err = 0.0
        for z, r in zip(zs, rows):
            w = np.array([[complex(*r["W"][i][j]) for j in (0, 1)] for i in (0, 1)])
            err = max(err, self.w_error(z, w))
        return err


class Validate(Workload):
    """``canonsys validate-example`` with the default config.

    Its inputs are fixed by the library's default grids, so the seed does
    not change them.
    """

    name = "validate"

    def next_input(self):
        return None

    def call(self, _):
        return run_cli(self.cs, ["--jobs", "1", "validate-example"])

    def check(self, _, out):
        code, text = out
        if code != 0:
            return np.inf
        report = json.loads(text)
        if report.get("pass") is not True:
            return np.inf
        return max(report["max_abs_err"].values())


class Shoot(Workload):
    """``solve_from_gamma`` for a seeded c, then ``gamma_vec`` of the result
    and the sampler on a t grid; both sides, ``c_per_pair`` c per (side, z),
    as acceptance criterion 8 does."""

    name = "shoot"
    rss_ops = 3
    c_per_pair = 3

    def __init__(self, cs, seed, reference=None):
        super().__init__(cs, seed, reference)
        self.inputs = self._inputs()

    def _inputs(self):
        for z in z_stream(self.rng):
            for side in ("minus", "plus"):
                for _ in range(self.c_per_pair):
                    c = self.rng.normal(size=2) + 1j * self.rng.normal(size=2)
                    yield side, z, c

    def next_input(self):
        return next(self.inputs)

    def call(self, inp):
        side, z, c = inp
        f = self.cs.solve_from_gamma(self.ih, side, z, c)
        got = self.cs.gamma_vec(f, self.ih, side).vec
        lo, hi = self.ih.side(side).interval
        return got, f.eval(np.linspace(lo, hi, 9)[1:-1])

    def check(self, inp, out):
        got, samples = out
        if not np.all(np.isfinite(samples)):
            return np.inf
        return float(np.abs(got - inp[2]).max())


WORKLOADS = {w.name: w for w in (GridSerial, GridJobs2, Validate, Shoot)}
