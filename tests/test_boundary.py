import re

import numpy as np
import pytest

import canonsys as cs
from canonsys import boundary, solver
from conftest import indivisible_problem_dict
from oracles import ClosedFormSampler


def closed_row_sampler(i, z, ih, side):
    """Transposed row i of the closed-form W as a sampler on one side."""
    h = ih.side(side)
    reg = h.regular_endpoint(side)
    fn = lambda t: cs.closed_W(t, z, ih.s_plus)[i, :]
    return ClosedFormSampler(fn, z, h, h.interval, reg)


class TestNeville:
    def test_geometric_power_sequence(self):
        hs = 0.1 * 0.5 ** np.arange(12)
        vals = 3.0 + 2.0 * hs - 5.0 * hs ** 2 + hs ** 3
        val, err = cs.neville_limit(hs, vals)
        assert abs(val - 3.0) < 1e-12
        assert err < 1e-6
        assert err >= abs(val - 3.0)  # estimate does not undersell the error

    def test_noise_floor_reported(self):
        rng = np.random.default_rng(0)
        hs = 0.1 * 0.5 ** np.arange(12)
        vals = 1.0 + hs + 1e-8 * rng.normal(size=len(hs))
        val, err = cs.neville_limit(hs, vals)
        assert abs(val - 1.0) < 1e-6
        assert err > 1e-10  # noise is not hidden by the estimate

    @pytest.mark.parametrize("hs, vals", [
        ([0.1, 0.05, 0.025], [1.0, 2.0]),          # lengths differ
        ([0.1, 0.1, 0.05], [1.0, 2.0, 3.0]),       # repeated node
        ([0.1, np.nan, 0.05], [1.0, 2.0, 3.0]),    # non-finite node
        ([[0.1, 0.05]], [1.0]),                    # 2-D nodes, 1-D values
        ([], []),                                  # no sample
        ([0.1, 0.05], np.ones((2, 2, 2))),         # values beyond 2-D
        ([[0.1], [0.05]], np.ones((2, 2))),        # one node column, two
        ([[0.1, 0.2], [0.05, 0.2]], np.ones((2, 2))),  # repeat in a column
    ])
    def test_malformed_grid_rejected(self, hs, vals):
        with pytest.raises(cs.DomainError):
            cs.neville_limit(hs, vals)


def neville_reference(hs, vals):
    """Entry-by-entry Neville tableau: the reference for ``neville_limit``.

    Each column's distances to the parents are taken with ``np.abs`` of
    arrays, the routine the tableau uses, and the start's with the scalar
    ``abs``, as there: the two can round the last bit differently."""
    hs = np.asarray(hs, dtype=np.float64)
    vals = [complex(v) for v in vals]
    n = len(vals)
    best = vals[0]
    best_err = abs(vals[1] - vals[0]) if n > 1 else 0.0
    prev = list(vals)
    first_col = None
    for m in range(1, n):
        cur = [(hs[i] * prev[i + 1] - hs[i + m] * prev[i]) / (hs[i] - hs[i + m])
               for i in range(n - m)]
        col = np.array(cur)
        errs = np.maximum(np.abs(col - np.array(prev[1:])),
                          np.abs(col - np.array(prev[:-1])))
        row_best = np.inf
        for val, err in zip(cur, errs.tolist()):
            row_best = min(row_best, err)
            if err < best_err:
                best_err = err
                best = val
        if m == 1:
            first_col = cur
        if row_best > 8.0 * best_err and m > 2:
            break
        prev = cur
    if first_col is not None and len(first_col) >= 4:
        tail = np.abs(np.diff(np.asarray(first_col[-4:])))
        best_err = max(best_err, 0.5 * float(np.median(tail)))
    return best, float(best_err)


def _fuzz_cases(rng, trials):
    """(hs, vals) of random tableaux: lengths 1-24, widths 1-4, shared or
    per-column nodes, smooth and random sequences, NaN and inf samples."""
    bad = [np.nan, np.inf, -np.inf, complex(1.0, np.inf),
           complex(np.nan, 1.0)]
    for trial in range(trials):
        n, k = int(rng.integers(1, 25)), int(rng.integers(1, 5))
        if trial % 2:
            hs = np.stack([np.sort(rng.uniform(1e-6, 1.0, n))[::-1]
                           for _ in range(k)], axis=1)
        else:
            hs = 0.1 * 0.5 ** np.arange(n)
        vals = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
        if trial % 3 == 0:  # smooth sequences, where the search stops
            h2 = hs if hs.ndim == 2 else hs[:, None]
            vals = vals[0] + vals[-1] * h2 + 1e-9 * vals
        for _ in range(int(rng.integers(0, 3))):
            vals[rng.integers(n), rng.integers(k)] = bad[rng.integers(5)]
        yield hs, vals


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestNevilleMatchesReference:
    """The column-vectorised tableau returns exactly what the loop did."""

    def assert_same(self, hs, vals):
        val, err = cs.neville_limit(hs, vals)
        ref_val, ref_err = neville_reference(hs, vals)
        assert val == ref_val and err == ref_err

    def test_sequences_recorded_from_monodromy(self, example_ih, monkeypatch):
        seen = []
        original = boundary.neville_limit

        def record(hs, vals):
            seen.append((np.array(hs), np.array(vals)))
            return original(hs, vals)

        monkeypatch.setattr(boundary, "neville_limit", record)
        ih = cs.problem_from_dict(cs.example_problem_dict())
        for z in (0.7 + 0.2j, -2.5 + 1.5j):
            cs.monodromy_matrix(ih, z)
        # per z: one call on y2 and S of both rows of both sides (S needs
        # no correction for Delta = 1 on diagonal sides)
        assert len(seen) == 2
        for hs, vals in seen:
            assert hs.shape == vals.shape == (len(hs), 8)
            got_vals, got_errs = original(hs, vals)
            for c in range(vals.shape[1]):
                ref_val, ref_err = neville_reference(hs[:, c], vals[:, c])
                assert got_vals[c] == ref_val and got_errs[c] == ref_err

    def test_fuzz_is_exact(self, rng):
        # 3000 random tableaux: values and error estimates bit for bit
        for trial, (hs, vals) in enumerate(_fuzz_cases(rng, 3000)):
            got_vals, got_errs = cs.neville_limit(hs, vals)
            for c in range(vals.shape[1]):
                h_c = hs[:, c] if hs.ndim == 2 else hs
                with np.errstate(all="ignore"):  # the loop on inf samples
                    val, err = neville_reference(h_c, vals[:, c])
                assert _same(got_vals[c], val) and _same(got_errs[c], err), (
                    trial, c)

    def test_corrected_functional_takes_a_second_tableau(self, delta2_ih,
                                                         monkeypatch):
        # Delta = 2 on a diagonal side: S is corrected by the limit of y2
        # times sum z^(n+j) w_n^T J w_j, so the limits of y2 go first and
        # those of the corrected S follow in a second call; the run from
        # the midpoint reads the side's basis, built before recording
        z = 0.8 + 0.3j
        boundary.side_basis(delta2_ih, "plus", z)
        seen = []
        original = boundary.neville_limit

        def record(hs, vals):
            seen.append(np.array(vals))
            return original(hs, vals)

        monkeypatch.setattr(boundary, "neville_limit", record)
        pairs = cs.gamma_columns(delta2_ih, "plus", z, 1.5, np.eye(2))
        assert len(seen) == 2
        xs = np.array([x for x, _, _ in pairs[0].samples])
        corr = boundary._correction_values(
            delta2_ih, "plus", z, cs.w_family_for(delta2_ih, "plus"), xs)
        assert np.abs(corr).min() > 0.0
        for c, p in enumerate(pairs):
            _, y2, g = (np.array(col) for col in zip(*p.samples))
            assert np.array_equal(seen[0][:, c], y2)
            assert np.array_equal(seen[1][:, c], g)

    def test_geometric_sequences_with_noise(self, rng):
        hs = boundary.node_distances(1.0, 1.0)
        for _ in range(40):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            noise = 10.0 ** rng.uniform(-15, -8)
            vals = (a[0] + a[1] * hs + a[2] * hs ** 2 + a[3] / (1.0 + hs)
                    + noise * rng.normal(size=len(hs)))
            self.assert_same(hs, vals)

    def test_random_sequences(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 25))
            hs = np.sort(rng.uniform(1e-6, 1.0, n))[::-1]
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            self.assert_same(hs, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.inf)])
    def test_columns_equal_one_dimensional_calls(self, rng, bad):
        # k sequences in one call give what k calls give, bit for bit; a
        # non-finite sample in one column leaves the others unchanged
        hs = boundary.node_distances(1.0, 1.0)
        n, k = len(hs), 4
        vals = (rng.normal(size=(n, k)) * hs[:, None]
                + 1j * rng.normal(size=(n, k)) * hs[:, None] ** 2
                + rng.normal(size=k))
        vals[7, 2] = bad
        got_vals, got_errs = cs.neville_limit(hs, vals)
        assert got_vals.shape == got_errs.shape == (k,)
        for c in range(k):
            val, err = cs.neville_limit(hs, vals[:, c])
            assert np.array_equal(got_vals[c], val, equal_nan=True)
            assert np.array_equal(got_errs[c], err, equal_nan=True)
            if c != 2:
                assert (val, err) == neville_reference(hs, vals[:, c])


class TestNevilleLean:
    """The tableau's lean internals (one outer difference for the
    denominators, reused product buffers, the median of three without
    np.median) and its per-column nodes, against the reference loop."""

    def test_per_column_nodes_equal_one_dimensional_calls(self, rng):
        # sides of different length: one node sequence per column
        hs = np.stack([boundary.node_distances(length, length)
                       for length in (1.0, 0.5, 2.0, 1.0)], axis=1)
        n, k = hs.shape
        vals = (rng.normal(size=(n, k)) * hs + 1j * rng.normal(size=(n, k))
                * hs ** 2 + rng.normal(size=k))
        got_vals, got_errs = cs.neville_limit(hs, vals)
        for c in range(k):
            val, err = cs.neville_limit(hs[:, c], vals[:, c])
            assert got_vals[c] == val and got_errs[c] == err
            assert (val, err) == neville_reference(hs[:, c], vals[:, c])
        # shared nodes given once or per column: the same
        shared = np.repeat(hs[:, :1], k, axis=1)
        a, b = cs.neville_limit(hs[:, 0], vals), cs.neville_limit(shared, vals)
        assert _same(a[0], b[0]) and _same(a[1], b[1])

    def test_fuzz_against_reference(self, rng):
        # every column equals its call alone and the reference loop
        for trial, (hs, vals) in enumerate(_fuzz_cases(rng, 300)):
            got_vals, got_errs = cs.neville_limit(hs, vals)
            for c in range(vals.shape[1]):
                h_c = hs[:, c] if hs.ndim == 2 else hs
                with np.errstate(all="ignore"):  # the loop on inf samples
                    val, err = neville_reference(h_c, vals[:, c])
                assert _same(got_vals[c], val), (trial, c)
                assert _same(got_errs[c], err), (trial, c)
                one_val, one_err = cs.neville_limit(h_c, vals[:, c])
                assert _same(got_vals[c], one_val)
                assert _same(got_errs[c], one_err)


class TestGammaR:
    def test_closed_row2_limit(self, example_ih):
        # lim of the second component of (w21, w22)^T is sin(z)/z
        for z in (np.pi, 1.0 + 1.0j, 2.0 - 0.5j):
            f = closed_row_sampler(1, z, example_ih, "minus")
            rb = cs.gamma_vec(f, example_ih, "minus")
            val, err = rb.gamma_r, rb.err_est
            want = np.sin(z) / z
            assert abs(val - want) < 1e-9
            assert err < 1e-6

    def test_indivisible_side_constant(self, surgery_ih):
        z = 1.5 + 0.5j
        c = np.array([0.3, 0.8 - 0.1j])
        f = cs.solve_from_gamma(surgery_ih, "plus", z, c)
        rb = cs.gamma_vec(f, surgery_ih, "plus")
        val, err = rb.gamma_r, rb.err_est
        assert val == pytest.approx(c[1], abs=1e-12)
        assert err == 0.0

    def test_zero_solution(self, example_ih):
        z = 1.0
        f = cs.solve_from_gamma(example_ih, "minus", z, (0.0, 0.0))
        rb = cs.gamma_vec(f, example_ih, "minus")
        np.testing.assert_allclose(rb.vec, [0.0, 0.0], atol=1e-12)


class TestGammaS:
    def test_closed_row1_at_pi(self, example_ih):
        # first row of W transposed at z=pi gives the (1,1) entry of the
        # closed-form boundary matrix, which equals -2
        f = closed_row_sampler(0, np.pi, example_ih, "minus")
        val = cs.gamma_vec(f, example_ih, "minus").gamma_s
        assert abs(val - (-2.0)) < 1e-9

    def test_zero_solution(self, example_ih):
        f = cs.solve_from_gamma(example_ih, "minus", 2.0, (0.0, 0.0))
        val = cs.gamma_vec(f, example_ih, "minus").gamma_s
        assert abs(val) < 1e-12

    def test_bad_w_family_fails_to_converge(self, example_ih, hm, hp):
        # a wrong omega_1 shifts w_1 by (0, 0.5), injecting a term that
        # blows up like the first solution component: the limit must fail
        ih = cs.indef_hamiltonian(hm, hp, delta=1, d=example_ih.d,
                                  omega_minus=[1.0, 0.5, 0.0])
        f = closed_row_sampler(0, 1.0, ih, "minus")
        with pytest.raises(cs.LimitError) as exc:
            cs.gamma_vec(f, ih, "minus")
        assert exc.value.samples is not None


class TestGammaVec:
    def test_rows_give_boundary_matrix(self, example_ih):
        got = np.array([cs.gamma_vec(closed_row_sampler(i, np.pi, example_ih,
                                                        "minus"),
                                     example_ih, "minus").vec
                        for i in (0, 1)])
        np.testing.assert_allclose(got, [[-2.0, 1.0 / np.pi],
                                         [-np.pi, 0.0]], atol=1e-9)

    def test_indivisible_endpoint_evaluation(self, surgery_ih):
        z = 0.7 + 0.2j
        c = np.array([1.0 - 0.5j, 0.25])
        f = cs.solve_from_gamma(surgery_ih, "plus", z, c)
        rb = cs.gamma_vec(f, surgery_ih, "plus")
        np.testing.assert_allclose(rb.vec, c, atol=1e-12)
        np.testing.assert_allclose(f.eval(2.0), c, atol=1e-12)

    def test_linearity(self, example_ih):
        z = 1.3 + 0.4j
        f = cs.solve_from_gamma(example_ih, "minus", z, (1.0, 0.0))
        g = cs.solve_from_gamma(example_ih, "minus", z, (0.0, 1.0))
        a, b = 0.7 - 0.2j, 1.5 + 1.0j
        comb = cs.CombinedSampler([a, b], [f, g])
        got = cs.gamma_vec(comb, example_ih, "minus").vec
        want = (a * cs.gamma_vec(f, example_ih, "minus").vec
                + b * cs.gamma_vec(g, example_ih, "minus").vec)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_gamma_r_matches_both_sides_of_assembly(self, example_ih):
        z = 1.0 + 2.0j
        fac = cs.factorisation(example_ih, z)
        wm = cs.fundamental(example_ih.h_minus, z, side="minus",
                            rtol=1e-12, atol=1e-12)
        for i in (0, 1):
            fp = cs.CombinedSampler(fac.prefactor[i, :],
                                    [fac.v.row_sampler(0), fac.v.row_sampler(1)])
            rm = cs.gamma_vec(wm.row_sampler(i), example_ih, "minus")
            rp = cs.gamma_vec(fp, example_ih, "plus")
            assert abs(rm.gamma_r - rp.gamma_r) < 1e-9


class TestSolveFromGamma:
    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_value_at_the_regular_endpoint_is_c(self, example_ih, side, rng):
        # the basis is the identity there exactly, so the shot is c there
        reg = example_ih.side(side).regular_endpoint(side)
        for z in (0.7 - 1.9j, -3.2 + 0.4j, 2.5 + 2.5j):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            f = cs.solve_from_gamma(example_ih, side, z, c)
            np.testing.assert_array_equal(f.eval(reg), f.coeffs)

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_round_trip_gamma_of_solve(self, example_ih, side, rng):
        for z in (1.0, 1.0j, 2.0 + 3.0j):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            f = cs.solve_from_gamma(example_ih, side, z, c)
            got = cs.gamma_vec(f, example_ih, side).vec
            assert np.abs(got - c).max() < 1e-7

    def test_round_trip_solve_of_gamma(self, example_ih):
        # recover a known solution from its boundary pair, pointwise
        z = 1.5 - 0.7j
        f = closed_row_sampler(0, z, example_ih, "minus")
        rb = cs.gamma_vec(f, example_ih, "minus")
        g = cs.solve_from_gamma(example_ih, "minus", z, rb.vec)
        ts = np.linspace(0.05, 0.95, 7)
        assert np.abs(g.eval(ts) - f.eval(ts)).max() < 1e-7

    def test_delta_two_round_trip(self, delta2_ih, rng):
        for side in ("minus", "plus"):
            for z in (0.8, 1.2j):
                c = rng.normal(size=2) + 1j * rng.normal(size=2)
                f = cs.solve_from_gamma(delta2_ih, side, z, c)
                got = cs.gamma_vec(f, delta2_ih, side).vec
                assert np.abs(got - c).max() < 1e-6

    def test_zero_gives_zero(self, example_ih):
        f = cs.solve_from_gamma(example_ih, "plus", 1.7, (0.0, 0.0))
        assert np.abs(f.eval(1.5)).max() < 1e-12


class TestCombinedSampler:
    """A shot combines the rows of one cached basis; one dense evaluation
    serves both, and every value is the sum of the terms in order."""

    def count_dense_evals(self, monkeypatch):
        calls = []
        original = solver.Solution.eval_state

        def counted(sol, ts):
            calls.append(ts)
            return original(sol, ts)

        monkeypatch.setattr(solver.Solution, "eval_state", counted)
        return calls

    def test_one_dense_evaluation_per_call(self, example_ih, monkeypatch):
        f = cs.solve_from_gamma(example_ih, "minus", 1.0 + 0.5j, (0.3, 1.0j))
        calls = self.count_dense_evals(monkeypatch)
        f.eval(np.linspace(0.1, 0.9, 7))
        assert len(calls) == 1
        f.eval(0.5)
        assert len(calls) == 2

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_values_equal_the_sum_of_rows(self, example_ih, side, rng):
        z = 1.3 - 0.8j
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = cs.solve_from_gamma(example_ih, side, z, c)
        basis = boundary.side_basis(example_ih, side, z)
        rows = [basis.solution.row_sampler(i) for i in (0, 1)]
        lo, hi = f.interval
        for ts in (0.5 * (lo + hi), np.linspace(lo, hi, 9)):
            want = f.coeffs[0] * rows[0].eval(ts) + f.coeffs[1] * rows[1].eval(ts)
            assert np.array_equal(f.eval(ts), want)

    def test_closed_form_and_rows_mixed(self, example_ih, monkeypatch):
        z = 0.9 + 0.4j
        basis = boundary.side_basis(example_ih, "minus", z)
        row0, row1 = (basis.solution.row_sampler(i) for i in (0, 1))
        closed = closed_row_sampler(1, z, example_ih, "minus")
        coeffs = [0.5 - 1.0j, 2.0, -0.25j]
        comb = cs.CombinedSampler(coeffs, [row0, closed, row1])
        ts = np.linspace(0.1, 0.9, 5)
        want = coeffs[0] * row0.eval(ts) + coeffs[1] * closed.eval(ts)
        want = want + coeffs[2] * row1.eval(ts)
        calls = self.count_dense_evals(monkeypatch)
        assert np.array_equal(comb.eval(ts), want)
        assert len(calls) == 1
        # the closed form is the second row, so the combination is close to
        # (0.5 - 1j) row0 + (2 - 0.25j) row1
        close = (coeffs[0] * row0.eval(ts)
                 + (coeffs[1] + coeffs[2]) * row1.eval(ts))
        assert np.abs(comb.eval(ts) - close).max() < 1e-8

    def test_nested_combination(self, example_ih):
        z = 1.3 + 0.4j
        f = cs.solve_from_gamma(example_ih, "minus", z, (1.0, 0.0))
        g = cs.solve_from_gamma(example_ih, "minus", z, (0.0, 1.0))
        a, b = 0.7 - 0.2j, 1.5 + 1.0j
        comb = cs.CombinedSampler([a, b], [f, g])
        ts = np.linspace(0.2, 0.8, 4)
        assert np.array_equal(comb.eval(ts), a * f.eval(ts) + b * g.eval(ts))
        direct = cs.solve_from_gamma(example_ih, "minus", z, (a, b))
        assert np.abs(comb.eval(ts) - direct.eval(ts)).max() < 1e-10

    def test_malformed_combinations_rejected(self, example_ih):
        z = 1.0 + 1.0j
        rows = [boundary.side_basis(example_ih, "minus", z).solution
                .row_sampler(i) for i in (0, 1)]
        other_z = boundary.side_basis(example_ih, "minus", 2.0).solution
        other_h = boundary.side_basis(example_ih, "plus", z).solution
        for coeffs, samplers in (
                ([], []),                                   # no sampler
                ([1.0], rows),                              # too few coeffs
                ([1.0, 2.0, 3.0], rows),                    # too many
                ([1.0, np.nan], rows),                      # non-finite
                ([1.0, np.inf * 1j], rows),
                ([1.0, 1.0], [rows[0], other_z.row_sampler(1)]),
                ([1.0, 1.0], [rows[0], other_h.row_sampler(1)])):
            with pytest.raises(cs.DomainError):
                cs.CombinedSampler(coeffs, samplers)


class TestInterface:
    def test_assembled_rows_satisfy_interface(self, example_ih):
        z = 2.0 + 1.0j
        fac = cs.factorisation(example_ih, z)
        wm = cs.fundamental(example_ih.h_minus, z, side="minus",
                            rtol=1e-12, atol=1e-12)
        for i in (0, 1):
            fp = cs.CombinedSampler(fac.prefactor[i, :],
                                    [fac.v.row_sampler(0), fac.v.row_sampler(1)])
            res = cs.interface_residual(example_ih, wm.row_sampler(i), fp, z)
            assert np.abs(res).max() < 1e-6

    @pytest.mark.parametrize("z", [1.0, -1.0, 1.0j, -1.0j, np.pi, 2.0 + 3.0j,
                                   5.0j])
    def test_midpoint_anchored_rows_satisfy_interface(self, example_ih, z):
        # pairs integrated afresh from each side's midpoint, on panels the
        # cached bases do not share, so the extrapolation is tested too
        gam = {}
        for side in ("minus", "plus"):
            mid = 0.5 * sum(example_ih.side(side).interval)
            w_mid = cs.assemble_W(example_ih, z, mid)
            pairs = cs.gamma_columns(example_ih, side, z, mid, w_mid.T)
            gam[side] = np.array([p.vec for p in pairs])
        res = gam["plus"] - gam["minus"] @ cs.build_R(example_ih, z).T
        assert np.abs(res).max() <= 1e-6

    def test_zero_pair(self, example_ih):
        z = 1.0
        fm = cs.solve_from_gamma(example_ih, "minus", z, (0.0, 0.0))
        fp = cs.solve_from_gamma(example_ih, "plus", z, (0.0, 0.0))
        res = cs.interface_residual(example_ih, fm, fp, z)
        np.testing.assert_allclose(res, [0.0, 0.0], atol=1e-12)

    def test_perturbed_d0_residual_is_rank_one(self, example_ih):
        # evaluating the residual with a problem whose d0 differs by delta
        # gives exactly ((p1 - p2)(z) Gamma_r, 0)
        z = 1.4 + 0.6j
        delta_d = 1.0
        ih2 = cs.example_problem(cs.ExampleConfig(d0=-2.0 + delta_d))
        fm = cs.solve_from_gamma(example_ih, "minus", z, (1.0, 0.7))
        fp = cs.solve_from_gamma(example_ih, "plus", z,
                                 cs.build_R(example_ih, z) @ np.array([1.0, 0.7]))
        res = cs.interface_residual(ih2, fm, fp, z)
        dp = cs.eval_p(example_ih, z) - cs.eval_p(ih2, z)
        np.testing.assert_allclose(res, [dp * 0.7, 0.0], atol=1e-8)


class TestLinearPairs:
    """Every boundary pair is read off the cached side basis by linearity."""

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_pair_matches_midpoint_anchored_run(self, example_ih, side, rng):
        # the run from the midpoint uses panels the basis does not share
        mid = 0.5 * sum(example_ih.side(side).interval)
        for z in (0.0, 1.0, -2.5 + 0.3j, 0.7 + 4.0j, 3.0j):
            basis = boundary.side_basis(example_ih, side, z)
            coeffs = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            y_mid = basis.solution.eval(mid).T @ coeffs
            runs = cs.gamma_columns(example_ih, side, z, mid, y_mid)
            for c, run in zip(coeffs.T, runs):
                got = basis.pair(c)
                scale = max(1.0, np.abs(run.vec).max())
                assert np.abs(got.vec - run.vec).max() <= 1e-9 * scale, z
                assert [x for x, _, _ in got.samples] == [
                    x for x, _, _ in run.samples]
                assert got.err_est < 1e-6 * scale

    def test_sampler_away_from_the_regular_endpoint(self, example_ih):
        # a sampler that does not reach t = 0 is anchored at its own anchor,
        # where c = adj(Phi(t_a))^T y(t_a)
        z = 1.5 - 0.7j
        h = example_ih.h_minus
        for i in (0, 1):
            fn = lambda t, i=i: cs.closed_W(t, z)[i, :]
            f = ClosedFormSampler(fn, z, h, (0.3, 0.9), 0.6)
            got = cs.gamma_vec(f, example_ih, "minus").vec
            np.testing.assert_allclose(got, cs.closed_Uminus(z)[i, :],
                                       atol=1e-9)

    def test_err_est_combines_the_rows(self, example_ih):
        basis = boundary.side_basis(example_ih, "plus", 0.4 + 0.2j)
        p0, p1 = basis.pairs
        c = np.array([2.0 - 1.0j, -0.5j])
        assert basis.pair(c).err_est == pytest.approx(
            abs(c[0]) * p0.err_est + abs(c[1]) * p1.err_est, rel=1e-15)
        np.testing.assert_allclose(basis.pair([1.0, 0.0]).vec, p0.vec,
                                   rtol=1e-15)


class TestCheckDet:
    def test_accepts_the_known_determinant(self):
        m = np.array([[2.0e8, 1.0], [4.0e8 - 1.0, 2.0]], dtype=complex)
        assert boundary.check_det(m, 1.0, "m") is m

    @pytest.mark.parametrize("m, d", [
        ([[1.0, 0.0], [0.0, 1.0]], 2.0),
        ([[1.0, np.nan], [0.0, 1.0]], 1.0),
        ([[np.inf, 0.0], [0.0, 1.0]], 1.0),
        ([[0.0, 0.0], [0.0, 0.0]], 1.0),
    ])
    def test_rejects_a_wrong_or_non_finite_factor(self, m, d):
        with pytest.raises(cs.ConditioningError):
            boundary.check_det(np.array(m, dtype=complex), d, "m")

    @pytest.mark.parametrize("m, why", [
        ([[1.0, np.nan], [0.0, 1.0]], "entries not finite (overflowed)"),
        ([[np.inf, 0.0], [0.0, 1.0]], "entries not finite (overflowed)"),
        ([[1e200, 0.0], [0.0, 1e200]], "entries overflowed: the products"),
        ([[1e200, 1e200], [1e200, 2e200]], "entries overflowed: the products"),
    ])
    def test_overflow_is_named(self, m, why):
        with pytest.raises(cs.ConditioningError) as exc:
            boundary.check_det(np.array(m, dtype=complex), 1.0, "m")
        assert str(exc.value).startswith(f"m: {why}")


PHIS = (0.0, np.pi / 4, np.pi / 3, np.pi / 2)


class TestIndivisibleAngles:
    """A side c |t - 1|^-2 xi_phi xi_phi^T: its boundary pair is the value at
    the regular endpoint for every angle phi, read off the integrated basis."""

    Z = 0.8 + 0.6j
    C = np.array([0.4 - 0.3j, 1.1 + 0.2j])

    @pytest.mark.parametrize("side", ["minus", "plus"])
    @pytest.mark.parametrize("phi", PHIS)
    def test_pairs_are_regular_end_values(self, side, phi):
        ih = cs.problem_from_dict(indivisible_problem_dict(phi, side))
        assert ih.indivisible(side).is_indivisible
        h = ih.side(side)
        reg, sing = h.regular_endpoint(side), h.singular_endpoint(side)
        f = cs.solve_from_gamma(ih, side, self.Z, self.C)
        np.testing.assert_allclose(f.eval(reg), self.C, atol=1e-14)
        # y(t) = (I + z A(t) J xi xi^T) c with A(t) = int_reg^t h
        g = cs.solve_row(h, self.Z, reg, f.eval(reg), side=side,
                         rtol=1e-12, atol=1e-12)
        ts = sing + (reg - sing) * np.array([1.0, 0.7, 0.3, 0.1, 0.01])
        xi = np.array([np.cos(phi), np.sin(phi)])
        jxx = np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.outer(xi, xi)
        area = 1.5 * np.sign(ts - reg) * (1.0 / np.abs(ts - sing) - 1.0)
        closed = self.C + self.Z * area[:, None] * (jxx @ self.C)
        for want in (g.eval(ts), closed):
            rel = (np.linalg.norm(f.eval(ts) - want, axis=1)
                   / np.linalg.norm(want, axis=1))
            assert rel.max() <= 1e-10
        mid = 0.5 * (reg + sing)
        run = cs.gamma_columns(ih, side, self.Z, mid,
                               f.eval(mid).reshape(2, 1))[0]
        np.testing.assert_allclose(run.vec, self.C, atol=1e-12)
        assert run.err_est == 0.0 and run.samples == ()
        np.testing.assert_allclose(cs.gamma_vec(f, ih, side).vec, self.C,
                                   atol=1e-12)
        u = (cs.u_minus(ih, self.Z) if side == "minus"
             else cs.u_plus(ih, self.Z))
        np.testing.assert_array_equal(u, np.eye(2))

    @pytest.mark.parametrize("side", ["minus", "plus"])
    @pytest.mark.parametrize("z", [2.0 + 1.0j, 20.0 + 20.0j])
    def test_midpoint_pairs_match_the_closed_form(self, side, z):
        # from an interior anchor the run integrates only back to the
        # regular endpoint: Y(reg) = I + z (A(reg) - A(t_a)) J xi xi^T, with
        # A(t) = -1.5 / (t - 1) an antiderivative of h; a chain toward sigma
        # would run out of splits at 20+20j
        phi = 0.7
        ih = cs.problem_from_dict(indivisible_problem_dict(phi, side))
        h = ih.side(side)
        reg, mid = h.regular_endpoint(side), 0.5 * sum(h.interval)
        pairs = cs.gamma_columns(ih, side, z, mid, np.eye(2))
        got = np.array([p.vec for p in pairs]).T  # column c: e_c's pair
        xi = np.array([np.cos(phi), np.sin(phi)])
        jxx = np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.outer(xi, xi)
        area = -1.5 / (reg - 1.0) + 1.5 / (mid - 1.0)
        want = np.eye(2) + z * area * jxx
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_weyl_coefficient_at_the_vertical_angle(self):
        ih = cs.problem_from_dict(indivisible_problem_dict(np.pi / 2, "minus"))
        assert abs(cs.weyl_intermediate(ih, 0.5 + 1.0j)) <= 1e-12

    def test_weyl_coefficient_diverges_at_angle_zero(self):
        # w12/w22 grows like z int h1: the limit is cot(0) = infinity
        ih = cs.problem_from_dict(indivisible_problem_dict(0.0, "minus"))
        with pytest.raises(cs.LimitError):
            cs.weyl_intermediate(ih, 0.5 + 1.0j)


def test_side_basis_evaluates_h_only_inside_the_integrator(monkeypatch):
    # the functional reads H at the chain's nodes from the chain itself:
    # only the integrator and the side plan it starts from evaluate H
    ih = cs.example_problem()
    cs.w_family_for(ih, "minus")
    depth, outside, inside = [0], [0], [0]
    matrix = cs.Hamiltonian.matrix

    def counted(fn):
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    def counted_matrix(self, ts):
        (inside if depth[0] else outside)[0] += 1
        return matrix(self, ts)

    for module, name in ((solver, "integrate_dense"),
                         (boundary, "_side_plan")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    monkeypatch.setattr(cs.Hamiltonian, "matrix", counted_matrix)
    boundary.side_basis(ih, "minus", 1.3 - 0.4j)
    assert inside[0] > 0
    assert outside[0] == 0


@pytest.mark.parametrize("side, t_anchor", [
    ("minus", 1.5), ("minus", -0.25), ("plus", 0.5), ("plus", 2.5),
    ("minus", float("nan")), ("plus", float("inf"))])
def test_anchor_off_the_side_rejected_before_integrating(side, t_anchor,
                                                         monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated from an anchor off the side")

    monkeypatch.setattr(solver, "integrate_dense", integrate)
    ih = cs.example_problem()
    lo, hi = ih.side(side).interval
    with pytest.raises(cs.DomainError,
                       match=re.escape(f"t={t_anchor}") + ".*"
                       + re.escape(f"[{lo}, {hi}]")):
        cs.gamma_columns(ih, side, 1j, t_anchor, [1.0, 0.0])


def test_gamma_vec_of_a_solution_on_the_other_side_rejected(example_ih):
    # the plus sampler's anchor, s_plus = 2, lies outside the minus side
    f = cs.solve_from_gamma(example_ih, "plus", 1j, [1.0, 0.5])
    with pytest.raises(cs.DomainError, match=re.escape("t=2.0")):
        cs.gamma_vec(f, example_ih, "minus")


def test_gamma_vec_past_the_basis_rejected_before_integrating(example_ih,
                                                              monkeypatch):
    # between the last extrapolation node and sigma the cached basis has no
    # value, and no run of the sampler's own is integrated instead
    z = 0.4 + 0.8j
    lo, hi = boundary.side_basis(example_ih, "minus", z).solution.interval
    t_a = 1.0 - 5e-8
    f = ClosedFormSampler(lambda t: cs.closed_W(t, z)[0, :], z,
                          example_ih.h_minus, (0.5, t_a), t_a)

    def integrate(*args, **kwargs):
        raise AssertionError("integrated from an anchor past the basis")

    monkeypatch.setattr(solver, "integrate_dense", integrate)
    with pytest.raises(cs.DomainError, match=re.escape(f"t={t_a}") + ".*"
                       + re.escape(f"[{lo}, {hi}]")):
        cs.gamma_vec(f, example_ih, "minus")
