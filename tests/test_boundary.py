import numpy as np
import pytest

import canonsys as cs
from canonsys import boundary


def closed_row_sampler(i, z, ih, side):
    """Transposed row i of the closed-form W as a sampler on one side."""
    h = ih.side(side)
    reg = h.regular_endpoint(side)
    fn = lambda t: cs.closed_W(t, z, ih.s_plus)[i, :]
    return cs.ClosedFormSampler(fn, z, h, h.interval, reg)


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


def neville_reference(hs, vals):
    """Entry-by-entry Neville tableau: the reference for ``neville_limit``."""
    hs = np.asarray(hs, dtype=np.float64)
    vals = [complex(v) for v in vals]
    n = len(vals)
    best = vals[0]
    best_err = abs(vals[1] - vals[0]) if n > 1 else 0.0
    prev = list(vals)
    first_col = None
    for m in range(1, n):
        cur = []
        row_best = np.inf
        for i in range(n - m):
            denom = hs[i] - hs[i + m]
            val = (hs[i] * prev[i + 1] - hs[i + m] * prev[i]) / denom
            err = max(abs(val - prev[i + 1]), abs(val - prev[i]))
            cur.append(val)
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
        assert len(seen) == 16
        for hs, vals in seen:
            self.assert_same(hs, vals)

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

    def test_bad_w_family_fails_to_converge(self, example_ih, hm):
        # a wrong omega_1 shifts w_1 by (0, delta), injecting a term that
        # blows up like the first solution component: the limit must fail
        w0 = cs.w_n_general(hm, "minus", 0, [1.0])
        w1_bad = cs.w_n_general(hm, "minus", 1, [1.0, 0.5])
        f = closed_row_sampler(0, 1.0, example_ih, "minus")
        with pytest.raises(cs.LimitError) as exc:
            cs.gamma_vec(f, example_ih, "minus", w_funcs=[w0, w1_bad])
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
