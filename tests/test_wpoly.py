import numpy as np
import pytest
from scipy.integrate import quad

import canonsys as cs


def vec_const(a, b):
    dtype = complex if isinstance(a, complex) or isinstance(b, complex) else float
    def fn(ts):
        shape = np.shape(np.asarray(ts))
        return np.stack([np.full(shape, a, dtype=dtype),
                         np.full(shape, b, dtype=dtype)], axis=-1)
    return fn


class TestVolterra:
    def test_example_value(self, hm):
        # analytic antiderivative oracle: -int_0^t (s-1)^-2 ds = 1/(t-1) + 1
        got = cs.volterra_transform(hm, vec_const(0.0, 1.0), "minus")(0.5)
        oracle = np.array([1.0 / (0.5 - 1.0) + 1.0, 0.0])
        np.testing.assert_allclose(got, oracle, atol=1e-13)
        np.testing.assert_allclose(got, [-1.0, 0.0], atol=1e-13)

    def test_linearity_zero(self, hm):
        got = cs.volterra_transform(hm, vec_const(0.0, 0.0), "minus")(0.7)
        np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-15)

    def test_constant_identity(self):
        h = cs.identity_hamiltonian((0.5, 2.0))
        got = cs.volterra_transform(h, vec_const(1.0, 0.0), "minus")(1.3)
        np.testing.assert_allclose(got, [0.0, 1.3 - 0.5], atol=1e-13)

    def test_complex_input(self, hm):
        got = cs.volterra_transform(hm, vec_const(0.0, 1.0 + 2.0j), "minus")(0.5)
        np.testing.assert_allclose(got, [(1 + 2j) * -1.0, 0.0], atol=1e-12)


class TestDiagonalRecursion:
    def test_w0(self, hm):
        w0 = cs.w_n_diagonal(hm, "minus", 0)
        ts = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(w0(ts), np.stack(
            [np.zeros_like(ts), np.ones_like(ts)], axis=-1))
        assert w0.omega == 1.0

    def test_w1_value_and_closed_form(self, hm, hp):
        w1 = cs.w_n_diagonal(hm, "minus", 1)
        np.testing.assert_allclose(w1(0.5), [-1.0, 0.0], atol=1e-13)
        ts = np.linspace(0.02, 0.98, 25)
        np.testing.assert_allclose(w1(ts)[..., 0], cs.closed_w1(ts, 0.0),
                                   atol=1e-8)
        w1p = cs.w_n_diagonal(hp, "plus", 1)
        tsp = np.linspace(1.02, 1.98, 25)
        np.testing.assert_allclose(w1p(tsp)[..., 0], cs.closed_w1(tsp, 2.0),
                                   atol=1e-8)

    def test_w2_against_quadrature_oracle(self, hm):
        # oracle: w2(t) = -int_t^1 h1 w1 by adaptive quadrature of the
        # closed-form w1
        w2 = cs.w_n_diagonal(hm, "minus", 2)
        for t in (0.2, 0.5, 0.8):
            oracle = -quad(lambda s: (s - 1) ** 2 * (1 / (s - 1) + 1), t, 1.0,
                           limit=100)[0]
            assert abs(w2(t)[1] - oracle) < 1e-10

    def test_nondiagonal_rejected(self, rng):
        from conftest import random_piecewise_psd
        h = random_piecewise_psd(rng)
        with pytest.raises(cs.UnsupportedSpecError, match="w_n_general"):
            cs.w_n_diagonal(h, "minus", 1)


class TestGeneralConstruction:
    def test_matches_diagonal(self, hm):
        omegas = cs.omega_sequence(cs.example_problem(), "minus", 3)
        ts = np.linspace(0.05, 0.95, 11)
        for n in range(4):
            wg = cs.w_n_general(hm, "minus", n, omegas)
            wd = cs.w_n_diagonal(hm, "minus", n)
            assert np.abs(wg(ts) - wd(ts)).max() < 1e-8

    def test_n0(self, hm):
        w0 = cs.w_n_general(hm, "minus", 0, [1.0])
        np.testing.assert_allclose(w0(0.4), [0.0, 1.0])

    def test_zero_omegas_single_application(self, hm):
        w1 = cs.w_n_general(hm, "minus", 1, [1.0, 0.0])
        got = cs.volterra_transform(hm, vec_const(0.0, 1.0), "minus")(0.6)
        np.testing.assert_allclose(w1(0.6), got, atol=1e-13)

    def test_missing_omegas(self, hm):
        with pytest.raises(cs.ConfigError):
            cs.w_n_general(hm, "minus", 2, [1.0])


class TestInvariants:
    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_derivative_identity(self, example_ih, side):
        h = example_ih.side(side)
        fam = cs.build_w_family(h, side, 2)
        lo, hi = h.interval
        ts = np.linspace(lo, hi, 102)[1:-1]
        eps = 1e-6
        worst = 0.0
        for n in (1, 2):
            d = (fam[n](ts + eps) - fam[n](ts - eps)) / (2 * eps)
            jh = np.einsum("ij,tjk->tik", cs.symplectic_j(), h.matrix(ts))
            ref = np.einsum("tij,tj->ti", jh, fam[n - 1](ts))
            scale = np.maximum(1.0, np.abs(ref).max(axis=-1))
            worst = max(worst, (np.abs(d - ref).max(axis=-1) / scale).max())
        assert worst < 1e-6

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_endpoint_values(self, example_ih, side):
        h = example_ih.side(side)
        reg = h.regular_endpoint(side)
        fam = cs.build_w_family(h, side, 3)
        for n, w in enumerate(fam):
            np.testing.assert_allclose(w(reg), [0.0, w.omega], atol=1e-10)

    def test_symplectic_cancellation(self, delta2_ih):
        # sum over 1<=j,n<=delta, delta+1<=j+n<=2 delta of z^(j+n) w_n^T J w_j
        ih = delta2_ih
        delta = ih.delta
        fam = cs.w_family_for(ih, "minus", 2 * delta - 1)
        xs = np.linspace(0.1, 0.95, 9)
        z = 1.7 - 0.6j
        acc = np.zeros(len(xs), dtype=complex)
        for n in range(1, delta + 1):
            for j in range(max(1, delta + 1 - n), 2 * delta - n + 1):
                if j >= len(fam):
                    continue
                acc += z ** (j + n) * fam[n].j_pair(fam[j], xs)
        assert np.abs(acc).max() < 1e-10


class TestDeltaDiagnostic:
    def test_example_delta_one(self, hm):
        rep = cs.delta_diagnostic(hm, "minus", 1)
        assert rep.w_delta_in_L2 and not rep.w_deltaminus1_in_L2
        assert rep.consistent

    def test_identity_trivial(self):
        h = cs.identity_hamiltonian((0.0, 1.0))
        rep = cs.delta_diagnostic(h, "minus", 1)
        assert rep.w_delta_in_L2 and rep.w_deltaminus1_in_L2
        assert not rep.consistent  # no singularity, delta=1 is inconsistent

    def test_overclaimed_delta_flagged(self, hm):
        rep = cs.delta_diagnostic(hm, "minus", 2)
        assert rep.w_deltaminus1_in_L2  # w_1 already in L2
        assert not rep.consistent

    def test_delta_two_case(self, delta2_ih):
        rep = cs.delta_diagnostic(delta2_ih.h_minus, "minus", 2)
        assert rep.consistent


class TestFamilyStore:
    def test_one_family_per_side_continued_to_the_same_bits(self):
        ih = cs.example_problem()
        for n in range(1, 41):
            for side in ("minus", "plus"):
                assert len(cs.w_family_for(ih, side, n)) == n + 1
        kept = [key for key in ih.cache._fixed if key[0] == "wfam"]
        assert sorted(kept) == [("wfam", "minus"), ("wfam", "plus")]
        for side in ("minus", "plus"):
            h = ih.side(side)
            ts = np.linspace(*h.interval, 41)[1:-1]
            fam = cs.w_family_for(ih, side, 40)
            fresh = cs.build_w_family(h, side, 40)
            for w, want in zip(fam, fresh):
                assert (w.index, w.omega) == (want.index, want.omega)
                assert np.array_equal(w(ts), want(ts))
            # a smaller n reads the first functions of the same family
            assert all(a is b for a, b in zip(cs.w_family_for(ih, side, 3),
                                              fam[:4]))

    def test_user_omegas_continued_to_the_same_bits(self, example_ih):
        om = cs.omega_sequence(example_ih, "minus", 3)
        h = example_ih.h_minus
        ih = cs.indef_hamiltonian(h, example_ih.h_plus, delta=1,
                                  d=(-2.0, 0.0), omega_minus=om)
        first = cs.w_family_for(ih, "minus", 1)
        fam = cs.w_family_for(ih, "minus", 3)
        assert fam[:2] == first
        ts = np.linspace(0.05, 0.95, 19)
        for w, want in zip(fam, cs.build_w_family(h, "minus", 3, omegas=om)):
            assert np.array_equal(w(ts), want(ts))
