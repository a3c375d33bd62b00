import copy
import re

import numpy as np
import pytest

import canonsys as cs
from canonsys import boundary as bd
from canonsys import solver as sv
from conftest import random_problem_dict

Z_SET = (1.0, -1.0, 1.0j, -1.0j, np.pi, 2.0 + 3.0j)


class TestUMinus:
    def test_against_closed_form(self, example_ih):
        for z in Z_SET:
            got = cs.u_minus(example_ih, z)
            assert np.abs(got - cs.closed_Uminus(z)).max() < 1e-9

    def test_det_one(self, example_ih, rng):
        for _ in range(8):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            got = cs.u_minus(example_ih, z)
            assert abs(np.linalg.det(got) - 1.0) < 1e-8

    def test_indivisible_left_side_gives_identity(self):
        him = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "indivisible-inverse-square"},
            (0.0, 1.0), singular=1.0)
        hp = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "inverse-square"}, (1.0, 2.0),
            singular=1.0)
        ih = cs.indef_hamiltonian(him, hp, delta=1, d=(0.3, 0.1))
        np.testing.assert_allclose(cs.u_minus(ih, 1.7 + 0.4j), np.eye(2),
                                   atol=1e-12)


class TestUPlus:
    def test_matches_inverse_of_displayed(self, example_ih):
        for z in (np.pi, 1.0 + 1.0j, 2.0 + 3.0j):
            v = cs.fundamental(example_ih.h_plus, z,
                               init=cs.closed_W(2.0, z), t0=2.0, side="plus",
                               rtol=1e-12, atol=1e-12)
            got = cs.u_plus(example_ih, z, v)
            want = np.linalg.inv(cs.closed_Uplus_inv(z))
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() < 1e-8 * scale

    def test_det_matches_det_v(self, example_ih):
        z = 1.2 - 0.8j
        init = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)  # det 2
        v = cs.fundamental(example_ih.h_plus, z, init=init, t0=2.0,
                           side="plus", rtol=1e-12, atol=1e-12)
        up = cs.u_plus(example_ih, z, v)
        assert abs(np.linalg.det(up) - 2.0) < 1e-8

    def test_indivisible_plus_side_gives_identity(self, surgery_ih):
        np.testing.assert_allclose(cs.u_plus(surgery_ih, 0.9 + 0.3j),
                                   np.eye(2), atol=1e-12)

    def test_v_anchored_past_the_basis_rejected_before_integrating(
            self, example_ih, monkeypatch):
        z = 0.4 + 0.8j
        v = cs.fundamental(example_ih.h_plus, z, t0=1.0 + 5e-8, side="plus",
                           cutoff=1e-8)
        lo, hi = bd.side_basis(example_ih, "plus", z).solution.interval

        def integrate(*args, **kwargs):
            raise AssertionError("integrated from an anchor past the basis")

        monkeypatch.setattr(sv, "integrate_dense", integrate)
        with pytest.raises(cs.DomainError,
                           match=re.escape(f"t={v.anchor_t}") + ".*"
                           + re.escape(f"[{lo}, {hi}]")):
            cs.u_plus(example_ih, z, v)

    def test_singular_v_rejected(self, example_ih):
        with pytest.raises(cs.DomainError):
            cs.fundamental(example_ih.h_plus, 1.0, init=np.zeros((2, 2)),
                           t0=2.0, side="plus")

    def test_scaled_v_accepted_at_any_scale(self, example_ih):
        # V -> c V scales U_plus by c and leaves W unchanged, down to c = 1e-8
        z = 0.9 - 0.6j
        want = cs.monodromy_matrix(example_ih, z)
        for c in (1e-8, 1e6):
            v = cs.fundamental(example_ih.h_plus, z,
                               init=c * cs.closed_W(2.0, z), t0=2.0,
                               side="plus")
            np.testing.assert_allclose(cs.u_plus(example_ih, z, v),
                                       c * cs.closed_Uplus(z), rtol=1e-9)
            got = cs.factorisation(example_ih, z, v).w(2.0)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_ill_conditioned_v_rejected(self, example_ih):
        # |det V.init| = 10, but it cancels to 5e-14 of its products
        z = 0.9 - 0.6j
        w = cs.fundamental(example_ih.h_plus, z, t0=2.0, side="plus")
        v = cs.Solution(w.segments, z, w.h, 2.0, np.array(
            [1e7, 1e7, 1e7, 1e7 + 1e-6], dtype=np.complex128))
        with pytest.raises(cs.DomainError, match="V on the right piece must "
                           "be non-singular"):
            cs.u_plus(example_ih, z, v)


class TestAssembly:
    @pytest.mark.parametrize("r", [20.0, 50.0])
    def test_far_from_the_origin(self, example_ih, r):
        # the entries grow like e^(2 |Im z|); the adjugate keeps W accurate
        for theta in np.linspace(0.0, np.pi, 5):
            z = r * np.exp(1j * theta)
            want = cs.closed_W(2.0, z)
            got = cs.monodromy_matrix(example_ih, z)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), z

    def test_distinguished_parameters_reproduce_closed_form(self, example_ih):
        for z in Z_SET:
            for t in (0.25, 0.5, 1.5, 2.0):
                got = cs.assemble_W(example_ih, z, t)
                want = cs.closed_W(t, z)
                assert np.abs(got - want).max() < 1e-6, (z, t)

    def test_zero_parameter_identity(self, example_ih):
        for t in (0.3, 1.5, 2.0):
            got = cs.assemble_W(example_ih, 0.0, t)
            np.testing.assert_allclose(got, np.eye(2), atol=1e-12)

    def test_gauge_invariance_under_constant_factor(self, example_ih):
        # replacing V by C V (the constant factor that keeps it a solution)
        # leaves the assembly unchanged: U^+ transforms contravariantly
        z = 1.0 + 2.0j
        c = np.array([[1.3, -0.4], [0.2, 0.9]], dtype=complex)
        v2 = cs.fundamental(example_ih.h_plus, z, init=c, t0=2.0, side="plus",
                            rtol=1e-12, atol=1e-12)
        for t in (1.5, 2.0):
            a = cs.assemble_W(example_ih, z, t)
            b = cs.factorisation(example_ih, z, v=v2).w(t)
            assert np.abs(a - b).max() < 2e-6

    def test_supplied_omegas_take_general_path(self):
        # the same problem with user-supplied coefficient sequences must go
        # through the nested-Volterra construction and still reproduce the
        # closed form
        hm = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "inverse-square"}, (0.0, 1.0),
            singular=1.0)
        hp = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "inverse-square"}, (1.0, 2.0),
            singular=1.0)
        base = cs.example_problem()
        om = cs.omega_sequence(base, "minus", 2)
        op = cs.omega_sequence(base, "plus", 2)
        ih = cs.indef_hamiltonian(hm, hp, delta=1, d=(-2.0, 0.0),
                                  omega_minus=om, omega_plus=op)
        for z in (np.pi, 2.0 + 3.0j):
            got = cs.assemble_W(ih, z, 2.0)
            assert np.abs(got - cs.closed_W(2.0, z)).max() < 1e-6

    def test_perturbed_d0_matches_reference(self):
        cfg = cs.ExampleConfig(d0=-1.0)
        ih = cs.example_problem(cfg)
        for z in (1.0, 2.0 + 1.0j):
            for t in (1.5, 2.0):
                got = cs.assemble_W(ih, z, t)
                want = cs.reference_W(cfg, t, z)
                assert np.abs(got - want).max() < 1e-6


class TestMonodromyMatrix:
    def test_identity_at_zero(self, example_ih):
        np.testing.assert_allclose(cs.monodromy_matrix(example_ih, 0.0),
                                   np.eye(2), atol=1e-12)

    def test_value_at_pi(self, example_ih):
        got = cs.monodromy_matrix(example_ih, np.pi)
        np.testing.assert_allclose(got, cs.closed_W(2.0, np.pi), atol=1e-7)

    def test_det_one_random_grid(self, example_ih, rng):
        for _ in range(12):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            w = cs.monodromy_matrix(example_ih, z)
            scale = max(1.0, np.abs(w).max() ** 2)
            assert abs(np.linalg.det(w) - 1.0) < 1e-7 * scale

    def test_conjugate_symmetry(self, example_ih, rng):
        for _ in range(4):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            a = cs.monodromy_matrix(example_ih, z)
            b = cs.monodromy_matrix(example_ih, np.conj(z))
            assert np.abs(b - np.conj(a)).max() < 2e-6 * max(1, np.abs(a).max())

    def test_far_z_served_until_a_factor_overflows(self):
        ih = cs.example_problem()
        # 300i: entries near 1e260, still within 1e-6 of the closed form
        got = cs.monodromy_matrix(ih, 300j)
        want = cs.closed_W(2.0, 300j)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        # 400i: U^+ holds entries near 1e176, whose determinant's products
        # exceed float64; the error names the factor and the overflow
        with pytest.raises(cs.ConditioningError,
                           match=r"^U\^\+: entries overflowed") as exc:
            cs.monodromy_matrix(ih, 400j)
        assert np.isfinite(exc.value.matrix).all()


def _scaled(problem, c):
    """``problem`` with H -> c H and d_k -> c^(k+1) d_k (oe = 0); a named
    side is written as its power pieces first."""
    out = copy.deepcopy(problem)
    for side, interval in (("minus", [0.0, 1.0]), ("plus", [1.0, 2.0])):
        spec = out["h_" + side]
        if spec["kind"] == "named":
            assert spec["name"] == "inverse-square"
            spec = out["h_" + side] = {"kind": "piecewise", "pieces": [{
                "interval": interval,
                "h1": {"type": "power", "c": 1.0, "center": 1.0,
                       "exponent": 2.0},
                "h2": {"type": "power", "c": 1.0, "center": 1.0,
                       "exponent": -2.0}}]}
        for piece in spec["pieces"]:
            for entry in (piece[k] for k in ("h1", "h2", "h3") if k in piece):
                entry["c" if entry["type"] == "power" else "value"] *= c
    out["d"] = [dk * c ** (k + 1) for k, dk in enumerate(out["d"])]
    return out


class TestScaleCovariance:
    """W_{cH}(z) = W_H(cz) when d_k scales as c^(k+1) (oe = 0): y' = z J
    (cH) y is y' = (cz) J H y, and R(z) of the scaled d is R(cz) of d.

    This pins how d enters R(z) and how the pipeline treats a scaled H.  It
    is not an accuracy oracle: the two problems sample their limits at the
    same ladder nodes, so a limit error is shared and cancels here."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_scaled_problem_is_w_at_scaled_z(self, seed):
        problem = (cs.example_problem_dict() if seed is None
                   else random_problem_dict(np.random.default_rng(seed)))
        ih = cs.problem_from_dict(problem)
        worst = 0.0
        for c in (2.0, 0.5, 3.0, 0.7):
            ih_c = cs.problem_from_dict(_scaled(problem, c))
            for z in (0.5 + 0.2j, 2.0 + 3.0j, -1.5 + 0.7j, 1.0):
                want = cs.monodromy_matrix(ih, c * z)
                got = cs.monodromy_matrix(ih_c, z)
                worst = max(worst, float(np.abs(got - want).max()
                                         / np.abs(want).max()))
        assert worst <= 1e-13


class TestComparison:
    def test_same_problem_zero_residual(self, example_ih):
        res = cs.compare_discrete(example_ih, example_ih, 1.3, 1.5)
        assert np.abs(res).max() == 0.0

    def test_shifted_d0(self, example_ih):
        ih2 = cs.example_problem(cs.ExampleConfig(d0=-1.0))
        for z in (0.5, 1.0j, 2.0 + 1.0j):
            res = cs.compare_discrete(example_ih, ih2, z, 1.5)
            assert np.abs(res).max() < 1e-6

    def test_added_b_term(self, example_ih):
        ih3 = cs.example_problem(cs.ExampleConfig(oe=1, b=(1.0,)))
        for z in (0.5, 1.0j, 2.0 + 1.0j):
            res = cs.compare_discrete(example_ih, ih3, z, 2.0)
            assert np.abs(res).max() < 1e-6

    def test_m_matrix_equals_closed_n(self, example_ih):
        for z in Z_SET:
            err = np.abs(cs.m_matrix(example_ih, z) - cs.closed_N(z)).max()
            assert err < 1e-8, z

    def test_m_matrix_rank_one(self, example_ih):
        m = cs.m_matrix(example_ih, 1.0 + 0.5j)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_hamiltonian_mismatch_rejected(self, example_ih, delta2_ih):
        with pytest.raises(cs.DomainError):
            cs.compare_discrete(example_ih, delta2_ih, 1.0, 1.5)


class TestWeyl:
    def test_example_closed_limit(self, example_ih):
        # limit of w12/w22 from the closed form: (sin z/z^2 - cos z/z)/(sin z/z)
        for z in (1.0j, 0.5 + 1.0j, -1.0 + 2.0j):
            got = cs.weyl_intermediate(example_ih, z)
            want = (np.sin(z) / z ** 2 - np.cos(z) / z) / (np.sin(z) / z)
            assert abs(got - want) < 1e-9

    def test_conjugate_values(self, example_ih):
        z = 0.7 + 1.3j
        a = cs.weyl_intermediate(example_ih, z)
        b = cs.weyl_intermediate(example_ih, np.conj(z))
        assert abs(b - np.conj(a)) < 1e-9

    def test_real_z_rejected(self, example_ih):
        with pytest.raises(cs.DomainError):
            cs.weyl_intermediate(example_ih, 2.0)


class TestKernelSignature:
    def _grid(self, rng, n=8):
        return list(rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 2.5, n))

    def test_identity_w_gives_zero_gram(self, rng):
        sig = cs.kernel_gram(lambda z: np.eye(2), self._grid(rng))
        assert sig.neg_count == 0
        assert np.abs(sig.gram).max() < 1e-14

    def test_positive_piece(self, rng):
        h = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "inverse-square"}, (0.0, 0.9),
            singular=1.0)

        def w(z):
            return cs.fundamental(h, z, rtol=1e-12, atol=1e-12).eval(0.9)

        for seed in range(3):
            sig = cs.kernel_gram(w, self._grid(np.random.default_rng(seed)))
            assert sig.neg_count == 0
            assert sig.min_eig >= -1e-8

    def test_indefinite_example_stable_negative_count(self, example_ih):
        counts = set()
        for seed in range(3):
            grid = self._grid(np.random.default_rng(seed))
            sig = cs.kernel_gram(lambda z: cs.monodromy_matrix(example_ih, z),
                                 grid)
            counts.add(sig.neg_count)
        assert counts == {1}  # empirical; recorded, stable across grids

    def test_gram_hermitian(self, example_ih, rng):
        sig = cs.kernel_gram(lambda z: cs.monodromy_matrix(example_ih, z),
                             self._grid(rng, 4))
        np.testing.assert_allclose(sig.gram, sig.gram.conj().T, atol=1e-12)

    def test_preconditions(self):
        w = lambda z: np.eye(2)
        with pytest.raises(cs.DomainError):
            cs.kernel_gram(w, [1.0 + 1.0j, 1.0 + 1.0j])
        with pytest.raises(cs.DomainError):
            cs.kernel_gram(w, [1.0 + 1.0j, 1.0 - 1.0j])
        with pytest.raises(cs.DomainError):
            cs.kernel_gram(w, [2.0 + 0.0j, 1.0 + 1.0j])
        with pytest.raises(cs.DomainError):
            cs.kernel_gram(w, [])

    @pytest.mark.parametrize("big, match", [
        (np.inf, r"W at z=\(2\+1j\) is not finite"),
        (1e200, r"overflows: \|W\| reaches 1\.000e\+200 at z=\(2\+1j\)")])
    def test_overflowing_w_named(self, big, match):
        # warnings are errors in this suite: the Gram products overflow
        # quietly and the largest W is named
        def w(z):
            return (np.array([[big, big], [0.0, 1.0]]) if z == 2.0 + 1.0j
                    else np.eye(2))

        with pytest.raises(cs.DomainError, match=match):
            cs.kernel_gram(w, [1.0 + 1.0j, 2.0 + 1.0j, 3.0 + 1.0j])
