import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonsys as cs
from conftest import random_piecewise_psd


class TestEvalH:
    def test_example_entries(self, hm):
        m = cs.eval_H(hm, 0.5)
        np.testing.assert_allclose(m, [[0.25, 0.0], [0.0, 4.0]], atol=1e-14)

    def test_identity(self):
        h = cs.identity_hamiltonian((0.0, 3.0))
        for t in (0.1, 1.7, 2.9):
            np.testing.assert_allclose(cs.eval_H(h, t), np.eye(2), atol=1e-15)

    def test_table_collocation(self):
        spec = {"kind": "table", "t": [0.0, 0.5, 1.0],
                "h1": [1.0, 2.0, 3.0], "h2": [3.0, 1.0, 2.0],
                "h3": [0.1, -0.2, 0.0]}
        h = cs.hamiltonian_from_spec(spec, (0.0, 1.0))
        np.testing.assert_allclose(cs.eval_H(h, 0.5),
                                   [[2.0, -0.2], [-0.2, 1.0]], atol=1e-15)
        # linear in between
        np.testing.assert_allclose(cs.eval_H(h, 0.25)[0, 0], 1.5, atol=1e-14)

    def test_out_of_interval(self, hm):
        with pytest.raises(cs.DomainError):
            cs.eval_H(hm, 1.0)
        with pytest.raises(cs.DomainError):
            cs.eval_H(hm, -0.3)

    def test_nonfinite_entry(self):
        h = cs.hamiltonian_from_spec(
            {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "power", "c": 1.0, "center": 0.5, "exponent": -2},
                "h2": {"type": "const", "value": 1.0}}]}, (0.0, 1.0))
        with pytest.raises(cs.EvaluationError):
            cs.eval_H(h, 0.5)

    def test_psd_property_sampled(self, hm, hp, rng):
        for h in (hm, hp, random_piecewise_psd(rng)):
            lo, hi = h.interval
            ts = rng.uniform(lo + 1e-6, hi - 1e-6, 1000)
            eig = np.linalg.eigvalsh(h.matrix(ts))
            scale = np.maximum(np.abs(eig).max(axis=1), 1e-300)
            assert (eig[:, 0] / scale).min() >= -1e-10


class TestIndivisible:
    def test_rank_one_vertical(self):
        h = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "indivisible-inverse-square"},
            (1.0, 2.0), singular=1.0)
        rep = cs.indivisible_type(h, 1.0, 2.0)
        assert rep.is_indivisible
        assert abs(rep.phi - math.pi / 2) < 1e-8

    def test_example_not_indivisible(self, hm):
        rep = cs.indivisible_type(hm, 0.0, 1.0)
        assert not rep.is_indivisible
        assert rep.residual > 1e-3

    def test_rank_one_diagonal_angle(self):
        spec = {"kind": "piecewise", "pieces": [{
            "interval": [0.0, 1.0],
            "h1": {"type": "const", "value": 0.5},
            "h2": {"type": "const", "value": 0.5},
            "h3": {"type": "const", "value": 0.5}}]}
        h = cs.hamiltonian_from_spec(spec, (0.0, 1.0))
        rep = cs.indivisible_type(h, 0.0, 1.0)
        assert rep.is_indivisible
        assert abs(rep.phi - math.pi / 4) < 1e-8

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.7])
    def test_rotation_consistency(self, theta):
        # conjugating a rank-one H by a rotation shifts the reported angle
        phi0 = 0.4
        for phi in (phi0, phi0 + theta):
            xi = np.array([math.cos(phi), math.sin(phi)])
            m = np.outer(xi, xi)
            spec = {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "const", "value": m[0, 0]},
                "h2": {"type": "const", "value": m[1, 1]},
                "h3": {"type": "const", "value": m[0, 1]}}]}
            h = cs.hamiltonian_from_spec(spec, (0.0, 1.0))
            rep = cs.indivisible_type(h, 0.0, 1.0)
            assert rep.is_indivisible
            d = (rep.phi - phi) % math.pi
            assert min(d, math.pi - d) < 1e-8

    def test_degenerate_raises(self):
        spec = {"kind": "piecewise", "pieces": [{"interval": [0.0, 1.0]}]}
        h = cs.hamiltonian_from_spec(spec, (0.0, 1.0))
        with pytest.raises(cs.IndeterminateError):
            cs.indivisible_type(h, 0.0, 1.0)


class TestConditions:
    def test_example_converges(self, hm):
        rep = cs.check_I(hm, "hi")
        assert rep.converges
        assert abs(rep.total - 1.0 / 3.0) < 1e-10  # int_0^1 (t-1)^2 dt

    def test_nonintegrable_power_diverges(self):
        h = cs.hamiltonian_from_spec(
            {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "power", "c": 1.0, "center": 1.0, "exponent": -2},
                "h2": {"type": "const", "value": 1.0}}]}, (0.0, 1.0))
        assert not cs.check_I(h, "hi").converges

    def test_identity_converges(self):
        h = cs.identity_hamiltonian((0.0, 1.0))
        assert cs.check_I(h, "hi").converges
        assert cs.check_HS(h, "hi").converges

    def test_example_hs_converges(self, hm, hp):
        assert cs.check_HS(hm, "hi").converges
        assert cs.check_HS(hp, "lo").converges

    def test_hs_divergent_nested(self):
        # h1 = 1, h2 = |t-1|^-3: the inner integral grows like (1-t)^-2,
        # whose product with h1 is not integrable.  Oracle: the exact nested
        # integral up to 1-d equals (1/d - d)/2 - (1 - d), divergent.
        h = cs.hamiltonian_from_spec(
            {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "const", "value": 1.0},
                "h2": {"type": "power", "c": 1.0, "center": 1.0, "exponent": -3}}]},
            (0.0, 1.0))
        from scipy.integrate import quad
        inner = lambda t: 0.5 * ((1 - t) ** -2 - 1.0)
        parts = [quad(inner, 0, 1 - d, limit=200)[0] for d in (1e-2, 1e-4, 1e-6)]
        assert parts[2] > 100 * parts[0]  # oracle confirms divergence
        assert cs.check_I(h, "hi").converges
        assert not cs.check_HS(h, "hi").converges


class TestDiscreteData:
    def test_p_example_parameters(self, example_ih):
        # delta=1, d0=-2, d1=0, oe=0  ->  p(z) = 2z
        np.testing.assert_allclose(cs.build_p(example_ih), [0.0, 2.0, 0.0],
                                   atol=1e-15)
        assert cs.eval_p(example_ih, 1.5) == pytest.approx(3.0)

    def test_p_zero_data(self, hm, hp):
        ih = cs.indef_hamiltonian(hm, hp, delta=1, d=(0.0, 0.0))
        assert np.all(cs.build_p(ih) == 0.0)

    def test_p_with_b_terms(self, hm, hp):
        ih = cs.indef_hamiltonian(hm, hp, delta=1, d=(0.0, 0.0), oe=1, b=(3.0,))
        np.testing.assert_allclose(cs.build_p(ih), [0.0, 0.0, 0.0, 3.0])

    def test_R_identity_at_zero(self, example_ih):
        np.testing.assert_allclose(cs.build_R(example_ih, 0.0), np.eye(2))

    def test_R_value(self, example_ih):
        np.testing.assert_allclose(cs.build_R(example_ih, 1.0),
                                   [[1.0, 2.0], [0.0, 1.0]])

    @given(z1=st.complex_numbers(max_magnitude=10, allow_nan=False,
                                 allow_infinity=False),
           z2=st.complex_numbers(max_magnitude=10, allow_nan=False,
                                 allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_R_commutes_and_unimodular(self, z1, z2):
        ih = cs.example_problem()
        r1, r2 = cs.build_R(ih, z1), cs.build_R(ih, z2)
        np.testing.assert_allclose(r1 @ r2, r2 @ r1, atol=1e-9)
        assert np.linalg.det(r1) == pytest.approx(1.0, abs=0)


class TestProblemConfig:
    def test_round_trip(self):
        cfg = cs.example_problem_dict()
        ih = cs.problem_from_dict(cfg)
        assert ih.sigma == 1.0
        assert ih.delta == 1
        assert ih.d == (-2.0, 0.0)

    def test_unknown_keys_rejected(self):
        cfg = cs.example_problem_dict()
        cfg["extra"] = 1
        with pytest.raises(cs.ConfigError, match="extra"):
            cs.problem_from_dict(cfg)

    def test_lc_key_still_loads(self):
        cfg = cs.example_problem_dict()
        cfg["h_minus"] = dict(cfg["h_minus"], lc=["auto", "point"])
        assert cs.problem_from_dict(cfg).sigma == 1.0
        cfg["h_minus"]["lc"] = ["auto", "nearby"]
        with pytest.raises(cs.ConfigError, match="lc"):
            cs.problem_from_dict(cfg)

    def test_d_length_checked(self, hm, hp):
        with pytest.raises(cs.ConfigError, match="2\\*delta"):
            cs.indef_hamiltonian(hm, hp, delta=1, d=(1.0,))

    def test_b1_nonzero(self, hm, hp):
        with pytest.raises(cs.ConfigError, match="b\\[0\\]"):
            cs.indef_hamiltonian(hm, hp, delta=1, d=(0.0, 0.0), oe=1, b=(0.0,))

    def test_kinds_bc_rejected_with_closed_form_note(self):
        him = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "indivisible-inverse-square"},
            (0.0, 1.0), singular=1.0)
        hip = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "indivisible-inverse-square"},
            (1.0, 2.0), singular=1.0)
        with pytest.raises(cs.UnsupportedSpecError, match="R\\(z\\)\\^T"):
            cs.indef_hamiltonian(him, hip, delta=1, d=(0.0, 0.0))

    def test_non_psd_rejected(self):
        spec = {"kind": "piecewise", "pieces": [{
            "interval": [0.0, 1.0],
            "h1": {"type": "const", "value": 1.0},
            "h2": {"type": "const", "value": 1.0},
            "h3": {"type": "const", "value": 2.0}}]}  # det < 0
        h = cs.hamiltonian_from_spec(spec, (0.0, 1.0))
        with pytest.raises(cs.ConfigError, match="positive semi-definite"):
            cs.check_psd(h)
