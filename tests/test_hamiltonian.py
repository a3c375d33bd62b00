import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonsys as cs
from canonsys.hamiltonian import PackedEntry
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


class TestPackedEntry:
    @staticmethod
    def entry(e, cuts):
        """h1 of a piecewise spec on [0, 1] with the entry ``e`` on each
        piece between ``cuts``."""
        pieces = [{"interval": [a, b], "h1": e}
                  for a, b in zip(cuts[:-1], cuts[1:])]
        return cs.hamiltonian_from_spec({"kind": "piecewise",
                                         "pieces": pieces}, (0.0, 1.0)).h1

    @pytest.mark.parametrize("e", [
        {"type": "power", "c": 1.5, "center": 0.5, "exponent": -2},
        {"type": "power", "c": 0.7, "center": 0.25, "exponent": 0.5},
        {"type": "power", "c": 0.0, "center": 0.5, "exponent": -2},
        {"type": "poly", "coeffs": [0.3, -1.0, 2.0]},
        {"type": "const", "value": 4.0}])
    def test_one_piece_gives_the_bits_of_searched_pieces(self, e):
        # one piece skips the piece search; the same piece on both halves
        # goes through it.  Points outside the breaks, the break 0.5, NaN,
        # and 0.5 the centre of the negative power, inf without a warning
        one, two = self.entry(e, [0.0, 1.0]), self.entry(e, [0.0, 0.5, 1.0])
        t = np.array([-0.5, 0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.5, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = one(t), two(t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if e.get("exponent") == -2:
            assert got[4] == (np.inf if e["c"] else 0.0)
        if e.get("c") == 0.0:  # +0.0 everywhere, NaN included
            assert not np.signbit(got).any() and not got.any()
        for x in (0.25, 0.5):  # a scalar t gives a Python float
            assert type(one(x)) is float and type(two(x)) is float
            assert np.float64(one(x)).tobytes() == got[t == x].tobytes()


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

    @pytest.mark.parametrize("alpha", [2.0, 3.5] + [
        pytest.param(a, marks=pytest.mark.xfail(
            strict=True, reason="samples below 1e-14 of the peak norm are "
                                "dropped, which leaves s^-alpha alone"))
        for a in (4.0, 6.0)])
    def test_power_law_side_not_indivisible(self, alpha):
        # diag(s^alpha, s^-alpha), s = t - 1, has rank two everywhere; the
        # example's sides are alpha = 2
        spec = {"kind": "piecewise", "pieces": [{
            "interval": [1.0, 2.0],
            "h1": {"type": "power", "c": 1.0, "center": 1.0, "exponent": alpha},
            "h2": {"type": "power", "c": 1.0, "center": 1.0,
                   "exponent": -alpha}}]}
        h = cs.hamiltonian_from_spec(spec, (1.0, 2.0), singular=1.0)
        rep = cs.indivisible_type(h, 1.0, 2.0)
        assert not rep.is_indivisible and rep.phi is None

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

    def test_structural_samples_taken_once(self):
        # a problem's PSD and indivisibility checks read each side's H at
        # the 241 samples of one evaluation; a sub-interval samples itself
        sizes = []

        class Counted(PackedEntry):
            def __call__(self, t):
                sizes.append(np.size(t))
                return super().__call__(t)

        ex = cs.example_problem()
        h_minus, h_plus = (cs.Hamiltonian(h.interval, *(
            Counted(e.breaks, e.kinds, e.params) for e in (h.h1, h.h2, h.h3)))
            for h in (ex.h_minus, ex.h_plus))
        ih = cs.indef_hamiltonian(h_minus, h_plus, ex.delta, ex.d)
        assert sizes == [241] * 6  # h1, h2, h3 of each side
        for h, h0, rep in ((h_minus, ex.h_minus, ih.indiv_minus),
                           (h_plus, ex.h_plus, ih.indiv_plus)):
            assert cs.check_psd(h) == cs.check_psd(h0)
            assert cs.indivisible_type(h, *h.interval) == rep
        assert sizes == [241] * 6
        cs.indivisible_type(h_plus, 1.0, 1.5)
        assert sizes == [241] * 9


class TestConditions:
    def test_example_converges(self, hm):
        rep = cs.check_I(hm, "minus")
        assert rep.converges
        assert abs(rep.total - 1.0 / 3.0) < 1e-10  # int_0^1 (t-1)^2 dt

    def test_nonintegrable_power_diverges(self):
        h = cs.hamiltonian_from_spec(
            {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "power", "c": 1.0, "center": 1.0, "exponent": -2},
                "h2": {"type": "const", "value": 1.0}}]}, (0.0, 1.0))
        assert not cs.check_I(h, "minus").converges

    def test_identity_converges(self):
        h = cs.identity_hamiltonian((0.0, 1.0))
        assert cs.check_I(h, "minus").converges
        assert cs.check_HS(h, "minus").converges

    def test_example_hs_converges(self, hm, hp):
        assert cs.check_HS(hm, "minus").converges
        assert cs.check_HS(hp, "plus").converges

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
        assert cs.check_I(h, "minus").converges
        assert not cs.check_HS(h, "minus").converges


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


SIDE_CALLS = {
    "check_I": lambda ih, side: cs.check_I(ih.h_minus, side),
    "check_HS": lambda ih, side: cs.check_HS(ih.h_plus, side),
    "singular_endpoint": lambda ih, side: ih.h_minus.singular_endpoint(side),
    "side": lambda ih, side: ih.side(side),
    "indivisible": lambda ih, side: ih.indivisible(side),
    "omegas": lambda ih, side: ih.omegas(side),
    "fundamental": lambda ih, side: cs.fundamental(ih.h_plus, 1.0, side=side),
    "solve_from_gamma": lambda ih, side: cs.solve_from_gamma(ih, side, 1.0,
                                                             (1.0, 0.0)),
    "gamma_columns": lambda ih, side: cs.gamma_columns(ih, side, 1.0, 0.5,
                                                       [[1.0], [0.0]]),
}


@pytest.mark.parametrize("side", ["lo", "hi", "bogus"])
@pytest.mark.parametrize("call", sorted(SIDE_CALLS))
def test_unknown_side_is_refused_before_any_work(side, call):
    ih = cs.example_problem()
    with pytest.raises(cs.DomainError, match=repr(side)):
        SIDE_CALLS[call](ih, side)
    assert ih.cache.per_z_size() == 0


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

    def test_lc_key_rejected(self):
        cfg = cs.example_problem_dict()
        cfg["h_minus"] = dict(cfg["h_minus"], lc=["auto", "point"])
        with pytest.raises(cs.ConfigError, match="'lc'"):
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
