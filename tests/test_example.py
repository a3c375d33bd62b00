import numpy as np
import pytest

import canonsys as cs
from canonsys import example as ex
from canonsys import solver as sv


class TestClosedW:
    def test_identity_at_left_endpoint(self):
        for z in (np.pi, 1.0 + 2.0j, 1e-6, 0.3, 5.0j):
            np.testing.assert_allclose(cs.closed_W(0.0, z), np.eye(2),
                                       atol=1e-12)

    def test_entry_value(self):
        # direct substitution: (sin(pi/2) - pi cos(pi/2)) / (pi (0.5-1))
        w = cs.closed_W(0.5, np.pi)
        assert w[0, 0] == pytest.approx(-2.0 / np.pi, abs=1e-14)

    def test_unimodular(self, rng):
        for _ in range(25):
            t = rng.uniform(0.05, 1.95)
            if abs(t - 1.0) < 0.02:
                continue
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            w = cs.closed_W(t, z)
            scale = max(1.0, np.abs(w).max() ** 2)
            assert abs(np.linalg.det(w) - 1.0) < 5e-13 * scale

    def test_pole_at_sigma(self):
        with pytest.raises(cs.PoleError):
            cs.closed_W(1.0, 2.0)

    def test_outside_interval(self):
        with pytest.raises(cs.PoleError):
            cs.closed_W(2.5, 1.0)

    def test_series_matches_direct_at_crossover(self):
        # the small-argument series branches must join the direct formulas
        # continuously at their thresholds (1e-4 and 0.5 respectively)
        from canonsys.example import _gfun, _sinc
        for u0, fn in ((1e-4, _sinc), (0.5, _gfun)):
            for angle in (0.0, 0.7, 2.1):
                u = u0 * np.exp(1j * angle)
                below = fn(u * (1 - 1e-12))
                above = fn(u * (1 + 1e-12))
                assert abs(below - above) < 1e-12

    def test_satisfies_transposed_system(self, rng):
        # finite differences: dW/dt J = z W H
        j = cs.symplectic_j()
        worst = 0.0
        checked = 0
        while checked < 100:
            t = rng.uniform(0.05, 1.95)
            if abs(t - 1.0) < 0.05:
                continue
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            eps = 1e-6
            dw = (cs.closed_W(t + eps, z) - cs.closed_W(t - eps, z)) / (2 * eps)
            ht = np.array([[(t - 1) ** 2, 0.0], [0.0, (t - 1) ** -2]])
            res = dw @ j - z * cs.closed_W(t, z) @ ht
            scale = max(1.0, abs(z) * np.abs(cs.closed_W(t, z) @ ht).max())
            worst = max(worst, np.abs(res).max() / scale)
            checked += 1
        assert worst < 1e-6


class TestClosedBoundaryMatrices:
    def test_uminus_at_pi(self):
        np.testing.assert_allclose(
            cs.closed_Uminus(np.pi),
            [[-2.0, 1.0 / np.pi], [-np.pi, 0.0]], atol=1e-14)

    def test_uminus_unimodular(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            d = np.linalg.det(cs.closed_Uminus(z))
            scale = max(1.0, np.abs(cs.closed_Uminus(z)).max() ** 2)
            assert abs(d - 1.0) < 1e-12 * scale

    def test_uplus_inverse_consistency(self, rng):
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            prod = cs.closed_Uplus(z) @ cs.closed_Uplus_inv(z)
            np.testing.assert_allclose(prod, np.eye(2), atol=1e-11)

    def test_n_rank_one(self, rng):
        for _ in range(10):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            s = np.linalg.svd(cs.closed_N(z), compute_uv=False)
            assert s[1] <= 1e-12 * max(1.0, s[0])


class TestW1ClosedForm:
    def test_matches_wpoly(self, example_ih):
        for side, s_end in (("minus", 0.0), ("plus", 2.0)):
            h = example_ih.side(side)
            w1 = cs.w_n_diagonal(h, side, 1)
            lo, hi = h.interval
            ts = np.linspace(lo, hi, 31)[1:-1]
            assert np.abs(w1(ts)[..., 0] - cs.closed_w1(ts, s_end)).max() < 1e-8


class TestConfig:
    def test_default_d0(self):
        cfg = cs.ExampleConfig(s_plus=3.0)
        assert cfg.d0_value == pytest.approx(-1.5)

    def test_s_plus_validated(self):
        # a library error, as every error the package raises
        for s_plus in (1.0, 0.5, float("nan")):
            with pytest.raises(cs.ConfigError, match="s_plus must exceed 1"):
                cs.ExampleConfig(s_plus=s_plus)

    @pytest.mark.parametrize("kwargs", [{"b": (0.5,)}, {"oe": -1}])
    def test_b_length_validated(self, kwargs):
        # rejected when the config is made, as the problem would reject it
        with pytest.raises(cs.ConfigError, match="b must have length oe"):
            cs.ExampleConfig(**kwargs)

    def test_closed_p(self):
        cfg = cs.ExampleConfig()  # d0 = -2
        assert cs.closed_p(cfg, 1.0) == pytest.approx(2.0)
        cfg2 = cs.ExampleConfig(d0=0.0, oe=1, b=(3.0,))
        assert cs.closed_p(cfg2, 2.0) == pytest.approx(3.0 * 8.0)


class TestRunValidation:
    def test_default_passes(self):
        report = cs.run_validation(z_grid=(1.0, 1.0j, np.pi),
                                   t_grid=(0.5, 1.5, 2.0))
        assert report["pass"], report["max_abs_err"]
        assert report["observed"]["neg_count"] >= 1
        assert all(v < 1e-6 for v in report["max_abs_err"].values())

    @pytest.mark.parametrize("threshold", [-1.0, -1e-300, np.nan, np.inf,
                                           "x", None])
    def test_bad_threshold_rejected_before_integrating(self, threshold,
                                                       monkeypatch):
        # no error can pass a negative threshold, so the gate would fail
        # after the whole pipeline ran
        monkeypatch.setattr(sv, "integrate_dense",
                            lambda *args, **kwargs: pytest.fail("integrated"))
        with pytest.raises(cs.DomainError, match="threshold"):
            cs.run_validation(threshold=threshold)

    @pytest.mark.parametrize("t_grid", [(1.0,), (np.nan,), (np.inf,),
                                        (0.5, -0.25), (2.5,), ("x",),
                                        (None,)])
    def test_bad_t_grid_rejected_before_integrating(self, t_grid,
                                                    monkeypatch):
        # sigma, a non-finite point or one off [s_minus, s_plus] would fail
        # only after the first chunk of bases was integrated
        monkeypatch.setattr(sv, "integrate_dense",
                            lambda *args, **kwargs: pytest.fail("integrated"))
        bad = repr(t_grid[-1])
        with pytest.raises(cs.DomainError, match="t_grid") as info:
            cs.run_validation(t_grid=t_grid)
        assert bad in str(info.value)

    @pytest.mark.parametrize("s_plus", [1.2, 3.0])
    def test_default_t_grid_follows_s_plus(self, s_plus):
        assert ex.default_t_grid(2.0) == (0.25, 0.5, 1.5, 2.0)
        assert ex.default_t_grid(s_plus) == (0.25, 0.5, 0.5 * (1.0 + s_plus),
                                             s_plus)
        report = cs.run_validation(cs.ExampleConfig(s_plus=s_plus),
                                   z_grid=(1.0, 2.0 + 1.0j))
        assert report["pass"], report["max_abs_err"]

    @pytest.mark.xfail(strict=True, reason=(
        "open question: at s_plus = 4 the gate's raw |det W - 1| reads "
        "1.24e-6 at z = 2+3j, where |W| reaches 2.3e5, while the normalised "
        "det_residual there is 1e-16; whether the gate or the integration "
        "is at fault is undecided"))
    def test_s_plus_four_passes(self):
        report = cs.run_validation(cs.ExampleConfig(s_plus=4.0))
        assert report["pass"], report["max_abs_err"]

    def test_perturbed_d0_passes(self):
        report = cs.run_validation(cs.ExampleConfig(d0=-1.0),
                                   z_grid=(1.0, 2.0 + 1.0j),
                                   t_grid=(0.5, 1.5))
        assert report["pass"], report["max_abs_err"]
