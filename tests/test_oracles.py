"""The singular pipeline against exact oracles beyond the example itself
(helpers in ``oracles``): the example under a change of variable, whose
sides are ``power`` pieces centred off sigma except next to it, and power-law
sides diag(s^alpha, s^-alpha) at exponents other than 2 against Bessel
functions.  Tolerances are the acceptance criteria's.
"""

import json

import numpy as np
import pytest

import canonsys as cs
from canonsys.cli import main
from oracles import (bessel_w, phi_inverse, power_law_side,
                     reparametrised_problem_dict)

Z_ORACLE = (1.0, -1.0, 1.0j, np.pi, 2.0 + 3.0j, 5.0j)
T_ORACLE = (0.25, 0.5, 1.5, 2.0)  # points t of the example, both sides


def _random_phi(seed):
    """t-breaks and slopes of a piecewise-affine phi: 2 to 4 pieces per
    side, slopes log-uniform in [0.25, 4]."""
    rng = np.random.default_rng(seed)
    k_minus, k_plus = rng.integers(2, 5, size=2)
    breaks = np.concatenate([
        [0.0], np.sort(rng.uniform(0.1, 0.9, k_minus - 1)), [1.0],
        1.0 + np.sort(rng.uniform(0.1, 0.9, k_plus - 1)), [2.0]])
    slopes = np.exp(rng.uniform(np.log(0.25), np.log(4.0), k_minus + k_plus))
    return breaks, slopes


_PHIS = [pytest.param(*_random_phi(seed), id=f"seed{seed}")
         for seed in range(4)] + [
    # the extreme slopes next to sigma, and the most pieces
    pytest.param([0.0, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.7, 2.0],
                 [1.0, 2.0, 0.5, 4.0, 0.25, 3.0, 1.0, 0.4], id="extremes")]


@pytest.mark.parametrize("breaks, slopes", _PHIS)
def test_reparametrised_example_matches_its_closed_forms(breaks, slopes):
    problem = reparametrised_problem_dict(breaks, slopes)
    ih = cs.problem_from_dict(problem)
    assert ih.sigma != 1.0 and len(problem["h_minus"]["pieces"]) >= 2
    for z in Z_ORACLE:
        w_err = np.abs(cs.monodromy_matrix(ih, z) - cs.closed_W(2.0, z)).max()
        um_err = np.abs(cs.u_minus(ih, z) - cs.closed_Uminus(z)).max()
        # U_plus of the V anchored at the closed form at s_plus
        up_err = np.abs(cs.closed_W(2.0, z) @ cs.u_plus(ih, z)
                        - cs.closed_Uplus(z)).max()
        m_err = np.abs(cs.m_matrix(ih, z) - cs.closed_N(z)).max()
        assert max(w_err, um_err, up_err) <= 1e-6, (z, w_err, um_err, up_err)
        assert m_err <= 1e-8, (z, m_err)
        for t in T_ORACLE:
            s = phi_inverse(breaks, slopes, t)
            err = np.abs(cs.assemble_W(ih, z, s) - cs.closed_W(t, z)).max()
            assert err <= 1e-6, (z, t, err)


def test_reparametrised_example_through_the_cli(tmp_path):
    breaks, slopes = _random_phi(1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": reparametrised_problem_dict(breaks, slopes),
        "z_grid": [[z.real, z.imag] for z in map(complex, Z_ORACLE)]}))
    out = tmp_path / "out.json"
    assert main(["--config", str(cfg), "--output", str(out), "monodromy",
                 "--emit", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == len(Z_ORACLE)
    for row in rows:
        z = complex(*row["z"])
        w = np.array([[complex(*e) for e in r] for r in row["W"]])
        err = np.abs(w - cs.closed_W(2.0, z)).max()
        assert err <= 1e-6, (z, err)


@pytest.mark.parametrize("side", ["minus", "plus"])
@pytest.mark.parametrize("alpha", [1.5, 2.5, 3.2])
def test_fundamental_on_power_law_sides_matches_bessel(alpha, side):
    # y2 = s^nu C_nu(z s), nu = (alpha + 1) / 2, at distances s from sigma
    # far and near; the entries grow like s^(nu - alpha) toward it
    h = power_law_side(alpha, side)
    for z in (1.3 + 0.4j, -2.0 + 1.0j, 3.0, 0.5j):
        w = cs.fundamental(h, z, side=side)
        for s in (0.5, 1e-2):
            t = 1.0 - s if side == "minus" else 1.0 + s
            want = bessel_w(alpha, side, z, t)
            err = np.abs(w.eval(t) - want).max() / np.abs(want).max()
            assert err <= 1e-12, (z, s, err)
