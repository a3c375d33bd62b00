"""Panel-chain integration of _chebpanels against exact antiderivatives.

Tolerances are about ten times the errors that fitting one panel at a time
reaches on these cases (4e-16, 1.3e-15, 1e-14 and 5e-16).
"""

import numpy as np
import pytest

import canonsys as cs
from canonsys import _chebpanels as cp
from canonsys import wpoly


def test_cumulative_from_start_polynomial():
    breaks = cp.geometric_panels(0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 1001)[:-1]
    F = cp.cumulative_from_start(lambda t: 3 * t ** 2 - 2 * t + 1, breaks)
    np.testing.assert_allclose(F(ts), ts ** 3 - ts ** 2 + ts, rtol=0, atol=5e-15)


def test_cumulative_from_start_piecewise_entry():
    h = cs.hamiltonian_from_spec({"kind": "piecewise", "pieces": [
        {"interval": [0.0, 0.3], "h1": {"type": "const", "value": 1.0},
         "h2": {"type": "const", "value": 2.0}},
        {"interval": [0.3, 1.0], "h1": {"type": "const", "value": 1.0},
         "h2": {"type": "poly", "coeffs": [1.0, 0.0, 3.0]}}]}, (0.0, 1.0))
    breaks = h.panels("minus")
    assert 0.3 in breaks
    ts = np.linspace(0.0, 1.0, 1001)[:-1]
    exact = np.where(ts < 0.3, 2 * ts, 0.6 + (ts - 0.3) + (ts ** 3 - 0.027))
    F = cp.cumulative_from_start(h.h2, breaks)
    np.testing.assert_allclose(F(ts), exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize("reg, sing", [(0.0, 1.0), (2.0, 1.0)])
def test_cumulative_from_singular_inverse_sqrt(reg, sing):
    # the integral of c |t - sigma|^(-1/2) from sigma to t is
    # sign(t - sigma) 2 c sqrt|sigma - t|
    c = 0.7
    breaks = cp.geometric_panels(reg, sing)
    F = cp.cumulative_from_singular(lambda t: c * np.abs(t - sing) ** -0.5, breaks)
    ts = np.linspace(reg, sing, 1001)[:-1]
    exact = np.sign(ts - sing) * 2 * c * np.sqrt(np.abs(sing - ts))
    np.testing.assert_allclose(F(ts), exact, rtol=0, atol=1e-13)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 7.0), (-2.0, 5.5)])
def test_panel_quad_complex_exponential(a, b):
    q = cp.panel_quad_complex(lambda t: np.exp(1j * t), a, b)
    assert abs(q - (np.exp(1j * b) - np.exp(1j * a)) / 1j) < 5e-15


def test_panel_integrals_evaluates_once_per_chain():
    breaks = np.linspace(0.0, 1.0, 9)
    calls = []

    def fn(t):
        calls.append(t.shape)
        return np.stack([np.cos(t), 1j * t], axis=-1)

    coef, integrals = cp._panel_integrals(fn, breaks)
    n_panels = len(breaks) - 1
    assert calls == [(n_panels * (cp.DEGREE + 1),)]
    assert coef.shape == (n_panels, cp.DEGREE + 2, 2)
    assert integrals.shape == (n_panels, 2)
    np.testing.assert_allclose(integrals.sum(axis=0), [np.sin(1.0), 0.5j],
                               rtol=0, atol=1e-15)


def test_w_family_fits_each_function_once(example_ih, monkeypatch):
    calls = []
    original = cp._panel_integrals

    def counting(fn, breaks):
        calls.append(len(breaks))
        return original(fn, breaks)

    monkeypatch.setattr(cp, "_panel_integrals", counting)
    for side in ("minus", "plus"):
        calls.clear()
        fam = wpoly.build_w_family(example_ih.side(side), side, 4)
        assert len(calls) == len(fam) - 1  # w_0 = 1 needs no fit
