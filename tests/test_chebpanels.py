"""Panel-chain integration of _chebpanels against exact antiderivatives.

Tolerances are about ten times the errors that fitting one panel at a time
reaches on these cases (4e-16, 1.3e-15, 1e-14 and 5e-16).
"""

import numpy as np
import pytest

import canonsys as cs
from canonsys import _chebpanels as cp
from canonsys import solver as sv
from canonsys import wpoly


def test_cumulative_from_start_polynomial():
    breaks = cp.geometric_panels(0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 1001)[:-1]

    def fn(t):
        return 3 * t ** 2 - 2 * t + 1

    for F in (cp.cumulative_from_start(fn, breaks),
              cp.cumulative_from_values(fn(cp.panel_nodes(breaks).ravel()), breaks)):
        np.testing.assert_allclose(F(ts), ts ** 3 - ts ** 2 + ts, rtol=0,
                                   atol=5e-15)


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
    original = cp._node_integrals

    def counting(vals, breaks):
        calls.append(len(breaks))
        return original(vals, breaks)

    monkeypatch.setattr(cp, "_node_integrals", counting)
    for side in ("minus", "plus"):
        calls.clear()
        fam = wpoly.build_w_family(example_ih.side(side), side, 4)
        assert len(calls) == len(fam) - 1  # w_0 = 1 needs no fit


@pytest.mark.parametrize("module, name", [
    (cp, "_NODES"), (cp, "_VALS_TO_COEFS"), (cp, "CUMINT_COEFS"),
    (cp, "CUMINT"), (cp, "END_WEIGHTS"), (sv, "_UNIT_STARTS")])
def test_shared_tables_are_read_only(module, name):
    # every integrating thread reads these; a write would corrupt them all
    table = getattr(module, name)
    with pytest.raises(ValueError):
        table[0] = 0.0


def _chebvander_values(f, t):
    """PanelFunction values as the chebvander formulation forms them: the
    reference for the basis built in place by the recurrence."""
    from numpy.polynomial import chebyshev

    t = np.asarray(t, dtype=np.float64)
    tt = np.atleast_1d(t)
    n = len(f.breaks) - 1
    asc = f.breaks[-1] >= f.breaks[0]
    br = f.breaks if asc else f.breaks[::-1]
    k = np.clip(np.searchsorted(br, tt, side="right") - 1, 0, n - 1)
    if not asc:
        k = n - 1 - k
    a, b = f.breaks[k], f.breaks[k + 1]
    x = np.minimum(np.maximum((2.0 * tt - a - b) / (b - a), -1.0), 1.0)
    vander = chebyshev.chebvander(x, f.coefs.shape[1] - 1)
    c = f.coefs[k].reshape(tt.shape + (f.coefs.shape[1], -1))
    out = np.einsum("...j,...jm->...m", vander, c)
    return out.reshape(t.shape + f.coefs.shape[2:])[()]


@pytest.mark.parametrize("trailing", [(), (2,), (3, 2)])
@pytest.mark.parametrize("descending", [False, True])
def test_panel_function_equals_chebvander_formulation(trailing, descending):
    rng = np.random.default_rng(len(trailing) + 3 * descending)
    breaks = np.sort(rng.uniform(-1.0, 3.0, 9))
    if descending:
        breaks = breaks[::-1]
    shape = (len(breaks) - 1, cp.DEGREE + 2) + trailing
    for dtype in (float, complex):
        coefs = rng.normal(size=shape)
        if dtype is complex:
            coefs = coefs + 1j * rng.normal(size=shape)
        f = cp.PanelFunction(breaks, coefs)
        lo, hi = min(breaks), max(breaks)
        for t in (lo + 0.3 * (hi - lo), breaks[3], hi + 1.0,  # scalars
                  rng.uniform(lo - 0.5, hi + 0.5, 17),        # 1-D
                  rng.uniform(lo, hi, (4, 5)),                 # 2-D
                  np.array([np.nan, lo])):
            got, want = f(t), _chebvander_values(f, t)
            assert np.shape(got) == np.shape(want) == np.shape(t) + trailing
            assert np.array_equal(got, want, equal_nan=True)
