import numpy as np
import pytest

import canonsys as cs


@pytest.fixture(scope="session")
def example_ih():
    return cs.example_problem()


@pytest.fixture(scope="session")
def hm(example_ih):
    return example_ih.h_minus


@pytest.fixture(scope="session")
def hp(example_ih):
    return example_ih.h_plus


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


def random_piecewise_psd(rng, n_pieces=4, interval=(0.0, 1.0)):
    """Random piecewise-constant PSD Hamiltonian on the interval."""
    ts = np.linspace(*interval, n_pieces + 1)
    pieces = []
    for k in range(n_pieces):
        th = rng.uniform(0, np.pi)
        l1, l2 = rng.uniform(0.1, 2.0, 2)
        c, s = np.cos(th), np.sin(th)
        rot = np.array([[c, -s], [s, c]])
        m = rot @ np.diag([l1, l2]) @ rot.T
        pieces.append({"interval": [ts[k], ts[k + 1]],
                       "h1": {"type": "const", "value": m[0, 0]},
                       "h2": {"type": "const", "value": m[1, 1]},
                       "h3": {"type": "const", "value": m[0, 1]}})
    return cs.hamiltonian_from_spec({"kind": "piecewise", "pieces": pieces},
                                    interval)


@pytest.fixture(scope="session")
def delta2_ih():
    """Problem with a stronger left singularity: delta = 2.

    h1 = (1-t)^4, h2 = (1-t)^-4 on the left piece makes the first iterate
    fall outside L2 while the second lands in it; the right piece is the
    standard inverse-square one.
    """
    hm2 = cs.hamiltonian_from_spec(
        {"kind": "piecewise", "pieces": [{
            "interval": [0.0, 1.0],
            "h1": {"type": "power", "c": 1.0, "center": 1.0, "exponent": 4},
            "h2": {"type": "power", "c": 1.0, "center": 1.0, "exponent": -4},
        }]}, (0.0, 1.0))
    hp1 = cs.hamiltonian_from_spec({"kind": "named", "name": "inverse-square"},
                                   (1.0, 2.0), singular=1.0)
    return cs.indef_hamiltonian(hm2, hp1, delta=2, d=(0.5, -0.25, 0.0, 1.0))


@pytest.fixture(scope="session")
def surgery_ih():
    """Left piece of the example joined to an indivisible right piece."""
    hm1 = cs.hamiltonian_from_spec({"kind": "named", "name": "inverse-square"},
                                   (0.0, 1.0), singular=1.0)
    hp0 = cs.hamiltonian_from_spec(
        {"kind": "named", "name": "indivisible-inverse-square"},
        (1.0, 2.0), singular=1.0)
    return cs.indef_hamiltonian(hm1, hp0, delta=1, d=(0.0, 0.0))


def indivisible_problem_dict(phi, side, c=1.5):
    """The example with one side replaced by c |t - 1|^-2 xi_phi xi_phi^T,
    xi_phi = (cos phi, sin phi): indivisible of type phi."""
    def entry(v):
        if abs(v) < 1e-12:
            return {"type": "const", "value": 0.0}
        return {"type": "power", "c": v, "center": 1.0, "exponent": -2}

    cp, sp = np.cos(phi), np.sin(phi)
    interval = [0.0, 1.0] if side == "minus" else [1.0, 2.0]
    indiv = {"kind": "piecewise", "pieces": [{
        "interval": interval, "h1": entry(c * cp * cp),
        "h2": entry(c * sp * sp), "h3": entry(c * cp * sp)}]}
    problem = cs.example_problem_dict()
    problem["h_" + side] = indiv
    return problem


def _power(c, exponent):
    return {"type": "power", "c": c, "center": 1.0, "exponent": exponent}


def random_problem_dict(rng):
    """A seeded random problem on the example's interval, Delta = 1: each
    side diagonal in two pieces, c1 |t - 1|^2, c2 |t - 1|^-2 next to sigma
    and a positive constant next to the regular endpoint, split at a random
    t, and random d with d1 != 0 (oe = 0)."""
    problem = cs.example_problem_dict()
    for side, (lo, hi) in (("minus", (0.0, 1.0)), ("plus", (1.0, 2.0))):
        cut = float(rng.uniform(lo + 0.2, hi - 0.2))
        c1, c2, k1, k2 = (float(v) for v in rng.uniform(0.5, 2.0, 4))
        near = {"h1": _power(c1, 2.0), "h2": _power(c2, -2.0)}
        far = {"h1": {"type": "const", "value": k1},
               "h2": {"type": "const", "value": k2}}
        if side == "minus":
            pieces = [dict(far, interval=[lo, cut]),
                      dict(near, interval=[cut, hi])]
        else:
            pieces = [dict(near, interval=[lo, cut]),
                      dict(far, interval=[cut, hi])]
        problem["h_" + side] = {"kind": "piecewise", "pieces": pieces}
    d1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    problem["d"] = [float(rng.uniform(-2.0, 2.0)), d1]
    return problem


def count_calls(monkeypatch, module, name, calls, sizes=None):
    """Wrap ``module.name``: each call appends ``name`` to ``calls`` and,
    when ``sizes`` is given, the length of its first argument to it."""
    orig = getattr(module, name)

    def counted(*args):
        calls.append(name)
        if sizes is not None:
            sizes.append(len(args[0]))
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
