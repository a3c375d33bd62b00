"""The per-problem cache: each side's basis and its boundary pairs come from
one integration per z.

Integrations are counted by wrapping ``solver.integrate_dense`` and told
apart by their target: a boundary integration stops at the last Neville node,
about 9.5e-8 of the side's length from sigma, a fundamental one at the 1e-6
cutoff.
"""

import sys
import threading
import time

import numpy as np
import pytest

import canonsys as cs
from canonsys import boundary as bd
from canonsys import hamiltonian as hm_mod
from canonsys import solver as sv
from canonsys.cli import main


@pytest.fixture()
def integrations(monkeypatch):
    """List of (side, kind) per integration, kind 'boundary' or 'fundamental'."""
    calls = []
    orig = sv.integrate_dense

    def counted(h, z, t0, state0, targets, **kwargs):
        side = "minus" if h.interval[0] == 0.0 else "plus"
        sing = h.singular_endpoint(side)
        near = min(abs(t - sing) for t in targets) < 3e-7 * h.length
        calls.append((side, "boundary" if near else "fundamental"))
        return orig(h, z, t0, state0, targets, **kwargs)

    monkeypatch.setattr(sv, "integrate_dense", counted)
    return calls


def test_monodromy_at_fresh_z_integrates_each_side_once(integrations):
    cs.monodromy_matrix(cs.example_problem(), 0.3 - 1.1j)
    assert sorted(integrations) == [("minus", "boundary"), ("plus", "boundary")]


def test_factorisation_twice_integrates_plus_boundary_once(integrations):
    ih = cs.example_problem()
    z = 0.7 + 0.4j
    a = cs.factorisation(ih, z)
    b = cs.factorisation(ih, z)
    assert sorted(integrations) == [("minus", "boundary"), ("plus", "boundary")]
    np.testing.assert_array_equal(a.prefactor, b.prefactor)
    # assembly on both sides of sigma and the monodromy matrix read the same
    # entries
    cs.assemble_W(ih, z, 1.5)
    cs.assemble_W(ih, z, 0.5)
    cs.monodromy_matrix(ih, z)
    assert len(integrations) == 2


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_shooting_shares_one_basis(integrations, side):
    ih = cs.example_problem()
    rng = np.random.default_rng(3)
    z = -0.6 + 0.3j
    for _ in range(3):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        cs.solve_from_gamma(ih, side, z, c)
    assert integrations == [(side, "boundary")]


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_round_trips_share_one_basis(integrations, side):
    # gamma_vec of a shot reads its pair off the basis the shot came from
    ih = cs.example_problem()
    rng = np.random.default_rng(4)
    z = 0.9 - 0.5j
    for _ in range(3):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = cs.solve_from_gamma(ih, side, z, c)
        np.testing.assert_allclose(cs.gamma_vec(f, ih, side).vec, c,
                                   atol=1e-12)
    assert integrations == [(side, "boundary")]


def test_u_plus_of_any_v_reads_the_basis(integrations):
    # U_plus(V) = V.init adj(Phi(V.t0)) U_plus for V anchored anywhere
    ih = cs.example_problem()
    z = 1.0 + 2.0j
    cs.monodromy_matrix(ih, z)
    vs = [sv.fundamental(ih.h_plus, z, init=cs.closed_W(t0, z), t0=t0,
                         side="plus", rtol=1e-12, atol=1e-12)
          for t0 in (ih.s_plus, 1.5)]
    del integrations[:]
    want = cs.closed_Uplus(z)
    for v in vs:
        got = cs.u_plus(ih, z, v)
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()
    assert integrations == []


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_cached_basis_matches_fundamental(side):
    # the basis comes from the boundary pairs' integration, which runs closer
    # to sigma; on the fundamental solution's range the two agree
    ih = cs.example_problem()
    h = ih.side(side)
    reg, sing = h.regular_endpoint(side), h.singular_endpoint(side)
    frac = np.concatenate([np.linspace(0.0, 0.999, 25), [1 - 1e-4, 1 - 1e-5]])
    ts = reg + (sing - reg) * frac
    for z in (0.0, 1.0, -2.5 + 0.3j, 0.7 + 4.0j, 8.0j):
        want = sv.fundamental(h, z, init=np.eye(2), t0=reg, side=side,
                              rtol=1e-12, atol=1e-12).eval(ts)
        got = bd.side_basis(ih, side, z).solution.eval(ts)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-10 * scale), z


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_cached_basis_holds_only_solution_columns(side):
    # the functionals are formed in boundary and not kept with the solution
    basis = bd.side_basis(cs.example_problem(), side, 0.4 + 0.9j)
    for chain in basis.solution._dense.segments:
        assert chain.ys.shape[1:] == (4,)
        assert chain.coefs.shape[2:] == (4,)


def test_m_matrix_and_weyl_read_u_minus(integrations):
    ih = cs.example_problem()
    z = 1.0 + 1.0j
    cs.u_minus(ih, z)
    assert integrations == [("minus", "boundary")]
    cs.m_matrix(ih, z)
    cs.weyl_intermediate(ih, z)
    assert integrations == [("minus", "boundary")]


def test_per_z_entries_bounded_and_w_family_kept():
    ih = cs.example_problem()
    fam = cs.w_family_for(ih, "minus")
    built = []
    for k in range(hm_mod.PER_Z_CAP + 10):
        key = (hm_mod.PER_Z_KIND, "minus", complex(k), 1e-12, 1e-12)
        ih.memo(key, lambda: built.append(1) or object())
    assert len(built) == hm_mod.PER_Z_CAP + 10
    assert ih.cache.per_z_size() == hm_mod.PER_Z_CAP
    assert cs.w_family_for(ih, "minus") is fam
    # the oldest entry was evicted, the newest is still there
    ih.memo((hm_mod.PER_Z_KIND, "minus", complex(hm_mod.PER_Z_CAP + 9), 1e-12, 1e-12),
            lambda: built.append(1) or object())
    assert len(built) == hm_mod.PER_Z_CAP + 10
    ih.memo((hm_mod.PER_Z_KIND, "minus", 0j, 1e-12, 1e-12),
            lambda: built.append(1) or object())
    assert len(built) == hm_mod.PER_Z_CAP + 11
    assert ih.cache.per_z_size() == hm_mod.PER_Z_CAP


def test_concurrent_lookups_agree_and_stay_bounded():
    ih = cs.example_problem()
    n_threads = 8
    shared = [(hm_mod.PER_Z_KIND, "plus", complex(k), 1e-12, 1e-12) for k in range(40)]
    seen = [dict() for _ in range(n_threads)]
    errors = []
    barrier = threading.Barrier(n_threads, timeout=60)

    def slow_build():
        time.sleep(1e-3)  # lets other threads miss the same key meanwhile
        return object()

    def worker(i):
        try:
            for _ in range(3):
                for key in shared:
                    seen[i].setdefault(key, set()).add(id(ih.memo(key, slow_build)))
            barrier.wait()
            # then overflow the cap from every thread at once
            for k in range(hm_mod.PER_Z_CAP):
                ih.memo((hm_mod.PER_Z_KIND, "minus", complex(i, k), 1e-12, 1e-12),
                        object)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    # the first object stored under a key is the one every thread got
    for key in shared:
        assert len(set().union(*(s[key] for s in seen))) == 1, key
    assert ih.cache.per_z_size() == hm_mod.PER_Z_CAP


def test_jobs_two_monodromy_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    grid = "0.5+0.5j,-0.3+0.2j"
    assert main(["--output", str(a), "--jobs", "1", "monodromy",
                 "--z-grid", grid]) == 0
    assert main(["--output", str(b), "--jobs", "2", "monodromy",
                 "--z-grid", grid]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("z", [complex("nan"), complex(1.0, float("inf"))])
def test_non_finite_z_rejected_before_lookup(integrations, z):
    ih = cs.example_problem()
    for fn in (cs.monodromy_matrix, cs.u_minus, cs.m_matrix, cs.default_v):
        with pytest.raises(cs.DomainError):
            fn(ih, z)
    with pytest.raises(cs.DomainError):
        cs.solve_from_gamma(ih, "minus", z, [1.0, 0.0])
    with pytest.raises(cs.DomainError):
        cs.gamma_columns(ih, "plus", z, ih.s_plus, np.eye(2))
    with pytest.raises(cs.DomainError):
        cs.fundamental(ih.h_minus, z, side="minus")
    with pytest.raises(cs.DomainError):
        cs.solve_row(ih.h_minus, z, 0.0, [1.0, 0.0], side="minus")
    assert ih.cache.per_z_size() == 0
    assert integrations == []
