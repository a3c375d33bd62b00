"""The per-problem cache: each side's basis and its boundary pairs come from
one integration per z.

Integrations are counted per run of ``solver.integrate_dense`` (one call may
integrate several runs, at one z or at several) and told apart by their
target: a boundary
integration stops at the last Neville node, about 9.5e-8 of the side's
length from sigma, a fundamental one at the 1e-6 cutoff.
"""

import gc
import json
import sys
import threading
import time

import numpy as np
import pytest

import canonsys as cs
from canonsys import _chebpanels as cp
from canonsys import boundary as bd
from canonsys import example as ex
from canonsys import hamiltonian as hm_mod
from canonsys import solver as sv
from canonsys.cli import main
from conftest import count_calls, indivisible_problem_dict


def _kind(run):
    """(side, kind) of one run, kind 'boundary' or 'fundamental'."""
    h = run.h
    side = "minus" if h.interval[0] == 0.0 else "plus"
    sing = h.singular_endpoint(side)
    near = min(abs(t - sing) for t in run.targets) < 3e-7 * h.length
    return side, "boundary" if near else "fundamental"


@pytest.fixture()
def batches(monkeypatch):
    """List of the (side, kind) of the runs of each integrate_dense call."""
    calls = []
    orig = sv.integrate_dense

    def counted(runs, **kwargs):
        calls.append([_kind(run) for run in runs])
        return orig(runs, **kwargs)

    monkeypatch.setattr(sv, "integrate_dense", counted)
    return calls


@pytest.fixture()
def integrations(monkeypatch):
    """List of (side, kind) per integrated run, over all calls."""
    calls = []
    orig = sv.integrate_dense

    def counted(runs, **kwargs):
        calls.extend(_kind(run) for run in runs)
        return orig(runs, **kwargs)

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
    # U_plus(V) = V.init adj(Phi(V.anchor_t)) U_plus for V anchored anywhere
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
    for chain in basis.solution.segments:
        assert chain.ys.shape[1:] == (4,)
        assert chain.coefs.shape[2:] == (4,)


def test_monodromy_evaluates_no_chain_at_the_anchor(monkeypatch):
    # W(s_plus) is the prefactor times V(s_plus) = I, V's start value
    ih = cs.example_problem()
    cs.monodromy_matrix(ih, 0.2 + 0.1j)  # builds the plans and w-families
    # every Chebyshev evaluation, of a PanelFunction or of the rows the
    # limits read, sums its series in cp.series_values
    calls = []
    series_values = cp.series_values

    def counted(coefs, a, b, ts):
        calls.append(np.size(ts))
        return series_values(coefs, a, b, ts)

    monkeypatch.setattr(cp, "series_values", counted)
    z = 0.7 + 0.3j
    cs.monodromy_matrix(ih, z)
    # only the limits, at both sides' extrapolation nodes: the halves the
    # plus side splits are in its plan, with w_Delta^T H at their nodes
    assert calls == [2 * (bd.K_NODES + 1)]
    del calls[:]
    cs.monodromy_matrix(ih, z)
    assert calls == []


def test_validation_integrations(integrations):
    # per grid z: both bases and both midpoint runs of the interface check;
    # z = 0 and the kernel's 8 points: both bases each
    assert cs.run_validation()["pass"]
    assert len(integrations) == 6 * 4 + 2 + 8 * 2


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
        key = (hm_mod.PER_Z_KIND, "minus", complex(k))
        ih.memo(key, lambda: built.append(1) or object())
    assert len(built) == hm_mod.PER_Z_CAP + 10
    assert ih.cache.per_z_size() == hm_mod.PER_Z_CAP
    assert cs.w_family_for(ih, "minus") is fam
    # the oldest entry was evicted, the newest is still there
    ih.memo((hm_mod.PER_Z_KIND, "minus", complex(hm_mod.PER_Z_CAP + 9)),
            lambda: built.append(1) or object())
    assert len(built) == hm_mod.PER_Z_CAP + 10
    ih.memo((hm_mod.PER_Z_KIND, "minus", 0j),
            lambda: built.append(1) or object())
    assert len(built) == hm_mod.PER_Z_CAP + 11
    assert ih.cache.per_z_size() == hm_mod.PER_Z_CAP


def test_concurrent_lookups_agree_and_stay_bounded():
    ih = cs.example_problem()
    n_threads = 8
    shared = [(hm_mod.PER_Z_KIND, "plus", complex(k)) for k in range(40)]
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
                ih.memo((hm_mod.PER_Z_KIND, "minus", complex(i, k)), object)
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


# ---------------------------------------------------------------------------
# side plans: the z-independent part of a run from the regular endpoint

# monodromy_matrix of the example, recorded while every z still evaluated H,
# the w-functions and the first panels afresh
RECORDED_W = [
    ((-2.2645851311472676-0.6240297126376619j),
     [(-0.450253192496927-1.4813670606574671j), (-1.464684049772099+0.9496841357285812j),
      (1.8537629844396568+0.291195088215749j), (-0.45025319249692475-1.481367060657468j)]),
    ((-0.264926685992954+1.9725116871985726j),
     [(-10.33156325857101-8.039211801360171j), (4.742590482730783-4.624549949188266j),
      (-13.06398221169636+22.287442413844563j), (-10.331563258571016-8.039211801360167j)]),
    ((-2.301879964037429+1.2291907348627271j),
     [(-1.4532681767796707+4.922365136706032j), (-3.6461344902222836-2.8370740412592395j),
      (5.8510353501095755-0.6288268568000837j), (-1.4532681767796722+4.922365136706032j)]),
    ((-1.8499147432245122-2.396900452918679j),
     [(31.37321885241678-33.951545427412846j), (-31.412418849398232-16.311116465321195j),
      (31.984832889159364+51.210007210122505j), (31.373218852416812-33.951545427412796j)]),
    ((0.049709212231411115+0.0591891765199386j),
     [(0.9993251961201542+0.003927844602854489j), (0.033033019303856645+0.039521456216446864j),
      (0.09995099205563425+0.11806911635781298j), (0.9993251961201547+0.003927844602854491j)]),
    ((1.3949173185246435-0.20985703290321167j),
     [(1.2430155373695915+0.17508424370597442j), (1.2101926659825595-0.14837566042504127j),
      (0.37534467225830587+0.40568489463204405j), (1.2430155373695913+0.17508424370597434j)]),
    ((-1.6896459888398345-2.328046751019579j),
     [(34.22287211112989-19.341642009178553j), (-20.892830110110445-20.63361183931301j),
      (12.389548554617901+51.128159298127564j), (34.22287211112987-19.34164200917857j)]),
    ((3.415874503203998-2.347870360513368j),
     [(-34.65382455535213-33.92701041352575j), (-36.18748563768512+23.164822276093876j),
      (28.547189639691734-46.70428820482593j), (-34.653824555352145-33.92701041352574j)]),
    ((0.15492226199747972-2.584783117117074j),
     [(-50.838485275722206-18.406746479327975j), (-12.488198111203+30.80775834023733j),
      (26.808382799031254-83.72993698933854j), (-50.83848527572222-18.40674647932798j)]),
    ((3.466536824307692+2.324267747569154j),
     [(-29.740738638392234+35.648936009496744j), (-36.818945937308435-18.6704628816334j),
      (31.59864836270572+41.568001116346586j), (-29.74073863839225+35.64893600949675j)]),
    ((1.75+0j),
     [(0.7360091286110102+0j), (1.3064779796335098+0j),
      (-0.3507832276896235+0j), (0.7360091286110104+0j)]),
    ((-2.5+0j),
     [(-0.6672318953284843+0j), (-0.5785666423464523+0j),
      (0.9589242746631382+0j), (-0.6672318953284831+0j)]),
]


def _plan(ih, side):
    return ih.memo(("plan", side), lambda: pytest.fail("plan not kept"))


FAR_Z = 28.0 + 28.0j  # splits panel 0 of both sides beyond the plans
NEAR_Z = 0.5 + 0.5j   # splits no panel beyond them


def test_fresh_z_evaluates_h_only_on_split_panels(monkeypatch):
    ih = cs.example_problem()
    sizes, calls = [], []
    matrix = cs.Hamiltonian.matrix

    def counted(self, ts):
        sizes.append(np.size(ts))
        return matrix(self, ts)

    monkeypatch.setattr(cs.Hamiltonian, "matrix", counted)
    count_calls(monkeypatch, sv, "_panel_bases", calls)
    count_calls(monkeypatch, bd, "neville_limit", calls)
    n = cp.DEGREE + 1
    cs.monodromy_matrix(ih, 0.3 - 1.1j)
    # the first z builds both plans: H on the first round's panels, one
    # probe solve per side, and H on the 48 nodes of the halves of the one
    # plus-side panel the probe splits; then one round and one tableau
    plans = [_plan(ih, side) for side in ("minus", "plus")]
    assert sizes == [n * len(plans[0].a), n * (len(plans[1].a) - 1), 2 * n]
    assert calls == ["_panel_bases"] * 3 + ["neville_limit"]
    # every later fresh z, whatever came before, solves the plans' panels
    # in one round and evaluates no H; only a far z splits beyond them
    for z in (-1.7 + 0.8j, 0.0, FAR_Z, 1e-4, 10j, 2.2 - 3.0j):
        del sizes[:], calls[:]
        cs.monodromy_matrix(ih, z)
        if z == FAR_Z:
            assert sizes and len(calls) > 2
        else:
            assert sizes == [], z
            assert calls == ["_panel_bases", "neville_limit"], z


def test_diagonality_checked_once_per_side(monkeypatch):
    calls = []
    is_zero = hm_mod.PackedEntry.is_zero
    monkeypatch.setattr(hm_mod.PackedEntry, "is_zero", property(
        lambda entry: calls.append(entry) or is_zero.fget(entry)))
    ih = cs.example_problem()
    for z in (0.3 - 1.1j, 0.5j, 2.0 + 1.0j, -1.5 + 0.2j):
        cs.monodromy_matrix(ih, z)
    assert len(calls) <= 2


def _outcome(ih, side, z):
    """A side's basis arrays at z, or the type and text of its error."""
    try:
        return _basis_arrays(bd.side_basis(ih, side, z))
    except cs.CanonsysError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_split_limit_counts_only_splits_beyond_the_plan(monkeypatch):
    # the plans hold the halves most z split, so with no split allowed a
    # near z still succeeds, and a far z ends as on a fresh problem
    ih = cs.example_problem()
    want = [_outcome(cs.example_problem(), side, NEAR_Z)
            for side in ("minus", "plus")]
    cs.monodromy_matrix(ih, 0.3 - 1.1j)
    monkeypatch.setattr(sv, "MAX_SPLITS", 0)
    for side, w in zip(("minus", "plus"), want):
        _assert_same_bits(w, _outcome(ih, side, NEAR_Z))
        got = _outcome(ih, side, FAR_Z)
        assert got.startswith("IntegrationError: ")
        assert got == _outcome(cs.example_problem(), side, FAR_Z)


@pytest.mark.parametrize("max_splits", [0, 1, 2])
def test_split_limit_errors_match_a_fresh_problem(monkeypatch, max_splits):
    # the plan does not depend on the z a problem served before, so a
    # bounded split count ends a chain as on a fresh problem
    ih = cs.example_problem()
    bd.side_bases(ih, [FAR_Z])
    plans = tuple(_plan(ih, side) for side in ("minus", "plus"))
    monkeypatch.setattr(sv, "MAX_SPLITS", max_splits)
    for z in (NEAR_Z, 29.0 + 27.0j):
        for side in ("minus", "plus"):
            got = _outcome(ih, side, z)
            want = _outcome(cs.example_problem(), side, z)
            if isinstance(want, str):
                assert got == want
            else:
                _assert_same_bits(want, got)
    assert all(_plan(ih, side) is plan
               for side, plan in zip(("minus", "plus"), plans))


@pytest.mark.parametrize("order", ["far first", "far last", "threads"])
def test_plan_is_fixed_whatever_z_come_first(order):
    zs = [FAR_Z, NEAR_Z, 0.0]
    if order == "far last":
        zs.reverse()
    want = {z: [_basis_arrays(b)
                for b in bd.side_bases(cs.example_problem(), [z])[0]]
            for z in zs}
    ih = cs.example_problem()
    got, plans, errors = {}, [], []

    def ask(z):
        got[z] = [_basis_arrays(b) for b in bd.side_bases(ih, [z])[0]]
        plans.append(tuple(_plan(ih, side) for side in ("minus", "plus")))

    if order == "threads":
        barrier = threading.Barrier(len(zs), timeout=60)

        def worker(z):
            try:
                barrier.wait()
                ask(z)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(z,)) for z in zs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
    else:
        for z in zs:
            ask(z)
    assert not errors
    for z in zs:
        for w, g in zip(want[z], got[z]):
            _assert_same_bits(w, g)
    # one plan per side, the same object after every z, and read-only
    assert all(p[0] is plans[0][0] and p[1] is plans[0][1] for p in plans)
    for plan in plans[0]:
        for arr in (plan.a, plan.b, plan.hm, plan.wh, plan.w_reg,
                    *plan.schur):
            assert not arr.flags.writeable


def test_plan_built_once_per_side(monkeypatch):
    built = []
    first_round = sv.first_round

    def counted(h, t0, t1, sing):
        built.append(t0)
        return first_round(h, t0, t1, sing)

    monkeypatch.setattr(sv, "first_round", counted)
    ih = cs.example_problem()
    for z in (0.5, 1.0 - 2.0j, -3.0 + 0.5j):
        cs.monodromy_matrix(ih, z)
    assert sorted(built) == [ih.s_minus, ih.s_plus]
    for side in ("minus", "plus"):
        plan = _plan(ih, side)
        assert isinstance(plan, bd.SidePlan)
        for z in (0.5, 1.0 - 2.0j, -3.0 + 0.5j):
            # every panel the chain holds of its first round is the plan's
            chain = bd.side_basis(ih, side, z).solution.segments[0]
            kept = chain.origin[chain.origin >= 0]
            assert len(kept) and np.array_equal(
                chain.breaks[:-1][chain.origin >= 0], plan.a[kept])
        for arr in (plan.a, plan.b, plan.hm, plan.wh, plan.w_reg,
                    *plan.schur):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0


def test_fresh_z_reads_the_plan_tables_beside_coupled_panels(monkeypatch):
    # a fresh z solves both sides' plans in one round; the minus side's
    # diagonal panels read its plan's Schur tables though the indivisible
    # plus side's panels, in the same batch, are coupled
    ih = cs.problem_from_dict(indivisible_problem_dict(0.7, "plus"))
    cs.monodromy_matrix(ih, 0.5)
    assert len(_plan(ih, "minus").schur[0]) == 23
    assert len(_plan(ih, "plus").schur[0]) == 0
    rounds, formed = [], []
    panel_bases, schur = sv._panel_bases, sv._schur_factors

    def counted_round(*args):
        rounds.append(len(args[2]))
        return panel_bases(*args)

    def counted_schur(hw, hm):
        formed.append((len(rounds), len(hw)))
        return schur(hw, hm)

    monkeypatch.setattr(sv, "_panel_bases", counted_round)
    monkeypatch.setattr(sv, "_schur_factors", counted_schur)
    cs.monodromy_matrix(ih, 1.1 - 0.7j)
    plans = sum(len(_plan(ih, side).a) for side in ("minus", "plus"))
    assert rounds[0] == plans
    assert sum(n for r, n in formed if r == 1) == 0


def test_threads_on_a_fresh_problem_build_each_plan_once(monkeypatch):
    built = []
    first_round = sv.first_round

    def counted(h, t0, t1, sing):
        built.append(t0)
        return first_round(h, t0, t1, sing)

    monkeypatch.setattr(sv, "first_round", counted)
    zs = [complex(0.5 * k - 2.0, 0.3 * k - 1.2) for k in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            ih = cs.example_problem()
            del built[:]
            errors = []
            barrier = threading.Barrier(len(zs), timeout=60)

            def worker(z):
                try:
                    barrier.wait()
                    cs.monodromy_matrix(ih, z)
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(z,)) for z in zs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert sorted(built) == [ih.s_minus, ih.s_plus], trial
    finally:
        sys.setswitchinterval(old)


def test_runs_from_other_anchors_keep_no_plan():
    ih = cs.example_problem()
    cs.gamma_columns(ih, "minus", 0.5j, 0.3, np.eye(2))  # 0.3: no break
    cs.fundamental(ih.h_plus, 0.5j, side="plus")
    cs.solve_row(ih.h_minus, 0.5j, 0.0, [1.0, 0.0], side="minus")
    for side in ("minus", "plus"):
        assert ("plan", side) not in ih.cache


@pytest.fixture()
def firsts(monkeypatch):
    """List of (anchor, first round passed) of every integrated run."""
    calls = []
    orig = sv.integrate_dense

    def counted(runs, **kwargs):
        calls.extend((run.t0, run.first) for run in runs)
        return orig(runs, **kwargs)

    monkeypatch.setattr(sv, "integrate_dense", counted)
    return calls


def _midpoints(ih):
    return [(side, 0.5 * sum(ih.side(side).interval))
            for side in ("minus", "plus")]


def _anchored_pairs(ih, zs, anchors):
    """gamma_s, gamma_r, err_est and the samples of every pair of runs from
    every (side, t) of ``anchors`` at every z, each anchored at the side
    basis's value at t, integrated in one batch."""
    reqs = [(side, z, t, bd.side_basis(ih, side, z).solution.eval(t).T)
            for z in zs for side, t in anchors]
    return _pair_arrays(bd.gamma_columns_batch(ih, reqs))


def _pair_arrays(found):
    """gamma_s, gamma_r, err_est and the samples of every pair of every
    request's list in ``found``."""
    return [np.concatenate([[p.gamma_s, p.gamma_r, p.err_est],
                            np.array(p.samples, dtype=complex).ravel()])
            for pairs in found for p in pairs]


def _tail_off(monkeypatch):
    monkeypatch.setattr(bd, "_plan_tail", lambda *args: None)


_rng_mid = np.random.default_rng(20261021)
MID_ZS = ([complex(x, y) for x, y in zip(_rng_mid.uniform(-8, 8, 8),
                                         _rng_mid.uniform(-5, 5, 8))]
          + [0.0, 1.0, 1j, 20.0 + 15.0j])


def test_midpoint_runs_start_from_the_plan_tail(monkeypatch, firsts):
    ih = cs.example_problem()
    got = _anchored_pairs(ih, MID_ZS, _midpoints(ih))
    for side, t in _midpoints(ih):
        plan = _plan(ih, side)
        tails = [first for t0, first in firsts if t0 == t]
        assert len(tails) == len(MID_ZS)
        for first in tails:
            # views of the plan from its break t on
            k = int(np.flatnonzero(plan.a == t)[0])
            assert first.a.base is plan.a and first.a[0] == t
            assert first.wh.base is plan.wh and len(first.wh) == len(plan.a) - k
            assert len(first.schur[0]) < len(plan.schur[0])
            assert all(tab.base is full for tab, full
                       in zip(first.schur, plan.schur))
    _tail_off(monkeypatch)
    want = _anchored_pairs(cs.example_problem(), MID_ZS, _midpoints(ih))
    _assert_same_bits(want, got)


def test_midpoint_run_evaluates_no_h_and_forms_no_table(monkeypatch):
    ih = cs.example_problem()
    bd.side_bases(ih, [1j])
    calls = []
    count_calls(monkeypatch, sv, "_schur_factors", calls)
    matrix = cs.Hamiltonian.matrix
    monkeypatch.setattr(cs.Hamiltonian, "matrix",
                        lambda self, ts: calls.append("matrix")
                        or matrix(self, ts))
    _anchored_pairs(ih, [1j], _midpoints(ih))
    assert calls == []


@pytest.mark.parametrize("side, t, is_break", [("minus", 0.875, True),
                                               ("plus", 1.125, True),
                                               ("minus", 0.3, False)])
def test_near_breaks_and_other_anchors_keep_their_own_round(side, t, is_break,
                                                            monkeypatch,
                                                            firsts):
    # 0.875 and 1.125 are plan breaks, but closer to sigma than 0.2 of the
    # side's length, so their runs end at another last node
    z = 0.7 - 1.3j
    ih = cs.example_problem()
    cs.monodromy_matrix(ih, z)
    assert (t in _plan(ih, side).a) == is_break
    got = _anchored_pairs(ih, [z], [(side, t)])
    assert [first for t0, first in firsts if t0 == t] == [None]
    _tail_off(monkeypatch)
    _assert_same_bits(_anchored_pairs(cs.example_problem(), [z], [(side, t)]),
                      got)


def test_indivisible_side_interior_run_keeps_its_own_chains(monkeypatch,
                                                            firsts):
    # the indivisible plus side's run from its midpoint integrates only
    # back to the regular endpoint; the minus side's takes the plan's tail
    z = 0.5 + 0.5j
    ih = cs.problem_from_dict(indivisible_problem_dict(0.7, "plus"))
    got = _anchored_pairs(ih, [z], _midpoints(ih))
    (_, t_minus), (_, t_plus) = _midpoints(ih)
    assert [first for t0, first in firsts if t0 == t_plus] == [None]
    assert all(first is not None for t0, first in firsts if t0 == t_minus)
    # anchored at the basis's value, the plus pairs are its values at the
    # regular endpoint: the identity's rows
    np.testing.assert_allclose(np.array([g[:2] for g in got[2:]]),
                               np.eye(2), atol=1e-9)
    _tail_off(monkeypatch)
    ih = cs.problem_from_dict(indivisible_problem_dict(0.7, "plus"))
    _assert_same_bits(_anchored_pairs(ih, [z], _midpoints(ih)), got)


def test_runs_from_many_anchors_add_no_fixed_key():
    ih = cs.example_problem()
    cs.monodromy_matrix(ih, 0.5j)
    fixed, per_z = set(ih.cache._fixed), ih.cache.per_z_size()
    anchors = [("minus", t) for t in np.linspace(0.01, 0.49, 25)]
    anchors += [("plus", t) for t in np.linspace(1.51, 1.99, 25)]
    for side, t in anchors:
        cs.gamma_columns(ih, side, 0.5j, float(t), np.eye(2))
    assert set(ih.cache._fixed) == fixed
    assert ih.cache.per_z_size() == per_z


# every break of a side plan from which a run ends at the plan's last
# node: the midpoints and the breaks next to them toward sigma
SERVING = [("minus", 0.5), ("minus", 0.75), ("plus", 1.5), ("plus", 1.25)]


def _reuse_off(monkeypatch):
    monkeypatch.setattr(bd, "_basis_tail", lambda *args: None)


def _interface_pairs(monkeypatch):
    """The arrays of every pair of ``run_validation``'s interface runs."""
    found = []
    orig = bd.gamma_columns_batch

    def kept(ih, requests):
        out = orig(ih, requests)
        found.extend(_pair_arrays(out))
        return out

    with monkeypatch.context() as m:
        m.setattr(bd, "gamma_columns_batch", kept)
        assert cs.run_validation()["pass"]
    return found


def test_runs_at_a_cached_z_reuse_the_basis_to_the_same_bits(monkeypatch):
    got = _anchored_pairs(cs.example_problem(), MID_ZS, SERVING)
    validation = _interface_pairs(monkeypatch)
    assert len(validation) == 2 * 2 * len(ex.DEFAULT_Z_GRID)
    _reuse_off(monkeypatch)
    _assert_same_bits(_anchored_pairs(cs.example_problem(), MID_ZS, SERVING),
                      got)
    _assert_same_bits(_interface_pairs(monkeypatch), validation)


def _panel_rows(monkeypatch):
    """List of the number of panels of each ``_panel_bases`` call."""
    rows = []
    orig = sv._panel_bases

    def counted(z, zz, a, *args):
        rows.append(len(a))
        return orig(z, zz, a, *args)

    monkeypatch.setattr(sv, "_panel_bases", counted)
    return rows


def test_runs_at_a_cached_z_solve_no_panel(monkeypatch):
    ih = cs.example_problem()
    bd.side_bases(ih, MID_ZS)
    rows = _panel_rows(monkeypatch)
    _anchored_pairs(ih, MID_ZS, SERVING)
    assert rows == []
    # with the reuse off, the same runs collocate their tails
    _reuse_off(monkeypatch)
    _anchored_pairs(ih, MID_ZS[:1], SERVING)
    assert sum(rows) > 0


def test_runs_without_a_cached_basis_collocate_to_the_same_bits(monkeypatch):
    z = MID_ZS[0]
    ih = cs.example_problem()
    reqs = [(side, z, t, bd.side_basis(ih, side, z).solution.eval(t).T)
            for side, t in SERVING]
    want = _pair_arrays(bd.gamma_columns_batch(ih, reqs))
    rows = _panel_rows(monkeypatch)
    # never built: a fresh problem builds no basis for the runs
    fresh = cs.example_problem()
    _assert_same_bits(want, _pair_arrays(bd.gamma_columns_batch(fresh, reqs)))
    assert sum(rows) > 0
    assert fresh.cache.per_z_size() == 0
    # evicted by the bases of PER_Z_CAP / 2 other z
    bd.side_bases(ih, [z + k + 1 for k in range(hm_mod.PER_Z_CAP // 2)])
    assert all((hm_mod.PER_Z_KIND, side, z) not in ih.cache
               for side in ("minus", "plus"))
    rows.clear()
    _assert_same_bits(want, _pair_arrays(bd.gamma_columns_batch(ih, reqs)))
    assert sum(rows) > 0
    assert all((hm_mod.PER_Z_KIND, side, z) not in ih.cache
               for side in ("minus", "plus"))


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_kept_propagators_are_read_only_and_the_chains(side):
    z = 0.7 - 1.3j
    basis = bd.side_basis(cs.example_problem(), side, z)
    seg, = basis.solution.segments
    a, b = seg.breaks[:-1], seg.breaks[1:]
    assert seg.phi.shape == (len(a), 2, cp.DEGREE + 1, 2)
    assert not seg.phi.flags.writeable
    with pytest.raises(ValueError):
        seg.phi[0, 0, 0, 0] = 0.0
    # the propagators the chain was formed from, solved afresh
    hm = seg.hm.reshape(len(a), cp.DEGREE + 1, 2, 2)
    d = sv._diagonal(hm)
    tables = sv._schur_factors(0.5 * (b[d] - a[d]), hm[d])
    phi, _ = sv._panel_bases(z, z * z, a, b, hm, [tables])
    _assert_same_bits([phi], [seg.phi])


def test_tails_kept_only_for_serving_breaks(monkeypatch):
    ih = cs.example_problem()
    cs.monodromy_matrix(ih, 0.5j)
    fixed = set(ih.cache._fixed)
    anchors = SERVING + [("minus", 0.875), ("plus", 1.125), ("minus", 0.3),
                         ("plus", 1.7)]
    _anchored_pairs(ih, [0.5j], anchors)
    tails = set(ih.cache._fixed) - fixed
    assert sorted((key[0], key[1], key[2]) for key in tails) == sorted(
        ("tail", side, t) for side, t in SERVING)
    # the break test and w_n at the anchor run once per problem
    calls = []
    count_calls(monkeypatch, sv, "_initial_breaks", calls)
    _anchored_pairs(ih, [0.5j, 1.0], SERVING)
    assert calls == []
    assert set(ih.cache._fixed) - fixed == tails


def _scaled_problem_dict():
    def side(interval):
        return {"kind": "piecewise", "pieces": [{
            "interval": interval,
            "h1": {"type": "power", "c": 2.0, "center": 1.0, "exponent": 2},
            "h2": {"type": "power", "c": 0.5, "center": 1.0, "exponent": -2}}]}

    problem = cs.example_problem_dict()
    problem["h_minus"], problem["h_plus"] = side([0.0, 1.0]), side([1.0, 2.0])
    return problem


@pytest.mark.parametrize("free_first", [False, True])
def test_problems_never_share_a_plan(free_first):
    z = 0.9 - 1.3j
    first = cs.example_problem()
    cs.monodromy_matrix(first, z)
    first_plans = [_plan(first, side) for side in ("minus", "plus")]
    if free_first:
        del first, first_plans
        gc.collect()
    second = cs.problem_from_dict(_scaled_problem_dict())
    got = cs.monodromy_matrix(second, z)
    for side in ("minus", "plus"):
        plan = _plan(second, side)
        if not free_first:
            assert all(plan is not p for p in first_plans)
        h = second.side(side)
        t = cp.nodes_between(plan.a, plan.b)
        np.testing.assert_array_equal(
            plan.hm, h.matrix(t.ravel()).reshape(t.shape + (2, 2)))
    want = cs.monodromy_matrix(cs.problem_from_dict(_scaled_problem_dict()), z)
    np.testing.assert_array_equal(got, want)


def test_monodromy_matches_recorded_values():
    ih = cs.example_problem()
    for z, w in RECORDED_W:
        want = np.array(w).reshape(2, 2)
        got = cs.monodromy_matrix(ih, z)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), z


def test_threads_building_one_fresh_problem_match_serial():
    zs = [complex(0.4 * k - 1.5, 0.3 * k - 1.0) for k in range(8)]

    def bases(ih, z):
        out = []
        for side in ("minus", "plus"):
            basis = bd.side_basis(ih, side, z)
            out += [basis.matrix, basis.solution.eval(ih.side(side).interval[0] + 0.3)]
        return out

    serial_ih = cs.example_problem()
    serial = [bases(serial_ih, z) for z in zs]
    ih = cs.example_problem()
    got = [None] * len(zs)
    errors = []
    barrier = threading.Barrier(len(zs), timeout=60)

    def worker(i):
        try:
            barrier.wait()
            got[i] = bases(ih, zs[i])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(zs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    for want, have in zip(serial, got):
        for a, b in zip(want, have):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# both sides of a z in one batch: a side's basis is the same bits built
# alone or with the other side, in any order and from any thread

_rng = np.random.default_rng(1719)
BATCH_ZS = ([complex(x, y) for x, y in zip(_rng.uniform(-4, 4, 6),
                                           _rng.uniform(-3, 3, 6))]
            + [0.0, 1.5, -3.25]  # real z
            + [complex(x, y) for x in (-4, 4) for y in (-3, 3)])  # corners


def _basis_arrays(basis):
    """Every array a cached basis holds: its chains and its pairs."""
    out = []
    for seg in basis.solution.segments:
        out += [seg.breaks, seg.ys, seg.hm, seg.coefs, seg.origin]
    for p in basis.pairs:
        out += [np.array([p.gamma_s, p.gamma_r, p.err_est]),
                np.array(p.samples, dtype=complex).reshape(-1)]
    return out


def _assert_same_bits(want, have):
    assert len(want) == len(have)
    for a, b in zip(want, have):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)


def test_joint_and_single_side_builds_give_identical_arrays():
    joint, single = cs.example_problem(), cs.example_problem()
    for i, z in enumerate(BATCH_ZS):
        both, = bd.side_bases(joint, [z])
        sides = ("minus", "plus") if i % 2 else ("plus", "minus")
        alone = {side: bd.side_basis(single, side, z) for side in sides}
        for side, basis in zip(("minus", "plus"), both):
            _assert_same_bits(_basis_arrays(alone[side]), _basis_arrays(basis))
            # the plus side's panel next to its deepest extrapolation node,
            # which every z but 0 splits, stands in the plan as its halves,
            # so every chain holds exactly the plan's panels
            seg, plan = basis.solution.segments[0], _plan(joint, side)
            assert seg.origin.tolist() == list(range(len(plan.a)))


def test_threads_asking_for_one_or_both_sides_match_serial():
    z = 0.35 - 1.4j
    serial = cs.example_problem()
    want = {side: _basis_arrays(basis) for side, basis
            in zip(("minus", "plus"), bd.side_bases(serial, [z])[0])}
    ih = cs.example_problem()
    cs.w_family_for(ih, "minus")
    cs.w_family_for(ih, "plus")
    asks = [("minus", "plus"), ("minus",), ("plus",), ("plus", "minus")] * 2
    got = [None] * len(asks)
    errors = []
    barrier = threading.Barrier(len(asks), timeout=60)

    def worker(i):
        try:
            barrier.wait()
            got[i], = bd.side_bases(ih, [z], asks[i])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(asks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    for sides, bases in zip(asks, got):
        for side, basis in zip(sides, bases):
            _assert_same_bits(want[side], _basis_arrays(basis))
    assert ih.cache.per_z_size() == 2


def test_fresh_monodromy_z_integrates_both_sides_in_one_call(batches):
    ih = cs.example_problem()
    cs.monodromy_matrix(ih, 0.6 + 0.9j)
    assert batches == [[("minus", "boundary"), ("plus", "boundary")]]
    del batches[:]
    cs.u_minus(ih, -1.1 + 0.2j)
    assert batches == [[("minus", "boundary")]]
    # the other side of that z alone, then both of it from the cache
    cs.monodromy_matrix(ih, -1.1 + 0.2j)
    assert batches == [[("minus", "boundary")], [("plus", "boundary")]]


@pytest.mark.parametrize("call", [
    lambda ih, z: cs.solve_from_gamma(ih, "plus", z, [1.0, 0.5j]),
    lambda ih, z: cs.gamma_vec(cs.solve_from_gamma(ih, "minus", z, [1.0, 0.0]),
                               ih, "minus"),
    lambda ih, z: cs.m_matrix(ih, z),
    lambda ih, z: cs.weyl_intermediate(ih, z),
    lambda ih, z: cs.assemble_W(ih, z, 0.5),
], ids=["solve_from_gamma", "gamma_vec", "m_matrix", "weyl", "assemble_left"])
def test_single_side_readers_integrate_only_their_side(call, batches):
    ih = cs.example_problem()
    call(ih, 0.8 + 0.7j)
    assert len(batches) == 1 and len(batches[0]) == 1
    assert ih.cache.per_z_size() == 1


# ---------------------------------------------------------------------------
# many z in one batch: a basis is the same bits built in a batch of any size
# as alone; a z that fails leaves the others of its batch cached

def test_batch_bound_within_half_the_cache():
    assert 1 <= hm_mod.PER_Z_BATCH <= hm_mod.PER_Z_CAP // 2


def _coupled_problem():
    # the example with a plus side c |t - 1|^-2 xi xi^T at angle 0.7: its
    # panels have a non-zero off-diagonal and solve the 2n x 2n system, the
    # minus side's the Schur complement
    return cs.problem_from_dict(indivisible_problem_dict(0.7, "plus"))


# the coupled side takes hundreds of panels at |z| ~ 4: smaller z, real and 0
COUPLED_ZS = [0.3 + 0.4j, -0.5 - 0.2j, 0.0, 1.5, -0.8 + 1.1j]


@pytest.mark.parametrize("make, zs", [(cs.example_problem, BATCH_ZS),
                                      (_coupled_problem, COUPLED_ZS)],
                         ids=["example", "coupled"])
@pytest.mark.parametrize("per_batch", [2, None, len(BATCH_ZS)])
def test_batched_and_single_builds_give_identical_arrays(make, zs, per_batch,
                                                         monkeypatch):
    ih, single = make(), make()
    if per_batch is not None:
        monkeypatch.setattr(bd, "PER_Z_BATCH", per_batch)
    batched = bd.side_bases(ih, zs)
    assert ih.cache.per_z_size() == 2 * len(zs)
    if make is _coupled_problem:
        chain = batched[0][1].solution.segments[0]
        assert (chain.hm[:, 0, 1] != 0.0).all()
    for z, bases in zip(zs, batched):
        for side, basis in zip(("minus", "plus"), bases):
            _assert_same_bits(_basis_arrays(bd.side_basis(single, side, z)),
                              _basis_arrays(basis))
        assert bases[0].pairs[0].z == z


def test_warmed_grid_integrates_each_basis_once_in_batches(batches):
    ih = cs.example_problem()
    zs = BATCH_ZS + BATCH_ZS[:3]  # repeats are built once
    bd.side_bases(ih, zs)
    # chunks of 4 z: the last holds one missing z and three cached ones
    n_z = len(BATCH_ZS)
    assert [len(b) for b in batches] == [
        2 * min(hm_mod.PER_Z_BATCH, n_z - lo)
        for lo in range(0, n_z, hm_mod.PER_Z_BATCH)]
    assert ih.cache.per_z_size() == 2 * n_z
    del batches[:]
    for z in zs:
        cs.monodromy_matrix(ih, z)
    assert batches == []
    # cached sides are not built again; a missing one is, alone, before its
    # chunk is yielded
    chunks = bd.z_chunks(ih, [BATCH_ZS[0], 0.25j], ("plus",))
    assert next(chunks) == [BATCH_ZS[0], 0.25j]
    assert batches == [[("plus", "boundary")]]
    assert list(chunks) == []


def test_validation_integrates_each_basis_once_in_few_calls(monkeypatch):
    calls = []
    orig = sv.integrate_dense

    def counted(runs, **kwargs):
        # (side, z, whether the run starts at the regular endpoint)
        calls.append([(_kind(run)[0], complex(run.z), run.t0 in (0.0, 2.0))
                      for run in runs])
        return orig(runs, **kwargs)

    monkeypatch.setattr(sv, "integrate_dense", counted)
    assert cs.run_validation()["pass"]
    assert len(calls) <= 6
    bases = [(side, z) for runs in calls for side, z, basis in runs if basis]
    assert len(bases) == len(set(bases)) == 2 * (6 + 1 + 8)
    # the midpoint runs of the 6 grid z, PER_Z_BATCH z per call, each call
    # holding both sides of every z in it
    mids = [runs for runs in calls if not any(basis for *_, basis in runs)]
    assert [len(runs) for runs in mids] == [2 * hm_mod.PER_Z_BATCH, 4]
    for runs in mids:
        zs = {z for _, z, _ in runs}
        assert sorted((z.real, z.imag, side) for side, z, _ in runs) == sorted(
            (z.real, z.imag, side) for z in zs for side in ("minus", "plus"))


def test_threads_warming_overlapping_grids_match_serial():
    zs = BATCH_ZS[:6]
    serial = cs.example_problem()
    want = {z: [_basis_arrays(b) for b in bases]
            for z, bases in zip(zs, bd.side_bases(serial, zs))}
    ih = cs.example_problem()
    cs.w_family_for(ih, "minus")
    cs.w_family_for(ih, "plus")
    grids = [zs[i % 3:i % 3 + 4] for i in range(6)] + [zs[::-1], zs[1::2]]
    got = [None] * len(grids)
    errors = []
    barrier = threading.Barrier(len(grids), timeout=60)

    def worker(i):
        try:
            barrier.wait()
            if i % 2:  # every chunk built before any is read
                list(bd.z_chunks(ih, grids[i]))
            got[i] = bd.side_bases(ih, grids[i])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    for grid, bases in zip(grids, got):
        for z, pair in zip(grid, bases):
            for w, basis in zip(want[z], pair):
                _assert_same_bits(w, _basis_arrays(basis))
    assert ih.cache.per_z_size() == 2 * len(zs)


# 700j overflows on the minus side: an integration failure
FAILING_Z = 700j
MIXED_GRID = [0.5 + 0.5j, FAILING_Z, -1.2 + 0.3j, 2.0]


def _error_alone(z):
    with pytest.raises(cs.CanonsysError) as exc:
        cs.monodromy_matrix(cs.example_problem(), z)
    return exc.value


def test_failing_z_raises_its_own_error_and_leaves_the_others_cached(batches):
    want = _error_alone(FAILING_Z)
    assert isinstance(want, cs.SingularityProximityError)
    ih = cs.example_problem()
    with pytest.raises(type(want)) as exc:
        bd.side_bases(ih, MIXED_GRID)
    assert str(exc.value) == str(want)
    good = [z for z in MIXED_GRID if z != FAILING_Z]
    assert ih.cache.per_z_size() == 2 * len(good)
    single = cs.example_problem()
    for z in good:
        for side in ("minus", "plus"):
            _assert_same_bits(_basis_arrays(bd.side_basis(single, side, z)),
                              _basis_arrays(bd.side_basis(ih, side, z)))
    # chunked: the failed batch is built again z by z, the failing z is left
    # uncached and integrated once more at its read, which raises its error
    ih = cs.example_problem()
    del batches[:]
    assert list(bd.z_chunks(ih, MIXED_GRID)) == [MIXED_GRID]
    assert [len(b) for b in batches] == [2 * len(MIXED_GRID)] + [2] * len(
        MIXED_GRID)
    assert ih.cache.per_z_size() == 2 * len(good)
    assert all((hm_mod.PER_Z_KIND, side, FAILING_Z) not in ih.cache
               for side in ("minus", "plus"))
    del batches[:]
    with pytest.raises(type(want)) as exc:
        cs.monodromy_matrix(ih, FAILING_Z)
    assert str(exc.value) == str(want)
    assert [len(b) for b in batches] == [2]


def test_cli_grid_with_a_failing_z_exits_with_its_message(capsys):
    want = _error_alone(FAILING_Z)
    grid = ",".join(repr(z) for z in MIXED_GRID)
    assert main(["monodromy", "--z-grid", grid]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"computation error [{type(want).__name__}]: "
                       f"{want}\n")
    # a z before it that fails only when read (U^+ not finite at 400j)
    # still reports first, as read one z at a time
    first = _error_alone(400j)
    assert isinstance(first, cs.ConditioningError)
    assert main(["monodromy", "--z-grid", f"0.5j,400j,{FAILING_Z!r}"]) == 1
    assert capsys.readouterr().err == (
        f"computation error [ConditioningError]: {first}\n")


def test_long_cli_grid_matches_per_z_output(batches, capsys):
    # 40 z, more than the cache's 32: each chunk is read before the next is
    # built, so no basis is integrated twice
    rng = np.random.default_rng(4040)
    zs = [complex(x, y) for x, y in zip(rng.uniform(-4, 4, 40),
                                        rng.uniform(-3, 3, 40))]
    grid = ",".join(repr(z) for z in zs)
    assert main(["monodromy", "--z-grid", grid, "--emit", "json"]) == 0
    serial = capsys.readouterr().out
    assert len(batches) == -(-len(zs) // hm_mod.PER_Z_BATCH)
    assert sum(len(b) for b in batches) == 2 * len(zs)
    assert main(["--jobs", "2", "monodromy", "--z-grid", grid,
                 "--emit", "json"]) == 0
    assert capsys.readouterr().out == serial
    rows = []
    for z in zs:
        assert main(["monodromy", "--z-grid", repr(z), "--emit", "json"]) == 0
        rows += json.loads(capsys.readouterr().out)
    assert serial == json.dumps(rows, sort_keys=True, indent=2) + "\n"


def test_weyl_grid_reads_left_bases_in_chunks(batches, capsys):
    zs = [z for z in BATCH_ZS if z.imag != 0.0][:6]
    grid = ",".join(repr(z) for z in zs)
    assert main(["weyl", "--z", grid]) == 0
    out = capsys.readouterr().out
    # the left side only, 4 z and then 2 per integration
    assert batches == [[("minus", "boundary")] * 4, [("minus", "boundary")] * 2]
    rows = []
    for z in zs:
        assert main(["weyl", "--z", repr(z)]) == 0
        rows += json.loads(capsys.readouterr().out)
    assert out == json.dumps(rows, sort_keys=True, indent=2) + "\n"
    # a real z exits 1 with its DomainError and prints nothing
    assert main(["weyl", "--z", f"{grid},2.0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("computation error [DomainError]: ")


# ---------------------------------------------------------------------------
# the solver's tolerances are checked before it integrates; the pipeline
# integrates at the one library tolerance and takes none

@pytest.mark.parametrize("kwargs", [
    {"rtol": float("nan")}, {"atol": float("nan")}, {"rtol": -1.0, "atol": -1.0},
    {"rtol": float("inf")}, {"atol": -1e-12}])
def test_bad_tolerances_rejected_before_lookup(kwargs, monkeypatch):
    def collocate(*args, **kwargs):
        raise AssertionError("integrated despite bad tolerances")

    monkeypatch.setattr(sv, "_collocate", collocate)
    ih = cs.example_problem()
    with pytest.raises(cs.DomainError, match="tol="):
        cs.fundamental(ih.h_minus, 0.3j, side="minus", **kwargs)
    with pytest.raises(cs.DomainError, match="tol="):
        cs.solve_row(ih.h_plus, 0.3j, 2.0, [1.0, 0.0], side="plus", **kwargs)


def test_zero_tolerances_accepted():
    # rtol = 0 is raised to the rounding floor, not taken literally
    ih = cs.example_problem()
    z = 0.3j
    w = cs.fundamental(ih.h_minus, z, side="minus", rtol=0.0, atol=0.0)
    ts = np.array([0.25, 0.5, 0.9])
    np.testing.assert_allclose(w.eval(ts), [cs.closed_W(t, z) for t in ts],
                               rtol=0, atol=1e-12)
