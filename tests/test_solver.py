import numpy as np
import pytest
from scipy.linalg import expm

import canonsys as cs
from canonsys import _chebpanels as cp
from canonsys import boundary as bd
from canonsys import solver as sv
from conftest import (count_calls, indivisible_problem_dict,
                      random_piecewise_psd)

J = cs.symplectic_j()


class TestSolveRow:
    def test_identity_against_expm_oracle(self):
        # oracle: y(t) = expm(z t J) y0 for H = I
        h = cs.identity_hamiltonian((0.0, 1.0))
        z = 1.7 - 0.9j
        y0 = np.array([1.0, 0.0], dtype=complex)
        y = cs.solve_row(h, z, 0.0, y0, rtol=1e-12, atol=1e-12)
        for t in (0.33, 0.8, 1.0):
            oracle = expm(z * t * J) @ y0
            np.testing.assert_allclose(y.eval(t), oracle, atol=5e-12)
            # trig closed form of the oracle
            np.testing.assert_allclose(
                y.eval(t), [np.cos(z * t), np.sin(z * t)], atol=5e-12)

    def test_zero_parameter_constant(self, hm):
        y = cs.solve_row(hm, 0.0, 0.0, (0.3, -0.7), side="minus")
        np.testing.assert_allclose(y.eval(0.9), [0.3, -0.7], atol=1e-15)

    def test_indivisible_closed_form(self):
        h = cs.hamiltonian_from_spec(
            {"kind": "named", "name": "indivisible-inverse-square"},
            (1.0, 2.0), singular=1.0)
        z = 2.0 + 1.0j
        c = np.array([0.7 - 0.2j, 1.1 + 0.3j])
        y = cs.solve_row(h, z, 2.0, c, side="plus", rtol=1e-12, atol=1e-12)
        for t in (1.2, 1.6, 2.0):
            a2 = -1.0 / (t - 1.0) + 1.0  # int_2^t (s-1)^-2 ds
            np.testing.assert_allclose(
                y.eval(t), [c[0] - z * c[1] * a2, c[1]], atol=1e-10)

    def test_anchor_exact(self, hm):
        y0 = np.array([0.2 + 1j, -0.4])
        y = cs.solve_row(hm, 1.3, 0.25, y0, side="minus")
        np.testing.assert_allclose(y.eval(0.25), y0, atol=0)

    def test_singularity_proximity_error(self, hm):
        with pytest.raises(cs.SingularityProximityError) as exc:
            cs.solve_row(hm, 1.0, 0.0, (1, 0), side="minus", cutoff=0.0)
        assert 0.99 < exc.value.t_reached <= 1.0

    @pytest.mark.parametrize("cutoff", [5.0, 1.5, 1.0, -0.1, np.nan, np.inf])
    def test_cutoff_off_the_side_rejected(self, hm, hp, cutoff, monkeypatch):
        # a cutoff of at least the side's length would stop at or beyond the
        # regular endpoint; a negative one was taken as its magnitude
        def integrate(*args, **kwargs):
            raise AssertionError("integrated despite a bad cutoff")

        monkeypatch.setattr(sv, "integrate_dense", integrate)
        with pytest.raises(cs.DomainError, match="cutoff"):
            cs.fundamental(hm, 1j, side="minus", cutoff=cutoff)
        with pytest.raises(cs.DomainError, match="cutoff"):
            cs.solve_row(hm, 1j, 0.5, [1.0, 0.0], side="minus", cutoff=cutoff)
        with pytest.raises(cs.DomainError, match="cutoff"):
            cs.fundamental(hp, 1j, side="plus", cutoff=cutoff)

    @pytest.mark.parametrize("side, t0", [
        ("minus", 1.0 - 5e-8), ("minus", 1.0), ("plus", 1.0 + 5e-8),
        ("plus", 1.0)])
    def test_anchor_within_the_cutoff_rejected(self, example_ih, side, t0,
                                               monkeypatch):
        # such a solve would integrate away from sigma toward the cutoff and
        # never reach sigma's side of the anchor
        def integrate(*args, **kwargs):
            raise AssertionError("integrated from an anchor inside the cutoff")

        monkeypatch.setattr(sv, "integrate_dense", integrate)
        h = example_ih.side(side)
        with pytest.raises(cs.DomainError,
                           match=f"t0={t0!r}.*cutoff 1e-06"):
            cs.fundamental(h, 0.5j, t0=t0, side=side)
        with pytest.raises(cs.DomainError, match="cutoff 1e-07"):
            cs.solve_row(h, 0.5j, t0, [1.0, 0.0], side=side, cutoff=1e-7)


class TestFundamental:
    def test_zero_parameter(self, hm):
        init = np.array([[1.0, 2.0], [0.5, 3.0]])
        w = cs.fundamental(hm, 0.0, init=init, side="minus")
        np.testing.assert_allclose(w.eval(0.8), init, atol=1e-15)

    def test_example_against_closed_form(self, hm):
        w = cs.fundamental(hm, np.pi, side="minus", rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.eval(0.5), cs.closed_W(0.5, np.pi),
                                   atol=1e-8)

    def test_identity_trig(self):
        h = cs.identity_hamiltonian((0.0, 1.0))
        z = 0.9 + 0.4j
        w = cs.fundamental(h, z, rtol=1e-12, atol=1e-12)
        t = 0.6
        want = np.array([[np.cos(z * t), np.sin(z * t)],
                         [-np.sin(z * t), np.cos(z * t)]])
        np.testing.assert_allclose(w.eval(t), want, atol=1e-11)

    def test_rows_transposed_solve_vector_system(self, hm):
        z = 1.1 + 0.3j
        w = cs.fundamental(hm, z, side="minus", rtol=1e-12, atol=1e-12)
        row0 = w.row_sampler(0)
        np.testing.assert_allclose(row0.eval(0.7), w.eval(0.7)[0, :], atol=1e-13)

    @pytest.mark.parametrize("source", ["minus", "plus", "fundamental"])
    def test_row_view_is_a_slice_of_the_state(self, example_ih, source):
        # a side's cached basis or a fundamental result: each row view
        # shares the solution's chains and takes its row of the same state
        z = 0.7 - 1.2j
        if source == "fundamental":
            w = cs.fundamental(example_ih.h_minus, z, side="minus")
        else:
            w = bd.side_basis(example_ih, source, z).solution
        lo, hi = w.interval
        for i in (0, 1):
            row = w.row_sampler(i)
            assert row.base is w and row.segments is w.segments
            assert row.interval == w.interval
            for ts in (lo + 0.3 * (hi - lo), np.linspace(lo, hi, 7)):
                assert np.array_equal(row.eval(ts), w.eval(ts)[..., i, :])

    @pytest.mark.parametrize("side, t0", [
        ("minus", 0.0), ("minus", 0.5), ("plus", 2.0), ("plus", 1.5)])
    def test_value_at_the_anchor_is_init(self, example_ih, side, t0):
        # the start value itself, not a Chebyshev series summed there
        init = np.array([[1.0 + 0.5j, 0.25], [-0.75, 2.0 - 1.0j]])
        for z in (0.3 + 0.2j, -2.1 + 1.7j, 3.9 - 2.8j):
            w = cs.fundamental(example_ih.side(side), z, init=init, t0=t0,
                               side=side, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(w.eval(t0), init)
            np.testing.assert_array_equal(w.eval([t0, t0]), [init, init])

    def test_singular_init_rejected(self, hm):
        with pytest.raises(cs.DomainError):
            cs.fundamental(hm, 1.0, init=np.zeros((2, 2)), side="minus")

    @pytest.mark.parametrize("call", [
        lambda ih: cs.fundamental(ih.h_minus, 1.0, init=[[np.nan, 0], [0, 1]]),
        lambda ih: cs.fundamental(ih.h_minus, 1.0, init=[[1, 0], [np.inf, 1]]),
        lambda ih: cs.fundamental(ih.h_minus, 1.0, t0=5.0, side="minus"),
        lambda ih: cs.fundamental(ih.h_minus, 1.0, t0=np.nan),
        lambda ih: cs.solve_row(ih.h_minus, 1.0, 0.0, [np.nan, 1.0]),
        lambda ih: cs.solve_row(ih.h_plus, 1.0, 2.0, [1.0, -np.inf], "plus"),
        lambda ih: cs.solve_row(ih.h_minus, 1.0, np.nan, [0.0, 1.0]),
        lambda ih: cs.solve_from_gamma(ih, "minus", 1.0, (np.nan, 1.0)),
        lambda ih: cs.solve_from_gamma(ih, "plus", 1j, (1.0, np.inf)),
    ], ids=["init-nan", "init-inf", "t0-outside", "t0-nan", "y0-nan",
            "y0-inf", "row-t0-nan", "c-nan", "c-inf"])
    def test_bad_start_data_fails_before_integrating(self, call, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated despite bad start data")

        monkeypatch.setattr(sv, "integrate_dense", integrate)
        ih = cs.example_problem()
        with pytest.raises(cs.DomainError):
            call(ih)
        assert ih.cache.per_z_size() == 0

    def test_det_preservation(self, hm, rng):
        hs = {"example": (hm, "minus"),
              "identity": (cs.identity_hamiltonian((0.0, 1.0)), None),
              "piecewise": (random_piecewise_psd(rng), None)}
        for name, (h, side) in hs.items():
            for _ in range(5):
                z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                w = cs.fundamental(h, z, side=side, rtol=1e-12, atol=1e-12)
                bound = 1e-9 * (1.0 + abs(z)) * h.length
                assert w.det_error() <= bound, (name, z)

    def test_conjugate_symmetry(self, hm, rng):
        for _ in range(5):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
            wa = cs.fundamental(hm, z, side="minus", rtol=1e-11, atol=1e-11)
            wb = cs.fundamental(hm, np.conj(z), side="minus",
                                rtol=1e-11, atol=1e-11)
            t = 0.85
            scale = np.abs(wa.eval(t)).max()
            tol = 2.0 * (1e-11 * scale + 1e-11)
            assert np.abs(wb.eval(t) - np.conj(wa.eval(t))).max() <= tol

    def test_scaling_reparameterisation(self, rng):
        # solution of cH at z equals solution of H at cz, c > 0
        h = random_piecewise_psd(rng)
        c = 2.7
        spec = dict(h.spec)
        scaled_pieces = []
        for p in spec["pieces"]:
            q = {"interval": p["interval"]}
            for nm in ("h1", "h2", "h3"):
                q[nm] = {"type": "const", "value": c * p[nm]["value"]}
            scaled_pieces.append(q)
        hc = cs.hamiltonian_from_spec({"kind": "piecewise",
                                       "pieces": scaled_pieces}, (0.0, 1.0))
        for _ in range(3):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w1 = cs.fundamental(hc, z, rtol=1e-12, atol=1e-12)
            w2 = cs.fundamental(h, c * z, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(w1.eval(0.7), w2.eval(0.7), atol=1e-9)


def _panels(w):
    return sum(len(seg.ts) - 1 for seg in w.segments)


def _panel_bases_interleaved(z, a, b, hm):
    """Reference for ``sv._panel_bases``: each panel's system built in the
    node-major order, unknowns (node, component), and solved one panel at a
    time; returns ``phi`` and ``z J H phi`` as (P, n, 2, 2).

    The components are balanced first: unknowns of component 0 scaled by
    2^e and of component 1 by 2^-e, with 4^e near sqrt(max |H_11| /
    max |H_00|).  A power of 2 scales exactly, so the system is the same;
    without it, plain LU in this order loses up to 1e-9 of the basis (40
    digit reference) when H's diagonal entries are 1e16 apart.
    """
    n = cp.DEGREE + 1
    phi = np.empty(hm.shape, dtype=complex)
    f = np.empty(hm.shape, dtype=complex)
    for k in range(len(a)):
        jh = J @ hm[k]
        # entry (2i + c, 2j + d) is Q_ij (J H_j)_cd
        op = np.kron(cp.CUMINT, np.ones((2, 2))) * np.tile(np.hstack(jh), (n, 1))
        m = np.eye(2 * n) - 0.5 * z * (b[k] - a[k]) * op
        e = np.round(0.25 * np.log2(np.abs(hm[k, :, 1, 1]).max()
                                    / np.abs(hm[k, :, 0, 0]).max()))
        s = np.tile([2.0 ** e, 2.0 ** -e], n)
        x = np.linalg.solve(m * (s / s[:, None]),
                            np.tile(np.eye(2), (n, 1)) / s[:, None])
        phi[k] = (s[:, None] * x).reshape(n, 2, 2)
        f[k] = z * (jh @ phi[k])
    return phi, f


def _collocation_panels(kind, n_panels):
    """Panels (a, b, hm) of one kind for the collocation tests.

    ``coupled``: random symmetric H, every off-diagonal entry non-zero;
    ``diagonal``: the same with the off-diagonal zeroed; ``mixed``: every
    second panel diagonal; ``large-h00``/``large-h11``: diagonal H with its
    entries 1e16 apart, the larger one first or second; ``power+2`` and
    ``power-2``: H = diag(s^2, s^-2) or diag(s^-2, s^2), s the distance to
    sigma = 1, on panels [1 + 2d, 1 + d] with d from 1e-1 to 1e-7, every
    second one mirrored left of sigma.
    """
    n = cp.DEGREE + 1
    if kind.startswith("power"):
        d = np.logspace(-1.0, -7.0, n_panels)
        side = np.where(np.arange(n_panels) % 2 == 0, 1.0, -1.0)
        a, b = 1.0 + 2.0 * side * d, 1.0 + side * d
        s = np.abs(cp.nodes_between(a, b) - 1.0)
        e = 2.0 if kind == "power+2" else -2.0
        hm = np.zeros((n_panels, n, 2, 2))
        hm[..., 0, 0], hm[..., 1, 1] = s ** e, s ** -e
        return a, b, hm
    rng = np.random.default_rng(n_panels)
    a = np.sort(rng.uniform(0.0, 1.0, n_panels))
    b = a + rng.uniform(0.05, 0.3, n_panels)
    x = rng.normal(size=(n_panels, n, 2, 2))
    hm = x + x.transpose(0, 1, 3, 2)
    if kind == "coupled":
        return a, b, hm
    diag = np.arange(n_panels) % 2 == 0 if kind == "mixed" else slice(None)
    hm[diag, :, 0, 1] = hm[diag, :, 1, 0] = 0.0
    if kind.startswith("large"):
        big = 0 if kind == "large-h00" else 1
        hm[..., big, big] *= 1e8
        hm[..., 1 - big, 1 - big] *= 1e-8
    return a, b, hm


_ZS = [0.0, 2.5, -1.3 + 4.1j]
_COLLOCATION_CASES = (
    [pytest.param("coupled", z, n, id=f"{z}-{n}")
     for n in (1, 5, 23) for z in _ZS]
    + [pytest.param(kind, z, n, id=f"{kind}-{z}-{n}")
       for kind in ("diagonal", "large-h00", "large-h11", "power+2",
                    "power-2", "mixed")
       for n in ((5, 23) if kind == "mixed" else (1, 5, 23)) for z in _ZS])


def _panel_zs(z, n_panels):
    """A z per panel, (P, 1, 1), as a batch of several z has them: the
    case's z, then z + 0.5 and z + 1 in turn; and their squares, formed by
    Python."""
    zs = complex(z) + 0.5 * (np.arange(n_panels) % 3)
    zz = np.array([w * w for w in zs.tolist()])
    return zs[:, None, None], zz[:, None, None]


def _bases(z, zz, a, b, hm):
    """``sv._panel_bases`` of the panels as one chain, with the Schur
    tables of its diagonal panels formed for them."""
    d = sv._diagonal(hm)
    tables = sv._schur_factors(0.5 * (b[d] - a[d]), hm[d])
    return sv._panel_bases(z, zz, a, b, hm, [tables])


class _AtNodes:
    """A stand-in Hamiltonian for ``sv._round``: its values at the nodes
    of the round's panels are ``hm``."""

    def __init__(self, hm):
        self.hm = hm

    def matrix(self, t):
        assert t.shape == (self.hm.shape[0] * self.hm.shape[1],)
        return self.hm.reshape(-1, 2, 2)


class TestCollocation:
    @pytest.mark.parametrize("kind, z, n_panels", _COLLOCATION_CASES)
    def test_block_layout_matches_interleaved_reference(self, kind, z,
                                                        n_panels):
        # a non-zero off-diagonal fills all four blocks (J H)_cd; a zero one
        # takes the Schur complement, on panels of every kind and scale,
        # each panel at its own z
        a, b, hm = _collocation_panels(kind, n_panels)
        coupled = np.abs(hm[..., 0, 1]).min(axis=1) > 0.0
        assert coupled.all() if kind == "coupled" else not coupled.all()
        zs, zz = _panel_zs(z, n_panels)
        bases = _bases(zs, zz, a, b, hm)
        phi, f = (x.transpose(0, 2, 1, 3) for x in bases)  # to (P, n, 2, 2)
        refs = [_panel_bases_interleaved(w, a[k:k + 1], b[k:k + 1],
                                         hm[k:k + 1])
                for k, w in enumerate(zs.ravel().tolist())]
        phi_ref, f_ref = (np.concatenate(x) for x in zip(*refs))
        assert np.abs(phi - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
        assert np.abs(f - f_ref).max() <= 1e-12 * np.abs(f_ref).max()
        # each path solves a panel by itself: solved alone, a panel of the
        # batch gives the same bits (of a mixed batch: a diagonal panel at
        # 5 panels, a coupled one at 23)
        k = n_panels // 2
        alone = _bases(zs[k:k + 1], zz[k:k + 1], a[k:k + 1], b[k:k + 1],
                       hm[k:k + 1])
        assert all(np.array_equal(x[0], y[k]) for x, y in zip(alone, bases))

    @pytest.mark.parametrize("kind", ["diagonal", "coupled", "mixed"])
    def test_blocks_and_one_z_as_a_number_give_the_same_bits(
            self, kind, monkeypatch):
        # a batch larger than SOLVE_BLOCK is solved in blocks, each panel
        # as in one call; one z for all panels, passed as Python numbers,
        # gives the bits of the same z spread over the panels
        a, b, hm = _collocation_panels(kind, 23)
        zs, zz = _panel_zs(-1.3 + 4.1j, 23)
        whole = _bases(zs, zz, a, b, hm)
        z = complex(zs[1, 0, 0])
        one = _bases(z, z * z, a, b, hm)
        monkeypatch.setattr(sv, "SOLVE_BLOCK", 4)
        blocks = _bases(zs, zz, a, b, hm)
        assert all(np.array_equal(x, y) for x, y in zip(whole, blocks))
        spread = _bases(np.full_like(zs, z), np.full_like(zz, z * z), a, b,
                        hm)
        assert all(np.array_equal(x, y) for x, y in zip(one, spread))

    @staticmethod
    def solved_shapes(monkeypatch):
        shapes = []
        solve = np.linalg.solve

        def recorded(m, rhs):
            shapes.append(m.shape)
            return solve(m, rhs)

        monkeypatch.setattr(sv.np.linalg, "solve", recorded)
        return shapes

    @pytest.mark.parametrize("kind", ["diagonal", "power-2", "mixed",
                                      "coupled"])
    def test_kept_factors_give_the_bits_of_formed_ones(self, kind,
                                                       monkeypatch):
        # three chains, each with the tables its round formed for its own
        # diagonal panels alone, give in any block the bits of one chain
        # with tables formed for all, and the solve forms none (of a mixed
        # batch the blocks hold a chain's panels between coupled ones)
        a, b, hm = _collocation_panels(kind, 23)
        zs, zz = _panel_zs(0.7 - 2.2j, 23)
        want = _bases(zs, zz, a, b, hm)
        rounds = []
        for k in (slice(0, 5), slice(5, 17), slice(17, 23)):
            rnd = sv._round(_AtNodes(hm[k]), a[k].copy(), b[k].copy())
            d = sv._diagonal(hm[k])
            fresh = sv._schur_factors(0.5 * (b[k][d] - a[k][d]), hm[k][d])
            assert all(x.shape == y.shape and x.tobytes() == y.tobytes()
                       for x, y in zip(rnd.schur, fresh))
            rounds.append(rnd)
        monkeypatch.setattr(sv, "_schur_factors",
                            lambda *args: pytest.fail("a solve formed tables"))
        for block in (64, 4, 5):
            monkeypatch.setattr(sv, "SOLVE_BLOCK", block)
            got = sv._panel_bases(zs, zz, a, b, hm, [r.schur for r in rounds])
            assert all(np.array_equal(x, y) for x, y in zip(want, got))

    @staticmethod
    def non_finite_round(h, monkeypatch):
        """The first round of ``h`` on [0, 1], one panel, with H made
        non-finite at two of its nodes."""
        hm = sv._h_at_nodes(h, np.array([0.0]), np.array([1.0]))
        hm[0, 3, 0, 0], hm[0, 5, 1, 1] = np.inf, np.nan
        with monkeypatch.context() as m:
            m.setattr(sv, "_h_at_nodes", lambda h, a, b: hm)
            return sv.first_round(h, 0.0, 1.0, None)

    def test_factors_of_non_finite_h_raise_no_warning(self, monkeypatch):
        # warnings are errors in this suite: a round with non-finite H
        # forms its tables quietly, and kept, fails its chain as unkept
        h = cs.identity_hamiltonian((0.0, 1.0))
        bad = self.non_finite_round(h, monkeypatch)
        assert not np.isfinite(bad.schur[1]).all()
        kept = sv.refined_round(h, bad)
        # its panel stays whole
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in
                   zip((bad.a, bad.b, bad.hm, *bad.schur),
                       (kept.a, kept.b, kept.hm, *kept.schur)))
        errors = []
        for first in (bad, kept):
            run = sv.Run(1.5j, h, 0.0, [1.0, 0.0], [1.0], None, first)
            with pytest.raises(cs.SingularityProximityError) as info:
                sv.integrate_dense([run])
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @staticmethod
    def plan_span(problem, side):
        """The side plan and the span of its chain, (t0, t1, sigma)."""
        cs.monodromy_matrix(problem, 1j)
        plan = problem.memo(("plan", side), lambda: pytest.fail("no plan"))
        h = problem.side(side)
        return h, (float(plan.a[0]), float(plan.b[-1]),
                   h.singular_endpoint(side)), plan

    @pytest.mark.parametrize("case", ["example-plus", "indivisible-minus",
                                      "indivisible-plus", "non-finite"])
    def test_kept_tables_are_fresh_ones_formed_once(self, case, monkeypatch):
        plan = None
        if case == "non-finite":  # the round of the test above
            h = cs.identity_hamiltonian((0.0, 1.0))
        elif case == "example-plus":
            h, span, plan = self.plan_span(cs.example_problem(), "plus")
        else:
            problem = cs.problem_from_dict(indivisible_problem_dict(0.7,
                                                                    "plus"))
            h, span, plan = self.plan_span(problem, case.split("-")[1])
        schur, formed = sv._schur_factors, []
        count_calls(monkeypatch, sv, "_schur_factors", [], formed)
        rnd = (self.non_finite_round(h, monkeypatch) if plan is None
               else sv.first_round(h, *span))
        kept = sv.refined_round(h, rnd)
        if plan is not None:  # the round the problem keeps
            assert all(x.tobytes() == y.tobytes() for x, y in
                       zip((kept.a, kept.b, kept.hm, *kept.schur),
                           (plan.a, plan.b, plan.hm, *plan.schur)))
        d = sv._diagonal(kept.hm)
        fresh = schur(0.5 * (kept.b[d] - kept.a[d]), kept.hm[d])
        assert all(x.shape == y.shape and x.tobytes() == y.tobytes()
                   for x, y in zip(kept.schur, fresh))
        # each panel's tables formed once: the first round's diagonal
        # panels, then the probe's diagonal halves
        whole = np.isin(kept.a, rnd.a) & np.isin(kept.b, rnd.b)
        want = [int(sv._diagonal(rnd.hm).sum())]
        if not whole.all():
            want.append(int((d & ~whole).sum()))
        assert formed == want
        if case == "example-plus":  # the probe halves one panel
            assert len(kept.a) == len(rnd.a) + 1 and formed == [23, 2]

    def test_diagonal_example_solves_only_schur_systems(self, monkeypatch):
        shapes = self.solved_shapes(monkeypatch)
        cs.monodromy_matrix(cs.example_problem(), 1.3 + 0.4j)
        n = cp.DEGREE + 1
        assert shapes and all(s[1:] == (n, n) for s in shapes), shapes

    def test_coupled_hamiltonian_solves_full_systems(self, monkeypatch):
        shapes = self.solved_shapes(monkeypatch)
        h = cs.hamiltonian_from_spec(
            {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "const", "value": 2.0},
                "h2": {"type": "const", "value": 1.0},
                "h3": {"type": "const", "value": 0.7}}]}, (0.0, 1.0))
        cs.fundamental(h, 3.0 + 2.0j)
        n = 2 * (cp.DEGREE + 1)
        assert shapes and all(s[1:] == (n, n) for s in shapes), shapes

    def test_constant_coupled_hamiltonian_against_expm(self):
        hc = np.array([[2.0, 0.7], [0.7, 1.0]])
        h = cs.hamiltonian_from_spec(
            {"kind": "piecewise", "pieces": [{
                "interval": [0.0, 1.0],
                "h1": {"type": "const", "value": hc[0, 0]},
                "h2": {"type": "const", "value": hc[1, 1]},
                "h3": {"type": "const", "value": hc[0, 1]}}]}, (0.0, 1.0))
        z = 3.0 + 2.0j
        w = cs.fundamental(h, z, rtol=1e-12, atol=1e-12)
        for t in np.linspace(0.0, 1.0, 9):
            np.testing.assert_allclose(w.eval(t), expm(z * t * J @ hc).T,
                                       rtol=0, atol=1e-10)

    def test_identity_large_z_splits_against_expm(self):
        # one initial panel cannot hold 40/(2 pi) ~ 6 periods to 1e-12
        h = cs.identity_hamiltonian((0.0, 1.0))
        z = 40.0
        w = cs.fundamental(h, z, rtol=1e-12, atol=1e-12)
        assert _panels(w) > 1
        for t in np.linspace(0.0, 1.0, 9):
            np.testing.assert_allclose(w.eval(t), expm(z * t * J).T, rtol=0,
                                       atol=1e-10)

    def test_split_bound_raises(self, monkeypatch):
        monkeypatch.setattr(sv, "MAX_SPLITS", 2)
        h = cs.identity_hamiltonian((0.0, 1.0))
        with pytest.raises(cs.IntegrationError):
            cs.fundamental(h, 40.0, rtol=1e-12, atol=1e-12)

    def test_panel_count_bounded_off_axis(self, hm):
        # a tail test scaled per component cascades into thousands of
        # panels here; scaled by the panel's overall size it stays small
        w = cs.fundamental(hm, -5.14 + 4.64j, side="minus", rtol=1e-12,
                           atol=1e-12)
        assert _panels(w) <= 40
        np.testing.assert_allclose(w.eval(0.5), cs.closed_W(0.5, -5.14 + 4.64j),
                                   rtol=1e-9)


def _chain_arrays(dense):
    out = []
    for seg in dense.segments:
        out += [seg.breaks, seg.ys, seg.hm, seg.coefs, seg.origin]
    return out


def _coupled_hamiltonian():
    """A coupled H on [0, 1]: its panels solve the 2n x 2n system."""
    return cs.hamiltonian_from_spec(
        {"kind": "piecewise", "pieces": [{
            "interval": [0.0, 1.0],
            "h1": {"type": "const", "value": 2.0},
            "h2": {"type": "poly", "coeffs": [1.0, 0.5]},
            "h3": {"type": "const", "value": 0.7}}]}, (0.0, 1.0))


class TestBatch:
    """integrate_dense solves several runs together, each at its own z;
    each run's arrays are the same bits as when it is solved alone."""

    def runs(self, example_ih, z):
        hm, hp = example_ih.h_minus, example_ih.h_plus
        rng = np.random.default_rng(11)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = complex(z)
        return [
            sv.Run(z, hm, 0.0, np.eye(2).reshape(-1), [1.0 - 1e-6], 1.0),
            sv.Run(z, hp, 1.5, state, [2.0, 1.0 + 1e-7], 1.0),  # two chains
            sv.Run(z, cs.identity_hamiltonian((0.0, 3.0)), 1.0, state,
                   [0.0, 3.0]),
            sv.Run(z, hp, 2.0, np.eye(2).reshape(-1), [1.0 + 1e-6], 1.0),
            # the same solves at other z, and a coupled H: one batch mixes
            # Schur and full systems
            sv.Run(z.conjugate() + 0.6, hm, 0.0, np.eye(2).reshape(-1),
                   [1.0 - 1e-6], 1.0),
            sv.Run(-2.0 * z, hp, 2.0, np.eye(2).reshape(-1), [1.0 + 1e-6],
                   1.0),
            sv.Run(z, _coupled_hamiltonian(), 0.3, state, [0.0, 1.0]),
            sv.Run(1.5 - 0.5 * z, _coupled_hamiltonian(), 0.0, state, [1.0]),
        ]

    @pytest.mark.parametrize("z", [0.0, 2.5, -1.3 + 4.1j, 3.7 - 2.2j])
    def test_runs_alone_and_together_are_identical(self, example_ih, z):
        runs = self.runs(example_ih, z)
        together = sv.integrate_dense(runs)
        assert len(together) == len(runs)
        assert together.segments == [seg for d in together
                                      for seg in d.segments]
        assert [len(d.segments) for d in together] == [1, 2, 2, 1, 1, 1, 2, 1]
        assert [d.z for d in together] == [complex(r.z) for r in runs]
        for run, dense in zip(runs, together):
            alone, = sv.integrate_dense([run])
            assert dense.anchor_t == alone.anchor_t == run.t0
            for a, b in zip(_chain_arrays(alone), _chain_arrays(dense)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        # runs of the batch in another order and company: the same bits
        again = sv.integrate_dense(runs[::-1][:6])
        for k in range(6):
            for a, b in zip(_chain_arrays(again[5 - k]),
                            _chain_arrays(together[len(runs) - 6 + k])):
                assert np.array_equal(a, b)

    def test_panels_get_their_chains_z_and_its_python_square(
            self, example_ih, monkeypatch):
        # numpy's complex product of two arrays can round z*z differently
        # from Python's (in about a quarter of z on an FMA host), which
        # would make a batch differ from the scalar formulas in the last bit
        seen = []
        panel_bases = sv._panel_bases

        def recorded(z, zz, a, b, hm, *kept):
            # a Python number stands for every panel
            seen.append(tuple(np.broadcast_to(np.ravel(x), len(a))
                              for x in (z, zz)) + (len(a),))
            return panel_bases(z, zz, a, b, hm, *kept)

        monkeypatch.setattr(sv, "_panel_bases", recorded)
        rng = np.random.default_rng(5)
        zs = [complex(x, y) for x, y in rng.uniform(-4, 4, (8, 2))]
        hm = example_ih.h_minus
        dense = sv.integrate_dense([sv.Run(z, hm, 0.0, [1.0, 0.0], [0.9])
                                    for z in zs])
        assert set(seen[0][0].tolist()) == set(zs)  # one batch of all z
        for z, zz, n in seen:
            assert len(z) == len(zz) == n
            assert zz.tolist() == [w * w for w in z.tolist()]
        assert [d.z for d in dense] == zs

    def test_start_states_of_one_size(self, hm):
        runs = [sv.Run(1j, hm, 0.0, [1.0, 0.0], [0.5]),
                sv.Run(1j, hm, 0.0, np.eye(2).reshape(-1), [0.5])]
        with pytest.raises(cs.DomainError, match="one size"):
            sv.integrate_dense(runs)
        with pytest.raises(cs.DomainError, match="no target"):
            sv.integrate_dense([sv.Run(1j, hm, 0.5, [1.0, 0.0], [0.5])])

    def test_first_failing_run_raises(self, hm, hp):
        # integrated up to sigma itself, each of these fails next to it,
        # whatever the z of the others
        to_sigma_left = sv.Run(1.0, hm, 0.0, [1.0, 0.0], [1.0], 1.0)
        to_sigma_right = sv.Run(1.0, hp, 2.0, [1.0, 0.0], [1.0], 1.0)
        fine = sv.Run(2.0 - 1j, hm, 0.0, [1.0, 0.0], [0.5], 1.0)
        for runs, left in (([fine, to_sigma_left], True),
                           ([to_sigma_right, to_sigma_left], False),
                           ([to_sigma_left, fine, to_sigma_right], True)):
            with pytest.raises(cs.SingularityProximityError) as exc:
                sv.integrate_dense(runs)
            assert (exc.value.t_reached < 1.0) == left
            alone = to_sigma_left if left else to_sigma_right
            with pytest.raises(cs.SingularityProximityError) as ref:
                sv.integrate_dense([alone])
            assert str(exc.value) == str(ref.value)


class TestSingularStart:
    """A start matrix is singular when its determinant cancels to rounding,
    at any scale."""

    def test_scaled_identity_accepted(self, hp):
        z = 0.5j
        w = cs.fundamental(hp, z, init=1e-8 * np.eye(2), t0=2.0, side="plus")
        ref = cs.fundamental(hp, z, t0=2.0, side="plus")
        ts = np.linspace(1.1, 2.0, 7)
        np.testing.assert_allclose(w.eval(ts), 1e-8 * ref.eval(ts),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("init", [
        [[1e7, 1e7], [1e7, 1e7 + 1e-6]],      # cond 4e13, |det| = 10
        [[1e-9, 2e-9], [2e-9, 4e-9]],         # exactly rank one
        [[1.0, 1.0], [1.0, 1.0 + 1e-13]],
        np.zeros((2, 2))])
    def test_numerically_singular_rejected(self, hp, init, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated from a singular start")

        monkeypatch.setattr(sv, "integrate_dense", integrate)
        with pytest.raises(cs.DomainError, match="init must be non-singular"):
            cs.fundamental(hp, 0.5j, init=init, t0=2.0, side="plus")


class TestGreens:
    def test_same_solution_real_parameter(self):
        h = cs.identity_hamiltonian((0.0, 1.0))
        u = cs.solve_row(h, 2.0, 0.0, (1.0, 2.0), rtol=1e-13, atol=1e-13)
        assert abs(cs.greens_residual(u, u, 0.0, 1.0)) < 1e-14

    def test_identity_closed_trig_oracle(self):
        # both sides of the identity have closed trig forms for H = I
        h = cs.identity_hamiltonian((0.0, 1.0))
        z, w = 1.5, 0.7  # real, distinct
        u = cs.solve_row(h, w, 0.0, (1.0, 0.0), rtol=1e-13, atol=1e-13)
        f = cs.solve_row(h, z, 0.0, (1.0, 0.0), rtol=1e-13, atol=1e-13)
        x2 = 0.9
        from scipy.integrate import quad
        oracle = quad(lambda t: np.cos(w * t) * np.cos(z * t)
                      + np.sin(w * t) * np.sin(z * t), 0.0, x2)[0]
        lhs = (z - w) * oracle
        rhs = 0.0 - (np.cos(w * x2) * (-np.sin(z * x2))
                     + np.sin(w * x2) * np.cos(z * x2))
        assert abs(lhs - rhs) < 1e-12  # oracle self-check
        assert abs(cs.greens_residual(u, f, 0.0, x2)) < 1e-10

    def test_example_random_instances(self, hm, rng):
        worst = 0.0
        for _ in range(10):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            y0u = rng.normal(size=2) + 1j * rng.normal(size=2)
            y0f = rng.normal(size=2) + 1j * rng.normal(size=2)
            u = cs.solve_row(hm, w, 0.0, y0u / np.linalg.norm(y0u),
                             side="minus", rtol=1e-13, atol=1e-13)
            f = cs.solve_row(hm, z, 0.0, y0f / np.linalg.norm(y0f),
                             side="minus", rtol=1e-13, atol=1e-13)
            worst = max(worst, abs(cs.greens_residual(u, f, 0.1, 0.9)))
        assert worst < 1e-8

    def test_domain_mismatch(self, hm):
        u = cs.solve_row(hm, 1.0, 0.0, (1, 0), side="minus")
        f = cs.solve_row(hm, 2.0, 0.0, (0, 1), side="minus")
        with pytest.raises(cs.DomainError):
            cs.greens_residual(u, f, 0.0, 2.5)
