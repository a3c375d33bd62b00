import contextlib
import io
import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import canonsys as cs
from canonsys import cli
from canonsys.boundary import det_residual
from canonsys.cli import check_conditions, main
from conftest import indivisible_problem_dict


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_monodromy_at_zero_emits_identity(self, capsys):
        code, out, _ = run_cli(["monodromy", "--z-grid", "0"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("t,z_re,z_im,W11_re")
        vals = [float(x) for x in row.split(",")]
        np.testing.assert_allclose(vals[3:11], [1, 0, 0, 0, 0, 0, 1, 0],
                                   atol=1e-12)

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"problem": {')
        code, _, err = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "0"], capsys)
        assert code == 2
        assert "line" in err and "column" in err

    def test_unknown_problem_key(self, tmp_path, capsys):
        problem = cs.example_problem_dict()
        problem["typo"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "0"], capsys)
        assert code == 2
        assert "typo" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_reused_parser_answers_as_a_fresh_one(self, monkeypatch):
        runs = [["monodromy", "--z-grid", "1j", "--emit", "json"],
                ["wpoly", "--n", "x"],  # argparse's own error, exit 2
                ["fundamental", "--side", "plus", "--z-grid", "1",
                 "--t-grid", "1.5"],
                ["--jobs", "0", "wpoly"],
                ["regbv", "--help"],
                ["weyl", "--z", "2.0"],
                ["wpoly", "--side", "plus", "--n", "2"]]

        def answers():
            out = []
            for argv in runs:
                o, e = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(o), \
                        contextlib.redirect_stderr(e):
                    code = main(argv)
                out.append((code, o.getvalue(), e.getvalue()))
            return out

        builds, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        reused = answers()
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_parser", build)
        assert reused == answers()
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 1, 0]

    def test_computation_error_maps_to_one(self, capsys):
        # weyl coefficient at real z violates its precondition
        code, _, err = run_cli(["weyl", "--z", "2.0"], capsys)
        assert code == 1
        assert "DomainError" in err

    @pytest.mark.parametrize("d1", ["1e200", "1e308"])
    def test_overflowing_w_exits_one_quietly(self, d1, capsys):
        # W near 1e200 overflows the kernel's Gram matrix; at 1e308 p(z)
        # overflows.  Warnings are errors in this suite, so one would end
        # the run with a traceback instead of the one error line
        code, _, err = run_cli(["validate-example", "--d1", d1], capsys)
        assert code == 1
        assert err.startswith("computation error") and err.count("\n") == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err


class TestInputValidation:
    @pytest.mark.parametrize("argv, token", [
        (["monodromy", "--z-grid", "1,nan"], "nan"),
        (["monodromy", "--z-grid", "1,abc"], "abc"),
        (["monodromy", "--z-grid", '{"re": [-1, 1, -3], "im": [0, 1, 2]}'], "-3"),
        (["monodromy", "--z-grid", '{"re": [-1, 1'], "--z-grid"),
        (["fundamental", "--z-grid", "1", "--t-grid", "abc"], "abc"),
        (["fundamental", "--z-grid", "1", "--t-grid", "inf"], "inf"),
        (["regbv", "--z-grid", "1", "--init", "0,nan"], "nan"),
        (["validate-example", "--b", "x"], "'x'"),
        (["wpoly", "--n", "-1"], "--n"),
        (["monodromy", "--z-grid", '{"re": [0, 1, 1%s], "im": [0, 1, 2]}'
          % ("0" * 400)], "z_grid re count"),
        (["validate-example", "--s-plus", "0.5"], "--s-plus"),
        (["validate-example", "--s-plus", "nan"], "--s-plus"),
        (["validate-example", "--d0", "nan"], "--d0"),
        (["validate-example", "--threshold", "nan"], "--threshold"),
        # a negative threshold no error can pass: refused before integrating
        (["validate-example", "--threshold", "-1"], "--threshold"),
        (["validate-example", "--threshold", "-1e-300"], "--threshold"),
        (["validate-example", "--threshold", "-inf"], "--threshold"),
        (["kernel-signature", "--random-grid", "-1"], "--random-grid"),
        (["kernel-signature", "--random-grid", "0"], "--random-grid"),
        (["kernel-signature", "--seed", "-1"], "--seed"),
        (["monodromy", "--z-grid", "1", "--t", "5"], "--t"),
        (["monodromy", "--z-grid", "1", "--t", "nan"], "--t"),
        (["monodromy", "--z-grid", "1", "--t", "1"], "--t"),
        # an empty flag was read as absent and replaced by the default
        (["monodromy", "--z-grid", ""], "--z-grid"),
        (["fundamental", "--z-grid", "1", "--t-grid", ""], "--t-grid"),
        (["fundamental", "--z-grid", "1", "--t-grid", ","], "--t-grid"),
        (["kernel-signature", "--points", ""], "--points"),
        (["validate-example", "--b", ""], "--b"),
        # kernel grids that break the flag's precondition, checked before
        # any integration
        (["kernel-signature", "--points", "1j,1j"], "--points"),
        (["kernel-signature", "--points", "1,2j"], "--points"),
        (["kernel-signature", "--points", "1j,-1j"], "--points"),
        # off the side, at sigma where w_n has a pole, or past the cutoff
        # where the fundamental solution ends
        (["wpoly", "--side", "minus", "--n", "3", "--t-grid", "5,-3"],
         "--t-grid"),
        (["wpoly", "--n", "1", "--t-grid", "1.0"], "--t-grid"),
        (["wpoly", "--side", "plus", "--t-grid", "1.5,0.5"], "--t-grid"),
        (["fundamental", "--t-grid", "5"], "--t-grid"),
        (["fundamental", "--z-grid", "1", "--t-grid", "0.9999999"],
         "--t-grid"),
        (["fundamental", "--side", "plus", "--z-grid", "1", "--t-grid",
          "0.5"], "--t-grid"),
        # too many points to allocate: refused before anything is built
        (["kernel-signature", "--random-grid", "100000000000"],
         "--random-grid"),
        (["kernel-signature", "--points",
          ",".join(f"{k}j" for k in range(1, 1002))], "--points"),
        (["monodromy", "--z-grid",
          '{"re": [0, 1, 100000000000], "im": [0, 1, 1]}'], "--z-grid"),
        (["wpoly", "--n", "1001"], "--n"),
    ])
    def test_bad_flag_exits_two_naming_token(self, argv, token, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert token in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "1+infi", "infj"])
    @pytest.mark.parametrize("argv", [["weyl", "--z", "1j,{}"],
                                      ["monodromy", "--z-grid", "1,{}"],
                                      ["kernel-signature", "--points",
                                       "1j,{}"]])
    def test_infinite_z_is_non_finite(self, argv, value, capsys):
        # only a trailing imaginary unit i is read as j: "inf" was "jnf"
        argv = argv[:-1] + [argv[-1].format(value)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert f"non-finite complex number {value!r} in {argv[-2]}" in err

    def test_trailing_i_is_the_imaginary_unit(self):
        for text, z in (("1+2i", 1 + 2j), (" 2.5i ", 2.5j), ("-i", -1j)):
            assert cli._finite_complex(text, "--z") == z

    @pytest.mark.parametrize("z_grid, token", [
        ([[1.0, float("nan")]], "nan"),
        (["1+1j", "x"], "'x'"),
        ({"re": [0, 1, 2], "im": [0, float("inf"), 2]}, "inf"),
        ([[True, "1"]], "z_grid"),
        ([[0.5, "1"]], "z_grid"),
        ([True], "z_grid"),
        ({"re": ["0", 1, 2], "im": [0, 1, 2]}, "z_grid re"),
        ({"re": [0, 1, 2], "im": [0, False, 2]}, "z_grid im"),
        ([], "empty z_grid"),
        ({"re": [0, 1, 101], "im": [1, 2, 100]}, "rectangle z_grid"),
    ])
    def test_bad_config_z_grid_exits_two(self, z_grid, token, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_grid": z_grid}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy"], capsys)
        assert code == 2
        assert token in err

    @pytest.mark.parametrize("t_grid", [["0.5", True], [0.5, True], [0.5, None],
                                        [], [0.5, 1.0], [-0.5]])
    def test_bad_config_t_grid_exits_two(self, t_grid, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_grid": [1.0], "t_grid": t_grid}))
        code, _, err = run_cli(["--config", str(cfg), "fundamental"], capsys)
        assert code == 2
        assert "t_grid" in err and "Traceback" not in err

    def test_config_grid_entries_of_every_accepted_form(self, tmp_path, capsys):
        # complex literals as strings, [re, im] pairs and plain numbers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_grid": ["1+2j", [0.5, -1], 2],
                                   "t_grid": [0.25, 0]}))
        code, out, _ = run_cli(["--config", str(cfg), "fundamental"], capsys)
        assert code == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.strip().splitlines()[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (0.25, 1.0, 2.0), (0.0, 1.0, 2.0), (0.25, 0.5, -1.0),
            (0.0, 0.5, -1.0), (0.25, 2.0, 0.0), (0.0, 2.0, 0.0)]

    @pytest.mark.parametrize("key, value, token", [
        ("interval", "xy", "interval"),
        ("sigma", "one", "sigma"),
        ("h_minus", {"kind": "named"}, "'name'"),
        ("oe", "x", "oe"),
        ("omega_minus", "abc", "omega_minus"),
        ("delta", 1.5, "delta"),
        ("delta", "1", "delta"),
        ("d", [float("nan"), 0.0], "d"),
        ("h_minus", {"kind": "piecewise", "pieces": [{
            "interval": [0.0, 1.0], "h1": {"type": "const"}}]}, "'value'"),
        ("h_plus", {"kind": "piecewise", "pieces": [{
            "interval": [1.0, 2.0],
            "h2": {"type": "power", "center": 1.0, "exponent": -2}}]}, "'c'"),
        ("h_minus", {"kind": "named", "name": "inverse-square",
                     "lc": ["auto", "point"]}, "'lc'"),
    ])
    def test_bad_problem_value_exits_two_naming_key(self, key, value, token,
                                                    tmp_path, capsys):
        problem = cs.example_problem_dict()
        problem[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "0"], capsys)
        assert code == 2
        assert token in err and "Traceback" not in err

    # the pipeline integrates at one fixed tolerance, so a "tolerances" key
    # is an unknown config key whatever it holds; the nested key (second
    # column) is never read, and the error names only the top-level key
    @pytest.mark.parametrize("tolerances, nested", [
        ({"tol_limit": 1e-30}, "tol_limit"),
        ({"eps0": 0.1}, "eps0"),
        ({"rk_rtol": "abc"}, "rk_rtol"),
        ({"rk_rtol": -1}, "rk_rtol"),
        ({"rk_rtol": 0}, "rk_rtol"),
        ({"rk_atol": -1e-3}, "rk_atol"),
        ({"rk_atol": float("inf")}, "rk_atol"),
        ({"rk_rtol": True}, "rk_rtol"),
        ([1e-10], "tolerances"),
    ])
    def test_bad_tolerances_exit_two_naming_key(self, tolerances, nested,
                                                 tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "0"], capsys)
        assert code == 2
        assert "unknown config keys ['tolerances']" in err
        assert "Traceback" not in err
        assert nested == "tolerances" or nested not in err

    @pytest.mark.parametrize("flag", ["0", "-4"])
    def test_jobs_below_one_exit_two(self, flag, capsys):
        code, _, err = run_cli(["--jobs", flag, "monodromy", "--z-grid", "0"],
                               capsys)
        assert code == 2
        assert "--jobs" in err and "Traceback" not in err


def run_quiet(argv):
    """Exit code of the CLI with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


_values = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**30, max_value=10**400),
    st.floats(), st.text(max_size=6), st.lists(st.floats(), max_size=2))
_tokens = st.one_of(
    st.integers(min_value=-3, max_value=4).map(str),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=6))


_PROBLEM_KEYS = ["interval", "sigma", "h_minus", "h_plus", "delta", "d", "oe",
                 "b", "omega_minus", "omega_plus", "extra"]
_entry = st.fixed_dictionaries({}, optional={
    "type": st.sampled_from(["const", "poly", "power"]) | _values,
    **{k: _values for k in ("value", "coeffs", "c", "center", "exponent")}})
_piece = st.fixed_dictionaries({"interval": st.just([0.0, 1.0]) | _values},
                               optional={"h1": _entry | _values, "h2": _entry})
_spec = st.fixed_dictionaries(
    {"kind": st.sampled_from(["named", "piecewise", "table"]) | _values},
    optional={"name": st.just("inverse-square") | _values,
              "pieces": st.lists(_piece, max_size=2) | _values,
              "t": _values, "h1": _values, "lc": _values})


class TestFuzz:
    """Any config value or job count exits 0, 1 or 2, never with an exception."""

    @given(tolerances=st.one_of(
        _values, st.dictionaries(st.sampled_from(
            ["rk_rtol", "rk_atol", "eps0", "tol_limit"]), _values, max_size=2)))
    @example(tolerances={"rk_rtol": 1e308, "rk_atol": 1e308})
    @example(tolerances={"rk_rtol": 5e-324, "rk_atol": 0})
    @settings(max_examples=40, deadline=None)
    def test_tolerances(self, tolerances, tmp_path_factory):
        # the pipeline takes no tolerances: every value is an unknown key
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["--config", str(cfg), "monodromy",
                         "--z-grid", "0.5+0.5j"])
        assert code == 2
        assert "unknown config keys ['tolerances']" in out.getvalue()

    @given(key=st.sampled_from(_PROBLEM_KEYS), drop=st.booleans(),
           value=st.one_of(_values, _spec))
    @example(key="d", drop=False, value=[1.7e-110, -4.5e203])  # W overflows
    @example(key="d", drop=False, value=[1.7e308, 1.7e308])  # p(z) overflows
    @example(key="sigma", drop=False, value=5e-324)  # H overflows
    @example(key="sigma", drop=False, value=3.3e-107)  # |H|^2 overflows
    @settings(max_examples=60, deadline=None)
    def test_problem_dict(self, key, drop, value, tmp_path_factory):
        problem = cs.example_problem_dict()
        if drop:
            problem.pop(key, None)
        else:
            problem[key] = value
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem}))
        code = run_quiet(["--config", str(cfg), "monodromy",
                          "--z-grid", "0.5+0.5j"])
        assert code in (0, 1, 2)

    @given(flag=st.none() | _tokens)
    @settings(max_examples=40, deadline=None)
    def test_jobs_tokens(self, flag):
        argv = [] if flag is None else ["--jobs", flag]
        code = run_quiet(argv + ["monodromy", "--z-grid", "0.5+0.5j,1j"])
        assert code in (0, 1, 2)


class TestSubcommands:
    def test_validate_example_passes(self, capsys):
        code, out, _ = run_cli(["validate-example"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert max(report["max_abs_err"].values()) < 1e-6

    def test_validate_example_passes_below_the_default_s_plus(self, capsys):
        # the default t grid ends at s_plus, not at 2
        code, out, _ = run_cli(["validate-example", "--s-plus", "1.5"],
                               capsys)
        assert code == 0
        assert json.loads(out)["pass"]

    def test_fundamental_csv_shape(self, capsys):
        code, out, _ = run_cli(["fundamental", "--side", "minus",
                                "--z-grid", "1,1j", "--t-grid", "0.25,0.5"],
                               capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == [
            "t", "z_re", "z_im", "W11_re", "W11_im", "W12_re", "W12_im",
            "W21_re", "W21_im", "W22_re", "W22_im", "det_err"]
        assert len(lines) == 1 + 4

    def test_fundamental_grid_is_fundamental_z_by_z(self, capsys):
        # 5 z: two batches; each row the bits of the API's own solution
        zs, ts = [1 + 1j, 2j, 0.5, 3 - 1j, 1j], [0.125, 0.5, 0.875]
        code, out, _ = run_cli(["fundamental", "--z-grid",
                                ",".join(map(repr, zs)), "--t-grid",
                                ",".join(map(repr, ts))], capsys)
        assert code == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.strip().splitlines()[1:]]
        ih = cs.example_problem()
        want = []
        for z in zs:
            w = cs.fundamental(ih.h_minus, z, side="minus", t0=0.0)
            want += [cli._w_row(t, z, w.eval(t), w.det_error()) for t in ts]
        assert rows == want

    def test_wpoly_csv(self, capsys):
        code, out, _ = run_cli(["wpoly", "--side", "minus", "--n", "1",
                                "--t-grid", "0.25,0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,w1_re,w1_im,w2_re,w2_im"
        row = [float(x) for x in lines[2].split(",")]
        assert row[1] == pytest.approx(-1.0, abs=1e-10)  # w1 at t=0.5

    def test_regbv_json(self, capsys):
        code, out, _ = run_cli(["regbv", "--side", "minus", "--z-grid",
                                "3.141592653589793", "--init", "1,0",
                                "--verbose"], capsys)
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["gamma_s"][0] == pytest.approx(-2.0, abs=1e-8)
        assert rec["gamma_r"][0] == pytest.approx(1.0 / np.pi, abs=1e-8)
        assert "samples" in rec

    def test_regbv_matches_a_run_from_the_regular_endpoint(self, capsys):
        # regbv reads U^T y0 off the cached basis; gamma_columns integrates
        code, out, _ = run_cli(["regbv", "--side", "plus", "--z-grid",
                                "0.5-1.5j", "--init", "0.3-1j,2",
                                "--verbose"], capsys)
        assert code == 0
        rec = json.loads(out)[0]
        ih = cs.example_problem()
        want = cs.gamma_columns(ih, "plus", 0.5 - 1.5j, ih.s_plus,
                                [[0.3 - 1j], [2.0]])[0]
        got = [complex(*rec["gamma_s"]), complex(*rec["gamma_r"])]
        np.testing.assert_allclose(got, want.vec, rtol=1e-10)
        assert [x for x, _, _ in rec["samples"]] == [x for x, _, _ in want.samples]
        assert 0.0 < rec["err_est"] < 1e-6

    def test_monodromy_det_err_is_normalised(self, capsys):
        # W's entries reach 1e43 here: a raw |det W - 1| is pure cancellation
        code, out, _ = run_cli(["monodromy", "--z-grid", "50j,35+20j,8j"],
                               capsys)
        assert code == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert max(abs(v) for v in rows[0][3:11]) > 1e40
        for row in rows:
            w = np.array(row[3:11:2]) + 1j * np.array(row[4:11:2])
            assert row[-1] == det_residual(w.reshape(2, 2), 1.0)
            assert row[-1] <= 1e-12

    def test_weyl_json(self, capsys):
        code, out, _ = run_cli(["weyl", "--z", "1j"], capsys)
        assert code == 0
        rec = json.loads(out)[0]
        want = (np.sin(1j) / (1j) ** 2 - np.cos(1j) / 1j) / (np.sin(1j) / 1j)
        assert rec["q_sigma"][1] == pytest.approx(want.imag, abs=1e-9)

    def test_kernel_signature_seeded(self, capsys):
        code, out, _ = run_cli(["kernel-signature", "--random-grid", "6",
                                "--seed", "3"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["neg_count"] >= 1

    def test_check_conditions(self, capsys):
        code, out, err = run_cli(["check-conditions"], capsys)
        assert code == 0
        rep = json.loads(out)
        for side in ("minus", "plus"):
            assert rep[side]["condition_I"]
            assert rep[side]["condition_HS"]
            assert not rep[side]["indivisible"]
            assert rep[side]["delta_consistent"]
        assert "cond_I" in err  # human-readable table on stderr

    def test_check_conditions_misdeclared_delta(self, capsys, tmp_path):
        problem = cs.example_problem_dict()
        problem["delta"] = 2
        problem["d"] = [0.0, 0.0, 0.0, 0.0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem}))
        code, out, _ = run_cli(["--config", str(cfg), "check-conditions"],
                               capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["minus"]["delta_consistent"] is False

    def test_check_conditions_divergent_flagged(self, capsys, tmp_path):
        problem = cs.example_problem_dict()
        problem["h_minus"] = {"kind": "piecewise", "pieces": [{
            "interval": [0.0, 1.0],
            "h1": {"type": "power", "c": 1.0, "center": 1.0, "exponent": -2},
            "h2": {"type": "power", "c": 1.0, "center": 1.0, "exponent": -2}}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem}))
        code, out, _ = run_cli(["--config", str(cfg), "check-conditions"],
                               capsys)
        assert code == 0
        assert json.loads(out)["minus"]["condition_I"] is False


class TestIndivisibleConfig:
    """Problems with an indivisible side of type phi, loaded by --config."""

    def write(self, tmp_path, phi, side):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"problem": indivisible_problem_dict(phi, side)}))
        return str(cfg)

    def test_regbv_returns_the_regular_end_value(self, tmp_path, capsys):
        cfg = self.write(tmp_path, np.pi / 4, "plus")
        code, out, _ = run_cli(["--config", cfg, "regbv", "--side", "plus",
                                "--z-grid", "0.7+0.2j", "--init", "0.3-1j,2"],
                               capsys)
        assert code == 0
        rec = json.loads(out)[0]
        got = [complex(*rec["gamma_s"]), complex(*rec["gamma_r"])]
        np.testing.assert_allclose(got, [0.3 - 1j, 2.0], atol=1e-14)
        assert rec["err_est"] == 0.0

    def test_weyl_without_a_limit_exits_one(self, tmp_path, capsys):
        # at phi = 0, w12/w22 grows like z int h1 toward sigma
        cfg = self.write(tmp_path, 0.0, "minus")
        code, out, err = run_cli(["--config", cfg, "weyl", "--z", "0.5+1j"],
                                 capsys)
        assert code == 1
        assert "LimitError" in err
        assert out == ""


class TestOutputBlock:
    def test_config_output_defaults(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"output": {"format": "json", "path": str(target)}}))
        code = main(["--config", str(cfg), "monodromy", "--z-grid", "0"])
        assert code == 0
        rec = json.loads(target.read_text())[0]
        np.testing.assert_allclose(rec["W"], [[[1, 0], [0, 0]],
                                              [[0, 0], [1, 0]]], atol=1e-12)

    def test_unknown_output_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"formt": "json"}}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "0"], capsys)
        assert code == 2
        assert "formt" in err

    def test_validate_example_writes_to_the_config_path(self, tmp_path,
                                                        capsys):
        target = tmp_path / "report.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"output": {"format": "json", "path": str(target)}}))
        code, out, _ = run_cli(["--config", str(cfg), "validate-example"],
                               capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["pass"]

    # validate-example reads only the output block of a config
    @pytest.mark.parametrize("text, token", [
        (None, "cannot read config"),
        ('{"output": {', "malformed JSON"),
        ('{"output": {"formt": "json"}}', "formt"),
        ('{"problem": {}}', "['problem']"),
        ('{"z_grid": [1], "output": {}}', "['z_grid']"),
    ])
    def test_validate_example_rejects_a_bad_config(self, text, token,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        monkeypatch.setattr(cli.ex, "run_validation",
                            lambda *args, **kwargs: pytest.fail("validated"))
        code, out, err = run_cli(["--config", str(cfg), "validate-example"],
                                 capsys)
        assert code == 2 and out == ""
        assert token in err and "Traceback" not in err

    @pytest.mark.parametrize("command, fmt, code", [
        (["fundamental", "--z-grid", "1j", "--t-grid", "0.5"], "json", 2),
        (["wpoly", "--t-grid", "0.5"], "json", 2),
        (["regbv", "--z-grid", "1j"], "csv", 2),
        (["weyl", "--z", "1j"], "csv", 2),
        (["validate-example"], "csv", 2),
        (["monodromy", "--z-grid", "1j"], "xml", 2),
        (["fundamental", "--z-grid", "1j", "--t-grid", "0.5"], "csv", 0),
        (["regbv", "--z-grid", "1j"], "json", 0),
    ])
    def test_config_format_checked_per_subcommand(self, command, fmt,
                                                        code, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"format": fmt}}))
        got, out, err = run_cli(["--config", str(cfg), *command], capsys)
        assert got == code
        if code == 2:
            assert out == "" and "output.format" in err
            assert "Traceback" not in err
        else:
            assert out.startswith("t,z_re" if fmt == "csv" else "[")


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["--output", str(path), "monodromy",
                         "--z-grid", "1,1j,2+3j"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--output", str(a), "--jobs", "1", "fundamental",
                     "--z-grid", "1,2j,1+1j", "--t-grid", "0.5"]) == 0
        assert main(["--output", str(b), "--jobs", "3", "fundamental",
                     "--z-grid", "1,2j,1+1j", "--t-grid", "0.5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", [
        ["fundamental", "--t-grid", "0.5"], ["regbv"], ["monodromy"]])
    def test_jobs_start_no_thread(self, command, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        assert run_quiet(["--jobs", "4", *command,
                          "--z-grid", "1,2j,1+1j"]) == 0
        assert started == []

    def test_seeded_kernel_signature_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["--output", str(path), "kernel-signature",
                         "--random-grid", "6", "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCheckConditionsApi:
    def test_report_structure(self, example_ih):
        rep = check_conditions(example_ih)
        assert set(rep) == {"minus", "plus"}
        assert rep["minus"]["psd_worst"] <= 1e-10
