import contextlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import canonsys as cs
from canonsys.cli import check_conditions, main


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

    def test_computation_error_maps_to_one(self, capsys):
        # weyl coefficient at real z violates its precondition
        code, _, err = run_cli(["weyl", "--z", "2.0"], capsys)
        assert code == 1
        assert "DomainError" in err


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
    ])
    def test_bad_flag_exits_two_naming_token(self, argv, token, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert token in err and "Traceback" not in err

    @pytest.mark.parametrize("z_grid, token", [
        ([[1.0, float("nan")]], "nan"),
        (["1+1j", "x"], "'x'"),
        ({"re": [0, 1, 2], "im": [0, float("inf"), 2]}, "inf"),
    ])
    def test_bad_config_z_grid_exits_two(self, z_grid, token, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z_grid": z_grid}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy"], capsys)
        assert code == 2
        assert token in err

    @pytest.mark.parametrize("key, value, token", [
        ("interval", "xy", "interval"),
        ("sigma", "one", "sigma"),
        ("h_minus", {"kind": "named"}, "'name'"),
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

    @pytest.mark.parametrize("tolerances, token", [
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
    def test_bad_tolerances_exit_two_naming_key(self, tolerances, token,
                                                 tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        code, _, err = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "0"], capsys)
        assert code == 2
        assert token in err and "Traceback" not in err

    def test_tolerances_reach_the_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"rk_rtol": 1e-10,
                                                  "rk_atol": 0}}))
        code, out, _ = run_cli(["--config", str(cfg), "monodromy",
                                "--z-grid", "1+1j"], capsys)
        assert code == 0
        row = [float(x) for x in out.strip().splitlines()[1].split(",")]
        want = cs.monodromy_matrix(cs.example_problem(), 1 + 1j, rtol=1e-10,
                                   atol=0.0)
        np.testing.assert_array_equal(row[3:11], np.stack(
            [want.real, want.imag], axis=-1).ravel())

    @pytest.mark.parametrize("flag, env, token", [
        ("0", "abc", "--jobs"),
        ("-4", None, "--jobs"),
        (None, "-2", "CANON_JOBS"),
        (None, "0", "CANON_JOBS"),
        (None, "two", "CANON_JOBS"),
    ])
    def test_jobs_below_one_exit_two(self, flag, env, token, monkeypatch,
                                     capsys):
        if env is None:
            monkeypatch.delenv("CANON_JOBS", raising=False)
        else:
            monkeypatch.setenv("CANON_JOBS", env)
        argv = [] if flag is None else ["--jobs", flag]
        code, _, err = run_cli(argv + ["monodromy", "--z-grid", "0"], capsys)
        assert code == 2
        assert token in err and "Traceback" not in err


def run_quiet(argv, env_jobs=None):
    """Exit code of the CLI with its output discarded and CANON_JOBS set."""
    env = {k: v for k, v in os.environ.items() if k != "CANON_JOBS"}
    if env_jobs is not None:
        env["CANON_JOBS"] = env_jobs
    sink = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


_values = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**30, max_value=10**400),
    st.floats(), st.text(max_size=6), st.lists(st.floats(), max_size=2))
_tokens = st.one_of(
    st.integers(min_value=-3, max_value=4).map(str),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=6))


class TestFuzz:
    """Any config value or job count exits 0, 1 or 2, never with an exception."""

    @given(tolerances=st.one_of(
        _values, st.dictionaries(st.sampled_from(
            ["rk_rtol", "rk_atol", "eps0", "tol_limit"]), _values, max_size=2)))
    @example(tolerances={"rk_rtol": 1e308, "rk_atol": 1e308})
    @example(tolerances={"rk_rtol": 5e-324, "rk_atol": 0})
    @settings(max_examples=40, deadline=None)
    def test_tolerances(self, tolerances, tmp_path_factory):
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        code = run_quiet(["--config", str(cfg), "monodromy",
                          "--z-grid", "0.5+0.5j"])
        assert code in (0, 1, 2)

    @given(flag=st.none() | _tokens, env=st.none() | _tokens)
    @settings(max_examples=40, deadline=None)
    def test_jobs_tokens(self, flag, env):
        argv = [] if flag is None else ["--jobs", flag]
        code = run_quiet(argv + ["monodromy", "--z-grid", "0.5+0.5j,1j"], env)
        assert code in (0, 1, 2)


class TestSubcommands:
    def test_validate_example_passes(self, capsys):
        code, out, _ = run_cli(["validate-example"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert max(report["max_abs_err"].values()) < 1e-6

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
