import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

import ssqp.bench
from ssqp.cli import (
    CSV_HEADER,
    SWEEP_HEADER,
    RunConfig,
    apply_flags,
    build_parser,
    load_config,
    main,
    resolve_start,
)
from ssqp.diagnostics import degeneracy_report
from ssqp.spaces import Functional

SCI = r"-?\d\.\d{15}e[+-]\d{2,3}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_default_run_converges(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--benchmark", "degenerate-line")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        last = lines[-1].split(",")
        assert float(last[5]) <= 1e-12  # kkt_total column
        assert CSV_HEADER not in err  # tables never go to stderr

    def test_golden_csv_format(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--benchmark", "degenerate-line",
                            "--max-iter", "3", "--tol", "1e-6")
        lines = out.strip().splitlines()
        assert lines[0] == ("k,rho,kkt_stationarity,kkt_feasibility,kkt_polar,"
                            "kkt_total,err_z,dist_lambda,total_err,order")
        row = re.compile(
            rf"^\d+,{SCI},{SCI},{SCI},{SCI},{SCI},({SCI})?,({SCI})?,"
            rf"({SCI})?,({SCI})?$"
        )
        for line in lines[1:]:
            assert row.match(line), line

    def test_unstabilized_run_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--benchmark",
                                 "degenerate-line", "--rho-rule", "fixed",
                                 "--rho", "0")
        assert code == 3
        assert "singular" in err

    def test_json_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--benchmark", "degenerate-line",
                               "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Converged"
        fields = {"k", "rho", "kkt_stationarity", "kkt_feasibility",
                  "kkt_polar", "kkt_total", "err_z", "dist_lambda",
                  "total_err", "order"}
        assert fields == set(payload["history"][0])

    def test_iteration_limit_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--benchmark",
                               "degenerate-line", "--max-iter", "1",
                               "--tol", "1e-300")
        assert code == 2

    def test_unknown_benchmark_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--benchmark", "nope")
        assert code == 1
        assert out == ""
        assert "unknown benchmark" in err

    def test_explicit_start_and_multiplier(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--benchmark", "degenerate-line",
            "--start-offset", "0.05,0.05", "--lambda0=-0.55,-0.5",
        )
        assert code == 0

    @pytest.mark.parametrize("offset", ["", " ", " default "])
    def test_empty_offset_is_the_default_start(self, capsys, offset):
        args = ("solve", "--benchmark", "degenerate-line")
        default = run_cli(capsys, *args)
        assert default[0] == 0
        assert run_cli(capsys, *args, f"--start-offset={offset}") == default

    def test_usage_error_exits_1(self, capsys):
        # argparse's own message, but exit 1 (configuration error) rather
        # than argparse's 2, which here means "iteration limit"
        argv = ["solve", "--output", "xml"]
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2
        argparse_err = capsys.readouterr().err
        assert argparse_err.startswith("usage: ssqp solve ")
        assert argparse_err.splitlines()[-1].startswith(
            "ssqp solve: error: argument --output: invalid choice: 'xml'")
        assert run_cli(capsys, *argv) == (1, "", argparse_err)
        with pytest.raises(SystemExit) as raised:
            main(["solve", "--help"])
        assert raised.value.code == 0

    def test_eigencontrol_parameters_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--benchmark", "eigencontrol-n49",
            "--n", "15", "--alpha", "1.0", "--tol", "1e-9",
        )
        assert code == 0

    def test_bad_callback_output_exits_3(self, capsys, monkeypatch):
        # grad_f turns infinite after the first step
        bm = ssqp.bench.get_benchmark("degenerate-line")
        grad_f = bm.problem.grad_f

        def spoiled(z):
            if abs(z.coords[0]) < 0.09:
                return Functional(bm.problem.Z, [np.inf, 0.0])
            return grad_f(z)

        bare = dataclasses.replace(
            bm, problem=dataclasses.replace(bm.problem, grad_f=spoiled),
            reference=None,
        )
        monkeypatch.setattr(ssqp.cli.bench, "get_benchmark",
                            lambda name, **kw: bare)
        code, out, err = run_cli(capsys, "solve")
        assert code == 3
        assert err == ("subproblem failure at iteration 1: callback grad_f "
                       "returned a value that is not finite\n")

    @pytest.mark.parametrize("flags, message", [
        (["--tol", "nan"], "error: tol must be finite and positive, got nan\n"),
        (["--tol", "inf"], "error: tol must be finite and positive, got inf\n"),
        (["--rho-rule", "fixed", "--rho", "nan"],
         "error: rho must be finite and >= 0, got nan\n"),
        (["--rho-rule", "fixed", "--rho", "-1"],
         "error: rho must be finite and >= 0, got -1.0\n"),
        (["--theta", "nan"], "error: theta must be finite and >= 0, got nan\n"),
        (["--rho-rule", "oracle", "--sigma0", "inf"],
         "error: sigma0 must be finite and >= 0, got inf\n"),
        (["--sigma1", "nan"], "error: need finite rho_min and sigma1 with "
         "0 < rho_min <= sigma1, got 1e-14 and nan\n"),
    ])
    def test_non_finite_option_exits_1(self, capsys, flags, message):
        # a bad setting stops the run before any solve
        code, out, err = run_cli(capsys, "solve", "--benchmark",
                                 "degenerate-line", *flags)
        assert (code, out, err) == (1, "", message)

    def test_non_finite_sweep_value_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--benchmark", "degenerate-line",
                                 "--sweep", "rho_fixed", "--grid", "0.1,nan")
        assert (code, out) == (1, "")
        assert err == "error: rho must be finite and >= 0, got nan\n"

    # the CLI sets the display of warnings, not which ones are raised, so
    # the polar-cone warning is let through the suite's error filter
    @pytest.mark.filterwarnings("default::UserWarning")
    def test_polar_cone_warning_is_one_stable_line(self, capsys):
        shown = warnings.showwarning
        code, out, err = run_cli(capsys, "solve", "--benchmark", "cone-active",
                                 "--lambda0", "0.5,-0.5")
        assert (code, out.splitlines()[0]) == (0, CSV_HEADER)
        assert err == ("warning: initial multiplier is outside the polar "
                       "cone; projecting pairings\n")
        assert warnings.showwarning is shown

    def test_oracle_rho_rule(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--benchmark", "degenerate-line",
                             "--rho-rule", "oracle", "--sigma0", "1.0")
        assert code == 0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nbenchmark = degenerate-line\noutput = json\n"
            "[options]\nrho_rule = fixed\nrho = 0.05\nmax_iter = 30\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["status"] == "Converged"
        # flag overrides the config's fixed rule with the singular case
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg),
                               "--rho", "0")
        assert code == 3

    def test_metric_section_changes_projection(self, capsys, tmp_path):
        cfg = tmp_path / "metric.ini"
        cfg.write_text(
            "[run]\nbenchmark = degenerate-line\noutput = json\n"
            "[metric]\nmass_y = diagonal: [4, 1]\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        # the scaled metric moves the projected multiplier to (-0.8, -0.2),
        # visible through the starting distance
        first = json.loads(out)["history"][0]
        assert first["dist_lambda"] is not None

    def test_metric_on_fixed_metric_benchmark_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[run]\nbenchmark = eigencontrol-n49\n"
            "[metric]\nmass_y = identity\n"
        )
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 1
        assert "fixed metric" in err

    def test_missing_config_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--config", "/nonexistent.ini")
        assert code == 1

    def test_malformed_config_value_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[options]\ntol = banana\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize("section, key, text, kind", [
        ("options", "max_iter", "abc", "an int"),
        ("options", "tol", "banana", "a float"),
        ("run", "seed", "1.5", "an int"),
        ("eigencontrol", "n", "auto", "an int"),
        ("eigencontrol", "alpha", "big", "a float"),
        ("eigencontrol", "q_d", "x", "a float"),
    ])
    def test_unparsable_value_names_its_key(self, capsys, tmp_path, section,
                                            key, text, kind):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == f"error: [{section}] {key} = {text!r} is not {kind}\n"

    @pytest.mark.parametrize("section, key, value", [
        ("run", "output", "xml"),
        ("options", "rho_rule", "adaptive"),
    ])
    def test_value_outside_the_flag_choices_exits_1(self, capsys, tmp_path,
                                                    section, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 1
        assert out == ""
        choices = next(f.metadata["choices"] for f in dataclasses.fields(RunConfig)
                       if f.name == key)
        assert err == (f"error: [{section}] {key} = {value!r} is not one of: "
                       f"{', '.join(choices)}\n")

    def test_inline_comments_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "comments.ini"
        cfg.write_text(
            "[run]\nbenchmark = degenerate-line\n"
            "start_offset = 0.05, 0.05   ; offset from the reference\n"
        )
        code, _, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0

    def test_eigencontrol_section(self, capsys, tmp_path):
        cfg = tmp_path / "eig.ini"
        cfg.write_text(
            "[run]\nbenchmark = eigencontrol-n49\noutput = json\n"
            "[options]\ntol = 1e-9\n"
            "[eigencontrol]\nn = 9\nalpha = 2.0\nq_d = auto\n"
            "u_d_mode = 1\nu_d_amp = 0.0\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["benchmark"] == "eigencontrol-n9"


def setting(cfg: RunConfig, key: str):
    """The parsed value of one setting; one left at None (the default of
    the eigencontrol keys) reads as a missing-key marker."""
    value = getattr(cfg, key)
    return "<unset>" if value is None else value


# section, key, INI text, parsed value
INI_CASES = [
    ("run", "benchmark", "cone-active", "cone-active"),
    ("run", "start_offset", "0.05, 0.05", "0.05, 0.05"),
    ("run", "lambda0", "-0.5,-0.5", "-0.5,-0.5"),
    ("run", "output", "json", "json"),
    ("run", "seed", "7", 7),
    ("options", "rho_rule", "fixed", "fixed"),
    ("options", "theta", "2.5", 2.5),
    ("options", "rho", "0.01", 0.01),
    ("options", "sigma0", "3", 3.0),
    ("options", "sigma1", "0.5", 0.5),
    ("options", "tol", "1e-9", 1e-9),
    ("options", "max_iter", "30", 30),
    ("metric", "mass_z", "identity", "identity"),
    ("metric", "mass_y", "diagonal: [4, 1]", "diagonal: [4, 1]"),
    ("eigencontrol", "n", "9", 9),
    ("eigencontrol", "alpha", "2.0", 2.0),
    ("eigencontrol", "q_d", "3.5", 3.5),
    ("eigencontrol", "q_d", "auto", "<unset>"),
    ("eigencontrol", "u_d_mode", "2", 2),
    ("eigencontrol", "u_d_amp", "0.25", 0.25),
]

# flag arguments, section, key, parsed value
FLAG_CASES = [
    (["--benchmark", "cone-active"], "run", "benchmark", "cone-active"),
    (["--rho-rule", "fixed"], "options", "rho_rule", "fixed"),
    (["--theta", "2.5"], "options", "theta", 2.5),
    (["--rho", "0.01"], "options", "rho", 0.01),
    (["--sigma0", "3"], "options", "sigma0", 3.0),
    (["--sigma1", "0.5"], "options", "sigma1", 0.5),
    (["--tol", "1e-9"], "options", "tol", 1e-9),
    (["--max-iter", "30"], "options", "max_iter", 30),
    (["--start-offset", "0.05,0.05"], "run", "start_offset", "0.05,0.05"),
    (["--lambda0=-0.5,-0.5"], "run", "lambda0", "-0.5,-0.5"),
    (["--output", "json"], "run", "output", "json"),
    (["--seed", "7"], "run", "seed", 7),
    (["--n", "9"], "eigencontrol", "n", 9),
    (["--alpha", "2.0"], "eigencontrol", "alpha", 2.0),
    (["--q-d", "3.5"], "eigencontrol", "q_d", 3.5),
    (["--u-d-mode", "2"], "eigencontrol", "u_d_mode", 2),
    (["--u-d-amp", "0.25"], "eigencontrol", "u_d_amp", 0.25),
]


INI_KEYS = {(f.metadata["section"], f.name) for f in dataclasses.fields(RunConfig)}


class TestSettings:
    @pytest.mark.parametrize("section, key, text, expected", INI_CASES)
    def test_ini_key_reaches_the_config(self, tmp_path, section, key, text,
                                        expected):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        got = setting(load_config(str(path)), key)
        assert got == expected
        assert type(got) is type(expected)

    @pytest.mark.parametrize("argv, section, key, expected", FLAG_CASES)
    def test_flag_reaches_the_config(self, argv, section, key, expected):
        args = build_parser().parse_args(["solve", *argv])
        got = setting(apply_flags(RunConfig(), args), key)
        assert got == expected
        assert type(got) is type(expected)

    def test_cases_cover_every_key(self):
        assert {(sec, key) for sec, key, _, _ in INI_CASES} == INI_KEYS
        flagged = {(sec, key) for _, sec, key, _ in FLAG_CASES}
        assert flagged == INI_KEYS - {("metric", "mass_z"), ("metric", "mass_y")}

    def test_metric_keys_have_no_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--mass-z", "identity"])

    def test_unknown_and_misplaced_keys_are_ignored(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nfoo = 1\ntol = 1e-3\n[options]\nseed = 4\nbar = x\n"
            "[eigencontrol]\nbaz = 3\n[extra]\nbenchmark = cone-active\n"
        )
        assert load_config(str(path)) == RunConfig()


class TestSweep:
    def test_theta_sweep_all_quadratic(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--benchmark", "degenerate-line",
            "--sweep", "theta", "--grid", "0.1,1,10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "Converged"
            assert float(cells[5]) >= 1.7

    def test_fixed_rho_sweep_shows_linear_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--benchmark", "degenerate-line",
            "--sweep", "rho_fixed", "--grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
            "--tol", "1e-300", "--max-iter", "14",
        )
        assert code == 0
        orders = []
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            if cells[5]:
                orders.append(float(cells[5]))
        assert any(abs(o - 1.0) <= 0.3 for o in orders)

    def test_start_radius_beyond_certified_is_robust(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--benchmark", "degenerate-line",
            "--sweep", "start_radius", "--grid", "0.05,0.1,2.0,20.0",
            "--max-iter", "12",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 4
        values = [float(line.split(",")[1]) for line in lines]
        assert values == sorted(values)
        for line in lines:
            assert line.split(",")[2] in {"Converged", "MaxIter",
                                          "SubproblemFailure"}

    def test_sigma1_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--benchmark", "degenerate-line",
            "--sweep", "sigma1", "--grid", "0.5,1.0",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[2] == "Converged"

    def test_grid_over_n_rebuilds_eigencontrol(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--benchmark", "eigencontrol-n49",
            "--sweep", "n", "--grid", "9,15", "--tol", "1e-9",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_n_sweep_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--benchmark", "degenerate-line",
            "--sweep", "n", "--grid", "9,15",
        )
        assert code == 1

    def test_n_sweep_rejects_fractional_values(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--benchmark", "eigencontrol-n49",
            "--sweep", "n", "--grid", "9,20.9",
        )
        assert code == 1
        assert out == ""
        assert err == "error: sweep over n takes integer grid values, got 20.9\n"

    def test_min_order_is_the_smaller_of_the_last_two_orders(self, capsys):
        # here the 4-step run resolves orders at k = 1 and 2 only (the
        # k = 3 stencil touches an error below the floor), so the row
        # reports the k = 1 order, whose stencil spans steps 0 to 2
        _, table, _ = run_cli(capsys, "solve", "--benchmark", "degenerate-line",
                              "--theta", "0.3")
        orders = {int(row.split(",")[0]): row.split(",")[-1]
                  for row in table.strip().splitlines()[1:]}
        assert len(orders) == 5
        assert [k for k, cell in orders.items() if cell] == [1, 2]
        _, out, _ = run_cli(capsys, "sweep", "--benchmark", "degenerate-line",
                            "--sweep", "theta", "--grid", "0.3")
        min_order = out.strip().splitlines()[1].split(",")[5]
        assert float(orders[1]) < float(orders[2])
        assert min_order == orders[1]

    def test_empty_grid_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--benchmark", "degenerate-line",
            "--sweep", "theta", "--grid", ",",
        )
        assert code == 1
        assert "empty" in err


class TestDiagnose:
    def test_degenerate_line_report(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--benchmark",
                               "degenerate-line")
        assert code == 0
        payload = json.loads(out)
        assert payload["degeneracy"]["rcq_satisfied"] is False
        margins = payload["coercivity"]["margins"]
        grid = payload["coercivity"]["rho_grid"]
        pairs = sorted(zip(grid, margins))
        values = [m for _, m in pairs]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))
        assert np.isfinite(payload["error_estimate_ratio"]["value"])

    def test_eigencontrol_reports_tiny_singular_value(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--benchmark",
                               "eigencontrol-n49")
        assert code == 0
        payload = json.loads(out)
        assert min(payload["degeneracy"]["singular_values"]) <= 1e-8

    def test_point_offset_moves_the_report(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--benchmark",
                               "degenerate-line", "--start-offset", "0.3,0.0")
        assert code == 0
        payload = json.loads(out)
        svals = sorted(payload["degeneracy"]["singular_values"])
        # jacobian rows (1, 0) and (1.6, 0) at x1 = 0.3
        assert svals[1] == pytest.approx(np.hypot(1.0, 1.6), rel=1e-12)
        assert svals[0] == pytest.approx(0.0, abs=1e-12)

    def test_random_offset_takes_the_solve_start(self, capsys, tmp_path):
        cfg = tmp_path / "random.ini"
        cfg.write_text("[run]\nbenchmark = degenerate-line\n"
                       "start_offset = random\nseed = 4\n")
        code, out, err = run_cli(capsys, "diagnose", "--config", str(cfg))
        assert (code, err) == (0, "")
        # the seeded direction at the certified radius, as solve starts
        bm = ssqp.bench.get_benchmark("degenerate-line")
        z0, _ = resolve_start(bm, RunConfig(start_offset="random", seed=4))
        offset = z0.coords - bm.reference.z_star.coords
        assert bm.problem.Z.norm_arr(offset) == pytest.approx(bm.certified_radius,
                                                              rel=1e-12)
        report = degeneracy_report(bm.problem, z0)
        assert json.loads(out)["degeneracy"]["singular_values"] == list(
            report.singular_values)

    @pytest.mark.parametrize("offset", ["", " default "])
    def test_default_offset_is_the_reference_point(self, capsys, offset):
        args = ("diagnose", "--benchmark", "degenerate-line")
        assert (run_cli(capsys, *args, f"--start-offset={offset}")
                == run_cli(capsys, *args))

    def test_missing_reference_yields_null_with_note(self, capsys, monkeypatch):
        bm = ssqp.bench.get_benchmark("degenerate-line")
        bare = ssqp.bench.BenchmarkProblem(
            name="degenerate-line", problem=bm.problem, reference=None,
            certified_radius=bm.certified_radius, describe=bm.describe,
            default_start_offset=bm.default_start_offset,
            default_lambda0=bm.default_lambda0,
        )
        monkeypatch.setattr(ssqp.cli.bench, "get_benchmark",
                            lambda name, **kw: bare)
        code, out, _ = run_cli(capsys, "diagnose", "--benchmark",
                               "degenerate-line")
        assert code == 0
        payload = json.loads(out)
        assert payload["error_estimate_ratio"]["value"] is None
        assert payload["error_estimate_ratio"]["note"]

    @pytest.mark.parametrize("grid", ["-1", "nan", "0.1,nan"])
    def test_non_positive_rho_exits_1(self, capsys, grid):
        code, out, err = run_cli(capsys, "diagnose", "--benchmark",
                                 "degenerate-line", "--grid", grid)
        assert (code, out, err) == (1, "", "error: rho must be positive\n")


class TestList:
    def test_lists_registered_names(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        names = out.strip().splitlines()
        assert names == ssqp.bench.list_benchmarks()


def _python(code: str) -> str:
    """stdout of a fresh interpreter running `code` with this ssqp."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(ssqp.bench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs a quarter second per process; only cone
    # problems need it, and import it late.  scipy.sparse (about 30 ms) is
    # loaded by eigencontrol's sparse callbacks only, scipy.sparse.linalg
    # (17 ms more) by sparse solves only
    assert _python(
        "import sys, ssqp.cli; "
        "print(*(name in sys.modules for name in "
        "('scipy.optimize', 'scipy.sparse', 'scipy.sparse.linalg')))"
    ) == "False False False"


def test_dense_reference_projection_leaves_scipy_sparse_unloaded():
    # a dense j_star keeps the pivoted QR; only a sparse one takes the
    # sparse projector and its imports
    assert _python(
        "import contextlib, io, sys, ssqp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ssqp.cli.main(['solve', '--benchmark', 'degenerate-line'])\n"
        "print(code, *(name in sys.modules for name in "
        "('scipy.sparse', 'scipy.sparse.linalg')))"
    ) == "0 False False"


def test_eigencontrol_diagnose_leaves_scipy_optimize_unloaded():
    # eigencontrol's reference is in closed form: building it and running
    # the diagnostics on it need no optimizer
    assert _python(
        "import contextlib, io, sys, ssqp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ssqp.cli.main(['diagnose', '--benchmark', 'eigencontrol-n49'])\n"
        "print(code, 'scipy.optimize' in sys.modules)"
    ) == "0 False"
