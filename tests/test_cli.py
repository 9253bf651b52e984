"""End-to-end runs of the command line driver, in process."""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import linecox
from linecox import analytic, cli
from linecox.cli import _parser, main
from linecox.core import NetworkParams, convert_units, params_digest

V = 30.0 / 3600.0


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


# Bad inputs: test name -> (argv, text stderr must contain).  Each exits 2,
# names the offending field and creates no --out.
BAD_INPUTS = {
    "alpha_at_boundary_names_the_field": (["laplace", "--set", "params.alpha=2"],
                                          "[params] alpha"),
    "monte_carlo_requires_seed": (["laplace", "--mode", "montecarlo", "--n", "200"],
                                  "[run] seed"),
    "geometry_requires_seed": (["geometry-dump"], "[run] seed"),
    "unknown_config_key": (["laplace", "--set", "run.bogus=1"], "bogus"),
    "malformed_grid": (["laplace", "--set", "grid.s=lin:1,2"], "[grid] s"),
    "unknown_mode": (["laplace", "--set", "run.mode=telepathy"], "[run] mode"),
    "bad_unit_string": (["laplace", "--set", "params.speed=30 mph"], "[params] speed"),
    "constraint_not_a_number": (["optimize", "--set", "run.constraint=abc"],
                                "[run] constraint"),
    "negative_weight": (["optimize", "--set", "run.w1=-1"], "[run] w1"),
    "too_few_realisations": (["laplace", "--mode", "montecarlo", "--seed", "1", "--n", "10"],
                             "[run] n"),
    "decreasing_optimize_grid": (["optimize", "--set", "grid.nu=0.9,0.5,0.1"], "[grid] nu"),
    "negative_time_grid": (["af-cumulative", "--set", "grid.t=-5,1"], "[grid] t"),
    "negative_wait_grid": (["latency", "--set", "grid.w=-1"], "[grid] w"),
    "negative_threshold_grid": (["coverage", "--set", "grid.tau=-1"], "[grid] tau"),
    "grid_key_not_read": (["laplace", "--set", "grid.tau=5"], "[grid] tau"),
    "removed_param_key": (["laplace", "--set", "params.device_density=1"],
                          "[params] device_density"),
    "negative_radius": (["geometry-dump", "--seed", "1", "--set", "run.radius=-1"],
                        "[run] radius"),
    "rel_tol_above_one": (["laplace", "--set", "run.rel_tol=2"], "[run] rel_tol"),
    "negative_sigma": (["af-cumulative", "--mode", "montecarlo", "--seed", "1", "--n", "200",
                        "--set", "run.sigma=-1"], "[run] sigma"),
    "run_key_not_read": (["laplace", "--set", "run.sigma=-1"], "[run] sigma"),
    "sample_size_not_read_by_dump": (["geometry-dump", "--seed", "1", "--set", "run.n=5"],
                                     "[run] n"),
    "infinite_threshold": (["optimize", "--preset", "fig10", "--set", "run.tau=inf"],
                           "[run] tau"),
    "nan_threshold": (["optimize", "--preset", "fig10", "--set", "run.tau=nan"], "[run] tau"),
    "infinite_radius": (["geometry-dump", "--seed", "1", "--set", "run.radius=inf"],
                        "[run] radius"),
    "infinite_half_length": (["geometry-dump", "--seed", "1", "--set", "run.half_length=inf"],
                             "[run] half_length"),
    "infinite_sigma": (["af-cumulative", "--preset", "fig7", "--mode", "montecarlo", "--seed",
                        "1", "--n", "1000", "--set", "run.sigma=inf"], "[run] sigma"),
    "infinite_weight": (["optimize", "--preset", "fig10", "--set", "run.w1=inf"], "[run] w1"),
    "infinite_latency_weight": (["optimize", "--preset", "fig10", "--set", "run.w3=inf"],
                                "[run] w3"),
    "infinite_constraint": (["optimize", "--preset", "fig10", "--set", "run.constraint=inf"],
                            "[run] constraint"),
    # the optimiser always refines; the key that could turn it off is gone
    "removed_refine_key": (["optimize", "--preset", "fig10", "--set", "run.refine=false"],
                           "[run] refine"),
    "nan_rel_tol": (["laplace", "--set", "run.rel_tol=nan"], "[run] rel_tol"),
    "negative_density_names_section": (["laplace", "--set", "params.mu=-1"], "[params] mu"),
    "negative_speed_names_section": (["laplace", "--set", "params.speed=-5"], "[params] speed"),
    "overflowing_db_threshold": (["coverage", "--set", "grid.tau_db=4000"], "[grid] tau_db"),
    # the analytic table would come first: the bad sigma must stop the run before it
    "negative_sigma_in_both_mode": (["af-cumulative", "--preset", "fig7", "--mode", "both",
                                     "--seed", "1", "--n", "200", "--set", "run.sigma=-1"],
                                    "[run] sigma"),
    "sigma_not_a_number_in_analytic_mode": (["af-cumulative", "--preset", "fig7",
                                             "--set", "run.sigma=xyz"], "[run] sigma"),
    "palm_not_a_boolean_under_manhattan": (["geometry-dump", "--seed", "1", "--set",
                                            "run.manhattan=true", "--set", "run.palm=xyz"],
                                           "[run] palm"),
    "sample_size_checked_in_analytic_mode": (["laplace", "--set", "run.n=50"], "[run] n"),
    # only the computation can refuse these; the analytic table must not be written first
    "zero_speed_in_both_mode_latency": (["latency", "--mode", "both", "--seed", "1", "--n",
                                         "200", "--set", "params.speed=0"], "[params] speed"),
    "zero_speed_in_validate": (["validate", "--preset", "fig8", "--seed", "1", "--n", "200",
                                "--set", "params.speed=0"], "[params] speed"),
    "palm_under_manhattan": (["geometry-dump", "--seed", "1", "--set", "run.manhattan=true"],
                             "[run] palm"),
}


def _exits_2_naming(argv, field):
    def test(self, tmp_path, capsys):
        code, out = _run(tmp_path, *argv)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    return test


class TestExitCodes:
    def test_validation_failure_is_numerical(self, tmp_path, capsys):
        # comparing the sampler against the direction-blind curve must fail:
        # that curve keeps the never-covered mass the sampler conditions away
        code, _ = _run(
            tmp_path, "validate", "--preset", "fig8", "--seed", "5", "--n", "500",
            "--variant", "direction-blind",
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    # at alpha = 40 the ASE's far tail (analytic._tail) overflows, a RuntimeWarning;
    # this test checks the named failure that follows
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_quadrature_is_numerical_failure(self, tmp_path, capsys):
        # the ASE's far tail is nan at alpha = 40, which a quadrature once accepted
        code, out = _run(tmp_path, "ase", "--preset", "fig5", "--set", "params.alpha=40")
        assert code == 1
        assert "quadrature stalled" in capsys.readouterr().err
        assert not out.exists()

    def test_closed_stdout_keeps_the_run_status(self, tmp_path):
        # a reader that is gone (``| head -0``) before the run reports its files
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(linecox.__file__).parents[1]))
        try:
            out = subprocess.run(
                [sys.executable, "-m", "linecox.cli", "af-snapshot", "--out", str(tmp_path / "o")],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (0, "")
        assert (tmp_path / "o" / "af-snapshot_manifest.json").exists()


# one named test per table row, so each case reports on its own
for _name, (_argv, _field) in BAD_INPUTS.items():
    setattr(TestExitCodes, f"test_{_name}", _exits_2_naming(_argv, _field))


def _after_cli_import(expr):
    """What ``expr`` prints in a fresh interpreter that has imported linecox.cli."""
    env = dict(os.environ, PYTHONPATH=str(Path(linecox.__file__).parents[1]))
    code = f"import sys, linecox.cli; print({expr})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


class TestImport:
    def test_cli_import_leaves_out_scipy_interpolate(self):
        # scipy.interpolate took about half of every command's start-up
        assert _after_cli_import("'scipy.interpolate' in sys.modules") == "False"

    def test_cli_import_leaves_out_scipy(self):
        # scipy.special then took 0.29 s of the 0.50 s import; no scipy module is needed
        assert _after_cli_import("[m for m in sys.modules if m.startswith('scipy')]") == "[]"

    def test_cli_import_leaves_out_statistics(self):
        # a confidence interval no command printed loaded statistics, fractions and
        # decimal: about 2.5 ms of every start-up
        assert _after_cli_import(
            "[m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules]") == "[]"

    def test_cli_import_leaves_out_numpy_random(self):
        # nothing draws at import, and the first np.random access loads it: about
        # 15 ms and 5 MB of every start-up that draws nothing
        assert _after_cli_import(
            "[m for m in sys.modules if m.startswith('numpy.random')]") == "[]"


class TestParser:
    def test_one_parser_for_every_command(self):
        assert not any(isinstance(action, argparse._SubParsersAction)
                       for action in _parser()._actions)

    def test_options_before_the_command_write_the_same_bytes(self, tmp_path):
        options = ["--preset", "fig7", "--mode", "both", "--seed", "3", "--n", "200",
                   "--set", "grid.t=0,50"]
        assert main(["af-cumulative", *options, "--out", str(tmp_path / "after")]) == 0
        assert main([*options, "--out", str(tmp_path / "before"), "af-cumulative"]) == 0
        for name in ("af-cumulative_analytic.csv", "af-cumulative_mc.csv"):
            assert (tmp_path / "before" / name).read_bytes() == \
                (tmp_path / "after" / name).read_bytes()

    @pytest.mark.parametrize("argv", [["bogus"], [], ["--seed", "1"]],
                             ids=["unknown", "missing", "missing-after-options"])
    def test_bad_command_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_malformed_flag_refused_where_not_read(self, tmp_path):
        # geometry-dump reads no n, yet a value that is not an int is still refused
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, "geometry-dump", "--seed", "1", "--n", "abc")
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestAnalyticOutputs:
    def test_laplace_csv_matches_library(self, tmp_path):
        code, out = _run(
            tmp_path, "laplace", "--mode", "analytic",
            "--set", "grid.s=geom:1e-3,1e-1,3",
        )
        assert code == 0
        rows = _read_csv(out / "laplace_analytic.csv")
        assert [r["quantity"] for r in rows] == ["laplace"] * 3
        params = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)
        for row in rows:
            expect = analytic.laplace(params, float(row["grid_value"]))
            assert float(row["value"]) == pytest.approx(expect, rel=1e-12)
            assert row["schema_version"] == "1"

    def test_sparse_lines_compute(self, tmp_path):
        code, out = _run(tmp_path, "laplace", "--set", "params.lambda_l=1e-6")
        assert code == 0
        rows = _read_csv(out / "laplace_analytic.csv")
        assert rows and all(0.0 < float(r["value"]) < 1.0 for r in rows)

    @pytest.mark.parametrize("command, setting", [("laplace", "grid.s=1e8"),
                                                  ("coverage", "grid.tau_db=100")])
    def test_far_argument_computes(self, tmp_path, command, setting):
        # b >> nu there: the exponents are large, and L has long underflowed
        code, out = _run(tmp_path, command, "--mode", "analytic", "--set", setting)
        assert code == 0
        rows = _read_csv(out / f"{command}_analytic.csv")
        assert len(rows) == 1 and 0.0 <= float(rows[0]["value"]) <= 1e-20

    def test_fig5_preset_coverage_in_db(self, tmp_path):
        code, out = _run(tmp_path, "coverage", "--preset", "fig5",
                         "--mode", "analytic")
        assert code == 0
        rows = _read_csv(out / "coverage_analytic.csv")
        assert len(rows) == 11
        # 0 dB .. 20 dB resolved to linear thresholds
        assert float(rows[0]["grid_value"]) == pytest.approx(1.0)
        assert float(rows[-1]["grid_value"]) == pytest.approx(100.0)

    def test_af_cumulative_carries_limit_row(self, tmp_path):
        code, out = _run(
            tmp_path, "af-cumulative", "--mode", "analytic",
            "--set", "grid.t=lin:0,100,3",
        )
        assert code == 0
        rows = _read_csv(out / "af-cumulative_analytic.csv")
        assert rows[-1]["grid_value"] == "inf"
        params = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)
        assert float(rows[-1]["value"]) == pytest.approx(
            analytic.af_limit(params), rel=1e-12
        )
        assert rows[0]["variant"] == "direction-aware"

    def test_latency_defaults_to_conditioned_curve(self, tmp_path):
        code, out = _run(
            tmp_path, "latency", "--mode", "analytic",
            "--set", "grid.w=lin:0,40,3",
        )
        assert code == 0
        rows = _read_csv(out / "latency_analytic.csv")
        assert rows[0]["variant"] == "direction-aware-conditioned"


class TestMonteCarloOutputs:
    def test_reruns_byte_identical(self, tmp_path):
        args = ["laplace", "--mode", "montecarlo", "--seed", "7", "--n", "300",
                "--set", "grid.s=geom:1e-3,1e-1,3"]
        code, out1 = _run(tmp_path / "a", *args)
        assert code == 0
        code, out2 = _run(tmp_path / "b", *args)
        assert code == 0
        a = (out1 / "laplace_mc.csv").read_bytes()
        b = (out2 / "laplace_mc.csv").read_bytes()
        assert a == b

    def test_seed_changes_estimates(self, tmp_path):
        args = ["laplace", "--mode", "montecarlo", "--n", "300",
                "--set", "grid.s=geom:1e-3,1e-1,3"]
        _, out1 = _run(tmp_path / "a", *args, "--seed", "7")
        _, out2 = _run(tmp_path / "b", *args, "--seed", "8")
        assert (out1 / "laplace_mc.csv").read_bytes() != (
            out2 / "laplace_mc.csv"
        ).read_bytes()

    def test_latency_emits_summary_rows(self, tmp_path):
        code, out = _run(
            tmp_path, "latency", "--mode", "montecarlo", "--seed", "9",
            "--n", "500", "--set", "grid.w=lin:0,40,3",
        )
        assert code == 0
        rows = _read_csv(out / "latency_mc.csv")
        kinds = [r["quantity"] for r in rows]
        assert kinds == ["latency-ccdf"] * 3 + ["latency-mean", "latency-pzero"]

    def test_both_mode_writes_both_tables(self, tmp_path):
        code, out = _run(
            tmp_path, "af-snapshot", "--mode", "both", "--seed", "3", "--n", "500",
        )
        assert code == 0
        assert (out / "af-snapshot_manifest.json").exists()
        # af-snapshot is af-cumulative at t = 0 in both tables: pinned, byte for byte
        for name, digest in (
            ("af-snapshot_analytic.csv",
             "5c369e83e8a32f96d185e886d33a4a3c400143eb5caccf83136bfb73111e6a01"),
            ("af-snapshot_mc.csv",
             "da4826fda2c021c424996353f87c15715a5a81d74b6681aae5c5ae7c21d47ba4"),
        ):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestConfigResolution:
    def test_readme_lists_every_run_key(self):
        # the README's [run] table is the one list of the keys and their defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (unset|`[^`]*`) \|", readme, re.MULTILINE)
        assert rows == [(key, "unset" if default is None else f"`{default}`")
                        for key, (default, _) in cli._RUN.items()]

    def test_speed_spread_reads_as_speed(self, tmp_path, capsys):
        # a bare sigma is km/h, as a bare speed is
        args = ["af-cumulative", "--preset", "fig7", "--mode", "both", "--seed", "1",
                "--n", "500"]
        _, bare = _run(tmp_path / "bare", *args, "--set", "run.sigma=30")
        _, unit = _run(tmp_path / "unit", *args, "--set", "run.sigma=30 km/h")
        for name in ("af-cumulative_analytic.csv", "af-cumulative_mc.csv"):
            assert (bare / name).read_bytes() == (unit / name).read_bytes()
        capsys.readouterr()
        for i, bad in enumerate(["-1 km/h", "30 furlongs"]):
            code, out = _run(tmp_path / str(i), *args, "--set", f"run.sigma={bad}")
            err = capsys.readouterr().err
            assert code == 2 and "[run] sigma" in err and "[run] speed" not in err
            assert not out.exists()

    def test_file_then_set_then_flag(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[params]\nmu = 2\nnu = 0.2\n\n[run]\nn = 123\n")
        code, out = _run(
            tmp_path, "laplace", "--config", str(cfg),
            "--set", "params.mu=7", "--n", "456",
        )
        assert code == 0
        manifest = json.loads((out / "laplace_manifest.json").read_text())
        resolved = manifest["resolved_config"]
        assert resolved["params"]["mu"] == "7"      # --set beats the file
        assert resolved["params"]["nu"] == "0.2"    # file beats the default
        assert resolved["run"]["n"] == "456"        # flag beats everything

    def test_preset_overridable(self, tmp_path):
        code, out = _run(tmp_path, "laplace", "--preset", "fig3",
                         "--set", "params.mu=4")
        assert code == 0
        manifest = json.loads((out / "laplace_manifest.json").read_text())
        assert manifest["resolved_config"]["params"]["mu"] == "4"
        assert manifest["resolved_config"]["params"]["lambda_l"] == "5"

    def test_manifest_structure(self, tmp_path):
        code, out = _run(tmp_path, "laplace", "--mode", "analytic")
        assert code == 0
        manifest = json.loads((out / "laplace_manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["quantity"] == "laplace"
        assert manifest["outputs"] == ["laplace_analytic.csv"]
        assert manifest["wall_time_s"] >= 0
        # the process high-water mark: at least what numpy alone holds
        assert 10 < manifest["peak_rss_mb"] < 10_000
        assert "tool_version" in manifest
        assert "window" not in manifest

        # a Monte Carlo sweep records one window per cell, in grid order
        code, out = _run(tmp_path / "ase", "ase", "--mode", "montecarlo", "--seed", "1",
                         "--n", "100", "--set", "grid.nu=lin:0.05,0.2,2")
        assert code == 0
        manifest = json.loads((out / "ase_manifest.json").read_text())
        assert len(manifest["window"]) == 2
        for window in manifest["window"]:
            assert set(window) == {"final_radius", "stages", "half_width_over_se"}
            assert len(window["half_width_over_se"]) == 1

    def test_defaults_presets_and_flags_set_only_known_keys(self):
        # so the merged config needs no key check of its own
        for layer in [cli._DEFAULTS, *cli._PRESETS.values(), {"run": cli._FLAGS}]:
            for section, values in layer.items():
                assert set(values) <= set(cli._KNOWN[section]), section
        assert {p["run"]["target"] for p in cli._PRESETS.values()} <= set(cli._COMMANDS)

    def test_build_described_once_per_process(self, tmp_path, monkeypatch):
        # git describe is a 2-4 ms fork, and a process may write several manifests
        build = cli._git_describe.__wrapped__()
        calls = []
        real = subprocess.run
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: calls.append(a) or real(*a, **k))
        cli._git_describe.cache_clear()
        builds = []
        for name in ("first", "second"):
            code, out = _run(tmp_path / name, "af-snapshot")
            assert code == 0
            builds.append(json.loads((out / "af-snapshot_manifest.json").read_text())["build"])
        # a copy without <root>/.git, such as an export of the tree, forks no git
        checkout = (Path(cli.__file__).parents[2] / ".git").exists()
        assert len(calls) == int(checkout) and builds == [build, build]

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_installed_copy_in_another_work_tree_reports_unknown(self, tmp_path):
        # git describe run in the package directory would name the outer tree's commit
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "outer"], check=True)
        site = tmp_path / "site-packages"
        shutil.copytree(Path(linecox.__file__).parent, site / "linecox",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(site))
        out = subprocess.run(
            [sys.executable, "-c", "import linecox.cli; print(linecox.cli._git_describe())"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "unknown"


class TestGeometryDump:
    def test_deterministic_and_sectioned(self, tmp_path):
        args = ["geometry-dump", "--seed", "42"]
        _, out1 = _run(tmp_path / "a", *args)
        _, out2 = _run(tmp_path / "b", *args)
        a = (out1 / "geometry.csv").read_bytes()
        assert a == (out2 / "geometry.csv").read_bytes()
        rows = _read_csv(out1 / "geometry.csv")
        sections = {r["section"] for r in rows}
        assert sections == {"line", "vehicle", "device"}
        # palm dump: first line passes through the origin
        first = rows[0]
        assert first["section"] == "line" and float(first["offset"]) == 0.0

    def test_manhattan_flag(self, tmp_path):
        code, out = _run(tmp_path, "geometry-dump", "--seed", "1",
                         "--set", "run.manhattan=true",
                         "--set", "run.palm=false")
        assert code == 0
        rows = _read_csv(out / "geometry.csv")
        angles = {float(r["angle"]) for r in rows if r["section"] == "line"}
        assert angles <= {0.0, math.pi / 2}


    def test_ignores_monte_carlo_sample_size(self, tmp_path):
        # a dump draws one snapshot, so the realisation count is not read
        code, out = _run(tmp_path, "geometry-dump", "--seed", "1", "--n", "5")
        assert code == 0
        assert (out / "geometry.csv").exists()

    @pytest.mark.parametrize("settings, digest", [
        ((), "40d571730a08a5d48b0aa6fc9ef8dd3c6c9bfe5ac2f9acfa9ffe48c2943a8b3e"),
        (("run.palm=false",),
         "e3b3568376c66d458d19a7a00c1a8eaac4f1c0961fef01596e85d216f3bff1d6"),
        (("run.manhattan=true", "run.palm=false"),
         "fb68e281f943801e59eb98d3d7ee75a3e5cae3cb1d7d1a5b5b8ec2e145a40f1b"),
        (("run.devices=false",),
         "3021e12ba99768c7a19f394ba16ac9cbfbfac44acb4be92e5f010325a0e2d417"),
    ], ids=["palm", "ordinary", "manhattan", "no-devices"])
    def test_pinned_bytes(self, tmp_path, settings, digest):
        # the sampled geometry is part of the reproducibility contract:
        # draw order, dtypes and formatting must not move a byte
        sets = [arg for item in settings for arg in ("--set", item)]
        code, out = _run(tmp_path, "geometry-dump", "--seed", "42", *sets)
        assert code == 0
        assert hashlib.sha256((out / "geometry.csv").read_bytes()).hexdigest() == digest


class TestOptimizeCommand:
    def test_threads_byte_identical(self, tmp_path):
        args = ["optimize", "--preset", "fig10"]
        code, out1 = _run(tmp_path / "a", *args, "--threads", "1")
        assert code == 0
        code, out2 = _run(tmp_path / "b", *args, "--threads", "3")
        assert code == 0
        assert (out1 / "optimize.csv").read_bytes() == (
            out2 / "optimize.csv"
        ).read_bytes()

    def test_surface_schema(self, tmp_path):
        code, out = _run(tmp_path, "optimize", "--preset", "fig10")
        assert code == 0
        rows = _read_csv(out / "optimize.csv")
        assert len(rows) == 8 * 4
        assert set(rows[0]) == {
            "schema_version", "nu", "mu", "p_c", "af_limit", "mean_latency",
            "utility", "feasible",
        }

    def test_explicit_grid_used_as_given(self, tmp_path):
        code, out = _run(tmp_path, "optimize", "--preset", "fig10",
                         "--set", "grid.nu=0.1,0.2,0.9", "--set", "grid.mu=0.25,0.5")
        assert code == 0
        rows = _read_csv(out / "optimize.csv")
        assert [r["nu"] for r in rows] == ["0.1", "0.1", "0.2", "0.2", "0.9", "0.9"]

    def test_empty_feasible_set_is_numerical_failure(self, tmp_path, capsys):
        code, out = _run(tmp_path, "optimize", "--preset", "fig10",
                         "--set", "run.constraint=1e-9")
        assert code == 1
        assert not out.exists()

    def test_huge_threshold_computes(self, tmp_path):
        # the surface's far tail once overflowed here, and every utility was nan
        code, out = _run(tmp_path, "optimize", "--preset", "fig10", "--set", "run.tau=1e200")
        assert code == 0
        rows = _read_csv(out / "optimize.csv")
        assert len(rows) == 8 * 4 and all(math.isfinite(float(r["utility"])) for r in rows)

    def test_dense_roads_compute(self, tmp_path):
        # from nu = 0.9 on, e^(2 lambda_l nu) in the mean latency once overflowed
        code, out = _run(tmp_path, "optimize", "--preset", "fig10",
                         "--set", "params.lambda_l=400", "--set", "run.constraint=30")
        assert code == 0
        rows = _read_csv(out / "optimize.csv")
        assert len(rows) == 8 * 4 and all(math.isfinite(float(r["mean_latency"])) for r in rows)


class TestValidateCommand:
    def test_agreement_run_passes(self, tmp_path):
        code, out = _run(
            tmp_path, "validate", "--seed", "2", "--n", "2000",
            "--set", "run.target=af-snapshot",
        )
        assert code == 0
        rows = _read_csv(out / "validate_af-snapshot.csv")
        assert len(rows) == 1
        assert float(rows[0]["z_abs"]) < 3
        assert hashlib.sha256((out / "validate_af-snapshot.csv").read_bytes()).hexdigest() == (
            "910bf8dc51cbb3051c5264a731dcc39cb6d178c646d9a9658389b396649293da")

    def test_random_speeds_compare_at_the_mean_speed(self, tmp_path):
        # the analytic rows take speed E[V], as the sampler does; at speed v they
        # were off by 15.6 SE at t = 50
        code, out = _run(tmp_path, "validate", "--preset", "fig7", "--seed", "1", "--n",
                         "100000", "--set", "run.sigma=30 km/h")
        assert code == 0
        manifest = json.loads((out / "validate_manifest.json").read_text())
        assert manifest["max_abs_z"] <= 3

    def test_random_speeds_hash_the_set_they_compute_at(self, tmp_path):
        # both tables are computed at E[V], so both name that parameter set
        code, out = _run(tmp_path, "af-cumulative", "--preset", "fig7", "--mode", "both",
                         "--seed", "1", "--n", "500", "--set", "run.sigma=30 km/h")
        assert code == 0
        v = convert_units("30 km/h", "speed")
        expected = params_digest(NetworkParams(9.0, 3.0, 0.1, v).at_mean_speed(v))
        hashes = {row["params_hash"] for table in ("analytic", "mc")
                  for row in _read_csv(out / f"af-cumulative_{table}.csv")}
        assert hashes == {expected}
