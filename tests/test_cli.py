"""End-to-end runs of the command line driver, in process."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linecox
from linecox import analytic
from linecox.cli import main
from linecox.core import NetworkParams

V = 30.0 / 3600.0


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


# Bad inputs: test name -> (argv, text stderr must contain).  Each exits 2
# and names the offending field.
BAD_INPUTS = {
    "alpha_at_boundary_names_the_field": (["laplace", "--set", "params.alpha=2"], "alpha"),
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
    "nan_rel_tol": (["laplace", "--set", "run.rel_tol=nan"], "[run] rel_tol"),
}


def _exits_2_naming(argv, field):
    def test(self, tmp_path, capsys):
        code, _ = _run(tmp_path, *argv)
        assert code == 2
        assert field in capsys.readouterr().err

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


# one named test per table row, so each case reports on its own
for _name, (_argv, _field) in BAD_INPUTS.items():
    setattr(TestExitCodes, f"test_{_name}", _exits_2_naming(_argv, _field))


class TestImport:
    def test_cli_import_leaves_out_scipy_interpolate(self):
        # scipy.interpolate took about half of every command's start-up
        env = dict(os.environ, PYTHONPATH=str(Path(linecox.__file__).parents[1]))
        code = "import sys, linecox.cli; print('scipy.interpolate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"


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
        assert (out / "af-snapshot_analytic.csv").exists()
        assert (out / "af-snapshot_mc.csv").exists()
        assert (out / "af-snapshot_manifest.json").exists()


class TestConfigResolution:
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
            assert set(window) == {"final_radius", "stages", "max_shift_over_se"}


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
                         "--set", "grid.nu=0.1,0.2,0.9", "--set", "grid.mu=0.25,0.5",
                         "--set", "run.refine=false")
        assert code == 0
        rows = _read_csv(out / "optimize.csv")
        assert [r["nu"] for r in rows] == ["0.1", "0.1", "0.2", "0.2", "0.9", "0.9"]

    def test_empty_feasible_set_is_numerical_failure(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "optimize", "--preset", "fig10",
                       "--set", "run.constraint=1e-9")
        assert code == 1


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
