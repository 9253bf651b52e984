"""Tests of the benchmark's checkers: each gets a correct output and a corrupted one.

The correct outputs are written from the reference file in the CLI's CSV
formats, so these tests run in a second and do not run linecox.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import pytest

import checks
import workloads


@functools.cache
def reference() -> dict:
    return checks.load_reference(Path(__file__).with_name("reference.json"))


SEED = 5
ANALYTIC_HEADER = ["schema_version", "quantity", "variant", "grid_value", "value",
                   "est_error_bound", "params_hash"]
VALIDATE_HEADER = ["schema_version", "quantity", "grid_value", "analytic", "mc",
                   "std_error", "z_abs", "params_hash"]
MC_HEADER = ["schema_version", "quantity", "grid_value", "estimate", "std_error", "n",
             "seed", "params_hash"]


def _write(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _analytic(path: Path, quantity: str, points: list[tuple[float, float]]) -> None:
    _write(path, ANALYTIC_HEADER,
           [[1, quantity, "", repr(g), repr(v), repr(1e-6 * abs(v) + 1e-10), "h"]
            for g, v in points])


def _validate(path: Path, quantity: str, points: list[tuple[float, float]],
              se: float = 1e-3) -> None:
    _write(path, VALIDATE_HEADER,
           [[1, quantity, repr(g), repr(v), repr(v), repr(se), "0.0", "h"]
            for g, v in points])


def _points(section: dict, grid: str) -> list[tuple[float, float]]:
    return [(p[grid], p["value"]) for p in section["points"]]


def _fig5_curve() -> list[tuple[float, float]]:
    ends = [c for c in reference()["coverage"] if c["case"] == "fig5"]
    taus = [10.0 ** (db / 10.0) for db in range(0, 22, 2)]
    # a decreasing curve through the two oracle end points
    lo, hi = ends[0]["value"], ends[1]["value"]
    return [(t, lo + (hi - lo) * i / 10.0) for i, t in enumerate(taus)]


def _geometry_rows(offset_device: float = 0.0) -> list[list]:
    lines = [(0.0, 0.4), (12.5, 2.0), (-29.0, 1.1)]
    vehicles = [(0, 0.0), (0, 3.0), (1, -29.5), (2, 10.0)]
    rows = [[1, "line", repr(o), repr(a), "", "", "", "", ""] for o, a in lines]
    rows += [[1, "vehicle", "", "", i, repr(t), 1, "", ""] for i, t in vehicles]
    for k, (i, t) in enumerate(vehicles):
        o, a = lines[i]
        x = o * math.cos(a) - t * math.sin(a) + 0.05 + (offset_device if k == 1 else 0.0)
        y = o * math.sin(a) + t * math.cos(a) - 0.05
        rows.append([1, "device", "", "", "", "", "", repr(x), repr(y)])
    return rows


def _optimize(d: Path) -> None:
    cov = next(c for c in reference()["coverage"] if c["case"] == "fig10")
    lat = next(c for c in reference()["mean_latency"] if c["case"] == "fig10")
    nus = [0.1 + 0.2 * i for i in range(8)]
    nus[1] = cov["params"]["nu"]
    mus = [0.25 + j / 6.0 for j in range(4)]
    mus[1] = cov["params"]["mu"]
    rows = []
    for i, nu in enumerate(nus):
        for j, mu in enumerate(mus):
            p_c, latency = (cov["value"], lat["value"]) if (i, j) == (1, 1) else (0.5, 40.0 - i * 3.0)
            af = -math.expm1(-2.0 * 3.0 * nu)
            utility = 0.7 * p_c + 0.3 * af
            rows.append([1, repr(nu), repr(mu), repr(p_c), repr(af), repr(latency),
                         repr(utility), int(latency < 30.0)])
    _write(d / "optimize.csv", ["schema_version", "nu", "mu", "p_c", "af_limit",
                                "mean_latency", "utility", "feasible"], rows)
    best = max(float(r[6]) for r in rows if r[7] == 1)
    (d / "optimize_manifest.json").write_text(json.dumps({"optimum": {"value": best}}))


def write_correct(workload: str, out: Path) -> dict:
    """Outputs every command of the workload would write if all were right."""
    for cmd in workloads.commands(workload, SEED):
        d = out / cmd.key
        if cmd.key == "laplace-fig3":
            _analytic(d / "laplace_analytic.csv", "laplace", _points(reference()["transform_fig3"], "s"))
        elif cmd.key == "coverage-fig5":
            _analytic(d / "coverage_analytic.csv", "coverage", _fig5_curve())
        elif cmd.key == "af-cumulative-fig7":
            fig7 = reference()["af_cumulative_fig7"]
            _analytic(d / "af-cumulative_analytic.csv", "af-cumulative",
                      _points(fig7, "t") + [(math.inf, fig7["limit"])])
        elif cmd.key == "latency-fig8":
            _analytic(d / "latency_analytic.csv", "latency", _points(reference()["latency_ccdf_fig8"], "w"))
        elif cmd.key == "ase-nu":
            _analytic(d / "ase_analytic.csv", "ase", [(0.05, 33.3), (0.1, 20.0), (0.15, 12.7),
                                                      (0.2, 9.1)])
        elif cmd.key == "optimize-fig10":
            _optimize(d)
        elif cmd.key == "validate-fig3":
            _validate(d / "validate_laplace.csv", "laplace", _points(reference()["transform_fig3"], "s"))
        elif cmd.key == "coverage-fig5-mc":
            _write(d / "coverage_mc.csv", MC_HEADER,
                   [[1, "coverage", repr(g), repr(v), "0.01", workloads.STAGED_N, 1, "h"]
                    for g, v in _fig5_curve()])
        elif cmd.key == "validate-fig7":
            _validate(d / "validate_af-cumulative.csv", "af-cumulative",
                      _points(reference()["af_cumulative_fig7"], "t"))
        elif cmd.key == "validate-fig8":
            mean = next(c for c in reference()["mean_latency"] if c["case"] == "fig8")
            _validate(d / "validate_latency.csv", "latency",
                      _points(reference()["latency_ccdf_fig8"], "w") + [(math.nan, mean["value"])],
                      se=0.01)
        elif cmd.key == "geometry-dump":
            _write(d / "geometry.csv", ["schema_version", "section", "offset", "angle",
                                        "line_index", "abscissa", "direction", "x", "y"],
                   _geometry_rows())
        else:
            raise AssertionError(f"no fixture for {cmd.key}")
    return {cmd.key: 0 for cmd in workloads.commands(workload, SEED)}


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    _write(path, rows[0], rows[1:])


def _failed(workload: str, out: Path, codes: dict) -> list[str]:
    return [op.name for op in checks.check_round(workload, SEED, out, codes, reference()) if not op.ok]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_correct_output_passes(workload, tmp_path):
    codes = write_correct(workload, tmp_path)
    assert _failed(workload, tmp_path, codes) == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_missing_output_fails_every_check_but_keeps_the_count(workload, tmp_path):
    codes = write_correct(workload, tmp_path / "good")
    n_ops = len(checks.check_round(workload, SEED, tmp_path / "good", codes, reference()))
    ops = checks.check_round(workload, SEED, tmp_path / "empty", {}, reference())
    assert len(ops) == n_ops
    assert not any(op.ok for op in ops)


def test_known_faults_name_real_operations(tmp_path):
    codes = write_correct("analytic-figures", tmp_path)
    names = {op.name for op in checks.check_round("analytic-figures", SEED, tmp_path, codes, reference())}
    assert checks.KNOWN_FAULTS <= names


def test_value_past_its_bound_fails(tmp_path):
    codes = write_correct("analytic-figures", tmp_path)

    def move(rows):  # tau = 1 row: shift by three times its stated bound
        rows[1][4] = repr(float(rows[1][4]) + 3.0 * float(rows[1][5]))

    _edit_csv(tmp_path / "coverage-fig5" / "coverage_analytic.csv", move)
    assert _failed("analytic-figures", tmp_path, codes) == ["coverage-fig5/tau=1.0"]


def test_monte_carlo_value_past_its_errors_fails(tmp_path):
    codes = write_correct("montecarlo-staged", tmp_path)

    def move(rows):  # s = 0.1: five standard errors off
        rows[-1][4] = repr(float(rows[-1][4]) - 5.0 * float(rows[-1][5]))

    _edit_csv(tmp_path / "validate-fig3" / "validate_laplace.csv", move)
    assert _failed("montecarlo-staged", tmp_path, codes) == ["validate-fig3/s=0.1"]


@pytest.mark.parametrize("workload, path, rows_swapped, name", [
    ("analytic-figures", "ase-nu/ase_analytic.csv", (-2, -1), "ase-nu/decreasing-in-nu"),
    ("montecarlo-bulk", "validate-fig8/validate_latency.csv", (-3, -2),
     "validate-fig8/non-increasing-in-w"),
])
def test_non_monotone_curve_fails(workload, path, rows_swapped, name, tmp_path):
    codes = write_correct(workload, tmp_path)
    i, j = rows_swapped

    def swap(rows):  # exchange the values (column 4) of two neighbouring grid points
        rows[i][4], rows[j][4] = rows[j][4], rows[i][4]

    _edit_csv(tmp_path / path, swap)
    assert name in _failed(workload, tmp_path, codes)


def test_flipped_feasible_flag_fails(tmp_path):
    codes = write_correct("optimize-fig10", tmp_path)

    def flip(rows):
        rows[1][7] = "0" if rows[1][7] == "1" else "1"

    _edit_csv(tmp_path / "optimize-fig10" / "optimize.csv", flip)
    assert _failed("optimize-fig10", tmp_path, codes) == ["optimize-fig10/cell[0,0]/feasible"]


def test_device_outside_its_disk_fails(tmp_path):
    codes = write_correct("montecarlo-bulk", tmp_path)
    _write(tmp_path / "geometry-dump" / "geometry.csv",
           ["schema_version", "section", "offset", "angle", "line_index", "abscissa",
            "direction", "x", "y"], _geometry_rows(offset_device=0.1))
    assert _failed("montecarlo-bulk", tmp_path, codes) == ["geometry-dump/devices-in-disks"]


def test_nonzero_exit_fails(tmp_path):
    codes = write_correct("montecarlo-bulk", tmp_path)
    codes["validate-fig7"] = 1
    assert _failed("montecarlo-bulk", tmp_path, codes) == ["validate-fig7/exit"]
