"""Correctness checks of one round's outputs.

Every command's outputs are checked against ``reference.json`` (values the
independent ``oracle.py`` computed) or against properties the method must
have.  Each check is one operation; a round attempts the same operations
whatever the outputs, so a run's failed share is the same in every run.

* analytic rows: |value - oracle| <= the row's own est_error_bound (plus the
  oracle's own error estimate, which is below 1e-12);
* Monte Carlo rows: |estimate - oracle| <= K_SE standard errors;
* curves: coverage decreasing in tau, transform decreasing in s, ASE
  decreasing in nu, af non-decreasing in t, latency CCDF non-increasing in w;
* area fraction: the ``inf`` row and the ``af_limit`` column equal
  1 - exp(-2 lambda_l nu);
* optimizer: utility = w1 p_c + w2 af, feasible exactly when mean latency is
  below the constraint, reported optimum at least as good as every feasible
  coarse cell;
* geometry: lines within the window, vehicles within the half-length,
  devices within nu of their vehicle.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workloads

K_SE = 4.0
ULP_TOL = 1e-14  # for values the program and the check compute by one formula

# FOUND (a) in CHANGES.md: at the three smallest s of fig3 the analytic
# transform is further from the oracle than the est_error_bound it states.
KNOWN_FAULTS = frozenset({
    "laplace-fig3/s=0.0001",
    "laplace-fig3/s=0.00021544346900318845",
    "laplace-fig3/s=0.00046415888336127773",
})

# restated from the CLI defaults run.rel_tol and run.abs_tol
CLI_REL_TOL, CLI_ABS_TOL = 1e-6, 1e-10
# restated from the fig10 preset and the optimize command line
FIG10_LAMBDA_L, FIG10_W1, FIG10_W2, FIG10_CONSTRAINT = 3.0, 0.7, 0.3, 30.0
# restated from the geometry-dump defaults and the workload's command line
GEOMETRY_NU = 0.1
GEOMETRY_WINDOW = float(workloads.GEOMETRY_RADIUS_KM)


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict[str, str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def _evaluate(prefix: str, checks: list[tuple[str, Callable[[], tuple[bool, str]]]]) -> list[Op]:
    ops = []
    for name, check in checks:
        try:
            ok, detail = check()
        except (LookupError, StopIteration, TypeError, ValueError) as exc:
            ok, detail = False, f"unreadable output: {exc!r}"
        ops.append(Op(f"{prefix}/{name}", bool(ok), detail))
    return ops


def _row_at(rows: list[dict[str, str]], grid_value: float) -> dict[str, str]:
    for row in rows:
        if math.isclose(float(row["grid_value"]), grid_value, rel_tol=1e-12):
            return row
    raise LookupError(f"no row with grid_value = {grid_value!r}")


def _curve(rows: list[dict[str, str]], column: str) -> list[float]:
    """Finite-grid values of a curve, in ascending grid order."""
    pts = sorted((float(r["grid_value"]), float(r[column])) for r in rows
                 if math.isfinite(float(r["grid_value"])))
    return [v for _, v in pts]


def _monotone(values: list[float], increasing: bool, strict: bool) -> tuple[bool, str]:
    if len(values) < 2:
        return False, f"only {len(values)} points"
    for i, (a, b) in enumerate(zip(values, values[1:])):
        step = b - a if increasing else a - b
        if step < 0 or (strict and step == 0):
            return False, f"not monotone between points {i} and {i + 1}: {a!r}, {b!r}"
    return True, ""


def _against_oracle(rows, points: list[dict], grid_name: str,
                    value_col: str, se_col: str | None) -> list[tuple[str, Callable]]:
    """One check per oracle point: within the row's bound, or K_SE errors."""
    checks = []
    for pt in points:
        def check(pt=pt):
            row = _row_at(rows, pt[grid_name])
            err = abs(float(row[value_col]) - pt["value"])
            if se_col is None:
                bound = float(row["est_error_bound"]) + pt.get("oracle_error", 0.0)
                return err <= bound, f"|value - oracle| = {err:.3g} > bound {bound:.3g}"
            bound = K_SE * float(row[se_col])
            return err <= bound, f"|mc - oracle| = {err:.3g} > {K_SE:g} SE = {bound:.3g}"
        checks.append((f"{grid_name}={pt[grid_name]!r}", check))
    return checks


# ---------------------------------------------------------------------------
# analytic-figures


def check_laplace_fig3(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "laplace_analytic.csv")
    checks = _against_oracle(rows, ref["transform_fig3"]["points"], "s",
                             "value", None)
    checks.append(("decreasing-in-s",
                   lambda: _monotone(_curve(rows, "value"), increasing=False, strict=True)))
    return _evaluate("laplace-fig3", checks)


def _fig5_coverage_points(ref: dict) -> list[dict]:
    return [c for c in ref["coverage"] if c["case"] == "fig5"]


def check_coverage_fig5(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "coverage_analytic.csv")
    checks = _against_oracle(rows, _fig5_coverage_points(ref), "tau",
                             "value", None)
    checks.append(("decreasing-in-tau",
                   lambda: _monotone(_curve(rows, "value"), increasing=False, strict=True)))
    return _evaluate("coverage-fig5", checks)


def check_af_cumulative_fig7(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "af-cumulative_analytic.csv")
    fig7 = ref["af_cumulative_fig7"]
    checks = _against_oracle(rows, fig7["points"], "t", "value", None)

    def limit_row():
        value = float(_row_at(rows, math.inf)["value"])
        expected = -math.expm1(-2.0 * fig7["params"]["lambda_l"] * fig7["params"]["nu"])
        return (math.isclose(value, expected, rel_tol=ULP_TOL),
                f"inf row {value!r} != 1 - exp(-2 lambda nu) = {expected!r}")

    checks.append(("t=inf", limit_row))
    checks.append(("non-decreasing-in-t",
                   lambda: _monotone(_curve(rows, "value"), increasing=True, strict=False)))
    return _evaluate("af-cumulative-fig7", checks)


def check_latency_fig8(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "latency_analytic.csv")
    checks = _against_oracle(rows, ref["latency_ccdf_fig8"]["points"], "w",
                             "value", None)
    checks.append(("non-increasing-in-w",
                   lambda: _monotone(_curve(rows, "value"), increasing=False, strict=False)))
    return _evaluate("latency-fig8", checks)


def check_ase_nu(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "ase_analytic.csv")

    def decreasing():
        values = _curve(rows, "value")
        if len(values) != 4 or min(values) <= 0:
            return False, f"expected 4 positive values, got {values}"
        return _monotone(values, increasing=False, strict=True)

    return _evaluate("ase-nu", [("decreasing-in-nu", decreasing)])


# ---------------------------------------------------------------------------
# optimize-fig10


def check_optimize_fig10(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "optimize.csv")
    try:
        with open(d / "optimize_manifest.json", encoding="utf-8") as fh:
            optimum = json.load(fh)["optimum"]
    except (OSError, ValueError, KeyError):
        optimum = {}
    checks: list[tuple[str, Callable]] = []
    for k in range(32):  # the coarse grid is 8 nu x 4 mu, written nu-major
        cell = f"cell[{k // 4},{k % 4}]"

        def utility(k=k):
            row = rows[k]
            expected = FIG10_W1 * float(row["p_c"]) + FIG10_W2 * float(row["af_limit"])
            got = float(row["utility"])
            return math.isclose(got, expected, rel_tol=ULP_TOL), f"{got!r} != {expected!r}"

        def af_limit(k=k):
            row = rows[k]
            expected = -math.expm1(-2.0 * FIG10_LAMBDA_L * float(row["nu"]))
            got = float(row["af_limit"])
            return math.isclose(got, expected, rel_tol=ULP_TOL), f"{got!r} != {expected!r}"

        def feasible(k=k):
            row = rows[k]
            expected = float(row["mean_latency"]) < FIG10_CONSTRAINT
            return ((row["feasible"] == "1") == expected,
                    f"feasible={row['feasible']} at latency {row['mean_latency']}")

        checks += [(f"{cell}/utility", utility), (f"{cell}/af_limit", af_limit),
                   (f"{cell}/feasible", feasible)]

    def optimum_check():
        if len(rows) != 32:
            return False, f"expected 32 coarse cells, got {len(rows)}"
        best = max(float(r["utility"]) for r in rows if r["feasible"] == "1")
        value = float(optimum["value"])
        return value >= best, f"optimum {value!r} below a feasible coarse cell's {best!r}"

    checks.append(("optimum", optimum_check))

    cov = next(c for c in ref["coverage"] if c["case"] == "fig10")
    lat = next(c for c in ref["mean_latency"] if c["case"] == "fig10")
    # optimize.csv states no bound; use the nominal one of the CLI's default tolerances
    for column, pt in (("p_c", cov), ("mean_latency", lat)):
        def oracle(column=column, pt=pt):
            row = next(r for r in rows if math.isclose(float(r["nu"]), pt["params"]["nu"])
                       and math.isclose(float(r["mu"]), pt["params"]["mu"]))
            value = float(row[column])
            bound = CLI_REL_TOL * abs(value) + CLI_ABS_TOL + pt["oracle_error"]
            err = abs(value - pt["value"])
            return err <= bound, f"|{column} - oracle| = {err:.3g} > {bound:.3g}"
        checks.append((f"{column}-oracle", oracle))
    return _evaluate("optimize-fig10", checks)


# ---------------------------------------------------------------------------
# montecarlo-staged


def check_validate_fig3(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "validate_laplace.csv")
    checks = _against_oracle(rows, ref["transform_fig3"]["points"], "s",
                             "mc", "std_error")
    checks.append(("non-increasing-in-s",
                   lambda: _monotone(_curve(rows, "mc"), increasing=False, strict=False)))
    return _evaluate("validate-fig3", checks)


def check_coverage_fig5_mc(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "coverage_mc.csv")
    checks = _against_oracle(rows, _fig5_coverage_points(ref), "tau",
                             "estimate", "std_error")

    def curve():
        if len(rows) != 11 or any(r["n"] != workloads.STAGED_N for r in rows):
            return False, f"expected 11 rows with n = {workloads.STAGED_N}"
        return _monotone(_curve(rows, "estimate"), increasing=False, strict=False)

    checks.append(("non-increasing-in-tau", curve))
    return _evaluate("coverage-fig5-mc", checks)


# ---------------------------------------------------------------------------
# montecarlo-bulk


def check_validate_fig7(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "validate_af-cumulative.csv")
    checks = _against_oracle(rows, ref["af_cumulative_fig7"]["points"], "t",
                             "mc", "std_error")
    checks.append(("non-decreasing-in-t",
                   lambda: _monotone(_curve(rows, "mc"), increasing=True, strict=False)))
    return _evaluate("validate-fig7", checks)


def check_validate_fig8(d: Path, ref: dict) -> list[Op]:
    rows = _read_csv(d / "validate_latency.csv")
    checks = _against_oracle(rows, ref["latency_ccdf_fig8"]["points"], "w",
                             "mc", "std_error")
    mean = next(c for c in ref["mean_latency"] if c["case"] == "fig8")

    def mean_check():
        row = next(r for r in rows if math.isnan(float(r["grid_value"])))
        err = abs(float(row["mc"]) - mean["value"])
        bound = K_SE * float(row["std_error"])
        return err <= bound, f"|mean - oracle| = {err:.3g} > {K_SE:g} SE = {bound:.3g}"

    checks.append(("mean", mean_check))
    checks.append(("non-increasing-in-w",
                   lambda: _monotone(_curve(rows, "mc"), increasing=False, strict=False)))
    return _evaluate("validate-fig8", checks)


def _read_geometry(path: Path):
    """(lines, vehicles, devices) of a geometry.csv; empty lists if unreadable."""
    rows = _read_csv(path)
    try:
        lines = [(float(r["offset"]), float(r["angle"])) for r in rows
                 if r["section"] == "line"]
        vehicles = [(int(r["line_index"]), float(r["abscissa"])) for r in rows
                    if r["section"] == "vehicle"]
        devices = [(float(r["x"]), float(r["y"])) for r in rows if r["section"] == "device"]
    except (KeyError, ValueError):
        return [], [], []
    return lines, vehicles, devices


def check_geometry(d: Path, ref: dict) -> list[Op]:
    lines, vehicles, devices = _read_geometry(d / "geometry.csv")

    def lines_in_window():
        bad = [o for o, _ in lines if abs(o) > GEOMETRY_WINDOW]
        return bool(lines) and not bad, f"{len(bad)} of {len(lines)} lines outside the window"

    def vehicles_in_half_length():
        bad = [t for _, t in vehicles if abs(t) > GEOMETRY_WINDOW]
        return bool(vehicles) and not bad, f"{len(bad)} of {len(vehicles)} vehicles outside"

    def devices_in_disks():
        if not vehicles or len(devices) != len(vehicles):
            return False, f"{len(devices)} devices for {len(vehicles)} vehicles"
        worst = 0.0
        for (line, t), (x, y) in zip(vehicles, devices):
            r, a = lines[line]
            vx = r * math.cos(a) - t * math.sin(a)
            vy = r * math.sin(a) + t * math.cos(a)
            worst = max(worst, math.hypot(x - vx, y - vy))
        return worst <= GEOMETRY_NU * (1.0 + 1e-9), f"a device {worst!r} km from its vehicle"

    return _evaluate("geometry-dump", [("lines-in-window", lines_in_window),
                                       ("vehicles-in-half-length", vehicles_in_half_length),
                                       ("devices-in-disks", devices_in_disks)])


CHECKERS: dict[str, Callable[[Path, dict], list[Op]]] = {
    "laplace-fig3": check_laplace_fig3,
    "coverage-fig5": check_coverage_fig5,
    "af-cumulative-fig7": check_af_cumulative_fig7,
    "latency-fig8": check_latency_fig8,
    "ase-nu": check_ase_nu,
    "optimize-fig10": check_optimize_fig10,
    "validate-fig3": check_validate_fig3,
    "coverage-fig5-mc": check_coverage_fig5_mc,
    "validate-fig7": check_validate_fig7,
    "validate-fig8": check_validate_fig8,
    "geometry-dump": check_geometry,
}


def check_round(workload: str, seed: int, out_dir: Path, exit_codes: dict,
                ref: dict) -> list[Op]:
    """Every operation of one round: each command's exit code, then its outputs."""
    ops = []
    for cmd in workloads.commands(workload, seed):
        code = exit_codes.get(cmd.key)
        ops.append(Op(f"{cmd.key}/exit", code == 0, f"exit code {code}"))
        ops += CHECKERS[cmd.key](out_dir / cmd.key, ref)
    return ops
