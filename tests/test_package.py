"""The package's public names, and the benchmark tracer that patches some of them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import linecox
from linecox import analytic, core, geometry, montecarlo, optimize

MODULES = (core, geometry, analytic, montecarlo, optimize)

# every name the package exported while it listed them by hand, plus
# LaplaceEvaluator, which analytic already declared public, less validate, whose
# checks NetworkParams runs on construction, and less the t = 0 aliases
# af_snapshot and estimate_af_snapshot and DivergenceReport
PUBLIC = {
    "__version__", "SCHEMA_VERSION",
    "AlphaOutOfRange", "EmptyFeasibleSet", "Estimate", "LatencyVariant", "LinecoxError",
    "NegativeSpeed", "NetworkParams", "NonPositiveDensity", "NumericalError",
    "ParameterError", "QuadratureNotConverged", "QuadratureSpec", "UnitParseError",
    "WindowNotConverged", "ZeroSpeed", "convert_units", "params_digest", "substream",
    "Snapshot", "advance", "nearest_vehicle_distance", "ordinary_snapshot", "palm_snapshot",
    "place_devices", "sample_lines", "sample_manhattan_lines", "sample_vehicles_on_line",
    "snapshot_from_lines", "snapshot_to_csv",
    "AFVariant", "CoverageSurface", "LaplaceEvaluator", "af_cumulative", "af_limit",
    "area_spectral_efficiency", "coverage_probability", "laplace", "latency_ccdf",
    "mean_latency",
    "GridEstimate", "LatencyResult", "WindowReport", "estimate_af_cumulative",
    "estimate_ase", "estimate_coverage", "estimate_laplace", "estimate_latency",
    "GridSpec", "OptimizeResult", "SurfaceCell", "UtilityWeights", "optimize_grid", "utility",
}


class TestExports:
    def test_all_lists_each_public_name_once(self):
        assert len(PUBLIC) == 55
        assert sorted(linecox.__all__) == sorted(PUBLIC)

    def test_each_name_is_its_module_attribute(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(linecox, name) is getattr(module, name), name

    def test_star_import_gives_every_name(self):
        namespace: dict = {}
        exec("from linecox import *", namespace)
        assert set(PUBLIC) <= set(namespace)


def test_only_core_calls_validate():
    # NetworkParams checks itself on construction; a validate called elsewhere is a
    # copy of the rule that can drift from it
    calls = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "validate" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_private_names_stay_in_their_module():
    # a fact one module owns is read through its public names; a private name used
    # from another module is a second owner that can drift from the first
    allowed = {("montecarlo", "analytic", "_LOG2"), ("montecarlo", "analytic", "_beta_ratio")}
    paths = sorted(Path(core.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
                used |= {(path.stem, node.module, alias.name, node.lineno) for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                used.add((path.stem, node.value.id, node.attr, node.lineno))
    private = [f"{user}.py:{line} uses {owner}.{name}" for user, owner, name, line in sorted(used)
               if user != owner and name.startswith("_") and not name.endswith("__")
               and (user, owner, name) not in allowed]
    assert private == []


def test_benchmark_tracer_still_installs(tmp_path):
    # perfbench/tracing.py patches library functions by name (integrate_halfline,
    # optimize._evaluate_cell, montecarlo.substream, ...) and reads the staged
    # estimators' n and window report; a refactor that removes one breaks every
    # traced benchmark run, so install it and trace a transform, the optimiser and
    # a staged Monte Carlo
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(linecox.__file__).parents[1]), str(root / "perfbench")]))
    code = (
        "import json, sys, tracing\n"
        "from linecox import cli\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "status = [cli.main([*argv, '--threads', '1', '--out', f'{sys.argv[1]}/{argv[0]}'])\n"
        "          for argv in (['laplace', '--preset', 'fig3'],\n"
        "                       ['optimize', '--preset', 'fig10', '--set', 'run.constraint=30'],\n"
        "                       ['coverage', '--preset', 'fig5', '--mode', 'montecarlo',\n"
        "                        '--seed', '1', '--n', '200'])]\n"
        "print(json.dumps({'status': status, 'metrics': tracing.layer_metrics(tracer, 0.0)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["status"] == [0, 0, 0]
    assert result["metrics"]["analytic.transform.calls"] > 0
    # 32 coarse cells and the 16 of the 5 x 5 refinement that are not on the coarse grid
    assert result["metrics"]["optimize.cells"] == 48
    assert result["metrics"]["montecarlo.window.stages"] > 0
