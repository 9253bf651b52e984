"""Experiment runner: every analytic and Monte Carlo quantity as a command.

Configuration is layered with precedence flag > config file > preset >
default.  Config files are INI-style with [params], [run] and [grid]
sections; unknown sections or keys are hard errors.  Every run writes one or
two CSV files plus a JSON manifest of the fully resolved configuration.
CSV output for a given seed is byte-identical across reruns and thread
counts; the manifest's wall-time field is the only non-reproducible output.

Exit codes: 0 success, 1 numerical failure (quadrature or window not
converged, empty feasible set), 2 usage error or bad input, naming its [section] key.
A run resolves every key its command reads, computes, and only then writes: a run
that exits 2, or 1 on a numerical failure, writes no file and no --out directory.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    SCHEMA_VERSION,
    NetworkParams,
    NumericalError,
    ParameterError,
    QuadratureSpec,
    batch,
    convert_units,
    params_digest,
    substream,
)
from . import analytic, geometry, montecarlo, optimize
from .analytic import AFVariant, LatencyVariant


class ConfigError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


def _named(section: str, exc: ParameterError, key: str = "") -> str:
    return "; ".join(f"[{section}] {key or f}: {m}" for f, m in exc.violations)


@contextmanager
def _field(section: str, key: str = ""):
    """Re-raise a ValueError or ParameterError of the checks inside as a ConfigError naming
    [section] key: ``key``, else each violation's field or the one a ValueError leads with."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(_named(section, exc, key)) from None
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}" if key else f"[{section}] {exc}") from None


# ---------------------------------------------------------------------------
# [run] keys: the text each may hold, and its default


def _number(kind: type = float, low: float = -math.inf):
    """Parser of a finite ``kind`` that is >= ``low``."""
    def parse(raw: str):
        value = kind(raw)  # its ValueError says what the text is not
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {raw!r}")
        if value < low:
            raise ValueError(f"must be >= {low:g}, got {raw!r}")
        return value

    return parse


def _bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a boolean: {raw!r}")
    return word in ("1", "true", "yes", "on")


_MODES = ("analytic", "montecarlo", "both")


def _mode(raw: str) -> str:
    if raw not in _MODES:
        raise ValueError(f"unknown mode {raw!r}")
    return raw


_REAL, _NONNEG = _number(), _number(low=0)

# Every [run] key: its default text (None: unset unless given) and the parser of
# its text.  Only the ranges no library type checks before work are checked here;
# the tolerances and weights are checked by QuadratureSpec and UtilityWeights.
_RUN: dict[str, tuple[Optional[str], Callable[[str], object]]] = {
    "mode": ("analytic", _mode),
    "n": ("10000", _number(int, 100)),
    "seed": (None, _number(int, 0)),
    "threads": (None, _number(int, 1)),
    "out": (".", str),
    "variant": ("auto", str),  # resolved by the quantity, which knows its variants
    "target": (None, str),  # validate's quantity, checked by _target
    "rel_tol": ("1e-6", _REAL),
    "abs_tol": ("1e-10", _REAL),
    "w1": ("0.7", _REAL),
    "w2": ("0.3", _REAL),
    "w3": ("0", _REAL),
    "tau": ("1", _REAL),
    "refine": ("true", _bool),
    "constraint": (None, lambda raw: _NONNEG(raw) if raw.strip() else None),
    "radius": ("2", _NONNEG),
    "half_length": ("2", _NONNEG),
    "palm": ("true", _bool),
    "manhattan": ("false", _bool),
    "devices": ("true", _bool),
    "sigma": ("0", _number(lambda raw: convert_units(raw, "speed"), 0)),  # units as for speed
}

_DEFAULTS: dict[str, dict[str, str]] = {
    "params": {"lambda_l": "3", "mu": "3", "nu": "0.1", "speed": "30 km/h", "power": "1",
               "alpha": "3"},
    "run": {key: default for key, (default, _) in _RUN.items() if default is not None},
    "grid": {},
}

# Canonical scenario presets; every value can be overridden per run.
_PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "fig3": {
        "params": {"lambda_l": "5", "mu": "5", "nu": "0.1", "power": "0.01", "alpha": "3"},
        "run": {"target": "laplace", "n": "10000"},
        "grid": {"s": "geom:1e-4,0.1,10"},
    },
    "fig5": {
        "params": {"lambda_l": "3", "mu": "3", "nu": "0.1", "power": "1", "alpha": "3"},
        "run": {"target": "coverage"},
        "grid": {"tau_db": "lin:0,20,11"},
    },
    "fig7": {
        "params": {"lambda_l": "9", "mu": "3", "nu": "0.1", "speed": "30 km/h"},
        "run": {"target": "af-cumulative"},
        "grid": {"t": "lin:0,400,9"},
    },
    "fig8": {
        "params": {"lambda_l": "3", "mu": "3", "nu": "0.1", "speed": "30 km/h"},
        "run": {"target": "latency"},
        "grid": {"w": "lin:0,100,11"},
    },
    "fig10": {
        "params": {"lambda_l": "3", "mu": "0.5", "nu": "0.5", "power": "1", "alpha": "3"},
        "run": {"target": "optimize", "w1": "0.7", "w2": "0.3", "tau": "1"},
        "grid": {"nu": "lin:0.1,1.5,8", "mu": "lin:0.25,0.75,4"},
    },
}

# the flags that set the [run] key of the same name, with their argparse options
_FLAGS: dict[str, dict] = {
    "seed": {"type": int, "help": "Monte Carlo seed"},
    "n": {"type": int, "help": "Monte Carlo realisations"},
    "threads": {"type": int, "help": "worker count (no result depends on it)"},
    "out": {"help": "output directory"},
    "variant": {"help": "analytic variant name (default auto: the variant "
                        "the Monte Carlo estimator targets)"},
    "rel_tol": {"type": float, "help": "quadrature relative tolerance"},
    "mode": {"choices": _MODES},
}


def _merge(base: dict[str, dict[str, str]], extra: dict[str, dict[str, str]]) -> None:
    for section, values in extra.items():
        base.setdefault(section, {}).update(values)


def _check_keys(config: dict[str, dict[str, str]], known: dict[str, tuple[str, ...]]) -> None:
    for section, values in config.items():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in values:
            if key in known[section]:
                continue
            if key not in _KNOWN[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
            raise ConfigError(f"[{section}] {key}: not a key this command reads "
                              f"({', '.join(known[section]) or 'none'})")


def _load_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _parse_set(items: Sequence[str]) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for item in items:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got '{item}'")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        out.setdefault(section.strip(), {})[key.strip()] = value.strip()
    return out


def _grid(config: dict[str, dict[str, str]], keys: tuple[str, ...],
          default: Optional[str]) -> tuple[Optional[str], Optional[list[float]]]:
    """(key, values) of the one of ``keys`` set, else ``default`` for the last key;
    ``tau_db`` values come back as linear thresholds.  Only the text is checked
    here: the values' range is checked by what is built from them."""
    given = [k for k in keys if k in config["grid"]]
    if len(given) > 1:
        raise ConfigError(f"[grid] {', '.join(given)}: give only one of these")
    if given:
        key, text = given[0], config["grid"][given[0]].strip()
    elif default is not None:
        key, text = keys[-1], default
    else:
        return None, None
    try:
        if text.startswith("lin:") or text.startswith("geom:"):
            kind, _, rest = text.partition(":")
            lo_s, hi_s, n_s = [p.strip() for p in rest.split(",")]
            lo, hi, count = float(lo_s), float(hi_s), int(n_s)
            if count < 1:
                raise ValueError("count must be >= 1")
            space = np.linspace if kind == "lin" else np.geomspace
            values = space(lo, hi, count)
        else:
            values = np.array([float(p) for p in text.split(",") if p.strip()])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[grid] {key}: bad grid {text!r} ({exc})") from None
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ConfigError(f"[grid] {key}: need one or more finite values, got {text!r}")
    if key == "tau_db":
        with np.errstate(over="ignore"):  # batch refuses an overflow to inf by name
            values = 10.0 ** (values / 10.0)
    return key, values.tolist()


def _params(config: dict[str, dict[str, str]]) -> NetworkParams:
    with _field("params"):
        return NetworkParams(**{k: convert_units(raw, k) for k, raw in config["params"].items()})


def _quad(run: dict) -> QuadratureSpec:
    with _field("run"):
        return QuadratureSpec(rel_tol=run["rel_tol"], abs_tol=run["abs_tol"])


# a file of a run: its name in --out and the writer of its path
_File = tuple[str, Callable[[str], None]]


def _write_csv(header: list[str], rows: list[list], path: str) -> None:
    """One CSV file; schema_version leads every header."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))  # "nan" for every NaN


# ---------------------------------------------------------------------------
# the quantity table: every quantity with an analytic value and an estimate


@dataclass(frozen=True)
class _Inputs:
    """A quantity run's inputs, each parsed and checked before any work."""

    name: str
    mode: str
    params: NetworkParams
    quad: QuadratureSpec
    variant: Optional[Enum]
    grid: Optional[list[float]]
    cells: list[tuple[float, NetworkParams]]  # ASE sweep: (grid value, parameter set)
    n: int
    seed: Optional[int]


@dataclass(frozen=True)
class _Quantity:
    """One estimable quantity: its grid, variant resolver and row makers.

    Rows are (quantity, grid value, value or Estimate); ``montecarlo`` also
    returns one window report per estimator run.  ``reference`` makes the
    analytic rows that only validate compares against.  Row makers look up
    library functions at each call, so wrappers installed after import count.
    """

    grid_keys: tuple[str, ...]
    default_grid: Optional[str]
    analytic: Callable[[_Inputs], list]
    montecarlo: Callable[[_Inputs], tuple[list, list]]
    variant: Callable[[str], Optional[Enum]] = lambda name: None
    reference: Callable[[_Inputs], list] = lambda x: []
    run_keys: tuple[str, ...] = ()  # [run] keys read beyond those every quantity reads


def _variant(kind: type[Enum], auto: Enum) -> Callable[[str], Enum]:
    def resolve(name: str) -> Enum:
        try:
            return auto if name == "auto" else kind(name)
        except ValueError:
            raise ConfigError(f"[run] variant: unknown variant {name!r}; expected one of "
                              f"{[v.value for v in kind]}") from None

    return resolve


def _curve(tag: str, x: _Inputs, values) -> list:
    """(tag, grid value, value) rows of values computed over the whole grid at once."""
    return [(tag, g, v) for g, v in zip(x.grid, values)]


def _grid_rows(tag: str, x: _Inputs, res: montecarlo.GridEstimate) -> tuple[list, list]:
    """Rows and window of a staged estimator run once over the whole grid."""
    return _curve(tag, x, res.estimates), [res.window]


def _ase_mc(x: _Inputs) -> tuple[list, list]:
    runs = [(label, *montecarlo.estimate_ase(cell, n=x.n, seed=x.seed)) for label, cell in x.cells]
    return [("ase", label, est) for label, est, _ in runs], [window for *_, window in runs]


def _af_cumulative(x: _Inputs) -> list:
    rows = _curve("af-cumulative", x, analytic.af_cumulative(x.params, x.grid, x.quad, x.variant))
    # closing row: the t -> infinity limit every curve approaches
    return rows + [("af-cumulative", math.inf, analytic.af_limit(x.params))]


def _latency_mc(x: _Inputs) -> tuple[list, list]:
    res = montecarlo.estimate_latency(x.params, x.grid, n=x.n, seed=x.seed)
    rows = _curve("latency-ccdf", x, res.ccdf)
    rows += [("latency-mean", math.nan, res.mean), ("latency-pzero", math.nan, res.p_zero)]
    return rows, []


_TABLE: dict[str, _Quantity] = {
    "laplace": _Quantity(
        ("s",), "geom:1e-4,0.1,10",
        lambda x: _curve("laplace", x, analytic.laplace(x.params, x.grid, x.quad)),
        lambda x: _grid_rows("laplace", x, montecarlo.estimate_laplace(
            x.params, x.grid, n=x.n, seed=x.seed))),
    "coverage": _Quantity(
        ("tau", "tau_db"), "lin:0,20,11",
        lambda x: _curve("coverage", x, analytic.coverage_probability(x.params, x.grid, x.quad)),
        lambda x: _grid_rows("coverage", x, montecarlo.estimate_coverage(
            x.params, x.grid, n=x.n, seed=x.seed))),
    "ase": _Quantity(
        ("nu", "mu"), None,
        lambda x: [("ase", label, analytic.area_spectral_efficiency(cell, x.quad))
                   for label, cell in x.cells],
        _ase_mc),
    "af-snapshot": _Quantity(
        (), None,
        # af-cumulative at t = 0, where both AF variants agree
        lambda x: [("af-snapshot", math.nan, analytic.af_cumulative(x.params, 0.0, x.quad))],
        lambda x: ([("af-snapshot", math.nan, montecarlo.estimate_af_cumulative(
            x.params, [0.0], n=x.n, seed=x.seed)[0])], [])),
    "af-cumulative": _Quantity(
        ("t",), "lin:0,400,9",
        _af_cumulative,
        lambda x: (_curve("af-cumulative", x, montecarlo.estimate_af_cumulative(
            x.params, x.grid, n=x.n, seed=x.seed)), []),
        _variant(AFVariant, AFVariant.DIRECTION_AWARE),
        run_keys=("variant", "sigma")),
    "latency": _Quantity(
        ("w",), "lin:0,100,11",
        lambda x: _curve("latency-ccdf", x,
                         analytic.latency_ccdf(x.params, x.grid, x.quad, x.variant)),
        _latency_mc,
        _variant(LatencyVariant, LatencyVariant.DIRECTION_AWARE_CONDITIONED),
        # the sampled waits follow the conditioned law whatever the variant
        lambda x: [("latency-mean", math.nan, analytic.mean_latency(x.params, x.quad))],
        run_keys=("variant",)),
}


def _windows(reports: list[montecarlo.WindowReport]) -> dict:
    return {"window": [asdict(r) for r in reports]} if reports else {}


# ---------------------------------------------------------------------------
# resolve steps: (config, parsed [run] keys) -> a command's checked inputs


def _quantity_inputs(name: str, config: dict[str, dict[str, str]], run: dict) -> _Inputs:
    quantity = _TABLE[name]
    # random speeds act as their mean: every row and params_hash are at that one speed
    params = _params(config).at_mean_speed(run.get("sigma", 0.0))
    key, grid = _grid(config, quantity.grid_keys, quantity.default_grid)
    cells = [(math.nan, params)]
    with _field("grid"):
        if key in ("nu", "mu"):  # an ASE sweep: one parameter set per grid value
            cells = [(v, replace(params, **{key: v})) for v in grid]
        elif key is not None:
            batch(grid, key)
    # validate reads no mode (it takes both); only some quantities read variant
    return _Inputs(name, run.get("mode", "both"), params, _quad(run),
                   quantity.variant(run.get("variant", "auto")), grid, cells, run["n"],
                   run["seed"])


def _optimize_inputs(config: dict[str, dict[str, str]], run: dict) -> dict:
    """The arguments of ``optimize.optimize_grid``."""
    axes = {key: values for key in ("nu", "mu")
            if (values := _grid(config, (key,), None)[1]) is not None}
    with _field("run"):
        weights = optimize.UtilityWeights(run["w1"], run["w2"], run["w3"], run["tau"])
    with _field("grid"):
        grid = optimize.GridSpec(**axes)
    return dict(base=_params(config), weights=weights, grid=grid, constraint=run["constraint"],
                quad=_quad(run), refine=run["refine"])


def _geometry_inputs(config: dict[str, dict[str, str]], run: dict) -> tuple[NetworkParams, dict]:
    if run["manhattan"] and run["palm"]:  # the grid sampler has no line through the origin
        raise ConfigError("[run] palm: a Manhattan dump is not Palm conditioned; "
                          "set run.palm=false")
    return _params(config), run


def _target(config: dict[str, dict[str, str]]) -> str:
    """The quantity validate checks: [run] target, laplace if unset."""
    target = config["run"].get("target", "laplace")
    if target not in _TABLE:
        raise ConfigError(f"[run] target: validate needs one of {list(_TABLE)}, got {target!r}")
    return target


# ---------------------------------------------------------------------------
# command drivers: inputs -> (files, manifest extras, status); none writes a file


def _run_quantity(x: _Inputs) -> tuple[list[_File], dict, int]:
    quantity = _TABLE[x.name]
    digest, label = params_digest(x.params), getattr(x.variant, "value", "")
    files: list[_File] = []
    reports: list[montecarlo.WindowReport] = []
    if x.mode != "montecarlo":
        bound = lambda v: x.quad.rel_tol * abs(v) + x.quad.abs_tol
        files.append((f"{x.name}_analytic.csv", partial(
            _write_csv, ["schema_version", "quantity", "variant", "grid_value", "value",
                         "est_error_bound", "params_hash"],
            [[SCHEMA_VERSION, x.name, label, _fmt(g), _fmt(v), _fmt(bound(v)), digest]
             for _, g, v in quantity.analytic(x)])))
    if x.mode != "analytic":
        rows, reports = quantity.montecarlo(x)
        files.append((f"{x.name}_mc.csv", partial(
            _write_csv, ["schema_version", "quantity", "grid_value", "estimate", "std_error",
                         "n", "seed", "params_hash"],
            [[SCHEMA_VERSION, tag, _fmt(g), _fmt(est.value), _fmt(est.std_error),
              est.n_samples, x.seed, digest] for tag, g, est in rows])))
    return files, _windows(reports), 0


def _run_optimize(x: dict) -> tuple[list[_File], dict, int]:
    result = optimize.optimize_grid(**x)
    table = partial(
        _write_csv,
        ["schema_version", "nu", "mu", "p_c", "af_limit", "mean_latency", "utility", "feasible"],
        [[SCHEMA_VERSION, _fmt(c.nu), _fmt(c.mu), _fmt(c.p_c), _fmt(c.af), _fmt(c.latency),
          _fmt(c.utility), int(c.feasible)] for c in result.surface])
    print(f"optimum nu={result.nu_opt:.6g} mu={result.mu_opt:.6g} value={result.value:.6g}")
    return [("optimize.csv", table)], {"optimum": {
        "nu": result.nu_opt, "mu": result.mu_opt, "value": result.value,
        "coarse_nu": result.coarse_nu_opt, "coarse_mu": result.coarse_mu_opt}}, 0


def _run_geometry(x: tuple[NetworkParams, dict]) -> tuple[list[_File], dict, int]:
    params, run = x
    radius, half_length = run["radius"], run["half_length"]
    rng = substream(run["seed"], 0)
    if run["manhattan"]:
        lines = geometry.sample_manhattan_lines(params.lambda_l, radius, rng)
        snap = geometry.snapshot_from_lines(lines, params, radius, half_length, rng)
    elif run["palm"]:
        snap = geometry.palm_snapshot(params, radius, half_length, rng)
    else:
        snap = geometry.ordinary_snapshot(params, radius, half_length, rng)
    if run["devices"]:
        snap = geometry.place_devices(snap, params.nu, rng)
    # looked up when written, so a wrapper installed after import sees the dump
    dump = lambda path: geometry.snapshot_to_csv(snap, path)
    return [("geometry.csv", dump)], {"lines": snap.n_lines, "vehicles": snap.n_vehicles}, 0


def _run_validate(x: _Inputs) -> tuple[list[_File], dict, int]:
    quantity = _TABLE[x.name]
    digest = params_digest(x.params)
    # join on (quantity, grid value): a row found on one side only is dropped
    reference = {(tag, _fmt(g)): v
                 for tag, g, v in quantity.analytic(x) + quantity.reference(x)}
    mc_rows, reports = quantity.montecarlo(x)
    pairs = [(g, reference[tag, _fmt(g)], est) for tag, g, est in mc_rows
             if (tag, _fmt(g)) in reference]
    z_abs = [abs(est.z_score(value)) for _, value, est in pairs]
    worst = max([0.0, *z_abs])
    table = partial(_write_csv, ["schema_version", "quantity", "grid_value", "analytic", "mc",
                                 "std_error", "z_abs", "params_hash"],
                    [[SCHEMA_VERSION, x.name, _fmt(g), _fmt(value), _fmt(est.value),
                      _fmt(est.std_error), _fmt(z), digest]
                     for (g, value, est), z in zip(pairs, z_abs)])
    status = 0
    if worst > 3.0:
        print(f"validation FAILED: max |z| = {worst:.2f} > 3", file=sys.stderr)
        status = 1
    elif worst > 2.0:
        print(f"validation warning: max |z| = {worst:.2f} > 2", file=sys.stderr)
    print(f"validate {x.name}: max |z| = {worst:.3f} over {len(pairs)} points")
    extra = {"max_abs_z": worst, "variant": getattr(x.variant, "value", "")}
    return [(f"validate_{x.name}.csv", table)], {**extra, **_windows(reports)}, status


class _Command(NamedTuple):
    """A command: the resolve step that checks its inputs, the driver that runs
    on them, and the [run] and [grid] keys it reads."""

    resolve: Callable[[dict[str, dict[str, str]], dict], object]
    driver: Callable[[object], tuple[list[_File], dict, int]]
    run_keys: tuple[str, ...] = ()
    grid_keys: tuple[str, ...] = ()


_EVERY = ("out", "threads")  # [run] keys every command reads
_COMMANDS: dict[str, _Command] = {
    **{name: _Command(partial(_quantity_inputs, name), _run_quantity,
                      (*_EVERY, "mode", "n", "seed", "rel_tol", "abs_tol", *q.run_keys),
                      q.grid_keys)
       for name, q in _TABLE.items()},
    "optimize": _Command(_optimize_inputs, _run_optimize,
                         (*_EVERY, "rel_tol", "abs_tol", "w1", "w2", "w3", "tau", "refine",
                          "constraint"), ("nu", "mu")),
    "geometry-dump": _Command(_geometry_inputs, _run_geometry,
                              (*_EVERY, "seed", "radius", "half_length", "palm", "manhattan",
                               "devices")),
    # reads its target's keys, see _reads
    "validate": _Command(lambda config, run: _quantity_inputs(_target(config), config, run),
                         _run_validate),
}

# every key a config may set: those the commands read, and validate's target
_KNOWN = {"params": tuple(_DEFAULTS["params"]),
          "run": (*dict.fromkeys(k for c in _COMMANDS.values() for k in c.run_keys), "target"),
          "grid": tuple(dict.fromkeys(k for c in _COMMANDS.values() for k in c.grid_keys))}


def _reads(command: str, config: dict[str, dict[str, str]]) -> dict[str, tuple[str, ...]]:
    """The [run] and [grid] keys ``command`` reads; validate reads its target's,
    with ``target`` in place of ``mode``."""
    if command != "validate":
        return {"run": _COMMANDS[command].run_keys, "grid": _COMMANDS[command].grid_keys}
    target = _COMMANDS[_target(config)]
    return {"run": tuple("target" if k == "mode" else k for k in target.run_keys),
            "grid": target.grid_keys}


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)  # taken once per process: each call forks git
def _git_describe() -> str:
    # only a source checkout, <root>/src/linecox beside <root>/.git, describes its
    # own build; git would describe any work tree around an installed copy
    package = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(package)
    if os.path.basename(src) != "src" or not os.path.exists(
            os.path.join(os.path.dirname(src), ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, timeout=5, cwd=package)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linecox", description="Vehicular line-network simulator and analytic evaluator")
    parser.add_argument("quantity", choices=_COMMANDS, help="the command to run")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--preset", choices=sorted(_PRESETS), help="named scenario preset")
    for key, options in _FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), **options)
    parser.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override any config value")
    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict[str, dict[str, str]], object]:
    """The merged config of a run and its command's inputs: every [run] key the command
    reads parsed (None where unset) and the library objects built from them, each
    checked before any work."""
    config: dict[str, dict[str, str]] = {s: dict(v) for s, v in _DEFAULTS.items()}
    if args.preset:
        _merge(config, _PRESETS[args.preset])
    given = [_load_config_file(args.config)] if args.config else []
    given.append(_parse_set(args.set))
    for part in given:
        _merge(config, part)
    for key in _FLAGS:
        if getattr(args, key) is not None:
            config["run"][key] = str(getattr(args, key))
    # a run or grid key given for a command that does not read it is an error,
    # not a silent run without it; preset keys and flags may go unread
    reads = _reads(args.quantity, config)
    for part in given:
        _check_keys(part, {"params": _KNOWN["params"], **reads})
    run = {}
    for key in reads["run"]:
        raw = config["run"].get(key)
        with _field("run", key):
            run[key] = None if raw is None else _RUN[key][1](raw)
    # a seed read but unset: only an analytic run may go without one
    if run.get("seed", 0) is None and run.get("mode") != "analytic":
        raise ConfigError("[run] seed: required for Monte Carlo and geometry runs (--seed)")
    return config, _COMMANDS[args.quantity].resolve(config, run)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Resolve, compute, write: ``--out`` and its files appear only once all work succeeded."""
    args = _parser().parse_args(argv)
    quantity = args.quantity
    started = time.time()
    try:
        config, inputs = _resolve(args)
        files, extra, status = _COMMANDS[quantity].driver(inputs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:  # a rule that only the computation can check
        print(f"error: {_named('params', exc)}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    out_dir = config["run"]["out"]
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name, _ in files]
    for path, (_, write) in zip(paths, files):
        write(path)
    manifest = {
        "schema_version": SCHEMA_VERSION, "tool_version": __version__, "build": _git_describe(),
        "quantity": quantity, "resolved_config": config, "outputs": [n for n, _ in files],
        "wall_time_s": time.time() - started,
        # the process high-water mark so far, in MB (ru_maxrss is in kB on Linux)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, **extra}
    paths.append(os.path.join(out_dir, f"{quantity}_manifest.json"))
    with open(paths[-1], "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    try:
        print("\n".join(f"wrote {path}" for path in paths), flush=True)
    except BrokenPipeError:  # a reader that closed stdout is no failure of the run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
    return status


if __name__ == "__main__":
    sys.exit(main())
