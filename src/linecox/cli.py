"""Experiment runner: every analytic and Monte Carlo quantity as a subcommand.

Configuration is layered with precedence flag > config file > preset >
default.  Config files are INI-style with [params], [run] and [grid]
sections; unknown sections or keys are hard errors.  Every run writes one or
two CSV files plus a JSON manifest of the fully resolved configuration.
CSV output for a given seed is byte-identical across reruns and thread
counts; the manifest's wall-time field is the only non-reproducible output.

Exit codes: 0 success, 1 numerical failure (quadrature or window not
converged, empty feasible set), 2 usage error or bad input, naming its [section] key.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    SCHEMA_VERSION,
    EmptyFeasibleSet,
    LatencyVariant,
    NetworkParams,
    NumericalError,
    ParameterError,
    QuadratureSpec,
    UnitParseError,
    convert_units,
    params_digest,
    substream,
)
from . import analytic, geometry, montecarlo, optimize
from .analytic import AFVariant

_DEFAULTS: dict[str, dict[str, str]] = {
    "params": {
        "lambda_l": "3",
        "mu": "3",
        "nu": "0.1",
        "speed": "30 km/h",
        "power": "1",
        "alpha": "3",
    },
    "run": {
        "mode": "analytic",
        "n": "10000",
        "out": ".",
        "variant": "auto",
        "rel_tol": "1e-6",
        "abs_tol": "1e-10",
        "w1": "0.7",
        "w2": "0.3",
        "w3": "0",
        "tau": "1",
        "refine": "true",
        "radius": "2",
        "half_length": "2",
        "palm": "true",
        "manhattan": "false",
        "devices": "true",
        "sigma": "0",
    },
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


class ConfigError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


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


# Range rules for _number and _grid: (test, what the value must be).
_NONNEG = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
_GRID_RULES = {"s": _NONNEG, "tau": _NONNEG, "t": _NONNEG, "w": _NONNEG,
               "nu": _POSITIVE, "mu": _POSITIVE}
_MODES = ("analytic", "montecarlo", "both")


def _grid(config: dict[str, dict[str, str]], keys: tuple[str, ...],
          default: Optional[str]) -> tuple[Optional[str], Optional[list[float]]]:
    """(key, values) of the one of ``keys`` set, else ``default`` for the last key;
    ``tau_db`` values come back as linear thresholds."""
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
    test, need = _GRID_RULES.get(key, (lambda v: True, ""))
    if not all(test(v) for v in values):
        raise ConfigError(f"[grid] {key}: every value must be {need}, got {text!r}")
    return key, (10.0 ** (values / 10.0) if key == "tau_db" else values).tolist()


def _number(config: dict[str, dict[str, str]], section: str, key: str,
            kind: type = float, rule: Optional[tuple] = None):
    """[section] key parsed as a finite ``kind`` and checked against ``rule``."""
    raw = config[section][key]
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key}: not {noun}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    if rule is not None and not rule[0](value):
        raise ConfigError(f"[{section}] {key}: must be {rule[1]}, got {raw!r}")
    return value


def _bool(config: dict[str, dict[str, str]], section: str, key: str) -> bool:
    raw = config[section][key].strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")


def _build_params(config: dict[str, dict[str, str]]) -> NetworkParams:
    fields = {}
    for key, raw in config["params"].items():
        try:
            fields[key] = convert_units(raw, key)
        except UnitParseError as exc:
            raise ConfigError(f"[params] {key}: {exc}") from None
    return NetworkParams(**fields)


def _quad(config: dict[str, dict[str, str]]) -> QuadratureSpec:
    return QuadratureSpec(
        rel_tol=_number(config, "run", "rel_tol", rule=(lambda v: 0 < v < 1, "in (0, 1)")),
        abs_tol=_number(config, "run", "abs_tol", rule=(lambda v: 0 <= v < 1, "in [0, 1)")),
    )


def _seed(config: dict[str, dict[str, str]]) -> int:
    if "seed" not in config["run"]:
        raise ConfigError("[run] seed: required for Monte Carlo and geometry runs (--seed)")
    return _number(config, "run", "seed", int, _NONNEG)


def _sampling(config: dict[str, dict[str, str]]) -> tuple[int, int]:
    """(n, seed) of a Monte Carlo run."""
    seed = _seed(config)
    return _number(config, "run", "n", int, (lambda v: v >= 100, ">= 100")), seed


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """One CSV file; schema_version leads every header."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


# ---------------------------------------------------------------------------
# the quantity table: every quantity with an analytic value and an estimate


@dataclass(frozen=True)
class _Inputs:
    """What a quantity's row makers read, resolved from the config."""

    params: NetworkParams
    quad: QuadratureSpec
    variant: Optional[Enum]
    grid_key: Optional[str]
    grid: Optional[list[float]]
    config: dict[str, dict[str, str]]


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
    montecarlo: Callable[[_Inputs, int, int], tuple[list, list]]
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


def _cells(x: _Inputs) -> list[tuple[float, NetworkParams]]:
    """ASE sweep cells over nu or mu; one nan-labelled cell without a grid."""
    if x.grid_key is None:
        return [(math.nan, x.params)]
    return [(v, replace(x.params, **{x.grid_key: v})) for v in x.grid]


def _ase_mc(x: _Inputs, n: int, seed: int) -> tuple[list, list]:
    runs = [(label, *montecarlo.estimate_ase(cell, n=n, seed=seed)) for label, cell in _cells(x)]
    return [("ase", label, est) for label, est, _ in runs], [window for *_, window in runs]


def _af_cumulative(x: _Inputs) -> list:
    rows = _curve("af-cumulative", x, analytic.af_cumulative(x.params, x.grid, x.quad, x.variant))
    # closing row: the t -> infinity limit every curve approaches
    return rows + [("af-cumulative", math.inf, analytic.af_limit(x.params))]


def _af_cumulative_mc(x: _Inputs, n: int, seed: int) -> tuple[list, list]:
    sigma = _number(x.config, "run", "sigma", rule=_NONNEG)
    ests = montecarlo.estimate_af_cumulative(x.params, x.grid, n=n, seed=seed, sigma=sigma)
    return _curve("af-cumulative", x, ests), []


def _latency_mc(x: _Inputs, n: int, seed: int) -> tuple[list, list]:
    res = montecarlo.estimate_latency(x.params, x.grid, n=n, seed=seed)
    rows = _curve("latency-ccdf", x, res.ccdf)
    rows += [("latency-mean", math.nan, res.mean), ("latency-pzero", math.nan, res.p_zero)]
    return rows, []


_TABLE: dict[str, _Quantity] = {
    "laplace": _Quantity(
        ("s",), "geom:1e-4,0.1,10",
        lambda x: _curve("laplace", x, analytic.laplace(x.params, x.grid, x.quad)),
        lambda x, n, seed: _grid_rows("laplace", x, montecarlo.estimate_laplace(
            x.params, x.grid, n=n, seed=seed))),
    "coverage": _Quantity(
        ("tau", "tau_db"), "lin:0,20,11",
        lambda x: _curve("coverage", x, analytic.coverage_probability(x.params, x.grid, x.quad)),
        lambda x, n, seed: _grid_rows("coverage", x, montecarlo.estimate_coverage(
            x.params, x.grid, n=n, seed=seed))),
    "ase": _Quantity(
        ("nu", "mu"), None,
        lambda x: [("ase", label, analytic.area_spectral_efficiency(cell, x.quad))
                   for label, cell in _cells(x)],
        _ase_mc),
    "af-snapshot": _Quantity(
        (), None,
        lambda x: [("af-snapshot", math.nan, analytic.af_snapshot(x.params, x.quad))],
        lambda x, n, seed: ([("af-snapshot", math.nan, montecarlo.estimate_af_snapshot(
            x.params, n=n, seed=seed))], [])),
    "af-cumulative": _Quantity(
        ("t",), "lin:0,400,9",
        _af_cumulative, _af_cumulative_mc,
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


def _inputs(quantity: _Quantity, config: dict[str, dict[str, str]]) -> _Inputs:
    params, quad = _build_params(config), _quad(config)
    variant = quantity.variant(config["run"]["variant"])
    key, grid = _grid(config, quantity.grid_keys, quantity.default_grid)
    return _Inputs(params, quad, variant, key, grid, config)


def _windows(reports: list[montecarlo.WindowReport]) -> dict:
    return {"window": [asdict(r) for r in reports]} if reports else {}


# ---------------------------------------------------------------------------
# subcommand drivers: (config, out_dir) -> (outputs, manifest extras, status)


def _run_quantity(
    name: str, config: dict[str, dict[str, str]], out_dir: str
) -> tuple[list[str], dict, int]:
    mode = config["run"]["mode"]
    if mode not in _MODES:
        raise ConfigError(f"[run] mode: unknown mode {mode!r}")
    quantity = _TABLE[name]
    x = _inputs(quantity, config)
    # Monte Carlo inputs are checked before any work, so a bad one writes no CSV
    n, seed = _sampling(config) if mode != "analytic" else (0, 0)
    digest, label = params_digest(x.params), getattr(x.variant, "value", "")
    outputs: list[str] = []
    reports: list[montecarlo.WindowReport] = []
    if mode != "montecarlo":
        bound = lambda v: x.quad.rel_tol * abs(v) + x.quad.abs_tol
        outputs.append(os.path.join(out_dir, f"{name}_analytic.csv"))
        _write_csv(outputs[-1], ["schema_version", "quantity", "variant", "grid_value", "value",
                                 "est_error_bound", "params_hash"],
                   [[SCHEMA_VERSION, name, label, _fmt(g), _fmt(v), _fmt(bound(v)), digest]
                    for _, g, v in quantity.analytic(x)])
    if mode != "analytic":
        rows, reports = quantity.montecarlo(x, n, seed)
        outputs.append(os.path.join(out_dir, f"{name}_mc.csv"))
        _write_csv(outputs[-1], ["schema_version", "quantity", "grid_value", "estimate",
                                 "std_error", "n", "seed", "params_hash"],
                   [[SCHEMA_VERSION, tag, _fmt(g), _fmt(est.value), _fmt(est.std_error),
                     est.n_samples, seed, digest] for tag, g, est in rows])
    return outputs, _windows(reports), 0


def _run_optimize(
    config: dict[str, dict[str, str]], out_dir: str
) -> tuple[list[str], dict, int]:
    params = _build_params(config)
    quad = _quad(config)
    terms = {k: _number(config, "run", k, rule=_NONNEG) for k in ("w1", "w2", "w3", "tau")}
    if terms["w1"] + terms["w2"] <= 0:
        raise ConfigError("[run] w1, w2: at least one must be > 0")
    axes = {key: values for key in ("nu", "mu")
            if (values := _grid(config, (key,), None)[1]) is not None}
    try:
        grid = optimize.GridSpec(**axes)
    except ValueError as exc:  # the message leads with the axis name
        raise ConfigError(f"[grid] {exc}") from None
    constraint = None
    if config["run"].get("constraint", "").strip():
        constraint = _number(config, "run", "constraint", rule=_NONNEG)
    result = optimize.optimize_grid(
        params,
        optimize.UtilityWeights(**terms),
        grid,
        constraint=constraint,
        quad=quad,
        refine=_bool(config, "run", "refine"),
    )
    path = os.path.join(out_dir, "optimize.csv")
    _write_csv(
        path,
        ["schema_version", "nu", "mu", "p_c", "af_limit", "mean_latency", "utility", "feasible"],
        [[SCHEMA_VERSION, _fmt(c.nu), _fmt(c.mu), _fmt(c.p_c), _fmt(c.af), _fmt(c.latency),
          _fmt(c.utility), int(c.feasible)] for c in result.surface],
    )
    extra = {
        "optimum": {
            "nu": result.nu_opt,
            "mu": result.mu_opt,
            "value": result.value,
            "coarse_nu": result.coarse_nu_opt,
            "coarse_mu": result.coarse_mu_opt,
        }
    }
    print(
        f"optimum nu={result.nu_opt:.6g} mu={result.mu_opt:.6g} "
        f"value={result.value:.6g}"
    )
    return [path], extra, 0


def _run_geometry(
    config: dict[str, dict[str, str]], out_dir: str
) -> tuple[list[str], dict, int]:
    params = _build_params(config)
    seed = _seed(config)
    radius = _number(config, "run", "radius", rule=_NONNEG)
    half_length = _number(config, "run", "half_length", rule=_NONNEG)
    rng = substream(seed, 0)
    if _bool(config, "run", "manhattan"):
        lines = geometry.sample_manhattan_lines(params.lambda_l, radius, rng)
        snap = geometry.snapshot_from_lines(lines, params, radius, half_length, rng)
    elif _bool(config, "run", "palm"):
        snap = geometry.palm_snapshot(params, radius, half_length, rng)
    else:
        snap = geometry.ordinary_snapshot(params, radius, half_length, rng)
    if _bool(config, "run", "devices"):
        snap = geometry.place_devices(snap, params.nu, rng)
    path = os.path.join(out_dir, "geometry.csv")
    geometry.snapshot_to_csv(snap, path)
    return [path], {"lines": snap.n_lines, "vehicles": snap.n_vehicles}, 0


def _run_validate(
    config: dict[str, dict[str, str]], out_dir: str
) -> tuple[list[str], dict, int]:
    target = config["run"].get("target", "laplace")
    if target not in _TABLE:
        raise ConfigError(f"[run] target: validate needs one of {list(_TABLE)}, got {target!r}")
    quantity = _TABLE[target]
    x = _inputs(quantity, config)
    n, seed = _sampling(config)
    digest = params_digest(x.params)
    # join on (quantity, grid value): a row found on one side only is dropped
    reference = {(tag, _fmt(g)): v
                 for tag, g, v in quantity.analytic(x) + quantity.reference(x)}
    mc_rows, reports = quantity.montecarlo(x, n, seed)
    pairs = [(g, reference[tag, _fmt(g)], est) for tag, g, est in mc_rows
             if (tag, _fmt(g)) in reference]
    z_abs = [abs(est.z_score(value)) for _, value, est in pairs]
    worst = max([0.0, *z_abs])
    path = os.path.join(out_dir, f"validate_{target}.csv")
    _write_csv(path, ["schema_version", "quantity", "grid_value", "analytic", "mc",
                      "std_error", "z_abs", "params_hash"],
               [[SCHEMA_VERSION, target, _fmt(g), _fmt(value), _fmt(est.value),
                 _fmt(est.std_error), _fmt(z), digest] for (g, value, est), z in zip(pairs, z_abs)])
    status = 0
    if worst > 3.0:
        print(f"validation FAILED: max |z| = {worst:.2f} > 3", file=sys.stderr)
        status = 1
    elif worst > 2.0:
        print(f"validation warning: max |z| = {worst:.2f} > 2", file=sys.stderr)
    print(f"validate {target}: max |z| = {worst:.3f} over {len(pairs)} points")
    extra = {"max_abs_z": worst, "variant": getattr(x.variant, "value", "")}
    return [path], {**extra, **_windows(reports)}, status


class _Command(NamedTuple):
    """A subcommand's driver and the [run] and [grid] keys it reads."""

    driver: Callable[[dict[str, dict[str, str]], str], tuple[list[str], dict, int]]
    run_keys: tuple[str, ...] = ()
    grid_keys: tuple[str, ...] = ()


_EVERY = ("out", "threads")  # [run] keys every command reads
_COMMANDS: dict[str, _Command] = {
    **{name: _Command(partial(_run_quantity, name), (*_EVERY, "mode", "n", "seed", "rel_tol",
                                                     "abs_tol", *q.run_keys), q.grid_keys)
       for name, q in _TABLE.items()},
    "optimize": _Command(_run_optimize, (*_EVERY, "rel_tol", "abs_tol", "w1", "w2", "w3", "tau",
                                         "refine", "constraint"), ("nu", "mu")),
    "geometry-dump": _Command(_run_geometry, (*_EVERY, "seed", "radius", "half_length", "palm",
                                              "manhattan", "devices")),
    "validate": _Command(_run_validate),  # reads its target's keys, see _reads
}
QUANTITIES = tuple(_COMMANDS)

# every key a config may set: those the commands read, and validate's target
_KNOWN = {"params": tuple(_DEFAULTS["params"]),
          "run": (*dict.fromkeys(k for c in _COMMANDS.values() for k in c.run_keys), "target"),
          "grid": tuple(dict.fromkeys(k for c in _COMMANDS.values() for k in c.grid_keys))}


def _reads(command: str, config: dict[str, dict[str, str]]) -> dict[str, tuple[str, ...]]:
    """The [run] and [grid] keys ``command`` reads; validate reads its target's,
    with ``target`` in place of ``mode``."""
    if command != "validate":
        return {"run": _COMMANDS[command].run_keys, "grid": _COMMANDS[command].grid_keys}
    target = config["run"].get("target", "laplace")
    if target not in _TABLE:  # _run_validate names the bad target
        return _KNOWN
    return {"run": tuple("target" if k == "mode" else k for k in _COMMANDS[target].run_keys),
            "grid": _COMMANDS[target].grid_keys}


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)  # taken once per process: each call forks git
def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, timeout=5, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _write_manifest(
    out_dir: str,
    quantity: str,
    config: dict[str, dict[str, str]],
    outputs: list[str],
    extra: dict,
    wall_time: float,
) -> str:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "build": _git_describe(),
        "quantity": quantity,
        "resolved_config": config,
        "outputs": [os.path.basename(p) for p in outputs],
        "wall_time_s": wall_time,
        # the process high-water mark so far, in MB (ru_maxrss is in kB on Linux)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    manifest.update(extra)
    path = os.path.join(out_dir, f"{quantity}_manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _parser() -> argparse.ArgumentParser:
    # argparse makes a HelpFormatter per argument, and one given no width reads
    # the terminal size; the width it would read is read once here instead
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="linecox",
        description="Vehicular line-network simulator and analytic evaluator",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="quantity", required=True)
    for name in QUANTITIES:
        p = sub.add_parser(name, formatter_class=formatter)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=sorted(_PRESETS),
                       help="named scenario preset")
        p.add_argument("--seed", type=int, help="Monte Carlo seed")
        p.add_argument("--n", type=int, help="Monte Carlo realisations")
        p.add_argument("--threads", type=int, default=None,
                       help="worker count (no result depends on it)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--variant",
                       help="analytic variant name (default auto: the variant "
                            "the Monte Carlo estimator targets)")
        p.add_argument("--rel-tol", type=float, help="quadrature relative tolerance")
        p.add_argument("--mode", choices=_MODES)
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override any config value")
    return parser


def _resolve_config(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    config: dict[str, dict[str, str]] = {s: dict(v) for s, v in _DEFAULTS.items()}
    if args.preset:
        _merge(config, _PRESETS[args.preset])
    given = [_load_config_file(args.config)] if args.config else []
    given.append(_parse_set(args.set))
    for part in given:
        _check_keys(part, _KNOWN)
        _merge(config, part)
    # each of these flags sets the [run] key of the same name
    for key in ("seed", "n", "out", "variant", "rel_tol", "mode", "threads"):
        if getattr(args, key) is not None:
            config["run"][key] = str(getattr(args, key))
    _check_keys(config, _KNOWN)
    # a run or grid key given for a command that does not read it is an error,
    # not a silent run without it; preset keys and flags may go unread
    reads = _reads(args.quantity, config)
    for part in given:
        _check_keys({section: part.get(section, {}) for section in reads}, reads)
    if "threads" in config["run"]:
        _number(config, "run", "threads", int, _POSITIVE)
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    quantity = args.quantity
    started = time.time()
    try:
        config = _resolve_config(args)
        out_dir = config["run"]["out"]
        os.makedirs(out_dir, exist_ok=True)
        outputs, extra, status = _COMMANDS[quantity].driver(config, out_dir)
        manifest = _write_manifest(
            out_dir, quantity, config, outputs, extra, time.time() - started
        )
        for path in outputs + [manifest]:
            print(f"wrote {path}")
        return status
    except (ConfigError, ParameterError, UnitParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, EmptyFeasibleSet) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
