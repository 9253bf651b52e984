"""Spans around calls into linecox's layers, recorded from outside the package.

``install`` replaces public functions of the linecox modules (and the few
module-level names other modules imported from them) with wrappers that
record a span: name, start, end, parent span and whether it is the outermost
span of that name.  Spans stay in memory; ``layer_metrics`` folds them into
the per-layer metrics and ``dump`` writes them out at the end of a round.

A span's self time is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans.  Integrands
handed to the quadrature layer get a span of their own ("analytic.integrand")
so that quadrature self time excludes the work of the functions it
integrates.  Rounds run single-threaded, so spans nest strictly.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

ANALYTIC_FUNCTIONS = ("laplace", "coverage_probability", "area_spectral_efficiency",
                      "af_cumulative", "latency_ccdf", "mean_latency")
STAGED_ESTIMATORS = ("estimate_laplace", "estimate_coverage")
BULK_ESTIMATORS = ("estimate_af_cumulative", "estimate_latency")
OPTIMIZER_FUNCTIONALS = ("coverage_probability", "mean_latency", "af_limit")

# per-layer metric name -> unit; every traced round reports all of them
LAYER_METRICS: dict[str, str] = {
    "cli.self_s": "s",
    "core.substream.calls": "count",
    "core.substream.s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate_halfline.calls": "count",
    "quadrature.integrand_nodes": "count",
    "quadrature.self_s": "s",
    "analytic.table_build.s": "s",
    "analytic.transform.calls": "count",
    "analytic.transform.s": "s",
    **{f"analytic.{fn}.{k}": u for fn in ANALYTIC_FUNCTIONS
       for k, u in (("calls", "count"), ("s", "s"))},
    **{f"montecarlo.{fn}.s": "s" for fn in STAGED_ESTIMATORS + BULK_ESTIMATORS},
    "montecarlo.window.stages": "count",
    "montecarlo.window.final_radius_km": "km",
    "montecarlo.staged.realisation_stages_per_s": "1/s",
    "montecarlo.staged.interferers_per_s": "1/s",
    "montecarlo.bulk.realisations_per_s": "1/s",
    "geometry.sample.s": "s",
    "geometry.snapshot_to_csv.s": "s",
    "geometry.entities": "count",
    "geometry.entities_per_s": "1/s",
    "optimize.optimize_grid.s": "s",
    "optimize.cells": "count",
    "optimize.functional_calls": "count",
    "optimize.distinct_cell_ratio": "ratio",
    "optimize.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder plus the facts some hooks read off results."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, outermost]
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.nodes = 0
        self.staged: list[tuple[float, float, float, int, int]] = []  # lambda, mu, R, n, stages
        self.bulk_n: list[int] = []
        self.entities: list[int] = []
        self.functional_cells: list[tuple[float, float]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)`` then reads the call."""
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, active[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_quadrature(self, name: str, fn):
        """Wrap an integrator so that the integrand it receives is traced too."""
        inner = self.wrap(name, fn)

        def count_nodes(args, kwargs, result):
            self.nodes += int(getattr(args[0], "size", 1))

        def traced(f, *args, **kwargs):
            if not getattr(f, "_perfbench_traced", False):
                f = self.wrap("analytic.integrand", f, after=count_nodes)
                f._perfbench_traced = True
            return inner(f, *args, **kwargs)

        return traced


def _arg(args, kwargs, name: str, position: int):
    return kwargs[name] if name in kwargs else args[position]


def install(tracer: Tracer) -> None:
    """Patch linecox's modules so that every layer boundary records a span."""
    from linecox import analytic, cli, geometry, montecarlo, optimize, quadrature

    for mod in (analytic, quadrature):
        for fn in ("integrate", "integrate_halfline"):
            setattr(mod, fn, tracer.wrap_quadrature(f"quadrature.{fn}", getattr(quadrature, fn)))

    analytic.LaplaceEvaluator.laplace = tracer.wrap(
        "analytic.transform", analytic.LaplaceEvaluator.laplace)
    for fn in ANALYTIC_FUNCTIONS + ("af_limit",):
        setattr(analytic, fn, tracer.wrap(f"analytic.{fn}", getattr(analytic, fn)))

    def record_cell(args, kwargs, result):
        params = args[0]
        tracer.functional_cells.append((params.nu, params.mu))

    for fn in OPTIMIZER_FUNCTIONALS:
        setattr(optimize, fn, tracer.wrap(f"analytic.{fn}", getattr(optimize, fn),
                                          after=record_cell))
    optimize.optimize_grid = tracer.wrap("optimize.optimize_grid", optimize.optimize_grid)
    optimize._evaluate_cell = tracer.wrap("optimize.cell", optimize._evaluate_cell)

    def record_stages(args, kwargs, result):
        params = args[0]
        n = _arg(args, kwargs, "n", 2)
        window = result.window
        tracer.staged.append((params.lambda_l, params.mu, window.final_radius,
                              n, window.stages))

    def record_bulk(args, kwargs, result):
        tracer.bulk_n.append(_arg(args, kwargs, "n", 2))

    for fn in STAGED_ESTIMATORS:
        setattr(montecarlo, fn, tracer.wrap(f"montecarlo.{fn}", getattr(montecarlo, fn),
                                            after=record_stages))
    for fn in BULK_ESTIMATORS:
        setattr(montecarlo, fn, tracer.wrap(f"montecarlo.{fn}", getattr(montecarlo, fn),
                                            after=record_bulk))
    montecarlo.substream = tracer.wrap("core.substream", montecarlo.substream)

    for fn in ("palm_snapshot", "ordinary_snapshot", "snapshot_from_lines", "place_devices"):
        setattr(geometry, fn, tracer.wrap("geometry.sample", getattr(geometry, fn)))

    def record_entities(args, kwargs, result):
        snap = args[0]
        devices = snap.n_vehicles if snap.device_xy is not None else 0
        tracer.entities.append(snap.n_lines + snap.n_vehicles + devices)

    geometry.snapshot_to_csv = tracer.wrap("geometry.snapshot_to_csv", geometry.snapshot_to_csv,
                                           after=record_entities)
    cli.main = tracer.wrap("cli.main", cli.main)


def layer_metrics(tracer: Tracer, table_build_s: float) -> dict[str, float]:
    """Fold the spans of one round into the per-layer metrics (bar overhead)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_by_layer: defaultdict = defaultdict(float)
    for name, start, end, parent, outermost in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, outermost) in enumerate(spans):
        calls[name] += 1
        if outermost:
            total[name] += end - start
        self_by_layer[name.split(".", 1)[0]] += (end - start) - child[i]

    m = {k: 0.0 for k in LAYER_METRICS}
    m["cli.self_s"] = self_by_layer["cli"]
    m["core.substream.calls"] = calls["core.substream"]
    m["core.substream.s"] = total["core.substream"]
    m["quadrature.integrate.calls"] = calls["quadrature.integrate"]
    m["quadrature.integrate_halfline.calls"] = calls["quadrature.integrate_halfline"]
    m["quadrature.integrand_nodes"] = tracer.nodes
    m["quadrature.self_s"] = self_by_layer["quadrature"]
    m["analytic.table_build.s"] = table_build_s
    m["analytic.transform.calls"] = calls["analytic.transform"]
    m["analytic.transform.s"] = total["analytic.transform"]
    for fn in ANALYTIC_FUNCTIONS:
        m[f"analytic.{fn}.calls"] = calls[f"analytic.{fn}"]
        m[f"analytic.{fn}.s"] = total[f"analytic.{fn}"]
    for fn in STAGED_ESTIMATORS + BULK_ESTIMATORS:
        m[f"montecarlo.{fn}.s"] = total[f"montecarlo.{fn}"]

    staged_s = sum(total[f"montecarlo.{fn}"] for fn in STAGED_ESTIMATORS)
    if tracer.staged:
        m["montecarlo.window.stages"] = sum(st[4] for st in tracer.staged)
        m["montecarlo.window.final_radius_km"] = max(st[2] for st in tracer.staged)
        m["montecarlo.staged.realisation_stages_per_s"] = (
            sum(st[3] * st[4] for st in tracer.staged) / staged_s)
        # computed, not counted: expected interferers inside the final window,
        # 2 lambda R lines of 2 mu R vehicles plus the 2 mu R on the own line
        m["montecarlo.staged.interferers_per_s"] = sum(
            n * (4.0 * lam * mu * r * r + 2.0 * mu * r)
            for lam, mu, r, n, _ in tracer.staged) / staged_s
    bulk_s = sum(total[f"montecarlo.{fn}"] for fn in BULK_ESTIMATORS)
    if tracer.bulk_n:
        m["montecarlo.bulk.realisations_per_s"] = sum(tracer.bulk_n) / bulk_s

    m["geometry.sample.s"] = total["geometry.sample"]
    m["geometry.snapshot_to_csv.s"] = total["geometry.snapshot_to_csv"]
    if tracer.entities:
        m["geometry.entities"] = sum(tracer.entities)
        m["geometry.entities_per_s"] = sum(tracer.entities) / (
            m["geometry.sample.s"] + m["geometry.snapshot_to_csv.s"])

    m["optimize.optimize_grid.s"] = total["optimize.optimize_grid"]
    m["optimize.cells"] = calls["optimize.cell"]
    m["optimize.functional_calls"] = len(tracer.functional_cells)
    if tracer.functional_cells:
        m["optimize.distinct_cell_ratio"] = (
            len(set(tracer.functional_cells)) / len(tracer.functional_cells))
    m["optimize.self_s"] = self_by_layer["optimize"]
    return m


def dump(tracer: Tracer, path) -> None:
    """Write the round's spans as JSON: one [name, start, end, parent] each."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [s[:4] for s in tracer.spans]}, fh, separators=(",", ":"))
