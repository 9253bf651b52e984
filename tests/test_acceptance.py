"""Acceptance gate: eight release criteria, one printed verdict per criterion.

Each test prints one ``ACCEPTANCE <k> (<name>): PASS|FAIL`` line straight to
the terminal (bypassing capture) and then asserts, so a plain ``pytest -v``
run shows the verdicts inline.  Tolerances follow the release checklist:
2 standard errors for simulation-analytic agreement, stated absolute
tolerances for identities, and wall-clock budgets where quoted.
"""

import math
import time

import numpy as np
import pytest

from linecox import analytic, montecarlo, optimize
from linecox.analytic import AFVariant, LatencyVariant
from linecox.cli import main as cli_main
from linecox.core import NetworkParams, substream
from linecox.geometry import (
    advance,
    nearest_vehicle_distance,
    ordinary_snapshot,
)
from linecox.montecarlo import _stage_interference

V = 30.0 / 3600.0
FIG3 = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=V, power=0.01)
FIG7 = NetworkParams(lambda_l=9.0, mu=3.0, nu=0.1, speed=V)
P33 = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)
DA = AFVariant.DIRECTION_AWARE
DB = AFVariant.DIRECTION_BLIND


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_1_transform_reproduction(report):
    """Analytic transform vs adaptive-window sampler on the dense network."""
    started = time.perf_counter()
    s_grid = 10.0 ** np.linspace(-4.0, -1.0, 10)
    res = montecarlo.estimate_laplace(FIG3, s_grid, n=10_000, seed=0)
    zs = [
        abs(est.z_score(analytic.laplace(FIG3, float(s))))
        for s, est in zip(res.grid, res.estimates)
    ]
    elapsed = time.perf_counter() - started
    ok = max(zs) <= 2.0 and elapsed <= 300.0
    report(
        1, "transform reproduction", ok,
        f"max|z|={max(zs):.2f} over 10 s-points, window R={res.window.final_radius:g}, "
        f"{elapsed:.0f}s of 300s budget",
    )


def test_criterion_2_urban_area_fraction_anchor(report):
    """Long-run covered fraction of the dense road network."""
    limit = analytic.af_limit(FIG7)
    anchor_ok = abs(limit - 0.8347) <= 1e-4
    # v t = 10 / mu puts the sweep deep into its saturation regime
    t = 10.0 / (FIG7.mu * FIG7.speed)
    est = montecarlo.estimate_af_cumulative(FIG7, np.array([t]), n=20_000, seed=2)[0]
    z = est.z_score(limit)
    ok = anchor_ok and abs(z) <= 2.0
    report(
        2, "urban area-fraction anchor", ok,
        f"limit={limit:.6f} vs 0.8347, MC at t={t:.0f}s z={z:+.2f}",
    )


def test_criterion_3_identity_suite(report):
    checks = {
        "laplace(0)=1": abs(analytic.laplace(P33, 0.0) - 1.0) <= 1e-12,
        "coverage(0)=1": abs(analytic.coverage_probability(P33, 0.0) - 1.0) <= 1e-9,
        "af_cum(0): variants agree": abs(
            analytic.af_cumulative(P33, 0.0, variant=DB)
            - analytic.af_cumulative(P33, 0.0, variant=DA)
        ) <= 1e-10,
        "lat_ccdf(0,blind)=1-af_cum(0)": abs(
            analytic.latency_ccdf(P33, 0.0, variant=LatencyVariant.DIRECTION_BLIND)
            - (1.0 - analytic.af_cumulative(P33, 0.0))
        ) <= 1e-10,
    }
    t_sat = 100.0 / (P33.mu * P33.speed)
    for variant in AFVariant:
        checks[f"af_cum->limit ({variant.value})"] = abs(
            analytic.af_cumulative(P33, t_sat, variant=variant)
            - analytic.af_limit(P33)
        ) <= 1e-6
    failed = [name for name, good in checks.items() if not good]
    report(
        3, "identity suite", not failed,
        f"{len(checks)} identities" + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_4_trend_suite(report):
    taus_db = np.linspace(0.0, 20.0, 9)
    taus = 10.0 ** (taus_db / 10.0)
    nus = np.linspace(0.05, 0.25, 5)
    problems = []

    curves = {}
    for alpha in (3.0, 4.0):
        near = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, alpha=alpha)
        wide = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.2, speed=V, alpha=alpha)
        pc_near = [analytic.coverage_probability(near, float(t)) for t in taus]
        pc_wide = [analytic.coverage_probability(wide, float(t)) for t in taus]
        if not all(a > b for a, b in zip(pc_near, pc_near[1:])):
            problems.append(f"p_c not decreasing in tau (alpha={alpha:g})")
        if not all(a > b for a, b in zip(pc_near, pc_wide)):
            problems.append(f"nu=0.1 does not dominate nu=0.2 (alpha={alpha:g})")
        ase = [
            analytic.area_spectral_efficiency(
                NetworkParams(lambda_l=3.0, mu=3.0, nu=float(nu), speed=V, alpha=alpha)
            )
            for nu in nus
        ]
        if not all(a > b for a, b in zip(ase, ase[1:])):
            problems.append(f"ASE not decreasing in nu (alpha={alpha:g})")
        curves[alpha] = pc_near
    if not all(h >= l for h, l in zip(curves[4.0], curves[3.0])):
        problems.append("alpha=4 coverage below alpha=3")

    # simulation confirmation of each curve used above, 2 SE per point
    mc_grid = np.array([1.0, 10.0, 100.0])
    mc_cases = [
        ("alpha3 nu0.1", NetworkParams(3.0, 3.0, 0.1, V, alpha=3.0), 41),
        ("alpha4 nu0.1", NetworkParams(3.0, 3.0, 0.1, V, alpha=4.0), 42),
        ("alpha3 nu0.2", NetworkParams(3.0, 3.0, 0.2, V, alpha=3.0), 43),
    ]
    worst = 0.0
    for label, params, seed in mc_cases:
        res = montecarlo.estimate_coverage(params, mc_grid, n=2500, seed=seed)
        for tau, est in zip(res.grid, res.estimates):
            z = abs(est.z_score(analytic.coverage_probability(params, float(tau))))
            worst = max(worst, z)
            if z > 2.0:
                problems.append(f"coverage MC off at {label} tau={tau:g} (z={z:.2f})")
    lo_nu = NetworkParams(3.0, 3.0, 0.05, V)
    hi_nu = NetworkParams(3.0, 3.0, 0.25, V)
    ase_lo, _ = montecarlo.estimate_ase(lo_nu, n=6000, seed=44)
    ase_hi, _ = montecarlo.estimate_ase(hi_nu, n=6000, seed=45)
    for est, params in ((ase_lo, lo_nu), (ase_hi, hi_nu)):
        z = abs(est.z_score(analytic.area_spectral_efficiency(params)))
        worst = max(worst, z)
        if z > 2.0:
            problems.append(f"ASE MC off at nu={params.nu:g} (z={z:.2f})")
    gap_se = math.hypot(ase_lo.std_error, ase_hi.std_error)
    if ase_lo.value - ase_hi.value < 2.0 * gap_se:
        problems.append("MC does not resolve the ASE decrease")

    report(
        4, "trend suite", not problems,
        f"max MC |z|={worst:.2f}" + (f", problems: {problems}" if problems else ""),
    )


def test_criterion_5_variant_adjudication(report):
    problems = []
    # cumulative coverage: the sampler must follow the direction-aware curve
    # and reject the direction-blind one
    t_grid = np.linspace(0.0, 250.0, 6)
    ests = montecarlo.estimate_af_cumulative(FIG7, t_grid, n=6000, seed=51)
    z_aware = [
        est.z_score(analytic.af_cumulative(FIG7, float(t), variant=DA))
        for t, est in zip(t_grid, ests)
    ]
    if max(abs(z) for z in z_aware) > 2.0:
        problems.append(f"aware curve missed (max|z|={max(abs(z) for z in z_aware):.2f})")
    blind_margin = max(
        (analytic.af_cumulative(FIG7, float(t), variant=DB) - est.value)
        / est.std_error
        for t, est in zip(t_grid[1:-1], ests[1:-1])
    )
    if blind_margin < 3.0:
        problems.append(f"blind curve not rejected (margin {blind_margin:.1f} SE)")

    # latency: the sampler conditions on eventual coverage by construction,
    # so it traces the conditioned direction-aware law
    w_grid = np.linspace(0.0, 100.0, 6)
    res = montecarlo.estimate_latency(P33, w_grid, n=20_000, seed=52)
    z_lat = [
        est.z_score(analytic.latency_ccdf(P33, float(w)))
        for w, est in zip(w_grid, res.ccdf)
    ]
    if max(abs(z) for z in z_lat) > 2.0:
        problems.append(f"latency ccdf missed (max|z|={max(abs(z) for z in z_lat):.2f})")

    # the blind CCDF levels off at the chance that no line ever comes within nu,
    # so its mean diverges
    tail = analytic.latency_ccdf(P33, 1e6, variant=LatencyVariant.DIRECTION_BLIND)
    if abs(tail - math.exp(-2.0 * P33.lambda_l * P33.nu)) > 1e-10:
        problems.append(f"blind tail limit wrong ({tail!r})")

    report(
        5, "variant adjudication", not problems,
        f"aware max|z|={max(abs(z) for z in z_aware):.2f}, "
        f"blind rejected by {blind_margin:.0f} SE"
        + (f", problems: {problems}" if problems else ""),
    )


def test_criterion_6_independence_and_invariance(report, monkeypatch):
    problems = []

    # empirical factorisation of the transform across line components, on
    # the (i1, i2) of the estimators' own first window stage, radius 3
    s, n = 0.01, 2500
    monkeypatch.setattr(montecarlo, "_R0", 3.0)
    i1, i2 = _stage_interference(P33, 610, 0, np.empty(0), np.zeros(n, int))[:2]
    g = np.exp(-s * i1)
    h = np.exp(-s * i2)
    f = g * h
    gap = f.mean() - g.mean() * h.mean()
    influence = (f - f.mean()) - h.mean() * (g - g.mean()) - g.mean() * (h - h.mean())
    gap_se = float(np.std(influence, ddof=1) / math.sqrt(n))
    if abs(gap) > 2.0 * gap_se:
        problems.append(f"factorisation gap {gap:.2e} vs SE {gap_se:.2e}")

    # motion invariance: the covered fraction is the same before and after
    # letting every vehicle drive for 30 s (paired, common realisations)
    n_adv, dt = 3000, 30.0
    diffs = np.empty(n_adv)
    for i in range(n_adv):
        snap = ordinary_snapshot(P33, 0.2, 0.6, substream(620, i))
        now = nearest_vehicle_distance(snap) <= P33.nu
        later = nearest_vehicle_distance(advance(snap, dt)) <= P33.nu
        diffs[i] = float(now) - float(later)
    diff_se = float(np.std(diffs, ddof=1) / math.sqrt(n_adv))
    z_adv = diffs.mean() / diff_se
    if abs(z_adv) > 2.0:
        problems.append(f"advance changed coverage (z={z_adv:+.2f})")

    # speed randomisation must not move the cumulative coverage
    times = np.array([60.0, 180.0])
    fixed = montecarlo.estimate_af_cumulative(FIG7, times, n=20_000, seed=61)
    jittered = montecarlo.estimate_af_cumulative(
        FIG7.at_mean_speed(0.3 * FIG7.speed), times, n=20_000, seed=62
    )
    for t, a, b in zip(times, fixed, jittered):
        z = (a.value - b.value) / math.hypot(a.std_error, b.std_error)
        if abs(z) > 2.0:
            problems.append(f"speed jitter moved AF at t={t:g} (z={z:+.2f})")

    # unit rescaling: closed forms exactly, sampled latency statistically
    scaled = P33.scaled(2.0)
    if analytic.af_cumulative(scaled, 0.0) != analytic.af_cumulative(P33, 0.0):
        problems.append("af_cumulative(0) not scale-exact")
    if analytic.af_limit(scaled) != analytic.af_limit(P33):
        problems.append("af_limit not scale-exact")
    w_grid = np.array([0.0, 20.0, 60.0])
    lat_a = montecarlo.estimate_latency(P33, w_grid, n=20_000, seed=63)
    lat_b = montecarlo.estimate_latency(scaled, w_grid, n=20_000, seed=64)
    for w, a, b in zip(w_grid, lat_a.ccdf, lat_b.ccdf):
        z = (a.value - b.value) / math.hypot(a.std_error, b.std_error)
        if abs(z) > 2.0:
            problems.append(f"latency not scale-invariant at w={w:g} (z={z:+.2f})")

    report(
        6, "independence and invariance", not problems,
        f"factorisation gap {abs(gap) / gap_se:.2f} SE, advance z={z_adv:+.2f}"
        + (f", problems: {problems}" if problems else ""),
    )


def test_criterion_7_optimizer_sanity(report):
    base = NetworkParams(lambda_l=3.0, mu=0.5, nu=0.5, speed=V)
    grid = optimize.GridSpec()
    weights = optimize.UtilityWeights(w1=0.7, w2=0.3, tau=1.0)
    problems = []

    af_only = optimize.optimize_grid(base, optimize.UtilityWeights(w1=0.0, w2=1.0), grid)
    if af_only.nu_opt != grid.nu[-1]:
        problems.append(f"w1=0 argmax at nu={af_only.nu_opt:g}, not the grid edge")

    free = optimize.optimize_grid(base, weights, grid)
    tight = optimize.optimize_grid(base, weights, grid, constraint=30.0)
    if tight.value > free.value:
        problems.append("constrained optimum beats unconstrained")

    nu_step = grid.nu[1] - grid.nu[0]
    mu_step = grid.mu[1] - grid.mu[0]
    if abs(free.nu_opt - free.coarse_nu_opt) >= nu_step or (
        abs(free.mu_opt - free.coarse_mu_opt) >= mu_step
    ):
        problems.append("refinement wandered beyond one coarse cell")

    # discrete unimodality of each fixed-mu slice of the coarse surface
    cells = {(c.nu, c.mu): c.utility for c in free.surface}
    for mu in grid.mu:
        slice_vals = [cells[(nu, mu)] for nu in grid.nu]
        drops = 0
        for a, b in zip(slice_vals, slice_vals[1:]):
            if b < a:
                drops = 1
            elif b > a and drops:
                problems.append(f"mu={mu:g} slice rises after falling")
                break

    report(
        7, "optimizer sanity", not problems,
        f"optimum nu={free.nu_opt:g} mu={free.mu_opt:g} value={free.value:.4f}, "
        f"constrained {tight.value:.4f}"
        + (f", problems: {problems}" if problems else ""),
    )


def test_criterion_8_byte_identical_reruns(report, tmp_path):
    problems = []

    def rerun(name, *argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main([*argv, "--out", str(out)])
            if code != 0:
                problems.append(f"{name} exited {code}")
                return
            outs.append(out)
        for csv_path in sorted(outs[0].glob("*.csv")):
            twin = outs[1] / csv_path.name
            if csv_path.read_bytes() != twin.read_bytes():
                problems.append(f"{name}: {csv_path.name} differs between reruns")

    rerun(
        "laplace", "laplace", "--mode", "montecarlo", "--seed", "7", "--n", "300",
        "--set", "grid.s=geom:1e-3,1e-1,3",
    )
    rerun(
        "latency", "latency", "--mode", "montecarlo", "--seed", "9", "--n", "300",
        "--set", "grid.w=lin:0,40,3",
    )
    rerun("geometry", "geometry-dump", "--seed", "42")

    # worker count must never leak into the numbers
    for threads, tag in (("1", "t1"), ("4", "t4")):
        out = tmp_path / f"optimize-{tag}"
        code = cli_main(["optimize", "--preset", "fig10", "--threads", threads,
                         "--out", str(out)])
        if code != 0:
            problems.append(f"optimize --threads {threads} exited {code}")
    if not problems:
        t1 = (tmp_path / "optimize-t1" / "optimize.csv").read_bytes()
        t4 = (tmp_path / "optimize-t4" / "optimize.csv").read_bytes()
        if t1 != t4:
            problems.append("optimize.csv depends on --threads")

    report(
        8, "byte-identical reruns", not problems,
        "laplace, latency, geometry-dump, optimize x threads"
        + (f", problems: {problems}" if problems else ""),
    )
