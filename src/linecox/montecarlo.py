"""Monte Carlo estimators for the vehicular network model.

The staged interference model (:func:`_stage_increment`) is the package's
one simulator of the Palm interference seen by the typical vehicle: each
realisation draws its own-line and other-line interferers, with their device
offsets and fades, straight into arrays, one window stage at a time.

Every estimator is a pure function of (params, grid, n, seed): results are
bit-identical across runs and across machine configurations.  Randomness is
organised in named substreams so that independent parts of a simulation never
share draws:

    substream(seed, i, 1, k)   interference realisation i, window stage k
    substream(seed, 2)         signal marks (bulk across realisations)
    substream(seed, 3)         availability / connectivity realisations
    substream(seed, 4)         latency realisations

The availability and latency samplers draw from one stream each across all
realisations.  They read their per-vehicle (per-line) draws in pieces of
``_CHUNK`` and fold each piece into per-realisation results at once, so their
working memory is O(n + lines) plus one piece; the stream layout, and hence
every output, is the same as drawing each array whole.

Interference estimators grow the simulation window adaptively: stage k adds
the line annulus radius (R_{k-1}, R_k] with R_k = R_0 * 2**k, and extends all
existing lines from half-length L_{k-1} to L_k = R_k.  Because every stage
only *adds* interferers to the same realisations, the stage-to-stage shift of
an estimate directly measures the remaining truncation bias, and the run
stops once that shift is small compared to the statistical error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Estimate,
    NetworkParams,
    WindowNotConverged,
    ZeroSpeed,
    skip_ahead,
    substream,
    validate,
)

__all__ = [
    "WindowPolicy",
    "WindowReport",
    "GridEstimate",
    "LatencyResult",
    "estimate_laplace",
    "estimate_coverage",
    "estimate_ase",
    "estimate_af_snapshot",
    "estimate_af_cumulative",
    "estimate_latency",
]


# ---------------------------------------------------------------------------
# adaptive window control


@dataclass(frozen=True)
class WindowPolicy:
    """Controls the doubling schedule of the simulation window.

    The window stops growing once, for every grid point, the estimate moved
    by less than ``stability_fraction`` standard errors when the radius last
    doubled.  ``max_doublings`` bounds the schedule; exceeding it raises
    :class:`WindowNotConverged` rather than returning a biased answer.
    """

    initial_radius: float = 2.0
    max_doublings: int = 8
    stability_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.initial_radius <= 0:
            raise ValueError(f"initial_radius must be > 0, got {self.initial_radius}")
        if self.max_doublings < 1:
            raise ValueError(f"max_doublings must be >= 1, got {self.max_doublings}")
        if self.stability_fraction <= 0:
            raise ValueError(
                f"stability_fraction must be > 0, got {self.stability_fraction}"
            )

    def radius(self, stage: int) -> float:
        return self.initial_radius * 2.0**stage


@dataclass(frozen=True)
class WindowReport:
    """How far the window had to grow before estimates stabilised."""

    final_radius: float
    stages: int
    max_shift_over_se: float


@dataclass(frozen=True)
class GridEstimate:
    """Estimates over a grid of evaluation points from one coupled run."""

    grid: np.ndarray
    estimates: tuple[Estimate, ...]
    window: WindowReport

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    def std_errors(self) -> np.ndarray:
        return np.array([e.std_error for e in self.estimates])


def _disk_offsets(
    rng: np.random.Generator, count: int, nu: float
) -> tuple[np.ndarray, np.ndarray]:
    # uniform on the radius-nu disk around each vehicle
    rho = nu * np.sqrt(rng.uniform(size=count))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return rho * np.cos(phi), rho * np.sin(phi)


def _attenuation(d2: np.ndarray, alpha: float) -> np.ndarray:
    """Path-gain d2 ** (-alpha / 2) on squared distances."""
    return d2 ** (-0.5 * alpha)


def _signed_segment(
    rng: np.random.Generator, count: int, inner: float, outer: float
) -> np.ndarray:
    # uniform over the two-sided extension (inner, outer] of a line segment
    mag = rng.uniform(inner, outer, size=count)
    side = rng.integers(0, 2, size=count) * 2 - 1
    return side * mag


def _stage_increment(
    rng: np.random.Generator,
    params: NetworkParams,
    stage: int,
    policy: WindowPolicy,
    line_offsets: list[np.ndarray],
) -> tuple[float, float]:
    """Interference added by one window stage of one realisation.

    Returns (other-line increment, own-line increment) and appends the
    stage's newly born lines to ``line_offsets``.  Draw order within the
    stream is fixed: own-line segment, new line offsets, then vehicles per
    annulus from innermost to outermost.
    """
    p, mu, nu, alpha = params.power, params.mu, params.nu, params.alpha
    r_out = policy.radius(stage)
    r_in = policy.radius(stage - 1) if stage else 0.0
    seg_len = 2.0 * r_out if stage == 0 else 2.0 * (r_out - r_in)

    def power_sum(r: np.ndarray, t: np.ndarray) -> float:
        du, dt = _disk_offsets(rng, r.size, nu)
        fades = rng.exponential(size=r.size)
        d2 = (r + du) ** 2 + (t + dt) ** 2
        return float(np.dot(fades, _attenuation(d2, alpha)) * p)

    # own line: full segment at stage 0, two-sided extension afterwards
    m = int(rng.poisson(mu * seg_len))
    if m:
        if stage == 0:
            t_own = rng.uniform(-r_out, r_out, size=m)
        else:
            t_own = _signed_segment(rng, m, r_in, r_out)
        own = power_sum(np.zeros(m), t_own)
    else:
        own = 0.0

    n_new = rng.poisson(2.0 * params.lambda_l * (r_out - r_in))
    if stage == 0:
        new_lines = rng.uniform(-r_out, r_out, size=n_new)
    else:
        new_lines = _signed_segment(rng, n_new, r_in, r_out)
    line_offsets.append(new_lines)

    # vehicle counts annulus by annulus, then one merged batch of positions,
    # disk offsets and fades; old lines gain only the two-sided extension
    # while this stage's new lines are populated over the full segment
    old_r: list[np.ndarray] = []
    for lines in line_offsets[:stage]:
        if lines.size == 0:
            continue
        counts = rng.poisson(mu * seg_len, size=lines.size)
        old_r.append(np.repeat(lines, counts))
    counts_new = rng.poisson(mu * 2.0 * r_out, size=new_lines.size)
    r_ext = np.concatenate(old_r) if old_r else np.empty(0)
    r_full = np.repeat(new_lines, counts_new)
    t_ext = _signed_segment(rng, r_ext.size, r_in, r_out)
    t_full = rng.uniform(-r_out, r_out, size=r_full.size)
    r_all = np.concatenate((r_ext, r_full))
    if r_all.size == 0:
        return 0.0, own
    other = power_sum(r_all, np.concatenate((t_ext, t_full)))
    return other, own


def _staged_estimates(
    params: NetworkParams,
    n: int,
    seed: int,
    policy: WindowPolicy,
    stat_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    need_signal: bool,
) -> tuple[np.ndarray, WindowReport]:
    """Run the coupled window-doubling scheme and return final per-sample stats.

    ``stat_fn(interference, signal) -> (n, G)`` evaluates every grid point on
    the current interference; the same realisations serve all grid points and
    all stages, so stage-to-stage shifts isolate truncation bias.
    """
    validate(params)
    if n < 100:
        raise ValueError(f"need at least 100 realisations, got {n}")
    i1 = np.zeros(n)
    i2 = np.zeros(n)
    if need_signal:
        rng = substream(seed, 2)
        rho = params.nu * np.sqrt(rng.uniform(size=n))
        signal = params.power * rng.exponential(size=n) * rho ** (-params.alpha)
    else:
        signal = np.zeros(n)
    lines: list[list[np.ndarray]] = [[] for _ in range(n)]

    prev_mean: Optional[np.ndarray] = None
    ratio = math.inf
    for stage in range(policy.max_doublings + 1):
        for i in range(n):
            rng = substream(seed, i, 1, stage)
            other, own = _stage_increment(rng, params, stage, policy, lines[i])
            i1[i] += other
            i2[i] += own
        stats = stat_fn(i1 + i2, signal)
        mean = stats.mean(axis=0)
        if prev_mean is not None:
            se = stats.std(axis=0, ddof=1) / math.sqrt(n)
            shift = np.abs(mean - prev_mean)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shift == 0.0, 0.0, shift / se)
            ratio = float(np.max(ratios))
            if ratio < policy.stability_fraction:
                report = WindowReport(
                    final_radius=policy.radius(stage),
                    stages=stage + 1,
                    max_shift_over_se=ratio,
                )
                return stats, report
        prev_mean = mean
    raise WindowNotConverged(policy.radius(policy.max_doublings), ratio)


def _grid_result(
    grid: np.ndarray, stats: np.ndarray, report: WindowReport
) -> GridEstimate:
    estimates = tuple(Estimate.from_samples(stats[:, g]) for g in range(stats.shape[1]))
    return GridEstimate(grid=grid, estimates=estimates, window=report)


def estimate_laplace(
    params: NetworkParams,
    s_values: Sequence[float],
    n: int = 10_000,
    seed: int = 0,
    window: WindowPolicy = WindowPolicy(),
) -> GridEstimate:
    """Estimate E[exp(-s I)] under the palm distribution for each s.

    All s values share the same realisations, so the curve is smooth in s
    and differences along the grid have far less variance than independent
    runs would give.
    """
    grid = np.asarray(s_values, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid < 0):
        raise ValueError("s_values must be a non-empty 1-d array of s >= 0")

    def stat(total: np.ndarray, signal: np.ndarray) -> np.ndarray:
        return np.exp(-np.outer(total, grid))

    stats, report = _staged_estimates(params, n, seed, window, stat, need_signal=False)
    return _grid_result(grid, stats, report)


def estimate_coverage(
    params: NetworkParams,
    thresholds: Sequence[float],
    n: int = 10_000,
    seed: int = 0,
    window: WindowPolicy = WindowPolicy(),
) -> GridEstimate:
    """Estimate P(SIR >= tau) of the typical link for each threshold."""
    grid = np.asarray(thresholds, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid < 0):
        raise ValueError("thresholds must be a non-empty 1-d array of tau >= 0")

    def stat(total: np.ndarray, signal: np.ndarray) -> np.ndarray:
        # signal >= tau * I avoids 0/0 when a window stage has no interferer
        return (signal[:, None] >= np.outer(total, grid)).astype(float)

    stats, report = _staged_estimates(params, n, seed, window, stat, need_signal=True)
    return _grid_result(grid, stats, report)


def estimate_ase(
    params: NetworkParams,
    n: int = 10_000,
    seed: int = 0,
    window: WindowPolicy = WindowPolicy(),
) -> tuple[Estimate, WindowReport]:
    """Estimate the area spectral efficiency lambda_l * mu * E[log2(1 + SIR)].

    Early window stages can contain zero interferers, making individual
    samples infinite; the stability rule cannot pass while such samples
    persist, and they vanish as the window grows.
    """

    def stat(total: np.ndarray, signal: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            rate = np.log2(1.0 + signal / total)
        return rate[:, None]

    stats, report = _staged_estimates(params, n, seed, window, stat, need_signal=True)
    scale = params.lambda_l * params.mu
    samples = scale * stats[:, 0]
    return Estimate.from_samples(samples), report


# ---------------------------------------------------------------------------
# availability

# per-vehicle (per-line) draws the bulk samplers read at a time
_CHUNK = 2**18


def _pieces(ends: np.ndarray, labels: Optional[np.ndarray] = None):
    """``np.repeat(labels, counts)`` in consecutive pieces of ``_CHUNK`` items.

    ``ends`` is ``np.cumsum(counts)``; without ``labels`` each item is
    labelled with the index of its group.
    """
    total = int(ends[-1]) if ends.size else 0
    for a in range(0, total, _CHUNK):
        b = min(a + _CHUNK, total)
        lo = int(np.searchsorted(ends, a, side="right"))
        hi = int(np.searchsorted(ends, b, side="left")) + 1
        sizes = np.diff(np.concatenate(([a], np.minimum(ends[lo:hi], b))))
        yield np.repeat(np.arange(lo, hi) if labels is None else labels[lo:hi], sizes)


def _record_hits(first: np.ndarray, rid: np.ndarray, gap: np.ndarray,
                 speeds: np.ndarray) -> None:
    # gap is inf for a vehicle heading away; a stopped vehicle never arrives
    with np.errstate(divide="ignore", invalid="ignore"):
        np.minimum.at(first, rid, np.where(speeds > 0.0, gap / speeds, np.inf))


def _af_event_times(
    params: NetworkParams,
    t_max: float,
    n: int,
    seed: int,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample connectivity per realisation: (covered at 0, first contact time).

    Draws live in substream(seed, 3) in a fixed order: line counts, line
    offsets, on-disk vehicle counts, then (only when t_max > 0) approach-zone
    vehicle counts, all gaps, all headings, all speed normals and the
    redraws of negative speeds.  A run with t_max = 0 therefore consumes a
    prefix of the draws of a longer run, which makes snapshot and time-window
    estimates exactly consistent under a shared seed.

    The per-vehicle draws are read in pieces of ``_CHUNK``: gaps and headings
    take a fixed number of 64-bit outputs each, so :func:`skip_ahead` starts
    the heading and normal sections where they begin in the stream.  Working
    memory is O(n + lines) plus one piece, whatever the number of vehicles.

    Vehicles faster than speed + 6 sigma that start beyond the sampled
    approach zone are ignored; the chance any exist is below 1e-8 per run.
    """
    nu, v = params.nu, params.speed
    rng = substream(seed, 3)

    n_lines = rng.poisson(2.0 * params.lambda_l * nu, size=n)
    total = int(n_lines.sum())
    rid = np.repeat(np.arange(n), n_lines)
    offsets = rng.uniform(-nu, nu, size=total)
    chord = np.sqrt(np.maximum(nu * nu - offsets * offsets, 0.0))
    on_disk = rng.poisson(2.0 * params.mu * chord)

    covered0 = np.zeros(n, dtype=bool)
    np.logical_or.at(covered0, rid, on_disk > 0)

    first = np.full(n, np.inf)
    reach = (v + 6.0 * sigma) * t_max
    if reach > 0.0 and total:
        ends = np.cumsum(rng.poisson(2.0 * params.mu * reach, size=total))
        ntail = int(ends[-1])
        # a gap takes one 64-bit output and a heading one 32-bit half, the
        # first heading the half left pending, if any: both sections have
        # known lengths, so the heading and normal sections start known too
        pending = int(rng.bit_generator.state["has_uint32"])
        heads = skip_ahead(rng, ntail)
        normals = skip_ahead(rng, ntail + (ntail + 1 - pending) // 2)
        slow_rid, slow_gap = [], []
        for veh_rid in _pieces(ends, rid):
            gap = rng.uniform(0.0, reach, size=veh_rid.size)
            gap[heads.integers(0, 2, size=veh_rid.size) == 0] = np.inf
            # at sigma = 0 the speed is v exactly, so the normals (drawn last) are skipped
            speeds = (v + sigma * normals.standard_normal(size=veh_rid.size) if sigma > 0.0
                      else np.full(veh_rid.size, v))
            bad = speeds < 0.0
            if bad.any():
                slow_rid.append(veh_rid[bad])
                slow_gap.append(gap[bad])
            _record_hits(first, veh_rid, gap, speeds)
        if slow_rid:
            # truncate the speed law at zero: once every first draw is made,
            # redraw the negative speeds in vehicle order until none is left
            gap = np.concatenate(slow_gap)
            speeds = np.full(gap.size, -1.0)
            bad = speeds < 0.0
            while np.any(bad):
                speeds[bad] = v + sigma * normals.standard_normal(size=int(bad.sum()))
                bad = speeds < 0.0
            _record_hits(first, np.concatenate(slow_rid), gap, speeds)
    return covered0, first


def estimate_af_snapshot(
    params: NetworkParams, n: int = 100_000, seed: int = 0
) -> Estimate:
    """Estimate the probability that some device disk covers the origin now."""
    validate(params)
    if n < 100:
        raise ValueError(f"need at least 100 realisations, got {n}")
    covered0, _ = _af_event_times(params, 0.0, n, seed, 0.0)
    return Estimate.from_samples(covered0.astype(float))


def estimate_af_cumulative(
    params: NetworkParams,
    times: Sequence[float],
    n: int = 100_000,
    seed: int = 0,
    sigma: float = 0.0,
) -> tuple[Estimate, ...]:
    """Estimate P(origin covered at some point within [0, t]) for each t.

    ``sigma`` randomises vehicle speeds: each vehicle draws an independent
    speed from a normal(speed, sigma) truncated at zero.  sigma = 0
    reproduces the constant-speed model draw for draw.
    """
    validate(params)
    if n < 100:
        raise ValueError(f"need at least 100 realisations, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid < 0):
        raise ValueError("times must be a non-empty 1-d array of t >= 0")
    covered0, first = _af_event_times(params, float(grid.max()), n, seed, sigma)
    hit = covered0[:, None] | (first[:, None] <= grid[None, :])
    return tuple(Estimate.from_samples(hit[:, g].astype(float)) for g in range(grid.size))


# ---------------------------------------------------------------------------
# latency


@dataclass(frozen=True)
class LatencyResult:
    """Latency summary conditioned on eventual coverage."""

    mean: Estimate
    p_zero: Estimate
    grid: np.ndarray
    ccdf: tuple[Estimate, ...]


def _conditioned_line_counts(
    rng: np.random.Generator, lam: float, size: int
) -> np.ndarray:
    # Poisson(lam) conditioned on >= 1 by redrawing zeros
    counts = rng.poisson(lam, size=size)
    zero = counts == 0
    while np.any(zero):
        counts[zero] = rng.poisson(lam, size=int(zero.sum()))
        zero = counts == 0
    return counts


def _latency_waits(params: NetworkParams, n: int, seed: int) -> np.ndarray:
    """Sample waits given that at least one line passes within distance nu.

    A line at offset r is covered immediately with the on-chord vacancy
    probability; otherwise the nearest approaching device-carrier on either
    side sits an Exp(mu) gap beyond the chord, independent of the vacancy.

    Draws live in substream(seed, 4): line counts, then all offsets, all
    vacancy uniforms and two exponentials per line.  Lines are read in pieces
    of ``_CHUNK``, each section from its own :func:`skip_ahead` start, so
    working memory is O(n + lines) plus one piece.
    """
    validate(params)
    nu, v = params.nu, params.speed
    rng = substream(seed, 4)
    ends = np.cumsum(_conditioned_line_counts(rng, 2.0 * params.lambda_l * nu, n))
    total = int(ends[-1])
    vacancy = skip_ahead(rng, total)
    exponentials = skip_ahead(rng, 2 * total)
    waits = np.full(n, np.inf)
    for rid in _pieces(ends):
        offsets = rng.uniform(-nu, nu, size=rid.size)
        chord = np.sqrt(np.maximum(nu * nu - offsets * offsets, 0.0))
        vacant = vacancy.uniform(size=rid.size) < np.exp(-2.0 * params.mu * chord)
        # nearest approaching carrier beyond each chord end: Exp(mu/2) per side
        gaps = exponentials.exponential(scale=2.0 / params.mu, size=(rid.size, 2)).min(axis=1)
        # at zero speed a vacant line never covers the origin
        np.minimum.at(waits, rid, np.where(vacant, gaps / v if v > 0.0 else np.inf, 0.0))
    if v <= 0.0 and not np.all(waits == 0.0):
        raise ZeroSpeed(
            [("speed", "latency diverges at zero speed when not covered at t=0")]
        )
    return waits


def estimate_latency(
    params: NetworkParams,
    waits_grid: Sequence[float],
    n: int = 100_000,
    seed: int = 0,
) -> LatencyResult:
    """Estimate mean latency, P(no wait) and the wait CCDF on a grid.

    All quantities condition on the origin being covered eventually, i.e. on
    at least one street passing within distance nu.
    """
    if n < 100:
        raise ValueError(f"need at least 100 realisations, got {n}")
    grid = np.asarray(waits_grid, dtype=float)
    if grid.ndim != 1 or np.any(grid < 0):
        raise ValueError("waits_grid must be a 1-d array of w >= 0")
    waits = _latency_waits(params, n, seed)
    ccdf = tuple(
        Estimate.from_samples((waits > w).astype(float)) for w in grid
    )
    return LatencyResult(
        mean=Estimate.from_samples(waits),
        p_zero=Estimate.from_samples((waits == 0.0).astype(float)),
        grid=grid,
        ccdf=ccdf,
    )
