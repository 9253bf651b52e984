"""Monte Carlo estimators for the vehicular network model.

The staged interference model (:func:`_stage_interference`) is the
package's one simulator of the Palm interference seen by the typical
vehicle: each realisation draws its own-line and other-line interferers, with
their device offsets and fades, one window stage at a time.  A stage draws
each of its sections (line counts, line offsets, vehicle counts, positions,
disk offsets, fades) for all realisations in realisation order from the
section's own stream, and the per-vehicle sections in pieces of whole
realisations; each realisation's sums are one reduction over its run.

Every estimator is a pure function of (params, grid, n, seed): results are
bit-identical across runs and across machine configurations.  Randomness is
organised in named substreams so that independent parts of a simulation never
share draws:

    substream(seed, 1, k, j)   window stage k, section j of the interference
    substream(seed, 2)         signal marks (bulk across realisations)
    substream(seed, 3)         availability: line counts, per-line waits
    substream(seed, 4)         latency: line counts (>= 1), per-line waits

Every sampler reads each stream across all realisations, its items sorted
by realisation.  A staged section has a stream of its own, so the first n
realisations of a run draw what a run of n draws.  One per-line sampler
(:func:`_line_waits`) draws the waiting time W behind both the swept area
fraction and the latency, at the one speed of its parameter set (random
speeds come resolved to their mean, :meth:`NetworkParams.at_mean_speed`).
Each result is a segment minimum over the realisation's run of the stream
(:func:`_fold`), read in pieces of ``_CHUNK``: working memory is O(n + lines)
plus one piece, and every output is the one whole arrays would give.
Indicators are summarised as bool arrays, without float copies
(:meth:`~linecox.core.Estimate.from_samples`).

Interference estimators grow the simulation window on one fixed schedule:
stage k adds the line annulus radius (R_{k-1}, R_k] with R_k = R_0 * 2**k,
and extends all existing lines from half-length L_{k-1} to L_k = R_k.  Given
a realisation's lines, the interference the window misses is independent of
what it holds, and Campbell's theorem gives closed-form bounds on its mean and
variance (:func:`_remainder_moments`), from the lines alone: no transform,
Phi table or line exponent.  These bracket each statistic's truncation bias
per realisation; each estimate is the bracket's midpoint, and the run stops
at the first stage, stage 0 included, whose bracket half-width is at most
``_STABLE`` standard errors at every grid point.  After ``_MAX_DOUBLINGS``
doublings it raises :class:`WindowNotConverged` rather than return a biased
answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Estimate,
    NetworkParams,
    WindowNotConverged,
    ZeroSpeed,
    batch,
    skip_ahead,
    substream,
)
from .analytic import _beta_ratio

__all__ = [
    "WindowReport",
    "GridEstimate",
    "LatencyResult",
    "estimate_laplace",
    "estimate_coverage",
    "estimate_ase",
    "estimate_af_cumulative",
    "estimate_latency",
]


# ---------------------------------------------------------------------------
# window schedule: first radius (km), doublings allowed, stop at a bracket
# half-width of at most this many SE

_R0, _MAX_DOUBLINGS, _STABLE = 2.0, 8, 0.5

_LOG2 = math.log(2.0)  # nats per bit, for the ASE's log2 rates


def _radius(stage: int) -> float:
    return _R0 * 2.0**stage


@dataclass(frozen=True)
class WindowReport:
    """How far the window grew: its final radius, its stage count and, per grid
    point, the remainder bracket's half-width over the estimate's standard error."""

    final_radius: float
    stages: int
    half_width_over_se: tuple[float, ...]


@dataclass(frozen=True)
class GridEstimate:
    """Estimates over a grid of evaluation points from one coupled run."""

    grid: np.ndarray
    estimates: tuple[Estimate, ...]
    window: WindowReport


def _signed(mag: np.ndarray, sides: np.random.Generator) -> np.ndarray:
    """``mag`` put on a random side in place, one float32 uniform of ``sides`` per value.

    The sides are those of ``integers(0, 2, size=mag.size)``: both take one 32-bit
    output per draw, pending half first; the integer is the output's top bit, which
    is set exactly when the float32 uniform (the output's top 24 bits over 2^24) is
    >= 0.5, the positive side.  ``integers`` costs several times more per call.
    """
    return np.copysign(mag, sides.random(mag.size, dtype=np.float32) - np.float32(0.5), out=mag)


def _fold(ufunc: np.ufunc, out: np.ndarray, ends: np.ndarray, a: int, values: np.ndarray) -> None:
    """Fold into each ``out[j]`` by ``ufunc`` (``np.minimum`` or ``np.add``) group j's
    items, where items are sorted by group, group j ends at item ``ends[j]`` and
    ``values`` holds items ``a`` on: one ``ufunc.reduceat`` over the starts of its
    nonempty runs.  A group that lies whole in ``values`` gets the reduceat of its
    run alone, wherever the run starts."""
    lo, hi = np.searchsorted(ends, (a, a + values.size - 1), side="right")
    starts = np.concatenate(([a], ends[lo:hi])) - a
    runs = np.flatnonzero(np.diff(starts, append=values.size))
    out[lo + runs] = ufunc(out[lo + runs], ufunc.reduceat(values, starts[runs]))


# vehicles one arithmetic pass of the staged simulator takes at least
_STAGE_CHUNK = 2**14

# lines whose remainder moments one pass computes
_LINE_PIECE = 2**12


def _stage_interference(
    params: NetworkParams,
    seed: int,
    stage: int,
    lines: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Interference each realisation gains at one window stage.

    ``lines`` holds the line offsets of every realisation in turn, realisation
    i's ending at ``lines[ends[i] - 1]``.  Returns the (other-line, own-line)
    increments, one per realisation, and the lines and ends with the stage's
    newly born lines after each realisation's old ones.  The stage draws each
    of its sections for all realisations in realisation order, from its own
    stream substream(seed, 1, stage, k): own-line vehicle counts (k = 0),
    new-line counts (1), new-line offsets and their sides (2, 3), vehicle
    counts on the old lines, then on the new ones (4), positions and their
    sides (5, 6), disk-offset uniforms, two per vehicle (7), and fades (8).
    The own and old lines gain the two-sided extension r_in < |t| <= r_out,
    the new lines the full segment; stage 0 has r_in = 0.

    The per-vehicle sections are read in pieces of whole realisations, each of
    at least ``_STAGE_CHUNK`` vehicles, and each realisation's own-line and
    other-line sums are one ``np.add.reduceat`` each over its run of the
    piece (:func:`_fold`): no draw and no sum depends on the piece size, and
    the first n realisations of a run draw and sum what a run of n does.
    """
    alpha, mu, n = params.alpha, params.mu, ends.size
    r_out = _radius(stage)
    r_in = _radius(stage - 1) if stage else 0.0
    ext = 2.0 * mu * (r_out - r_in)
    streams = [substream(seed, 1, stage, k) for k in range(9)]
    own = streams[0].poisson(ext, size=n)
    born = streams[1].poisson(2.0 * params.lambda_l * (r_out - r_in), size=n)
    fresh = np.insert(np.zeros(lines.size, bool), np.repeat(ends, born), True)
    old, lines = lines, np.empty(fresh.size)
    lines[fresh] = _signed(streams[2].uniform(r_in, r_out, size=born.sum()), streams[3])
    lines[~fresh] = old
    ends = ends + np.cumsum(born)
    starts = np.concatenate(([0], ends[:-1]))
    vehicles = streams[4].poisson(np.where(fresh, 2.0 * mu * r_out, ext))
    tally = np.concatenate(([0], np.cumsum(vehicles)))
    on_lines = tally[ends] - tally[starts]
    del tally  # the pieces then hold the per-line arrays and one piece
    stops = np.cumsum(own + on_lines)
    # the own-line and other-line runs of each realisation, in turn
    cuts = np.column_stack((stops - on_lines, stops)).ravel()
    sums, j = np.zeros(2 * n), 0
    while j < n:
        i, a = j, (stops[j - 1] if j else 0)
        j = min(int(np.searchsorted(stops, a + _STAGE_CHUNK)) + 1, n)
        size = int(stops[j - 1] - a)
        if not size:
            continue
        # the piece's lines, each realisation's own line (offset 0) first; a
        # vehicle's position is uniform in magnitude on (low, r_out], then signed
        part, at = slice(starts[i], ends[j - 1]), starts[i:j] - starts[i]
        counts = np.insert(vehicles[part], at, own[i:j])
        t = np.repeat(np.insert(np.where(fresh[part], 0.0, r_in), at, r_in), counts)
        t += (r_out - t) * streams[5].random(size)
        _signed(t, streams[6])
        # gain ((r + rho cos phi)^2 + (t + rho sin phi)^2)^(-alpha/2), rho = nu sqrt(u)
        disk = streams[7].random((size, 2))
        rho, phi = disk[:, 0], disk[:, 1]
        np.sqrt(rho, out=rho)
        rho *= params.nu
        phi *= 2.0 * np.pi
        gain = np.cos(phi)
        gain *= rho
        gain += np.repeat(np.insert(lines[part], at, 0.0), counts)
        np.sin(phi, out=phi)
        phi *= rho
        t += phi
        np.square(gain, out=gain)
        np.square(t, out=t)
        gain += t
        np.power(gain, -0.5 * alpha, out=gain)
        gain *= streams[8].standard_exponential(size)
        _fold(np.add, sums, cuts, a, gain)
    sums *= params.power
    return sums[1::2], sums[0::2], lines, ends


def _check_sample_size(n: int) -> None:
    """The one sample-size rule of every estimator."""
    if n < 100:
        raise ValueError(f"need at least 100 realisations, got {n}")


def _remainder_moments(
    params: NetworkParams, lines: np.ndarray, ends: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_lo, m_hi, v) per realisation: bounds on the mean of the interference F
    that the window of ``radius`` R misses, given the realisation's lines (all
    with |r| <= R, laid out as :func:`_stage_interference` returns them), and a
    bound on its variance.  The lines are taken ``_LINE_PIECE`` at a time, and
    each piece's terms are summed per realisation by :func:`_fold`.

    F takes the own and inner lines' vehicles with |t| > R and every line with
    |r| > R.  Given the inner lines it is independent of the window's
    interference, and Campbell's theorem gives its moments (E[h] = 1, E[h^2] =
    2).  A line at offset r adds int_(|t|>R) d^-k dt = r^(1-k) B(a, 1/2)
    I_x(a, 1/2), a = (k-1)/2, x = r^2/(r^2 + R^2), the own line 2 R^(1-k)/(k-1)
    and the outer lines 2 lambda_l B(a, 1/2) R^(2-k)/(k-2), each per unit mu:
    k = alpha for the mean, 2 alpha for the variance, whose outer lines also add
    the variance of their count.  ``m_lo`` puts each device at its vehicle
    (|x|^-alpha is subharmonic, so its nu-disk average is at least that);
    ``m_hi`` and ``v`` scale by (1 - nu/R)^-alpha, the most a device can gain,
    and its square.
    """
    alpha, lam, mu, R, n = params.alpha, params.lambda_l, params.mu, radius, ends.size
    k = np.array([alpha, 2.0 * alpha])
    a = 0.5 * (k - 1.0)
    whole = np.array([math.gamma(b) * math.sqrt(math.pi) / math.gamma(b + 0.5) for b in a])
    inner = np.zeros((2, n))
    for start in range(0, lines.size, _LINE_PIECE):
        r2 = np.square(lines[start:start + _LINE_PIECE])
        x = r2 / (r2 + R * R)
        for row, b in zip(inner, a):
            _fold(np.add, row, ends, start, r2 ** -b * _beta_ratio(b, x, 0.5))
    own_outer = 2.0 * R ** (1.0 - k) / (k - 1.0) + 2.0 * lam * whole * R ** (2.0 - k) / (k - 2.0)
    first, second = whole[:, None] * inner + own_outer[:, None]
    count = 2.0 * lam * (mu * whole[0]) ** 2 * R ** (3.0 - 2.0 * alpha) / (2.0 * alpha - 3.0)
    p, grow = params.power, (1.0 - params.nu / R) ** -alpha
    m_lo = p * mu * first
    return m_lo, m_lo * grow, p * p * (2.0 * mu * second + count) * grow * grow


def _staged_estimates(
    params: NetworkParams,
    n: int,
    seed: int,
    terms: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, WindowReport]:
    """Run the coupled window-doubling scheme; return the per-realisation estimates.

    ``terms(interference, m_lo, m_hi, v) -> (stat, lo, hi)``, each (n, G), gives
    every grid point's statistic on the window's interference and the two ends
    of its truncation bias, from the remainder moments of
    :func:`_remainder_moments`.  The estimate is stat - (lo + hi)/2, the
    bracket's midpoint; the run stops at the first stage whose half-width, the
    mean of (hi - lo)/2, is at most ``_STABLE`` standard errors of the estimate
    at every grid point.
    """
    _check_sample_size(n)
    i1 = np.zeros(n)
    i2 = np.zeros(n)
    lines, ends = np.empty(0), np.zeros(n, np.int64)

    ratios = np.array([math.inf])
    for stage in range(_MAX_DOUBLINGS + 1):
        radius = _radius(stage)
        other, own, lines, ends = _stage_interference(params, seed, stage, lines, ends)
        i1 += other
        i2 += own
        if radius <= params.nu:  # a missed device may sit at the origin: no bound holds
            continue
        stat, lo, hi = terms(i1 + i2, *_remainder_moments(params, lines, ends, radius))
        # an ASE realisation without interferers is infinite: the stage cannot stop
        with np.errstate(divide="ignore", invalid="ignore"):
            est = stat - 0.5 * (lo + hi)
            half = 0.5 * (hi - lo).mean(axis=0)
            ratios = np.where(half == 0.0, 0.0, half / (est.std(axis=0, ddof=1) / math.sqrt(n)))
        if np.all(ratios <= _STABLE):
            return est, WindowReport(radius, stage + 1, tuple(ratios.tolist()))
    raise WindowNotConverged(_radius(_MAX_DOUBLINGS), float(np.max(ratios)))


def _exp_terms(rate: np.ndarray, total: np.ndarray, m_lo: np.ndarray, m_hi: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^(-c I) and the ends of its truncation bias e^(-c I) E[1 - e^(-c F)], c =
    ``rate`` broadcast against one row per realisation: from max(0, y - y^2/2) <=
    1 - e^-y <= min(1, y)."""
    stat = np.exp(-rate * total[:, None])
    hi = stat * np.minimum(1.0, rate * m_hi[:, None])
    lo = stat * np.maximum(0.0, rate * m_lo[:, None]
                           - 0.5 * np.square(rate) * (np.square(m_hi) + v)[:, None])
    return stat, lo, hi


def _nonempty(values: Sequence[float], name: str) -> np.ndarray:
    """The grid ``values`` flat, checked by :func:`batch` and non-empty."""
    grid = batch(values, name)[0]
    if grid.size == 0:
        raise ValueError(f"{name} grid must be non-empty")
    return grid


def _grid_result(
    grid: np.ndarray, stats: np.ndarray, report: WindowReport
) -> GridEstimate:
    estimates = tuple(Estimate.from_samples(stats[:, g]) for g in range(stats.shape[1]))
    return GridEstimate(grid=grid, estimates=estimates, window=report)


def _serving_link(params: NetworkParams, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Serving distance rho, uniform in the nu-disk, and unit fade per realisation."""
    _check_sample_size(n)
    rng = substream(seed, 2)
    rho = params.nu * np.sqrt(rng.uniform(size=n))
    return rho, rng.exponential(size=n)


def estimate_laplace(
    params: NetworkParams,
    s_values: Sequence[float],
    n: int = 10_000,
    seed: int = 0,
) -> GridEstimate:
    """Estimate E[exp(-s I)] under the palm distribution for each s.

    All s values share the same realisations, so the curve is smooth in s
    and differences along the grid have far less variance than independent
    runs would give.
    """
    grid = _nonempty(s_values, "transform argument")
    stats, report = _staged_estimates(
        params, n, seed, lambda total, *moments: _exp_terms(grid[None, :], total, *moments))
    return _grid_result(grid, stats, report)


def estimate_coverage(
    params: NetworkParams,
    thresholds: Sequence[float],
    n: int = 10_000,
    seed: int = 0,
) -> GridEstimate:
    """Estimate P(SIR >= tau) of the typical link for each threshold.

    Each realisation contributes P(SIR >= tau | I, rho) = e^(-c I) over its
    fade, c = tau rho^alpha / p: the transform's statistic at s = c.
    """
    grid = _nonempty(thresholds, "tau")
    rho, _ = _serving_link(params, n, seed)
    rate = np.outer(rho ** params.alpha / params.power, grid)
    stats, report = _staged_estimates(
        params, n, seed, lambda total, *moments: _exp_terms(rate, total, *moments))
    return _grid_result(grid, stats, report)


def estimate_ase(
    params: NetworkParams,
    n: int = 10_000,
    seed: int = 0,
) -> tuple[Estimate, WindowReport]:
    """Estimate the area spectral efficiency lambda_l * mu * E[log2(1 + SIR)].

    The missed interference F lowers the rate by g(F) = ln(1 + F/I) - ln(1 +
    F/(I + S)) nats, increasing and concave in F: Jensen bounds its mean by
    g(m_hi), and ln(1 + y) >= y - y^2/2 from below by m_lo S/(I (I + S)) -
    (m_hi^2 + v)/(2 I^2).  Early window stages can contain zero interferers,
    making individual samples infinite; such a stage cannot stop.
    """
    rho, fade = _serving_link(params, n, seed)
    signal = params.power * fade * rho ** (-params.alpha)

    def terms(total, m_lo, m_hi, v):
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = np.log2(1.0 + signal / total)
            hi = (np.log1p(m_hi / total) - np.log1p(m_hi / (total + signal))) / _LOG2
            lo = np.maximum(0.0, m_lo * signal / (total * (total + signal))
                            - (np.square(m_hi) + v) / (2.0 * np.square(total))) / _LOG2
        return stat[:, None], lo[:, None], hi[:, None]

    stats, report = _staged_estimates(params, n, seed, terms)
    scale = params.lambda_l * params.mu
    samples = scale * stats[:, 0]
    return Estimate.from_samples(samples), report


# ---------------------------------------------------------------------------
# availability

# per-line draws the bulk samplers read at a time
_CHUNK = 2**16


def _af_event_times(params: NetworkParams, n: int, seed: int) -> np.ndarray:
    """Each realisation's first contact time W (0.0 if covered now, inf if none).

    Draws live in substream(seed, 3): Poisson line counts, then the sections
    of :func:`_line_waits`.
    """
    rng = substream(seed, 3)
    counts = rng.poisson(2.0 * params.lambda_l * params.nu, size=n)
    return _line_waits(params, rng, counts)


def estimate_af_cumulative(
    params: NetworkParams,
    times: Sequence[float],
    n: int = 100_000,
    seed: int = 0,
) -> tuple[Estimate, ...]:
    """Estimate P(origin covered at some point within [0, t]) for each t, one wait
    per line (:func:`_af_event_times`).

    Vehicles move at the one speed ``params.speed``; random per-vehicle speeds
    act as their mean, :meth:`~linecox.core.NetworkParams.at_mean_speed`.
    """
    _check_sample_size(n)
    grid = _nonempty(times, "t")
    first = _af_event_times(params, n, seed)
    return tuple(Estimate.from_samples(first <= t) for t in grid)


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
    # Poisson(lam) conditioned on >= 1 by redrawing zeros in index order; after
    # the first round (a mask: smaller than the indices of all first zeros) only
    # the indices still zero are visited
    counts = rng.poisson(lam, size=size)
    zero = counts == 0
    counts[zero] = rng.poisson(lam, size=int(zero.sum()))
    zero = np.flatnonzero(counts == 0)
    while zero.size:
        redraw = rng.poisson(lam, size=zero.size)
        counts[zero] = redraw
        zero = zero[redraw == 0]
    return counts


def _line_waits(params: NetworkParams, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Each realisation's wait W until a device disk covers the origin, inf with
    no line, given ``counts[i]`` lines within nu (summed in place).

    A line is covered now with its chord's vacancy probability; otherwise the
    nearest approaching device-carrier sits an Exp(mu) gap beyond the chord.
    Draws continue on ``rng``: all offsets, then all vacancy uniforms and two
    Exp(mu/2) per line, each section read in pieces of ``_CHUNK`` from its
    :func:`skip_ahead` start.
    """
    nu, v = params.nu, params.speed
    ends = np.cumsum(counts, out=counts)
    total = int(ends[-1])
    vacancy = skip_ahead(rng, total)
    exponentials = skip_ahead(rng, 2 * total)
    waits = np.full(ends.size, np.inf)
    for a in range(0, total, _CHUNK):
        size = min(_CHUNK, total - a)
        chord = np.sqrt(np.maximum(nu * nu - np.square(rng.uniform(-nu, nu, size=size)), 0.0))
        vacant = vacancy.uniform(size=size) < np.exp(-2.0 * params.mu * chord)
        # nearest approaching carrier beyond each chord end: Exp(mu/2) per side
        pair = exponentials.exponential(scale=2.0 / params.mu, size=(size, 2))
        gaps = np.minimum(pair[:, 0], pair[:, 1])
        del chord, pair
        # at zero speed a vacant line never covers the origin
        _fold(np.minimum, waits, ends, a, np.where(vacant, gaps / v if v > 0.0 else np.inf, 0.0))
    return waits


def _latency_waits(params: NetworkParams, n: int, seed: int) -> np.ndarray:
    """Sample waits given that at least one line passes within distance nu:
    :func:`_line_waits` on substream(seed, 4), after its line counts."""
    rng = substream(seed, 4)
    counts = _conditioned_line_counts(rng, 2.0 * params.lambda_l * params.nu, n)
    waits = _line_waits(params, rng, counts)
    if params.speed <= 0.0 and not np.all(waits == 0.0):
        raise ZeroSpeed([("speed", "latency diverges at zero speed when not covered at t=0")])
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
    _check_sample_size(n)
    grid = _nonempty(waits_grid, "w")
    waits = _latency_waits(params, n, seed)
    ccdf = tuple(Estimate.from_samples(waits > w) for w in grid)
    return LatencyResult(
        mean=Estimate.from_samples(waits),
        p_zero=Estimate.from_samples(waits == 0.0),
        grid=grid,
        ccdf=ccdf,
    )
