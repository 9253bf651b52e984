"""Monte Carlo estimators for the vehicular network model.

The staged interference model (:func:`_stage_interference`) is the
package's one simulator of the Palm interference seen by the typical
vehicle: each realisation draws its own-line and other-line interferers, with
their device offsets and fades, one window stage at a time.  A stage derives
the Philox keys of all its realisations in one pass and re-keys one generator
for each (:func:`~linecox.core.substreams`); a realisation only draws, into
buffers shared across realisations, and every ``_STAGE_CHUNK`` interferers
one in-place pass turns the buffered draws into path gains and each
realisation's sums.  The draws and the arithmetic on them are those of a
realisation simulated on its own, so every sum is bit for bit the same.

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
every output, is the same as drawing each array whole.  Per-line arrays are
freed once used, and indicators are summarised as bool arrays, without float
copies (:meth:`~linecox.core.Estimate.from_samples`).

Interference estimators grow the simulation window on one fixed schedule:
stage k adds the line annulus radius (R_{k-1}, R_k] with R_k = R_0 * 2**k,
and extends all existing lines from half-length L_{k-1} to L_k = R_k.
Because every stage only *adds* interferers to the same realisations, the
stage-to-stage shift of an estimate directly measures the remaining
truncation bias, and the run stops once, for every grid point, that shift is
below ``_STABLE`` standard errors.  After ``_MAX_DOUBLINGS`` doublings it
raises :class:`WindowNotConverged` rather than return a biased answer.
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
    batch,
    skip_ahead,
    substream,
    substreams,
)

__all__ = [
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
# window schedule: first radius (km), doublings allowed, stop below this many SE

_R0, _MAX_DOUBLINGS, _STABLE = 2.0, 8, 0.5


def _radius(stage: int) -> float:
    return _R0 * 2.0**stage


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


def _side_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """The draws of ``integers(0, 2, size=count)``, as float32 uniforms.

    Both take one 32-bit output per draw, pending half first; the integer is
    the output's top bit, which is set exactly when the float32 uniform (the
    output's top 24 bits over 2^24) is >= 0.5.  ``integers`` costs several
    times more per call.
    """
    return rng.random(count, dtype=np.float32)


def _signed_segment(
    rng: np.random.Generator, count: int, inner: float, outer: float
) -> np.ndarray:
    # uniform over the two-sided extension (inner, outer] of a line segment
    mag = rng.uniform(inner, outer, size=count)
    return np.copysign(mag, _side_draws(rng, count) - np.float32(0.5))


# interferers buffered before one arithmetic pass of the staged simulator
_STAGE_CHUNK = 2**14

# line offset of the own line: its vehicles sit at r = 0
_OWN_LINE = np.zeros(1)


class _Interferers:
    """Interferers of consecutive realisations awaiting one arithmetic pass.

    Per slot, the rows of ``rows`` hold the position along the line, the raw
    uniforms of the disk radius and angle, the raw fade, and scratch.
    ``lines`` and ``counts`` give each buffered line's offset and its number
    of slots, in slot order; ``cuts`` gives each realisation's (index, own
    start, other start, other end).
    """

    def __init__(self) -> None:
        self.rows = np.empty((5, _STAGE_CHUNK))
        self.end = 0
        self.lines: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        self.cuts: list[tuple[int, int, int, int]] = []

    def take(self, lines: np.ndarray, counts: np.ndarray) -> int:
        """First of the slots of ``counts`` interferers on ``lines``, appended."""
        start = self.end
        self.end += int(counts.sum())
        if self.end > start:
            self.lines.append(lines)
            self.counts.append(counts)
            if self.end > self.rows.shape[1]:
                rows = np.empty((5, max(2 * self.rows.shape[1], self.end)))
                rows[:, :start] = self.rows[:, :start]
                self.rows = rows
        return start

    def place(self, rng: np.random.Generator, start: int, stop: int,
              low: float, high: float, two_sided: bool) -> None:
        """Positions of slots [start, stop): uniform on (low, high], on either
        side of the line's centre when ``two_sided``."""
        if stop > start:
            count = stop - start
            self.rows[0, start:stop] = (_signed_segment(rng, count, low, high) if two_sided
                                        else rng.uniform(low, high, size=count))

    def draw_offsets(self, rng: np.random.Generator, start: int) -> None:
        """Raw disk-offset uniforms and fades of the slots from ``start`` on.

        ``random`` and ``standard_exponential`` make the draws of
        ``uniform()``, ``uniform(0, 2 pi)`` and ``exponential()``, which add 0
        and scale by 1, 2 pi and 1.
        """
        if self.end > start:
            rng.random(out=self.rows[1, start:self.end])
            rng.random(out=self.rows[2, start:self.end])
            rng.standard_exponential(out=self.rows[3, start:self.end])

    def flush(self, params: NetworkParams, other: np.ndarray, own: np.ndarray) -> None:
        """Store each buffered realisation's interference in ``other`` and ``own``.

        One in-place pass gives every path gain ((r + rho cos phi)^2 +
        (t + rho sin phi)^2)^(-alpha/2) with rho = nu sqrt(u); a realisation's
        sums are dots over its own slices.
        """
        end = self.end
        if end:
            t, rho, phi, fade, scratch = self.rows[:, :end]
            gain = np.repeat(np.concatenate(self.lines), np.concatenate(self.counts))
            np.sqrt(rho, out=rho)
            rho *= params.nu
            phi *= 2.0 * np.pi
            np.cos(phi, out=scratch)
            scratch *= rho
            np.sin(phi, out=phi)
            phi *= rho
            gain += scratch
            np.square(gain, out=gain)
            t += phi
            np.square(t, out=t)
            gain += t
            np.power(gain, -0.5 * params.alpha, out=gain)
            p = params.power
            for i, a, b, c in self.cuts:
                if b > a:
                    own[i] = np.dot(fade[a:b], gain[a:b]) * p
                if c > b:
                    other[i] = np.dot(fade[b:c], gain[b:c]) * p
        self.end = 0
        self.lines.clear()
        self.counts.clear()
        self.cuts.clear()


def _stage_interference(
    params: NetworkParams,
    seed: int,
    stage: int,
    lines: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Interference each realisation gains at one window stage.

    Realisation i draws from substream(seed, i, 1, stage).  Returns the
    (other-line, own-line) increments, one per realisation, and appends the
    stage's newly born lines to ``lines[i]``, realisation i's line offsets.
    Draw order within a stream is fixed: own-line count, positions, disk
    offsets and fades; new-line count and offsets; vehicle counts on the old
    lines, then on the new ones; positions on the old lines' two-sided
    extensions, then on the new lines' full segments; disk offsets and fades
    of all of those.
    """
    mu = params.mu
    r_out = _radius(stage)
    r_in = _radius(stage - 1) if stage else 0.0
    seg_len = 2.0 * r_out if stage == 0 else 2.0 * (r_out - r_in)
    # the own line spans the full segment at stage 0, two-sided extensions after
    own_low = r_in if stage else -r_out
    n = len(lines)
    other, own = np.zeros(n), np.zeros(n)
    buf = _Interferers()
    for i, rng in enumerate(substreams(seed, range(n), 1, stage)):
        a = buf.take(_OWN_LINE, rng.poisson(mu * seg_len, size=1))
        buf.place(rng, a, buf.end, own_low, r_out, two_sided=stage > 0)
        buf.draw_offsets(rng, a)

        n_new = rng.poisson(2.0 * params.lambda_l * (r_out - r_in))
        if stage == 0:
            new_lines = rng.uniform(-r_out, r_out, size=n_new)
        else:
            new_lines = _signed_segment(rng, n_new, r_in, r_out)

        # old lines gain only the two-sided extension while this stage's new
        # lines are populated over the full segment
        b = buf.take(lines[i], rng.poisson(mu * seg_len, size=lines[i].size))
        c = buf.take(new_lines, rng.poisson(mu * 2.0 * r_out, size=n_new))
        buf.place(rng, b, c, r_in, r_out, two_sided=True)
        buf.place(rng, c, buf.end, -r_out, r_out, two_sided=False)
        buf.draw_offsets(rng, b)
        buf.cuts.append((i, a, b, buf.end))
        lines[i] = np.concatenate((lines[i], new_lines))
        if buf.end >= _STAGE_CHUNK:
            buf.flush(params, other, own)
    buf.flush(params, other, own)
    return other, own


def _check_sample_size(n: int) -> None:
    """The one sample-size rule of every estimator."""
    if n < 100:
        raise ValueError(f"need at least 100 realisations, got {n}")


def _staged_estimates(
    params: NetworkParams,
    n: int,
    seed: int,
    stat_fn: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, WindowReport]:
    """Run the coupled window-doubling scheme and return final per-sample stats.

    ``stat_fn(interference) -> (n, G)`` evaluates every grid point on
    the current interference; the same realisations serve all grid points and
    all stages, so stage-to-stage shifts isolate truncation bias.
    """
    _check_sample_size(n)
    i1 = np.zeros(n)
    i2 = np.zeros(n)
    lines = [np.empty(0)] * n

    prev_mean: Optional[np.ndarray] = None
    ratio = math.inf
    for stage in range(_MAX_DOUBLINGS + 1):
        other, own = _stage_interference(params, seed, stage, lines)
        i1 += other
        i2 += own
        stats = stat_fn(i1 + i2)
        mean = stats.mean(axis=0)
        if prev_mean is not None:
            se = stats.std(axis=0, ddof=1) / math.sqrt(n)
            shift = np.abs(mean - prev_mean)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shift == 0.0, 0.0, shift / se)
            ratio = float(np.max(ratios))
            if ratio < _STABLE:
                report = WindowReport(
                    final_radius=_radius(stage),
                    stages=stage + 1,
                    max_shift_over_se=ratio,
                )
                return stats, report
        prev_mean = mean
    raise WindowNotConverged(_radius(_MAX_DOUBLINGS), ratio)


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


def _serving_signal(params: NetworkParams, n: int, seed: int) -> np.ndarray:
    """Serving-link power per realisation: a unit fade over rho^alpha, rho uniform in the disk."""
    _check_sample_size(n)
    rng = substream(seed, 2)
    rho = params.nu * np.sqrt(rng.uniform(size=n))
    return params.power * rng.exponential(size=n) * rho ** (-params.alpha)


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

    def stat(total: np.ndarray) -> np.ndarray:
        return np.exp(-np.outer(total, grid))

    stats, report = _staged_estimates(params, n, seed, stat)
    return _grid_result(grid, stats, report)


def estimate_coverage(
    params: NetworkParams,
    thresholds: Sequence[float],
    n: int = 10_000,
    seed: int = 0,
) -> GridEstimate:
    """Estimate P(SIR >= tau) of the typical link for each threshold."""
    grid = _nonempty(thresholds, "tau")
    signal = _serving_signal(params, n, seed)

    def stat(total: np.ndarray) -> np.ndarray:
        # signal >= tau * I avoids 0/0 when a window stage has no interferer
        return signal[:, None] >= np.outer(total, grid)

    stats, report = _staged_estimates(params, n, seed, stat)
    return _grid_result(grid, stats, report)


def estimate_ase(
    params: NetworkParams,
    n: int = 10_000,
    seed: int = 0,
) -> tuple[Estimate, WindowReport]:
    """Estimate the area spectral efficiency lambda_l * mu * E[log2(1 + SIR)].

    Early window stages can contain zero interferers, making individual
    samples infinite; the stability rule cannot pass while such samples
    persist, and they vanish as the window grows.
    """
    signal = _serving_signal(params, n, seed)

    def stat(total: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            rate = np.log2(1.0 + signal / total)
        return rate[:, None]

    stats, report = _staged_estimates(params, n, seed, stat)
    scale = params.lambda_l * params.mu
    samples = scale * stats[:, 0]
    return Estimate.from_samples(samples), report


# ---------------------------------------------------------------------------
# availability

# per-vehicle (per-line) draws the bulk samplers read at a time
_CHUNK = 2**16


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
    del offsets, chord, on_disk

    first = np.full(n, np.inf)
    reach = (v + 6.0 * sigma) * t_max
    if reach > 0.0 and total:
        counts = rng.poisson(2.0 * params.mu * reach, size=total)
        ends = np.cumsum(counts, out=counts)
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
            gap[_side_draws(heads, veh_rid.size) < 0.5] = np.inf
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


def estimate_af_snapshot(params: NetworkParams, n: int = 100_000, seed: int = 0) -> Estimate:
    """Estimate the probability that some device disk covers the origin now: the
    t = 0 point of :func:`estimate_af_cumulative`, from the same draws."""
    return estimate_af_cumulative(params, [0.0], n, seed)[0]


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
    _check_sample_size(n)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    grid = _nonempty(times, "t")
    covered0, first = _af_event_times(params, float(grid.max()), n, seed, sigma)
    hit = covered0[:, None] | (first[:, None] <= grid[None, :])
    return tuple(Estimate.from_samples(hit[:, g]) for g in range(grid.size))


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
    nu, v = params.nu, params.speed
    rng = substream(seed, 4)
    counts = _conditioned_line_counts(rng, 2.0 * params.lambda_l * nu, n)
    ends = np.cumsum(counts, out=counts)
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
    _check_sample_size(n)
    grid = batch(waits_grid, "w")[0]
    waits = _latency_waits(params, n, seed)
    ccdf = tuple(Estimate.from_samples(waits > w) for w in grid)
    return LatencyResult(
        mean=Estimate.from_samples(waits),
        p_zero=Estimate.from_samples(waits == 0.0),
        grid=grid,
        ccdf=ccdf,
    )
