"""Estimator correctness, stream discipline and window control."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linecox import montecarlo
from linecox.core import Estimate, NetworkParams, ZeroSpeed, skip_ahead, substream
from linecox.montecarlo import (
    WindowNotConverged,
    estimate_af_cumulative,
    estimate_ase,
    estimate_coverage,
    estimate_laplace,
    estimate_latency,
    _af_event_times,
    _latency_waits,
    _line_waits,
    _stage_interference,
)
from linecox import analytic
from linecox.analytic import AFVariant

V = 30.0 / 3600.0
P33 = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)
FIG7 = NetworkParams(lambda_l=9.0, mu=3.0, nu=0.1, speed=V)


class TestAgreementWithAnalytic:
    def test_laplace(self):
        grid = np.array([0.002, 0.01])
        res = estimate_laplace(P33, grid, n=2000, seed=11)
        for s, est in zip(res.grid, res.estimates):
            assert abs(est.z_score(analytic.laplace(P33, float(s)))) < 3
        # the doubling schedule stops only once the remainder bracket's
        # half-width is below half a standard error at every point
        assert len(res.window.half_width_over_se) == grid.size
        assert max(res.window.half_width_over_se) <= 0.5

    def test_coverage(self):
        grid = np.array([0.5, 2.0])
        res = estimate_coverage(P33, grid, n=2000, seed=12)
        for tau, est in zip(res.grid, res.estimates):
            assert abs(est.z_score(analytic.coverage_probability(P33, float(tau)))) < 3

    def test_ase(self):
        est, report = estimate_ase(P33, n=8000, seed=13)
        assert abs(est.z_score(analytic.area_spectral_efficiency(P33))) < 3
        assert report.final_radius >= 2.0

    def test_af_snapshot(self):
        est = estimate_af_cumulative(P33, [0.0], n=20000, seed=14)[0]
        assert abs(est.z_score(analytic.af_cumulative(P33, 0.0))) < 3

    def test_af_cumulative(self):
        times = np.array([50.0, 200.0])
        ests = estimate_af_cumulative(FIG7, times, n=20000, seed=15)
        for t, est in zip(times, ests):
            ref = analytic.af_cumulative(FIG7, float(t), variant=AFVariant.DIRECTION_AWARE)
            assert abs(est.z_score(ref)) < 3

    def test_latency(self):
        grid = np.array([0.0, 20.0, 60.0])
        res = estimate_latency(P33, grid, n=20000, seed=16)
        for w, est in zip(res.grid, res.ccdf):
            ref = analytic.latency_ccdf(P33, float(w))
            assert abs(est.z_score(ref)) < 3
        mean_ref = analytic.mean_latency(P33)
        assert abs(res.mean.z_score(mean_ref)) < 3
        # the zero-wait atom is the covered fraction given a qualifying line
        miss = math.exp(-2.0 * P33.lambda_l * P33.nu)
        assert abs(res.p_zero.z_score(analytic.af_cumulative(P33, 0.0) / (1 - miss))) < 3


class TestStreamDiscipline:
    def test_reruns_identical(self):
        grid = np.array([0.002, 0.01])
        a = estimate_laplace(P33, grid, n=500, seed=3)
        b = estimate_laplace(P33, grid, n=500, seed=3)
        assert [e.value for e in a.estimates] == [e.value for e in b.estimates]
        assert [e.std_error for e in a.estimates] == [e.std_error for e in b.estimates]

    def test_seed_matters(self):
        grid = np.array([0.01])
        a = estimate_laplace(P33, grid, n=500, seed=3)
        b = estimate_laplace(P33, grid, n=500, seed=4)
        assert a.estimates[0].value != b.estimates[0].value

    def test_af_time_zero_shares_snapshot_stream(self):
        # the snapshot (a grid of t = 0 alone) is the t = 0 point of every grid
        snap = estimate_af_cumulative(P33, [0.0], n=5000, seed=21)[0]
        cum = estimate_af_cumulative(P33, np.array([0.0, 100.0]), n=5000, seed=21)[0]
        assert cum.value == snap.value
        assert cum.std_error == snap.std_error

    def test_af_random_speeds_with_no_vehicle_in_reach(self):
        # sigma > 0 and a time so short that no carrier arrives within it (about
        # 60 vacant lines, each with a chance of 4e-8): every time reads the snapshot
        snap = estimate_af_cumulative(P33, [0.0], n=200, seed=1)[0]
        assert estimate_af_cumulative(P33.at_mean_speed(0.01), [0.0, 1e-6], n=200,
                                      seed=1) == (snap, snap)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_af_covered_now_shared_by_every_run(self, seed):
        # the covered-now set comes from the per-line sampler's draws, which
        # the speed does not change
        now = _af_event_times(P33, 300, seed) == 0.0
        for sigma in (0.004, 0.3 * V):
            np.testing.assert_array_equal(
                _af_event_times(P33.at_mean_speed(sigma), 300, seed) == 0.0, now)

    def test_af_at_constant_speed_is_the_per_line_wait(self):
        # the first contact is the per-line sampler's wait, on the availability
        # stream after its Poisson line counts
        for seed in (3, 8):
            rng = substream(seed, 3)
            counts = rng.poisson(2.0 * FIG7.lambda_l * FIG7.nu, size=5000)
            waits = _line_waits(FIG7, rng, counts)
            assert _af_event_times(FIG7, 5000, seed).tobytes() == waits.tobytes()

    def test_af_cumulative_monotone_within_run(self):
        times = np.array([0.0, 30.0, 120.0, 480.0])
        ests = estimate_af_cumulative(FIG7, times, n=3000, seed=22)
        vals = [e.value for e in ests]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_latency_ccdf_complements_atom_exactly(self):
        res = estimate_latency(P33, np.array([0.0, 10.0]), n=2000, seed=24)
        assert res.ccdf[0].value == 1.0 - res.p_zero.value


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestBulkStreams:
    """The bulk samplers read their streams in pieces without moving a draw.

    The latency digest was taken from the sampler as it was before it read in
    pieces, when every per-line array was drawn whole; the availability
    digest when it came to draw its waits through the same per-line sampler
    (``_line_waits``).
    """

    AF = "a1fd73d5f88259352f5474960453fed94960536a75d418d03528cc263c25477e"
    LATENCY = "d3579ed5a9f5885505e08ba4bbb913832282f1d01aec7f44f60aabfcbe5aaa12"

    # None keeps the default piece size (a few pieces per run); 1009 crosses
    # hundreds of piece edges, inside lines and realisations
    @pytest.mark.parametrize("chunk", [1009, None])
    def test_af_event_times_pinned(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        assert _sha256(_af_event_times(FIG7, 20_000, 7)) == self.AF

    @pytest.mark.parametrize("chunk", [None, 1009])
    def test_latency_waits_pinned(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        assert _sha256(_latency_waits(P33, 300_000, 7)) == self.LATENCY

    @pytest.mark.parametrize("buffer_pos", range(5))
    def test_skip_ahead_matches_sequential_draws(self, buffer_pos):
        for k in [*range(10), 100_001]:
            for halves in (0, 3):  # three 32-bit draws leave one half pending
                rng = substream(5, 9)
                rng.integers(0, 2, size=halves)
                state = rng.bit_generator.state
                state["buffer_pos"] = buffer_pos
                rng.bit_generator.state = state
                jumped = skip_ahead(rng, k)
                rng.bit_generator.random_raw(k)
                draws = [(gen.integers(0, 2, size=5), gen.standard_normal(size=7),
                          gen.bit_generator.random_raw(6)) for gen in (rng, jumped)]
                for a, b in zip(*draws):
                    np.testing.assert_array_equal(a, b, err_msg=f"k={k} halves={halves}")


class TestRandomSpeeds:
    """Speeds drawn iid per vehicle, normal(speed, sigma) truncated at zero,
    act on the first contact time only through their mean E[V], the speed of
    ``NetworkParams.at_mean_speed``."""

    @pytest.mark.parametrize("speed", [V, 0.0])
    @pytest.mark.parametrize("sigma", [0.004, 0.3 * V, V, 3.0 * V])
    def test_mean_speed_is_the_truncated_normal_mean(self, speed, sigma):
        from scipy.stats import truncnorm

        expected = truncnorm.mean(-speed / sigma, np.inf, loc=speed, scale=sigma)
        at_mean = replace(FIG7, speed=speed).at_mean_speed(sigma)
        assert at_mean.speed == pytest.approx(expected, rel=1e-13, abs=0)
        assert at_mean == replace(FIG7, speed=at_mean.speed)  # only the speed moves

    @pytest.mark.parametrize("speed", [V, 0.0])
    def test_mean_speed_at_zero_sigma_is_the_speed(self, speed):
        params = replace(FIG7, speed=speed)
        assert params.at_mean_speed(0.0) is params

    @pytest.mark.parametrize("sigma", [V, 3.0 * V])
    def test_first_arrivals_are_exponential_at_the_mean_speed(self, sigma):
        # the mapping theorem by brute force: carriers of density mu on each
        # side of a chord, half heading in, each at its own speed; the first to
        # reach the chord arrives at rate mu E[V].  A carrier starting beyond
        # the reach arrives by the last t only at a speed above V + 8 sigma.
        mu, m, times = FIG7.mu, 10_000, np.array([10.0, 30.0, 60.0, 120.0])
        reach = (V + 8.0 * sigma) * times[-1]
        rng = substream(33, 0)
        counts = rng.poisson(2.0 * mu * reach, size=m)
        k = int(counts.sum())
        speeds = V + sigma * rng.standard_normal(k)
        bad = np.flatnonzero(speeds <= 0.0)
        while bad.size:  # truncate at zero by redrawing
            speeds[bad] = V + sigma * rng.standard_normal(bad.size)
            bad = bad[speeds[bad] <= 0.0]
        arrival = np.where(rng.random(k) < 0.5, rng.uniform(0.0, reach, k) / speeds, np.inf)
        first = np.full(m, np.inf)
        np.minimum.at(first, np.repeat(np.arange(m), counts), arrival)
        p = 1.0 - np.exp(-mu * FIG7.at_mean_speed(sigma).speed * times)
        z = ((first[:, None] <= times).mean(axis=0) - p) / np.sqrt(p * (1.0 - p) / m)
        assert np.max(np.abs(z)) <= 3.0, z


class TestFoldMin:
    """Segment minima over sorted pieces equal ``np.minimum.at`` on per-item labels."""

    # x + 0.0 turns -0.0 into 0.0: the two compare equal, so either reduction
    # may keep either one, and the samplers never make a -0.0
    value = st.one_of(st.floats(-1e6, 1e6).map(lambda x: x + 0.0), st.just(math.inf))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), sizes=st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_matches_minimum_at(self, data, sizes):
        total = sum(sizes)

        def floats(count):
            return np.array(data.draw(st.lists(self.value, min_size=count, max_size=count)),
                            dtype=float)

        values, start = floats(total), floats(len(sizes))
        piece = data.draw(st.integers(1, max(total, 1)))
        expected = start.copy()
        np.minimum.at(expected, np.repeat(np.arange(len(sizes)), sizes), values)
        out = start.copy()
        for a in range(0, total, piece):
            montecarlo._fold(np.minimum, out, np.cumsum(sizes), a, values[a:a + piece])
        assert out.tobytes() == expected.tobytes()


def _reference_stage(params, seed, stage, r0, lines):
    """(other, own) interference of every realisation at one window stage of first
    radius ``r0``, given each realisation's line offsets ``lines[i]``, to which
    the stage's new lines are appended.  Each section is drawn whole, with
    ``integers`` side draws, and each realisation is summed on its own: the
    reference the staged simulator must match bit for bit."""
    p, lam, mu, nu, alpha = params.power, params.lambda_l, params.mu, params.nu, params.alpha
    r_out = r0 * 2.0**stage
    r_in = r0 * 2.0 ** (stage - 1) if stage else 0.0
    n = len(lines)
    rng = [substream(seed, 1, stage, k) for k in range(9)]

    def sides(k, count):
        return rng[k].integers(0, 2, size=count) * 2 - 1

    own = rng[0].poisson(2.0 * mu * (r_out - r_in), size=n)
    born = rng[1].poisson(2.0 * lam * (r_out - r_in), size=n)
    mag = rng[2].uniform(r_in, r_out, size=born.sum())
    new = np.split(mag * sides(3, born.sum()), np.cumsum(born)[:-1])
    # per realisation: the own line at offset 0, then its old and its new lines
    line_r = [np.concatenate(([0.0], old, nw)) for old, nw in zip(lines, new)]
    line_low = [np.concatenate(([r_in], np.full(old.size, r_in), np.zeros(nw.size)))
                for old, nw in zip(lines, new)]
    mean = np.concatenate([np.concatenate((np.full(old.size, 2.0 * mu * (r_out - r_in)),
                                           np.full(nw.size, 2.0 * mu * r_out)))
                           for old, nw in zip(lines, new)])
    per_line = np.split(rng[4].poisson(mean), np.cumsum([r.size - 1 for r in line_r])[:-1])
    counts = [np.concatenate(([m], c)) for m, c in zip(own, per_line)]
    r = np.concatenate([np.repeat(x, c) for x, c in zip(line_r, counts)])
    low = np.concatenate([np.repeat(x, c) for x, c in zip(line_low, counts)])
    t = rng[5].uniform(low, r_out) * sides(6, r.size)
    disk = rng[7].uniform(size=(r.size, 2))
    fades = rng[8].exponential(size=r.size)
    gains = fades * ((r + nu * np.sqrt(disk[:, 0]) * np.cos(2.0 * np.pi * disk[:, 1])) ** 2
                     + (t + nu * np.sqrt(disk[:, 0]) * np.sin(2.0 * np.pi * disk[:, 1])) ** 2
                     ) ** (-0.5 * alpha)

    def power_sum(part):
        # the reduceat of one run: its first value plus the pairwise sum of the rest
        return np.add.reduceat(gains[part], [0])[0] * p if part.stop > part.start else 0.0

    other, mine, start = np.zeros(n), np.zeros(n), 0
    for i, c in enumerate(counts):
        mine[i] = power_sum(slice(start, start + c[0]))
        other[i] = power_sum(slice(start + c[0], start + c.sum()))
        start += c.sum()
        lines[i] = np.concatenate((lines[i], new[i]))
    return other, mine


def _stages(params, seed, n, stages):
    """Per-stage (other, own) increments of n realisations and their final lines."""
    lines, ends, increments = np.empty(0), np.zeros(n, int), []
    for stage in range(stages):
        other, own, lines, ends = _stage_interference(params, seed, stage, lines, ends)
        increments.append((other, own))
    return increments, lines, ends


def _shift_rule(params, n, seed, stat_fn):
    """The staged estimators' stop rule before the remainder bracket, kept as a
    reference: the window grows until the last doubling moved every grid point's
    raw mean by less than ``_STABLE`` standard errors.  Returns the interference
    totals after every stage and the last stage's raw statistics."""
    i1, i2, lines, ends, totals, prev = np.zeros(n), np.zeros(n), np.empty(0), np.zeros(n, int), [], None
    for stage in range(montecarlo._MAX_DOUBLINGS + 1):
        other, own, lines, ends = _stage_interference(params, seed, stage, lines, ends)
        i1 += other
        i2 += own
        totals.append(i1 + i2)
        stats = stat_fn(totals[-1])
        mean = stats.mean(axis=0)
        if prev is not None:
            se = stats.std(axis=0, ddof=1) / math.sqrt(n)
            shift = np.abs(mean - prev)
            with np.errstate(divide="ignore", invalid="ignore"):
                if np.max(np.where(shift == 0.0, 0.0, shift / se)) < montecarlo._STABLE:
                    return totals, stats
        prev = mean
    raise AssertionError("the shift rule did not stop")


class TestStagedStreams:
    """The staged simulator draws each section of a stage from its own stream.

    The digests cover the interference total after every window stage, then
    the raw values and standard errors of the last stage, under the shift rule
    (:func:`_shift_rule`); a chunk of 1 puts every realisation in a piece of
    its own.  Each case names the window-schedule constants it sets; the rest
    keep their values.
    """

    FIG3 = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=V, power=0.01)
    CASES = {
        "laplace-p33": ("laplace", P33, [0.002, 0.01], 300, 3, {}, 3,
                        "0e08ae4f5c5c611b905dc4c22a32584799fe7ec5040c58a7765a241d0d22c7da"),
        "coverage-p33": ("coverage", P33, [0.5, 2.0], 300, 3, {}, 2,
                         "e271e6bbe53a487deb0ea72d0237c69fae533ba3b96aa1c63806dcf65d701f80"),
        # six stages, and a seed of three 32-bit words
        "laplace-fig3": ("laplace", FIG3, [1e-4, 1e-3, 1e-2, 0.1], 200, 2**64 + 9,
                         {"_R0": 0.5, "_STABLE": 0.1}, 6,
                         "1493ef75eded839c3a47ba2defb650eb79415c4fbe0bf79afe2e7a62dbac520f"),
        "coverage-fig3": ("coverage", FIG3, [0.5, 2.0], 200, 2**64 + 9,
                          {"_R0": 0.25, "_STABLE": 0.05}, 8,
                          "2e7440dd52891adefbdd0b1f538851a814ca8903ce9c7788e37e9c56c8db0cac"),
    }

    @pytest.mark.parametrize("chunk", [None, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned(self, monkeypatch, case, chunk):
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_STAGE_CHUNK", chunk)
        kind, params, grid, n, seed, schedule, stages, digest = self.CASES[case]
        for name, value in schedule.items():
            monkeypatch.setattr(montecarlo, name, value)
        if kind == "laplace":
            stat_fn = lambda total: np.exp(-np.outer(total, grid))
        else:
            rho, fade = montecarlo._serving_link(params, n, seed)
            signal = params.power * fade * rho ** (-params.alpha)
            stat_fn = lambda total: signal[:, None] >= np.outer(total, grid)
        totals, stats = _shift_rule(params, n, seed, stat_fn)
        raw = [Estimate.from_samples(stats[:, g]) for g in range(len(grid))]
        assert len(totals) == stages
        assert _sha256(*totals, np.array([e.value for e in raw]),
                       np.array([e.std_error for e in raw])) == digest

    # a small chunk cuts pieces of one to a few realisations
    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_matches_per_realisation_reference(self, monkeypatch, alpha):
        monkeypatch.setattr(montecarlo, "_STAGE_CHUNK", 64)
        monkeypatch.setattr(montecarlo, "_R0", 1.0)
        params = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, power=0.3, alpha=alpha)
        n = 60
        lines, ends, ref_lines = np.empty(0), np.zeros(n, int), [np.empty(0)] * n
        for stage in range(3):
            other, own, lines, ends = _stage_interference(params, 5, stage, lines, ends)
            ref_other, ref_own = _reference_stage(params, 5, stage, 1.0, ref_lines)
            assert other.tobytes() == ref_other.tobytes(), stage
            assert own.tobytes() == ref_own.tobytes(), stage
            assert lines.tobytes() == np.concatenate(ref_lines).tobytes(), stage
            assert ends.tolist() == np.cumsum([r.size for r in ref_lines]).tolist(), stage

    def test_prefix_of_a_longer_run(self):
        # every section is read in realisation order from a stream of its own
        n = 150
        short, lines, ends = _stages(P33, 8, n, 3)
        long, long_lines, long_ends = _stages(P33, 8, 2 * n, 3)
        for (other, own), (long_other, long_own) in zip(short, long):
            assert other.tobytes() == long_other[:n].tobytes()
            assert own.tobytes() == long_own[:n].tobytes()
        assert ends.tobytes() == long_ends[:n].tobytes()
        assert lines.tobytes() == long_lines[:ends[-1]].tobytes()

    def test_same_bits_for_every_piece_size(self, monkeypatch):
        # one realisation a piece, the default (several pieces a stage) and one
        # piece a stage: each realisation's sums are taken over its run alone
        runs = []
        for chunk in (1, montecarlo._STAGE_CHUNK, 10**12):
            monkeypatch.setattr(montecarlo, "_STAGE_CHUNK", chunk)
            increments, lines, ends = _stages(P33, 9, 100, 3)
            runs.append(_sha256(*(x for pair in increments for x in pair), lines, ends))
        assert runs[0] == runs[1] == runs[2]

    def test_sums_independent_of_blas_threads(self):
        # the pinned laplace-fig3 case, where a realisation's run reaches over
        # 10^4 interferers; a BLAS dot over such a run split across threads
        # moved its sum by 1 to 6 ulps
        code = (
            "import hashlib, numpy as np\n"
            "from linecox import montecarlo\n"
            "from linecox.core import NetworkParams\n"
            "montecarlo._R0 = 0.5\n"
            "params = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=30.0 / 3600.0, power=0.01)\n"
            "lines, ends, digest = np.empty(0), np.zeros(200, int), hashlib.sha256()\n"
            "for stage in range(6):\n"
            "    other, own, lines, ends = montecarlo._stage_interference(\n"
            "        params, 2**64 + 9, stage, lines, ends)\n"
            "    digest.update(other.tobytes() + own.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1] != ""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**160), halves=st.integers(0, 3),
           count=st.integers(0, 40))
    def test_side_draws_match_integers(self, seed, halves, count):
        a, b = substream(seed, 7), substream(seed, 7)
        for rng in (a, b):
            rng.integers(0, 2, size=halves)  # an odd count leaves a half pending
        bits = a.integers(0, 2, size=count)
        side = montecarlo._side_draws(b, count)
        np.testing.assert_array_equal(bits == 1, side >= 0.5)
        for draw in (lambda g: g.integers(0, 2, size=3), lambda g: g.bit_generator.random_raw(5)):
            np.testing.assert_array_equal(draw(a), draw(b))


def _traced_peak(run):
    """Peak bytes traced while ``run()`` executes, above what was held before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestWorkingMemory:
    # drawn whole, the per-vehicle arrays peaked at 312 MiB and 70 MiB; read in
    # pieces of 2**18 with float copies of the indicators, at 27.6 and 31.0 MiB;
    # in pieces of 2**16 with per-line arrays freed once used, at 15.9 and 19.2 MiB;
    # folded by segment minima, with no per-item labels, at 11.0 and 18.2 MiB
    def test_af_cumulative_fig7(self):
        peak = _traced_peak(lambda: estimate_af_cumulative(
            FIG7, np.linspace(0.0, 400.0, 9), n=200_000, seed=1))
        assert peak < 20 * 2**20

    def test_latency_fig8(self):
        peak = _traced_peak(lambda: estimate_latency(
            P33, np.linspace(0.0, 100.0, 11), n=1_000_000, seed=1))
        assert peak < 24 * 2**20


class TestSpeedScaling:
    def test_waits_halve_when_speed_doubles(self):
        fast = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=2 * V)
        grid = np.array([0.0, 0.5, 2.0, 8.0, 32.0])
        slow_res = estimate_latency(P33, 2 * grid, n=4000, seed=31)
        fast_res = estimate_latency(fast, grid, n=4000, seed=31)
        for a, b in zip(slow_res.ccdf, fast_res.ccdf):
            assert a.value == b.value
        assert fast_res.mean.value == slow_res.mean.value / 2


class TestWindowControl:
    def test_radius_schedule(self, monkeypatch):
        # the schedule runs from 2 km to at most 512 km
        assert montecarlo._radius(0) == 2.0
        assert montecarlo._radius(montecarlo._MAX_DOUBLINGS) == 512.0
        monkeypatch.setattr(montecarlo, "_R0", 1.5)
        assert montecarlo._radius(0) == 1.5
        assert montecarlo._radius(3) == 12.0

    def test_window_not_converged(self, monkeypatch):
        # an impossible stability demand must fail loudly, not silently
        fig3 = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=V, power=0.01)
        for name, value in {"_R0": 1.0, "_MAX_DOUBLINGS": 2, "_STABLE": 1e-6}.items():
            monkeypatch.setattr(montecarlo, name, value)
        with pytest.raises(WindowNotConverged) as exc:
            estimate_laplace(fig3, np.array([1e-4]), n=400, seed=32)
        assert exc.value.radius == 4.0
        assert exc.value.half_width_over_se > 1e-6


class TestRemainderBracket:
    """The closed-form moments of the interference the window misses, and the
    bracket they give each estimator's truncation bias."""

    # at nu = 0.01 a device's disk average of d^-k exceeds its vehicle's d^-k by
    # about k^2 nu^2 / 8 at most: m_lo is within 2e-4 of the mean, v_lo within 8e-4
    # of the variance
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_moments_match_sampled_far_fields(self, monkeypatch, alpha):
        # one realisation's inner lines (radius 1), then 4000 far fields drawn given
        # them by the staged simulator's next three stages (out to radius 8); the
        # conditional mean and variance of what lies beyond radius 8 are added on
        monkeypatch.setattr(montecarlo, "_R0", 1.0)
        params = NetworkParams(lambda_l=2.0, mu=1.0, nu=0.01, speed=V, alpha=alpha)
        lines, ends = _stage_interference(params, 5, 0, np.empty(0), np.zeros(50, int))[2:]
        sizes = np.diff(ends, prepend=0)
        first = int(np.argmax(sizes >= 3))
        inner = lines[ends[first] - sizes[first]:ends[first]]
        m_lo, m_hi, v = (x[0] for x in montecarlo._remainder_moments(
            params, inner, np.array([inner.size]), 1.0))
        n, far = 4000, np.zeros(4000)
        lines, ends = np.tile(inner, n), inner.size * np.arange(1, n + 1)
        for stage in (1, 2, 3):
            other, own, lines, ends = _stage_interference(params, 6, stage, lines, ends)
            far += other + own
        beyond, _, beyond_var = montecarlo._remainder_moments(params, lines, ends, 8.0)
        far += beyond
        assert abs(far.mean() - m_lo) < 3 * far.std(ddof=1) / math.sqrt(n)
        assert m_hi == m_lo * (1.0 - params.nu) ** -alpha
        spread = np.square(far - far.mean())
        var, v_lo = far.var(ddof=1) + beyond_var.mean(), v * (1.0 - params.nu) ** (2 * alpha)
        assert abs(var - v_lo) < 3 * spread.std(ddof=1) / math.sqrt(n)

    # transform arguments where L is about 0.7 and 0.3
    S_GRID = {2.5: [1e-4, 1e-3], 3.0: [1e-4, 1e-3], 4.0: [1e-5, 1e-4], 8.0: [1e-9, 1e-7]}

    @pytest.mark.parametrize("quantity", ["laplace", "coverage", "ase"])
    @pytest.mark.parametrize("alpha", sorted(S_GRID))
    def test_contains_analytic_value(self, monkeypatch, alpha, quantity):
        # at the first window stage (radius 2), where the bias is largest: at alpha
        # = 2.5 the raw transform, coverage and ASE miss the analytic value by up to
        # 6.3, 6.1 and 5.3 SE
        params = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, alpha=alpha)
        s, tau = self.S_GRID[alpha], [0.1, 1.0, 10.0]
        run, truth = {
            "laplace": (lambda seed: estimate_laplace(params, s, n=2000, seed=seed),
                        lambda: analytic.laplace(params, s)),
            "coverage": (lambda seed: estimate_coverage(params, tau, n=2000, seed=seed),
                         lambda: analytic.coverage_probability(params, tau)),
            "ase": (lambda seed: estimate_ase(params, n=2000, seed=seed),
                    lambda: analytic.area_spectral_efficiency(params) / (3.0 * 3.0)),
        }[quantity]
        truth, taken = truth(), {}

        def first_stage(params, n, seed, terms):
            other, own, lines, ends = _stage_interference(params, seed, 0, np.empty(0),
                                                          np.zeros(n, int))
            taken["terms"] = terms(other + own, *montecarlo._remainder_moments(
                params, lines, ends, montecarlo._radius(0)))
            return taken["terms"][0], None

        monkeypatch.setattr(montecarlo, "_staged_estimates", first_stage)
        for seed in (1, 2, 3):
            run(seed)
            stat, lo, hi = taken["terms"]
            se = np.maximum((stat - lo).std(axis=0, ddof=1),
                            (stat - hi).std(axis=0, ddof=1)) / math.sqrt(stat.shape[0])
            assert np.all((stat - hi).mean(axis=0) - 3 * se <= truth), seed
            assert np.all(truth <= (stat - lo).mean(axis=0) + 3 * se), seed


class TestComponentIndependence:
    def test_cross_line_and_own_line_uncorrelated(self, monkeypatch):
        # exp(-s I1) and exp(-s I2) factorise; their sample covariance must
        # vanish within 3 SE of the covariance estimator.  (I1, I2) is the
        # estimators' own first window stage, radius 3, of each realisation
        s, n = 0.01, 1200
        monkeypatch.setattr(montecarlo, "_R0", 3.0)
        i1, i2 = _stage_interference(P33, 600, 0, np.empty(0), np.zeros(n, int))[:2]
        g = np.exp(-s * i1)
        h = np.exp(-s * i2)
        gc = g - g.mean()
        hc = h - h.mean()
        cov = float(np.mean(gc * hc))
        se = float(np.std(gc * hc - cov, ddof=1) / math.sqrt(n))
        assert abs(cov) < 3 * se


class TestPreconditions:
    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            estimate_laplace(P33, np.array([0.01]), n=50, seed=0)
        with pytest.raises(ValueError):
            estimate_af_cumulative(P33, np.array([1.0]), n=50, seed=0)
        with pytest.raises(ValueError):
            estimate_latency(P33, np.array([1.0]), n=50, seed=0)

    def test_speed_spread_rejected_by_name(self):
        # nan fails every comparison, so a check written as sigma < 0 would pass it
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^sigma must be finite and >= 0"):
                P33.at_mean_speed(sigma)

    def test_zero_speed_latency_rejected(self):
        frozen = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=0.0)
        with pytest.raises(ZeroSpeed):
            estimate_latency(frozen, np.array([1.0]), n=500, seed=0)

    def test_zero_speed_latency_when_always_covered(self):
        # dense enough that no line's chord is vacant: every wait is zero
        crowded = NetworkParams(lambda_l=3.0, mu=1000.0, nu=0.1, speed=0.0)
        res = estimate_latency(crowded, np.array([0.0, 1.0]), n=200, seed=0)
        assert res.mean.value == 0.0 and res.p_zero.value == 1.0

    def test_negative_transform_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_laplace(P33, np.array([-0.1]), n=500, seed=0)

    def test_grids_rejected_by_name(self):
        # the analytic entry points' names and rule; before any draw, so a nan or inf
        # point cannot run the window loop to its cap or come back as an estimate
        entries = [
            ("transform argument", lambda g: estimate_laplace(P33, g, n=200)),
            ("tau", lambda g: estimate_coverage(P33, g, n=200)),
            ("t", lambda g: estimate_af_cumulative(P33, g, n=200)),
            ("w", lambda g: estimate_latency(P33, g, n=200)),
        ]
        for name, call in entries:
            for value in (-1.0, math.nan, math.inf):
                for grid in ([value], [1.0, value]):
                    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
                        call(grid)
            with pytest.raises(ValueError, match=f"^{name} grid must be non-empty"):
                call([])

