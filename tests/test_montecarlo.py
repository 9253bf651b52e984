"""Estimator correctness, stream discipline and window control."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linecox import montecarlo
from linecox.core import NetworkParams, ZeroSpeed, skip_ahead, substream
from linecox.montecarlo import (
    WindowNotConverged,
    estimate_af_cumulative,
    estimate_af_snapshot,
    estimate_ase,
    estimate_coverage,
    estimate_laplace,
    estimate_latency,
    _af_event_times,
    _latency_waits,
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
        # the doubling schedule stops only once the last doubling moved
        # every point by less than half a standard error
        assert res.window.max_shift_over_se <= 0.5

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
        est = estimate_af_snapshot(P33, n=20000, seed=14)
        assert abs(est.z_score(analytic.af_snapshot(P33))) < 3

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
        assert abs(res.p_zero.z_score(analytic.af_snapshot(P33) / (1 - miss))) < 3


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
        snap = estimate_af_snapshot(P33, n=5000, seed=21)
        cum = estimate_af_cumulative(P33, np.array([0.0]), n=5000, seed=21)[0]
        assert cum.value == snap.value
        assert cum.std_error == snap.std_error

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

    The digests were taken from the samplers as they were before they read
    in pieces, when every per-vehicle array was drawn whole.  At sigma =
    0.004 about 5000 speeds come out negative and are redrawn, and the
    count of headings (277061) is odd, so the last one uses half of a 64-bit
    output and the normals start at the next.
    """

    AF = {
        0.0: (20_000, "bca51318aef44c984c20aa2feae5869b99e918c24dfbcca198f2ec081c1bd1a0"),
        0.004: (2_004, "e21997ab1c7431edd221d0effa2e2f5198d13c1b893dd9dc162575e896f8e608"),
    }
    LATENCY = "d3579ed5a9f5885505e08ba4bbb913832282f1d01aec7f44f60aabfcbe5aaa12"

    # None keeps the default piece size (a few pieces per run); 1009 crosses
    # hundreds of piece edges, inside lines and realisations
    @pytest.mark.parametrize("chunk", [None, 1009])
    @pytest.mark.parametrize("sigma", [0.0, 0.004])
    def test_af_event_times_pinned(self, monkeypatch, chunk, sigma):
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        n, digest = self.AF[sigma]
        assert _sha256(*_af_event_times(FIG7, 400.0, n, 7, sigma)) == digest

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


def _reference_stage(rng, params, stage, r0, line_offsets):
    """(other, own) interference of one realisation-stage drawn and summed on
    its own, with ``integers`` side draws, for a window of first radius
    ``r0``: the reference the staged simulator must match bit for bit."""
    p, mu, nu, alpha = params.power, params.mu, params.nu, params.alpha
    r_out = r0 * 2.0**stage
    r_in = r0 * 2.0 ** (stage - 1) if stage else 0.0
    seg_len = 2.0 * r_out if stage == 0 else 2.0 * (r_out - r_in)

    def signed(count):
        mag = rng.uniform(r_in, r_out, size=count)
        return (rng.integers(0, 2, size=count) * 2 - 1) * mag

    def power_sum(r, t):
        rho = nu * np.sqrt(rng.uniform(size=r.size))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=r.size)
        fades = rng.exponential(size=r.size)
        d2 = (r + rho * np.cos(phi)) ** 2 + (t + rho * np.sin(phi)) ** 2
        return float(np.dot(fades, d2 ** (-0.5 * alpha)) * p) if r.size else 0.0

    m = int(rng.poisson(mu * seg_len))
    own = power_sum(np.zeros(m), rng.uniform(-r_out, r_out, size=m) if stage == 0 else signed(m))
    n_new = rng.poisson(2.0 * params.lambda_l * (r_out - r_in))
    new_lines = rng.uniform(-r_out, r_out, size=n_new) if stage == 0 else signed(n_new)
    old = [np.repeat(lines, rng.poisson(mu * seg_len, size=lines.size)) for lines in line_offsets]
    line_offsets.append(new_lines)
    r_full = np.repeat(new_lines, rng.poisson(mu * 2.0 * r_out, size=n_new))
    r_ext = np.concatenate([np.empty(0)] + old)
    t = np.concatenate((signed(r_ext.size), rng.uniform(-r_out, r_out, size=r_full.size)))
    return power_sum(np.concatenate((r_ext, r_full)), t), own


class TestStagedStreams:
    """The staged simulator makes each realisation's draws in their order.

    The digests were taken when every realisation-stage built its own
    generator and drew and summed its interferers on its own.  They cover
    the interference total after every window stage, then the final values
    and standard errors.  A chunk of 1 flushes every realisation alone.
    Each case names the window-schedule constants it sets; the rest keep their values.
    """

    FIG3 = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=V, power=0.01)
    CASES = {
        "laplace-p33": (estimate_laplace, P33, [0.002, 0.01], 300, 3, {},
                        "059d6ce51dfbb03fe0a9170c9a5c637a6583dde292532c0648df94f0d1d0524b"),
        "coverage-p33": (estimate_coverage, P33, [0.5, 2.0], 300, 3, {},
                         "30a0fd2a180db6386f8ccc9d83244a88e2b3237b5e6dc4684ce173220480a065"),
        # six stages, and a seed of three 32-bit words
        "laplace-fig3": (estimate_laplace, FIG3, [1e-4, 1e-3, 1e-2, 0.1], 200, 2**64 + 9,
                         {"_R0": 0.5, "_STABLE": 0.1},
                         "8c7f0d0e8668d1da07f47be2ed3079005af2ac89bc5e4c43d6bae8fae2b1b0b4"),
        "coverage-fig3": (estimate_coverage, FIG3, [0.5, 2.0], 200, 2**64 + 9,
                          {"_R0": 0.25, "_STABLE": 0.05},
                          "ddac64bad9bae9c5787d7558d5872729c0269516bed77f50d7b94fb3b6e0b9fd"),
    }

    @pytest.mark.parametrize("chunk", [None, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned(self, monkeypatch, case, chunk):
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_STAGE_CHUNK", chunk)
        estimator, params, grid, n, seed, schedule, digest = self.CASES[case]
        for name, value in schedule.items():
            monkeypatch.setattr(montecarlo, name, value)
        totals = []
        run = montecarlo._staged_estimates

        def recording(params, n, seed, stat_fn):
            def stat(total):
                totals.append(total.copy())
                return stat_fn(total)
            return run(params, n, seed, stat)

        monkeypatch.setattr(montecarlo, "_staged_estimates", recording)
        res = estimator(params, np.array(grid), n=n, seed=seed)
        assert len(totals) == res.window.stages
        assert _sha256(*totals, np.array([e.value for e in res.estimates]),
                       np.array([e.std_error for e in res.estimates])) == digest

    # a small chunk puts the flushes inside and across realisations
    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_matches_per_realisation_reference(self, monkeypatch, alpha):
        monkeypatch.setattr(montecarlo, "_STAGE_CHUNK", 64)
        monkeypatch.setattr(montecarlo, "_R0", 1.0)
        params = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, power=0.3, alpha=alpha)
        n = 60
        lines, ref_lines = [np.empty(0)] * n, [[] for _ in range(n)]
        for stage in range(3):
            other, own = _stage_interference(params, 5, stage, lines)
            for i in range(n):
                expect = _reference_stage(substream(5, i, 1, stage), params, stage,
                                          1.0, ref_lines[i])
                assert (other[i], own[i]) == expect, (stage, i)

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
    # in pieces of 2**16 with per-line arrays freed once used, at 15.9 and 19.2 MiB
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
        assert exc.value.shift_over_se > 1e-6


class TestComponentIndependence:
    def test_cross_line_and_own_line_uncorrelated(self, monkeypatch):
        # exp(-s I1) and exp(-s I2) factorise; their sample covariance must
        # vanish within 3 SE of the covariance estimator.  (I1, I2) is the
        # estimators' own first window stage, radius 3, of each realisation
        s, n = 0.01, 1200
        monkeypatch.setattr(montecarlo, "_R0", 3.0)
        i1, i2 = _stage_interference(P33, 600, 0, [np.empty(0)] * n)
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
            estimate_af_snapshot(P33, n=50, seed=0)
        with pytest.raises(ValueError):
            estimate_af_cumulative(P33, np.array([1.0]), n=50, seed=0)
        with pytest.raises(ValueError):
            estimate_latency(P33, np.array([1.0]), n=50, seed=0)

    def test_speed_spread_rejected_by_name(self):
        # a nan sigma failed every comparison, so each t read the t = 0 estimate
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^sigma must be finite and >= 0"):
                estimate_af_cumulative(P33, [0.0, 100.0], n=200, sigma=sigma)

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
            if name != "w":  # an empty latency grid still gives the mean and P(no wait)
                with pytest.raises(ValueError, match=f"^{name} grid must be non-empty"):
                    call([])

