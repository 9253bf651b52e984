"""Estimator correctness, stream discipline and window control."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from linecox import montecarlo
from linecox.core import NetworkParams, ZeroSpeed, skip_ahead, substream
from linecox.montecarlo import (
    WindowNotConverged,
    WindowPolicy,
    estimate_af_cumulative,
    estimate_af_snapshot,
    estimate_ase,
    estimate_coverage,
    estimate_laplace,
    estimate_latency,
    _af_event_times,
    _latency_waits,
    _stage_increment,
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
        assert np.array_equal(res.values(),
                              [e.value for e in res.estimates])
        assert np.array_equal(res.std_errors(),
                              [e.std_error for e in res.estimates])

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
    # drawn whole, the per-vehicle arrays peaked at 312 MiB and 70 MiB here
    def test_af_cumulative_fig7(self):
        peak = _traced_peak(lambda: estimate_af_cumulative(
            FIG7, np.linspace(0.0, 400.0, 9), n=200_000, seed=1))
        assert peak < 64 * 2**20

    def test_latency_fig8(self):
        peak = _traced_peak(lambda: estimate_latency(
            P33, np.linspace(0.0, 100.0, 11), n=1_000_000, seed=1))
        assert peak < 40 * 2**20


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
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            WindowPolicy(initial_radius=0.0)
        with pytest.raises(ValueError):
            WindowPolicy(max_doublings=-1)
        with pytest.raises(ValueError):
            WindowPolicy(stability_fraction=0.0)

    def test_radius_schedule(self):
        policy = WindowPolicy(initial_radius=1.5, max_doublings=4)
        assert policy.radius(0) == 1.5
        assert policy.radius(3) == 12.0

    def test_window_not_converged(self):
        # an impossible stability demand must fail loudly, not silently
        fig3 = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=V, power=0.01)
        policy = WindowPolicy(initial_radius=1.0, max_doublings=2,
                              stability_fraction=1e-6)
        with pytest.raises(WindowNotConverged) as exc:
            estimate_laplace(fig3, np.array([1e-4]), n=400, seed=32, window=policy)
        assert exc.value.radius == 4.0
        assert exc.value.shift_over_se > 1e-6


class TestComponentIndependence:
    def test_cross_line_and_own_line_uncorrelated(self):
        # exp(-s I1) and exp(-s I2) factorise; their sample covariance must
        # vanish within 3 SE of the covariance estimator.  (I1, I2) is the
        # estimators' own first window stage, radius 3, of each realisation
        s, n = 0.01, 1200
        g = np.empty(n)
        h = np.empty(n)
        for i in range(n):
            i1, i2 = _stage_increment(substream(600, i, 1, 0), P33, 0,
                                      WindowPolicy(initial_radius=3.0), [])
            g[i] = math.exp(-s * i1)
            h[i] = math.exp(-s * i2)
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

