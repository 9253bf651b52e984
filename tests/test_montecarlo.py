"""Estimator correctness, stream discipline and window control."""

import math

import numpy as np
import pytest

from linecox.core import NetworkParams, ZeroSpeed, substream
from linecox.montecarlo import (
    WindowNotConverged,
    WindowPolicy,
    estimate_af_cumulative,
    estimate_af_snapshot,
    estimate_ase,
    estimate_coverage,
    estimate_laplace,
    estimate_latency,
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

    def test_negative_transform_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_laplace(P33, np.array([-0.1]), n=500, seed=0)

