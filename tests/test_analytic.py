"""Closed-form layer against independent quadrature oracles and identities.

The laplace oracles were computed with three-level nested scipy.integrate.quad
applied to the palm interference functional written directly from the model:
fade-averaged contribution integrated along each line, averaged over the
device-offset semicircle, then over the line-offset process.  They carry
about 1e-7 relative error (1e-5 deep in the tail, where the exponent
amplifies), and the tolerances below cover both sides.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from linecox.core import (
    LatencyVariant,
    NetworkParams,
    QuadratureSpec,
    ZeroSpeed,
)
from linecox.analytic import (
    AFVariant,
    DivergenceReport,
    LaplaceEvaluator,
    af_cumulative,
    af_limit,
    af_snapshot,
    area_spectral_efficiency,
    coverage_probability,
    laplace,
    latency_ccdf,
    mean_latency,
)
from linecox.analytic import _PHI_SHIFT, _PhiProfile, _pchip_slopes, _phi_direct, _phi_profile

V = 30.0 / 3600.0
P33 = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)
P33_A4 = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, alpha=4.0)
FIG3 = NetworkParams(lambda_l=5.0, mu=5.0, nu=0.1, speed=V, power=0.01)
FIG7 = NetworkParams(lambda_l=9.0, mu=3.0, nu=0.1, speed=V)

DB = LatencyVariant.DIRECTION_BLIND
DA = LatencyVariant.DIRECTION_AWARE
DAC = LatencyVariant.DIRECTION_AWARE_CONDITIONED


class TestLaplaceOracles:
    def test_midrange_alpha3(self):
        assert laplace(P33, 0.002) == pytest.approx(0.1798762895629838, rel=3e-6)

    def test_midrange_alpha4(self):
        assert laplace(P33_A4, 0.002) == pytest.approx(0.06659774963508047, rel=2e-6)

    def test_low_power_network(self):
        assert laplace(FIG3, 0.01) == pytest.approx(0.487560930789, rel=1e-6)

    def test_deep_tail(self):
        # exponent ~8 amplifies quadrature error on both sides
        assert laplace(P33, 0.05) == pytest.approx(3.05110220e-4, rel=2e-5)

    def test_small_argument_low_power(self):
        # perfbench/reference.json, transform_fig3 at s = 1e-4: the semicircle
        # average peaks at u = -r with width b = nu / 10 here
        assert laplace(FIG3, 1e-4) == pytest.approx(0.9597556236078933, rel=1e-6)

    # nested scipy quad of the model, computed from the repository root with
    # python3 -c "import sys; sys.path.insert(0, 'perfbench'); import oracle;
    #   p = dict(oracle.FIG3, alpha=2.2);
    #   print(oracle.Transform(p).checked(1e-3), oracle.coverage(p, 1.0))"
    # and likewise with alpha=2.05 (about half an hour each)
    @pytest.mark.parametrize("alpha, transform, p_c", [
        (2.05, 0.950697467007392, 0.028640447083953878),
        (2.2, 0.9641124192364591, 0.1005304971352726),
    ])
    def test_exponent_near_two(self, alpha, transform, p_c):
        params = replace(FIG3, alpha=alpha)
        assert laplace(params, 1e-3) == pytest.approx(transform, rel=1e-6)
        assert coverage_probability(params, 1.0) == pytest.approx(p_c, rel=1e-6)

    def test_factor_split(self):
        # other-line and own-line factors, same oracle run as the midrange case
        f1, f2 = LaplaceEvaluator(P33).laplace_factors(0.002)
        assert f1 == pytest.approx(0.41531403718121607, rel=1e-5)
        assert f2 == pytest.approx(0.43310910169043354, rel=1e-6)
        assert f1 * f2 == pytest.approx(laplace(P33, 0.002), rel=1e-12)


class TestBatched:
    def test_array_matches_scalar_calls(self):
        ev = LaplaceEvaluator(FIG3)
        s = np.geomspace(1e-4, 1.0, 7)
        assert isinstance(ev.laplace(1e-3), float)
        for x, value in zip(s, ev.laplace(s)):
            assert ev.laplace(x) == pytest.approx(value, rel=1e-14)
        taus = np.array([0.0, 0.5, 1.0, 10.0, 100.0])
        for t, value in zip(taus, coverage_probability(P33, taus)):
            assert coverage_probability(P33, t) == pytest.approx(value, rel=1e-14)


class TestLaplaceShape:
    def test_at_zero(self):
        assert laplace(P33, 0.0) == 1.0

    def test_strictly_decreasing(self):
        s = [0.0, 1e-4, 1e-3, 1e-2, 1e-1]
        vals = [laplace(P33, x) for x in s]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            laplace(P33, -1.0)

    def test_table_matches_direct_evaluation(self):
        ev = LaplaceEvaluator(P33)
        for s in (1e-3, 1e-2, 1e-1):
            t1, t2 = ev.laplace_factors(s, use_table=True)
            d1, d2 = ev.laplace_factors(s, use_table=False)
            assert t1 == pytest.approx(d1, rel=1e-5)
            assert t2 == pytest.approx(d2, rel=1e-5)

    def test_table_is_scipy_pchip(self):
        # the table evaluates scipy's PCHIP interpolant of its knots without scipy
        from scipy.interpolate import PchipInterpolator
        for alpha in (2.2, 3.0, 4.0):
            knots = _phi_profile(alpha, 1e-6).knots
            logv = np.log(_phi_direct(np.exp(knots) - _PHI_SHIFT, alpha))
            x = np.linspace(knots[0], knots[-1], 20001)
            got = _PhiProfile.from_knots(alpha, knots, logv).log_near(x)
            assert np.allclose(got, PchipInterpolator(knots, logv)(x), rtol=0.0, atol=1e-13)

    def test_pchip_slopes_match_scipy(self):
        # sign changes, flat runs and both end clamps, which Phi's monotone profile never reaches
        from scipy.interpolate import PchipInterpolator
        x = np.linspace(0.0, 3.0, 13)
        for v in (np.array([0, 1, -9, -9, 3, 2, -1, -1, 0, 4, 4.5, 9.5, 10.5]),
                  np.array([5, 4, -6, 0.5, 0.5, 2, 3, 3.2, 3.2, 1, 0, 10, 9.0]),
                  np.cos(3.0 * x)):
            want = PchipInterpolator(x, v).derivative()(x)
            assert np.allclose(_pchip_slopes(x[1] - x[0], v), want, rtol=1e-13, atol=1e-13)

    def test_fractional_alpha(self):
        p = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, alpha=2.5)
        val = laplace(p, 0.01)
        assert 0.0 < val < 1.0


class TestCoverage:
    def test_at_zero_threshold(self):
        assert coverage_probability(P33, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_decreasing_in_threshold(self):
        taus = [0.25, 0.5, 1.0, 2.0, 4.0]
        vals = [coverage_probability(P33, t) for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_device_distance_average(self):
        # p_c(tau) must equal the transform averaged over the distance to a
        # device placed uniformly on the nu-disk (density 2r / nu^2)
        tau, nu = 1.0, P33.nu
        ref, _ = quad(
            lambda r: (2.0 * r / nu**2) * laplace(P33, tau * r**P33.alpha),
            0.0, nu, epsabs=1e-11, epsrel=1e-9,
        )
        assert coverage_probability(P33, tau) == pytest.approx(ref, rel=1e-8)

    def test_scale_invariant(self):
        # not bit-exact: the adaptive subdivision pattern shifts with units,
        # so agreement is only to the quadrature tolerance
        for tau in (0.5, 2.0):
            a = coverage_probability(P33, tau)
            b = coverage_probability(P33.scaled(2.0), tau)
            assert b == pytest.approx(a, rel=1e-6)


class TestAse:
    def test_rate_threshold_identity(self):
        # ergodic Shannon rate in bits: integrate coverage over the
        # threshold, weighted by 1 / ((1 + tau) ln 2)
        ref, _ = quad(
            lambda t: coverage_probability(P33, t) / ((1.0 + t) * math.log(2.0)),
            0.0, np.inf, epsabs=1e-10, epsrel=1e-8, limit=200,
        )
        ref *= P33.lambda_l * P33.mu
        assert area_spectral_efficiency(P33) == pytest.approx(ref, rel=1e-6)

    def test_positive(self):
        assert area_spectral_efficiency(P33) > 0


def _af_oracle(params, t, sweep):
    """Coverage fraction from the union of swept disks, by direct quadrature."""
    lam, mu, nu, v = params.lambda_l, params.mu, params.nu, params.speed
    inner, _ = quad(
        lambda u: 1.0 - math.exp(-sweep(mu, v * t, math.sqrt(nu * nu - u * u))),
        0.0, nu, epsabs=1e-13, epsrel=1e-11,
    )
    # offsets arrive at rate lambda_l per unit length; symmetry halves the range
    return 1.0 - math.exp(-2.0 * lam * inner)


class TestAreaFraction:
    def test_snapshot_oracle(self):
        ref = _af_oracle(P33, 0.0, lambda mu, vt, c: 2.0 * mu * c)
        assert af_snapshot(P33) == pytest.approx(ref, rel=1e-9)

    def test_limit_closed_form(self):
        assert af_limit(P33) == 1.0 - math.exp(-2.0 * P33.lambda_l * P33.nu)
        assert af_limit(FIG7) == 1.0 - math.exp(-1.8)

    def test_snapshot_below_limit(self):
        assert 0.0 < af_snapshot(P33) < af_limit(P33)

    def test_cumulative_at_zero_equals_snapshot(self):
        snap = af_snapshot(P33)
        for variant in AFVariant:
            assert af_cumulative(P33, 0.0, variant=variant) == pytest.approx(
                snap, abs=1e-10
            )

    def test_cumulative_oracles(self):
        t = 100.0
        ref_blind = _af_oracle(FIG7, t, lambda mu, vt, c: 2.0 * mu * (vt + c))
        ref_aware = _af_oracle(FIG7, t, lambda mu, vt, c: mu * (vt + 2.0 * c))
        assert af_cumulative(FIG7, t, variant=AFVariant.DIRECTION_BLIND) == (
            pytest.approx(ref_blind, rel=1e-8)
        )
        assert af_cumulative(FIG7, t, variant=AFVariant.DIRECTION_AWARE) == (
            pytest.approx(ref_aware, rel=1e-8)
        )

    def test_aware_below_blind(self):
        for t in (10.0, 100.0, 300.0):
            aware = af_cumulative(FIG7, t, variant=AFVariant.DIRECTION_AWARE)
            blind = af_cumulative(FIG7, t, variant=AFVariant.DIRECTION_BLIND)
            assert aware < blind

    def test_monotone_in_time(self):
        ts = [0.0, 25.0, 100.0, 250.0, 1000.0]
        vals = [af_cumulative(FIG7, t) for t in ts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_limit_reached(self):
        t = 100.0 / (FIG7.mu * FIG7.speed)
        for variant in AFVariant:
            assert af_cumulative(FIG7, t, variant=variant) == pytest.approx(
                af_limit(FIG7), abs=1e-6
            )

    def test_scale_invariance_exact(self):
        q = P33.scaled(2.0)
        assert af_snapshot(q) == af_snapshot(P33)
        assert af_limit(q) == af_limit(P33)


def _latency_oracle(params, w, rate):
    lam, mu, nu, v = params.lambda_l, params.mu, params.nu, params.speed
    inner, _ = quad(
        lambda u: 1.0 - math.exp(-rate(mu, math.sqrt(nu * nu - u * u), v * w)),
        0.0, nu, epsabs=1e-13, epsrel=1e-11,
    )
    return math.exp(-2.0 * lam * inner)


class TestLatencyCcdf:
    def test_variant_oracles(self):
        w = 30.0
        ref_blind = _latency_oracle(P33, w, lambda mu, c, vw: 2.0 * mu * (c + vw))
        ref_aware = _latency_oracle(P33, w, lambda mu, c, vw: mu * (2.0 * c + vw))
        assert latency_ccdf(P33, w, variant=DB) == pytest.approx(ref_blind, rel=1e-8)
        assert latency_ccdf(P33, w, variant=DA) == pytest.approx(ref_aware, rel=1e-8)

    def test_conditioned_is_affine_in_aware(self):
        miss = math.exp(-2.0 * P33.lambda_l * P33.nu)
        for w in (0.0, 20.0, 80.0):
            aware = latency_ccdf(P33, w, variant=DA)
            expect = (aware - miss) / (1.0 - miss)
            assert latency_ccdf(P33, w, variant=DAC) == pytest.approx(
                expect, abs=1e-12
            )

    def test_blind_at_zero_complements_snapshot(self):
        assert latency_ccdf(P33, 0.0, variant=DB) == pytest.approx(
            1.0 - af_snapshot(P33), abs=1e-10
        )

    def test_nonincreasing(self):
        for variant in (DB, DA, DAC):
            ws = [0.0, 10.0, 40.0, 100.0, 400.0]
            vals = [latency_ccdf(P33, w, variant=variant) for w in ws]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_tail_limits(self):
        miss = math.exp(-2.0 * P33.lambda_l * P33.nu)
        big = 1e5
        assert latency_ccdf(P33, big, variant=DB) == pytest.approx(miss, abs=1e-9)
        assert latency_ccdf(P33, big, variant=DA) == pytest.approx(miss, abs=1e-9)
        assert latency_ccdf(P33, big, variant=DAC) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariant(self):
        q = P33.scaled(2.0)
        for w in (0.0, 30.0):
            assert latency_ccdf(q, w, variant=DAC) == pytest.approx(
                latency_ccdf(P33, w, variant=DAC), rel=1e-12
            )


class TestMeanLatency:
    def test_conditioned_value_integrates_ccdf(self):
        value = mean_latency(P33)
        assert isinstance(value, float)
        ref, _ = quad(
            lambda w: latency_ccdf(P33, w, variant=DAC),
            0.0, np.inf, epsabs=1e-10, epsrel=1e-8, limit=200,
        )
        assert value == pytest.approx(ref, rel=1e-5)

    def test_blind_diverges(self):
        report = mean_latency(P33, variant=DB)
        assert isinstance(report, DivergenceReport)
        assert report.variant is DB
        miss = math.exp(-2.0 * P33.lambda_l * P33.nu)
        assert report.tail_limit == pytest.approx(miss, abs=1e-10)

    def test_unconditioned_aware_diverges(self):
        report = mean_latency(P33, variant=DA)
        assert isinstance(report, DivergenceReport)
        assert report.variant is DA

    def test_zero_speed_rejected(self):
        frozen = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=0.0)
        with pytest.raises(ZeroSpeed):
            mean_latency(frozen)

    def test_denser_roads_wait_less(self):
        sparse = mean_latency(P33)
        dense = mean_latency(NetworkParams(lambda_l=9.0, mu=3.0, nu=0.1, speed=V))
        assert dense < sparse


class TestQuadratureSpecThreading:
    def test_tight_spec_changes_little(self):
        loose = laplace(P33, 0.002)
        tight = laplace(P33, 0.002, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13))
        assert tight == pytest.approx(loose, rel=1e-5)
