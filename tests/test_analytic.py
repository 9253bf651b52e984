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
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from linecox.core import (
    LatencyVariant,
    NetworkParams,
    QuadratureNotConverged,
    QuadratureSpec,
    ZeroSpeed,
)
from linecox.analytic import (
    AFVariant,
    CoverageSurface,
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
from linecox import analytic, quadrature
from linecox.analytic import _PHI_SHIFT, _phi_direct, _phi_profile
from linecox.montecarlo import estimate_ase
from linecox.optimize import UtilityWeights
from linecox.quadrature import GL_NODES
from test_montecarlo import _traced_peak

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


# (alpha, nu / b, lambda_l c, mu c, other-line factor, own-line factor) with
# b = (s p)^(1/alpha) and c = max(nu, b); the densities put both factors near
# 1/e.  The model has no length scale of its own, so the factors are the same
# for every s.  They were computed at s = 1 with
#   LaplaceEvaluator(_u_case(alpha, ratio, lc, mc, 1.0),
#                    QuadratureSpec(rel_tol=1e-11, abs_tol=0.0)).laplace_factors(1.0)
# except at nu / b = 1e3, where the r-rule stops converging below rel_tol
# 1e-9 (alpha 2.2), 1e-8 (3) and 1e-7 (4), which those rows used instead.
U_RULE_CASES = [
    (2.2, 1e-3, 0.099, 0.35, 0.36742183038031584, 0.36426391769171534),
    (2.2, 0.1, 0.099, 0.35, 0.36740999990952167, 0.36472748189044374),
    (2.2, 1.0, 0.089, 0.39, 0.36908013321115724, 0.36480704643653294),
    (2.2, 10.0, 0.31, 12.0, 0.3653757721244525, 0.36494736624073276),
    (2.2, 1e3, 0.65, 64000.0, 0.36957643336898727, 0.3699145064689456),
    (3.0, 1e-3, 0.41, 0.41, 0.3662120363241582, 0.371003594222403),
    (3.0, 0.1, 0.41, 0.41, 0.3661280802681941, 0.37146749638462745),
    (3.0, 1.0, 0.35, 0.48, 0.37160966195299094, 0.3641018183613872),
    (3.0, 10.0, 0.84, 22.0, 0.3693211197110796, 0.375773908156634),
    (3.0, 1e3, 0.93, 210000.0, 0.3680841797868323, 0.36244305818186234),
    (4.0, 1e-3, 0.61, 0.45, 0.3666969130447928, 0.3680087602331663),
    (4.0, 0.1, 0.61, 0.45, 0.3665147806732064, 0.36847056848773224),
    (4.0, 1.0, 0.52, 0.53, 0.36611193764117256, 0.3649409268890534),
    (4.0, 10.0, 0.92, 32.0, 0.3690496878630582, 0.3702747380698017),
    (4.0, 1e3, 0.94, 320000.0, 0.3668789925435269, 0.36593227815758167),
]


def _u_case(alpha, ratio, lc, mc, s):
    b = s ** (1.0 / alpha)
    c = max(ratio * b, b)
    return NetworkParams(lambda_l=lc / c, mu=mc / c, nu=ratio * b, speed=V, alpha=alpha)


def _line_exponent_calls(monkeypatch, params, s):
    """(offsets xi = r / nu, nodes per side) of every line-exponent call one transform makes."""
    calls = []
    line_exponent = analytic._line_exponent

    def spy(profile, xi, beta, n):
        calls.append((xi, n))
        return line_exponent(profile, xi, beta, n)

    monkeypatch.setattr(analytic, "_line_exponent", spy)
    LaplaceEvaluator(params).laplace_factors(s)
    return calls


class TestSemicircleRule:
    @pytest.mark.parametrize("alpha, ratio, lc, mc, other, own", U_RULE_CASES)
    def test_factors_within_rel_tol(self, alpha, ratio, lc, mc, other, own):
        rel = QuadratureSpec().rel_tol
        for s in (1e-6, 1e-3, 1.0, 1e3):
            f1, f2 = LaplaceEvaluator(_u_case(alpha, ratio, lc, mc, s)).laplace_factors(s)
            assert f1 == pytest.approx(other, rel=rel)
            assert f2 == pytest.approx(own, rel=rel)

    def test_panel_at_nu_refines_when_b_small(self, monkeypatch):
        # beta = 1 / 1000: the panel [1, 4] in xi starts at the peak's edge, so the
        # r-rule takes it, and its semicircle averages, past the first pass
        params = _u_case(3.0, 1e3, 0.93, 210000.0, 1e-3)
        beta = 1e-3 ** (1.0 / 3.0) / params.nu
        refined = [xi for xi, n in _line_exponent_calls(monkeypatch, params, 1e-3)
                   if n > 2 * GL_NODES]
        assert any(np.all((xi >= 1.0) & (xi <= 4.0), axis=1).any() for xi in refined)
        # while no panel from 4 max(1, beta) on needs more than the first pass
        assert all(np.all(xi.min(axis=1) < 4.0 * max(1.0, beta)) for xi in refined)


class TestLaplaceShape:
    def test_at_zero(self):
        assert laplace(P33, 0.0) == 1.0

    def test_strictly_decreasing(self):
        s = [0.0, 1e-4, 1e-3, 1e-2, 1e-1]
        vals = [laplace(P33, x) for x in s]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_argument_rejected(self):
        # every entry point names its argument; a non-finite one would reach the Phi
        # table's index arithmetic
        entries = [
            ("transform argument", lambda v: laplace(P33, v)),
            ("transform argument", lambda v: laplace(P33, [1e-3, v])),
            ("tau", lambda v: coverage_probability(P33, v)),
            ("tau", lambda v: CoverageSurface(P33, v)(0.1, 3.0)),
            ("t", lambda v: af_cumulative(P33, v)),
            ("w", lambda v: latency_ccdf(P33, v)),
            ("w1", lambda v: UtilityWeights(w1=v, w2=0.5)),
            ("w3", lambda v: UtilityWeights(w1=0.5, w2=0.5, w3=v)),
            ("tau", lambda v: UtilityWeights(w1=0.5, w2=0.5, tau=v)),
        ]
        for name, call in entries:
            for value in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
                    call(value)

    def test_table_matches_direct_evaluation(self):
        # the same transform with every Phi lookup made by direct quadrature;
        # the table's large-y coefficients still give the closed-form far tail
        class DirectProfile(analytic._PhiProfile):
            def __call__(self, y):
                y = np.asarray(y, dtype=float)
                return _phi_direct(y.ravel(), self.alpha).reshape(y.shape)

        table, direct = LaplaceEvaluator(P33), LaplaceEvaluator(P33)
        direct._profile = DirectProfile(**vars(table._profile))
        for s in (1e-3, 1e-2, 1e-1):
            t1, t2 = table.laplace_factors(s)
            d1, d2 = direct.laplace_factors(s)
            assert t1 == pytest.approx(d1, rel=1e-5)
            assert t2 == pytest.approx(d2, rel=1e-5)

    @pytest.mark.parametrize("alpha", [2.05, 3.0, 6.0])
    def test_table_meets_tight_tolerance(self, alpha):
        # off the probe points too: 0.1 and 0.9 of every interval, at rel_tol 1e-9
        prof = _phi_profile(alpha, 1e-9)
        k = prof.knots
        x = (k[:-1, None] + (k[1] - k[0]) * np.array([0.1, 0.9])).ravel()
        direct = np.log(_phi_direct(np.exp(x) - _PHI_SHIFT, alpha))
        assert np.max(np.abs(prof.log_near(x) - direct)) <= 2.5e-10

    def test_table_raises_when_not_converged(self, monkeypatch):
        # a kink at y = 1: a cubic's error across it shrinks only like the knot step
        def kinked(y, alpha, slope=False):
            v = 2.0 + np.abs(y - 1.0)
            return (v, np.sign(y - 1.0)) if slope else v

        monkeypatch.setattr(analytic, "_phi_direct", kinked)
        monkeypatch.setattr(analytic, "_PHI_CACHE", {})
        with pytest.raises(QuadratureNotConverged):
            _phi_profile(3.0, 1e-6)
        assert analytic._PHI_CACHE == {}

    @pytest.mark.parametrize("alpha", [2.05, 3.0, 6.0])
    def test_table_slopes_are_phi_derivative(self, alpha):
        # the slope in x = log(y + shift) of each knot against a central difference
        prof = _phi_profile(alpha, 1e-6)
        k, dx = prof.knots[:-1], 1e-5
        diff = (np.log(_phi_direct(np.exp(k + dx) - _PHI_SHIFT, alpha))
                - np.log(_phi_direct(np.exp(k - dx) - _PHI_SHIFT, alpha))) / (2.0 * dx)
        assert np.allclose(prof.coef[2] / (k[1] - k[0]), diff, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("alpha", [2.05, 2.2, 3.0, 4.0, 6.0])
    def test_table_cubics_are_monotone(self, alpha):
        # Fritsch & Carlson (1980): a cubic Hermite is monotone on an interval when
        # both end slopes a, b (over the secant) are >= 0 and a^2 + b^2 <= 9
        c = _phi_profile(alpha, 1e-6).coef
        rise = c[0] + c[1] + c[2]
        a, b = c[2] / rise, (3.0 * c[0] + 2.0 * c[1] + c[2]) / rise
        assert np.all(rise < 0) and np.all(a >= 0) and np.all(b >= 0)
        assert np.max(a ** 2 + b ** 2) <= 9.0

    def test_table_build_memory(self, monkeypatch):
        # 5121 knots; with all its probes in one direct evaluation the build peaked
        # at 120 MiB under tracemalloc
        monkeypatch.setattr(analytic, "_PHI_CACHE", {})
        assert _traced_peak(lambda: _phi_profile(3.0, 1e-12)) < 16 * 2**20

    def test_fractional_alpha(self):
        p = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V, alpha=2.5)
        val = laplace(p, 0.01)
        assert 0.0 < val < 1.0


class TestCoverage:
    def test_at_zero_threshold(self):
        assert coverage_probability(P33, 0.0) == 1.0

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
        # every tolerance is set on a dimensionless integral, so the rules take
        # the same nodes in any units and only rounding differs (see
        # TestScaleInvariance for the other quantities and a range of scales)
        for tau in (0.5, 2.0):
            a = coverage_probability(P33, tau)
            b = coverage_probability(P33.scaled(2.0), tau)
            assert b == pytest.approx(a, rel=1e-12)


# the fig10 optimiser's base parameters and its coarse (nu, mu) grid, flattened
FIG10 = NetworkParams(lambda_l=3.0, mu=0.5, nu=0.5, speed=V)
FIG10_NU, FIG10_MU = (a.ravel() for a in np.meshgrid(
    np.linspace(0.1, 1.5, 8), np.linspace(0.25, 0.75, 4), indexing="ij"))


@pytest.fixture(scope="module", params=[(2.2, 10.0), (3.0, 1.0), (4.0, 0.1)],
                ids=lambda p: f"alpha={p[0]:g}-tau={p[1]:g}")
def fig10_reference(request):
    """(base, tau, per-cell coverage_probability at rel_tol 1e-10) on the fig10 grid."""
    alpha, tau = request.param
    base = replace(FIG10, alpha=alpha)
    tight = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
    return base, tau, np.array([coverage_probability(replace(base, nu=nu, mu=mu), tau, tight)
                                for nu, mu in zip(FIG10_NU, FIG10_MU)])


class TestCoverageSurface:
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_matches_per_cell_reference(self, fig10_reference, rel_tol):
        base, tau, ref = fig10_reference
        q = QuadratureSpec(rel_tol=rel_tol)
        value, _ = CoverageSurface(base, tau, q)(FIG10_NU, FIG10_MU)
        assert np.all(np.abs(value - ref) <= np.maximum(q.abs_tol, q.rel_tol * np.abs(value)))

    def test_cell_independent_of_grid(self):
        # at alpha = 2.2, tau = 10 and rel_tol 1e-9 the cells stop at different node counts
        for alpha, tau, rel_tol in ((3.0, 1.0, 1e-6), (2.2, 10.0, 1e-9)):
            base, q = replace(FIG10, alpha=alpha), QuadratureSpec(rel_tol=rel_tol)
            grid = CoverageSurface(base, tau, q)(FIG10_NU, FIG10_MU)
            backwards = CoverageSurface(base, tau, q)(FIG10_NU[::-1], FIG10_MU[::-1])
            alone = CoverageSurface(base, tau, q)
            cells = np.array([alone(nu, mu) for nu, mu in zip(FIG10_NU, FIG10_MU)]).T
            for other in (cells, [a[::-1] for a in backwards]):
                assert np.array_equal(grid[0], other[0]) and np.array_equal(grid[1], other[1])

    def test_zero_threshold(self, monkeypatch):
        line_exponent = analytic._line_exponent

        def checked(profile, xi, beta, n):
            assert np.all(beta > 0), "beta = 0 reached the line exponent"
            return line_exponent(profile, xi, beta, n)

        monkeypatch.setattr(analytic, "_line_exponent", checked)
        value, diff = CoverageSurface(FIG10, 0.0)(FIG10_NU, FIG10_MU)
        # P(SIR > 0) = 1, exactly, from the surface and from the per-cell path
        assert np.all(value == 1.0) and np.all(diff == 0.0)
        for nu, mu in zip(FIG10_NU, FIG10_MU):
            assert coverage_probability(replace(FIG10, nu=nu, mu=mu), 0.0) == 1.0

    def test_ladder_cap_raises(self, monkeypatch):
        # at rel_tol 1e-9 this cell needs more than 32 nodes in x
        monkeypatch.setattr(quadrature, "GL_MAX_NODES", 32)
        surface = CoverageSurface(FIG10, 1.0, QuadratureSpec(rel_tol=1e-9))
        with pytest.raises(QuadratureNotConverged, match="32 Gauss-Legendre nodes per panel"):
            surface(0.5, 0.5)


class TestScaleInvariance:
    """The analytic results depend on lengths only through lambda_l nu, mu nu
    and beta = b / nu, so ``NetworkParams.scaled`` changes them by rounding
    alone: the transform at s kappa^alpha, coverage, ASE times kappa^2 and the
    coverage surface's cells at (nu kappa, mu / kappa)."""

    S = np.geomspace(1e-4, 0.1, 4)
    TAUS = np.array([0.5, 2.0])
    CELLS = (np.array([0.05, 0.1, 0.5]), np.array([0.5, 3.0, 5.0]))

    def _results(self, params, kappa):
        nu, mu = self.CELLS
        return np.concatenate([
            laplace(params, self.S * kappa ** params.alpha),
            coverage_probability(params, self.TAUS),
            [area_spectral_efficiency(params) * kappa ** 2],
            CoverageSurface(params, 1.0)(nu * kappa, mu / kappa)[0],
        ])

    # at kappa = 1e-4, lambda_l exceeds rel_tol / (8 abs_tol): an r-tolerance
    # floored in km rather than in units of nu would show there
    @example(log_kappa=-4.0, alpha=3.0)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(st.floats(-4.0, 4.0), st.sampled_from([2.2, 3.0, 6.0]))
    def test_results_unchanged_by_units(self, log_kappa, alpha):
        kappa = 10.0 ** log_kappa
        for base in (P33, FIG3):
            params = replace(base, alpha=alpha)
            np.testing.assert_allclose(self._results(params.scaled(kappa), kappa),
                                       self._results(params, 1.0), rtol=1e-12, atol=0.0)


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

    @pytest.mark.parametrize("alpha", [8.0, 12.0])
    def test_steep_path_loss_matches_monte_carlo(self, alpha):
        # the G7/K15 half-line rule this replaced raised here, and at rel_tol 1e-9
        # kept a stalled block's partial value: 1.48 and 1.50, against about 60 and 92
        params = replace(P33, alpha=alpha)
        est, _ = estimate_ase(params, n=20_000, seed=5)
        for rel_tol in (1e-6, 1e-9):
            got = area_spectral_efficiency(params, QuadratureSpec(rel_tol=rel_tol))
            assert abs(got - est.value) <= 3.0 * est.std_error

    # area_spectral_efficiency(replace(P33, alpha=alpha), QuadratureSpec(rel_tol=1e-9))
    # by the G7/K15 half-line rule this replaced, at commit 9f68041, with PYTHONPATH=src:
    #   python -c "from dataclasses import replace; from linecox.core import *;
    #   from linecox.analytic import area_spectral_efficiency as f
    #   p = NetworkParams(3.0, 3.0, 0.1, 30 / 3600)
    #   print([f(replace(p, alpha=a), QuadratureSpec(rel_tol=1e-9))
    #          for a in (2.05, 2.2, 3.0, 4.0, 6.0)])"
    @pytest.mark.parametrize("alpha, value", [
        (2.05, 3.159513775025395),
        (2.2, 7.193145581987091),
        (3.0, 17.57304175799205),
        (4.0, 27.042877061933726),
        (6.0, 44.00033579850124),
    ])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_pinned_values(self, alpha, value, rel_tol):
        params = replace(P33, alpha=alpha)
        got = area_spectral_efficiency(params, QuadratureSpec(rel_tol=rel_tol))
        assert got == pytest.approx(value, rel=rel_tol)

    def test_tight_tolerance_near_two(self):
        # a semicircle rule held to an absolute share of the xi-tolerance raised here
        got = area_spectral_efficiency(replace(P33, alpha=2.2),
                                       QuadratureSpec(rel_tol=1e-10, abs_tol=0.0))
        assert got == pytest.approx(7.193145581987091, rel=1e-9)


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

    @pytest.mark.parametrize("lam, mu, nu, value", [
        # mean_latency as the doubling-block integral of the conditioned CCDF
        # gave it before the closed form (integrate_halfline at the default spec)
        (3.0, 3.0, 0.1, 20.291630878838294),
        (5.0, 5.0, 0.1, 7.396671691394162),
        (9.0, 3.0, 0.1, 12.340741052219638),
        (1.0, 2.0, 1.0, 1.4215122943658731),
        (3.0, 0.25, 0.1, 392.39945921994394),
        (3.0, 0.75, 0.1, 119.53000376088757),
        (3.0, 0.25, 1.5, 2.374712744618767),
        (3.0, 0.75, 1.5, 0.06020279089774416),
    ])
    def test_closed_form_matches_ccdf_integral(self, lam, mu, nu, value):
        params = NetworkParams(lambda_l=lam, mu=mu, nu=nu, speed=V)
        assert mean_latency(params) == pytest.approx(value, rel=1e-12)

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
