"""Batched Gauss-Legendre integration, on one panel and over doubling blocks,
against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linecox.core import QuadratureNotConverged, QuadratureSpec
from linecox.quadrature import (GL_MAX_NODES, GL_NODES, gauss_legendre, integrate,
                                integrate_halfline, leggauss)

TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)


class TestFiniteInterval:
    def test_sine(self):
        val, err = integrate(np.sin, 0.0, math.pi, TIGHT)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert abs(val - 2.0) <= 10 * max(err, 1e-15)

    def test_polynomial_is_exact(self):
        # 8 and 16 nodes both integrate degree 5 exactly
        val, _ = integrate(lambda x: x**5 - 3 * x**2 + 1, -1.0, 2.0, TIGHT)
        exact = (2.0**6 - 1.0) / 6 - (2.0**3 + 1.0) + 3.0
        assert val == pytest.approx(exact, abs=1e-13)

    def test_empty_interval(self):
        val, err = integrate(np.cos, 1.0, 1.0, TIGHT)
        assert val == 0.0 and err == 0.0

    def test_not_converged_raises(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300)
        f = lambda x: np.sqrt(np.abs(x))  # kink keeps the estimate moving
        with pytest.raises(QuadratureNotConverged) as exc:
            integrate(f, -1.0, 1.0, spec)
        assert exc.value.error_bound > 0

    def test_vectorised_calls_only(self):
        seen = []

        def f(x):
            seen.append(np.size(x))
            return np.exp(x)

        integrate(f, 0.0, 1.0, TIGHT)
        assert all(size > 1 for size in seen)


class TestHalfLine:
    def test_exponential(self):
        val, _ = integrate_halfline(lambda x: np.exp(-x), 0.0, TIGHT)
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_shifted_start(self):
        val, _ = integrate_halfline(lambda x: np.exp(-x), 2.0, TIGHT)
        assert val == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_slow_polynomial_decay(self):
        # 1/(1+x^2) needs many doubling blocks before the tail dies
        val, _ = integrate_halfline(lambda x: 1.0 / (1.0 + x * x), 0.0, TIGHT)
        assert val == pytest.approx(math.pi / 2, rel=1e-9)

    def test_scale_hint(self):
        # a characteristic width of 100 must not break convergence
        val, _ = integrate_halfline(lambda x: np.exp(-x / 100.0), 0.0, TIGHT, scale=100.0)
        assert val == pytest.approx(100.0, rel=1e-9)

    def test_block_not_converged_raises(self):
        # a kink in the second block: its partial value is not kept
        f = lambda x: np.exp(-x) * (1.0 + np.sqrt(np.abs(x - 2.0)))
        with pytest.raises(QuadratureNotConverged, match="Gauss-Legendre"):
            integrate_halfline(f, 0.0, TIGHT)


class TestNodes:
    def test_leggauss_matches_numpy(self):
        x, w = leggauss(64)
        xr, wr = np.polynomial.legendre.leggauss(64)
        assert np.allclose(x, xr) and np.allclose(w, wr)

    def test_leggauss_cached(self):
        assert leggauss(32) is leggauss(32)


# the transform's r-panels with c = 1: [0, 1], [1, 4], ..., [256, 1024]
PANELS = np.append(0.0, 4.0 ** np.arange(6))


def sqrt_at_edge(x, rows, cols):
    # sqrt(x - 1) on [1, 4], whose derivative blows up at the panel's left edge; 1 elsewhere
    return np.where((x > 1.0) & (x < 4.0), np.sqrt(np.abs(x - 1.0)), 1.0)


class TestGaussLegendre:
    def test_polynomial_batch_exact_at_16_nodes(self):
        # 16 nodes integrate degree 31 exactly, 8 nodes only degree 15
        powers = np.array([3.0, 15.0, 24.0, 31.0])
        edges = np.tile([0.0, 0.5, 1.0, 2.0], (powers.size, 1))
        val, _ = gauss_legendre(lambda x, rows, cols: x ** powers[rows, None, None], edges,
                                TIGHT)
        exact = np.diff(edges ** (powers[:, None] + 1.0), axis=1) / (powers[:, None] + 1.0)
        assert np.allclose(val, exact, rtol=1e-13, atol=0.0)

    def test_row_independent_of_batch(self):
        rates = np.array([0.5, 3.0, 40.0])
        edges = np.tile(PANELS, (rates.size, 1)) / 64.0

        def f(x, rows, cols):
            return np.exp(-rates[rows, None, None] * x) + np.sqrt(x)

        batch, batch_err = gauss_legendre(f, edges, TIGHT)
        for i in range(rates.size):
            alone, err = gauss_legendre(lambda x, rows, cols: f(x, rows + i, cols),
                                        edges[i:i + 1], TIGHT)
            assert np.array_equal(alone[0], batch[i]) and np.array_equal(err[0], batch_err[i])

    def test_only_the_unconverged_panel_refines(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=0.0)
        most = {}

        def f(x, rows, cols):
            for panel in np.searchsorted(PANELS, x[:, 0, 0]) - 1:
                most[panel] = max(most.get(panel, 0), x.shape[-1])
            return sqrt_at_edge(x, rows, cols)

        val = gauss_legendre(f, PANELS[None, :], spec)[0].sum()
        assert most.pop(1) > 16
        assert set(most) == {0, 2, 3, 4, 5} and max(most.values()) == 16
        exact = 2.0 / 3.0 * 3.0 ** 1.5 + (PANELS[-1] - 3.0)
        assert abs(val - exact) <= spec.rel_tol * exact

    def test_integrand_told_its_panels(self):
        # the first call takes every (row, panel) at GL_NODES; every call names
        # the panels its nodes lie in
        edges = np.stack([PANELS, 2.0 * PANELS])
        calls = []

        def f(x, rows, cols):
            calls.append((x.shape[-1], rows.size))
            lo, hi = edges[rows, cols], edges[rows, cols + 1]
            assert np.all((x[:, 0, :] > lo[:, None]) & (x[:, 0, :] < hi[:, None]))
            return np.sqrt(np.abs(x - edges[rows, 1, None, None]))

        gauss_legendre(f, edges, QuadratureSpec(rel_tol=1e-8, abs_tol=0.0))
        assert calls[0] == (GL_NODES, edges.size - 2) and len(calls) > 2

    def test_not_converged_past_max_nodes(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0)
        with pytest.raises(QuadratureNotConverged, match=f"{GL_MAX_NODES} Gauss-Legendre") as exc:
            gauss_legendre(sqrt_at_edge, PANELS[None, :], spec)
        assert exc.value.error_bound > spec.rel_tol * abs(exc.value.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_row_not_accepted(self, bad):
        # err > tol is False for a nan err, so a nan integrand was once accepted at 16 nodes
        def f(x, rows, cols):
            return np.where(rows[:, None, None] == 1, bad, x)

        with pytest.raises(QuadratureNotConverged, match=f"{GL_MAX_NODES} Gauss-Legendre"):
            gauss_legendre(f, np.array([[0.0, 1.0], [0.0, 1.0]]), QuadratureSpec())


# positive integrands with closed-form integrals over [a, b] (written without
# cancellation, so the references are good to a few ulps), and the range of the
# rate c each is drawn with
SMOOTH = {
    "exp": (lambda c: lambda x: np.exp(c * x),
            lambda c, a, b: math.exp(c * a) * math.expm1(c * (b - a)) / c, 40.0),
    "bump": (lambda c: lambda x: 1.0 / (1.0 + (c * x) ** 2),
             lambda c, a, b: math.atan2(c * (b - a), 1.0 + c * c * a * b) / c, 3.0),
    "wave": (lambda c: lambda x: 2.0 + np.cos(c * x),
             lambda c, a, b: 2.0 * (b - a)
             + 2.0 * math.cos(0.5 * c * (a + b)) * math.sin(0.5 * c * (b - a)) / c, 20.0),
}


@st.composite
def smooth_cases(draw):
    make, exact, c_max = SMOOTH[draw(st.sampled_from(sorted(SMOOTH)))]
    c = draw(st.floats(0.1, c_max)) * draw(st.sampled_from([-1.0, 1.0]))
    a = draw(st.floats(-2.0, 2.0))
    b = a + draw(st.floats(1e-3, 3.0))
    spec = QuadratureSpec(rel_tol=10.0 ** -draw(st.integers(3, 12)), abs_tol=0.0)
    return make(c), exact(c, a, b), a, b, spec


class TestIntegrateProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(smooth_cases())
    def test_bound_covers_error(self, case):
        f, exact, a, b, spec = case
        val, err = integrate(f, a, b, spec)
        # rounding in the node sums is of order eps * int |f|, with f > 0
        assert abs(val - exact) <= err + 1e-14 * exact
        assert err <= spec.rel_tol * abs(val)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(smooth_cases(), st.floats(-6.0, 6.0))
    def test_scales_with_integrand(self, case, log_k):
        # with abs_tol = 0 nothing depends on the integrand's units; the G7/K15
        # estimate (200 delta)^1.5 this rule replaced did
        f, _, a, b, spec = case
        k = 10.0 ** log_k
        val, err = integrate(f, a, b, spec)
        val_k, err_k = integrate(lambda x: k * f(x), a, b, spec)
        assert val_k == pytest.approx(k * val, rel=1e-14)
        assert abs(err_k - k * err) <= 1e-14 * k * abs(val)
