"""Adaptive Gauss-Kronrod and batched Gauss-Legendre integration against
closed-form integrals."""

import math

import numpy as np
import pytest

from linecox.core import QuadratureNotConverged, QuadratureSpec
from linecox.quadrature import (GL_MAX_NODES, gauss_legendre, integrate, integrate_halfline,
                                leggauss)

TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)


class TestFiniteInterval:
    def test_sine(self):
        val, err = integrate(np.sin, 0.0, math.pi, TIGHT)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert abs(val - 2.0) <= 10 * max(err, 1e-15)

    def test_polynomial_is_exact(self):
        # GK15 integrates low-degree polynomials to machine precision
        val, _ = integrate(lambda x: x**5 - 3 * x**2 + 1, -1.0, 2.0, TIGHT)
        exact = (2.0**6 - 1.0) / 6 - (2.0**3 + 1.0) + 3.0
        assert val == pytest.approx(exact, abs=1e-13)

    def test_narrow_peak_forces_subdivision(self):
        # Gaussian of width 1e-3 inside a unit interval
        f = lambda x: np.exp(-((x - 0.5) / 1e-3) ** 2)
        val, _ = integrate(f, 0.0, 1.0, TIGHT)
        assert val == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-8)

    def test_empty_interval(self):
        val, err = integrate(np.cos, 1.0, 1.0, TIGHT)
        assert val == 0.0 and err == 0.0

    def test_subdivision_budget_exhausted(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=4)
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


class TestNodes:
    def test_leggauss_matches_numpy(self):
        x, w = leggauss(64)
        xr, wr = np.polynomial.legendre.leggauss(64)
        assert np.allclose(x, xr) and np.allclose(w, wr)

    def test_leggauss_cached(self):
        assert leggauss(32) is leggauss(32)


# the transform's r-panels with c = 1: [0, 1], [1, 4], ..., [256, 1024]
PANELS = np.append(0.0, 4.0 ** np.arange(6))


def sqrt_at_edge(x, rows):
    # sqrt(x - 1) on [1, 4], whose derivative blows up at the panel's left edge; 1 elsewhere
    return np.where((x > 1.0) & (x < 4.0), np.sqrt(np.abs(x - 1.0)), 1.0)


class TestGaussLegendre:
    def test_polynomial_batch_exact_at_16_nodes(self):
        # 16 nodes integrate degree 31 exactly, 8 nodes only degree 15
        powers = np.array([3.0, 15.0, 24.0, 31.0])
        edges = np.tile([0.0, 0.5, 1.0, 2.0], (powers.size, 1))
        val = gauss_legendre(lambda x, rows: x ** powers[rows, None, None], edges, TIGHT)
        exact = np.diff(edges ** (powers[:, None] + 1.0), axis=1) / (powers[:, None] + 1.0)
        assert np.allclose(val, exact, rtol=1e-13, atol=0.0)

    def test_row_independent_of_batch(self):
        rates = np.array([0.5, 3.0, 40.0])
        edges = np.tile(PANELS, (rates.size, 1)) / 64.0

        def f(x, rows):
            return np.exp(-rates[rows, None, None] * x) + np.sqrt(x)

        batch = gauss_legendre(f, edges, TIGHT)
        for i in range(rates.size):
            alone = gauss_legendre(lambda x, rows: f(x, rows + i), edges[i:i + 1], TIGHT)
            assert np.array_equal(alone[0], batch[i])

    def test_only_the_unconverged_panel_refines(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=0.0)
        most = {}

        def f(x, rows):
            for panel in np.searchsorted(PANELS, x[:, 0, 0]) - 1:
                most[panel] = max(most.get(panel, 0), x.shape[-1])
            return sqrt_at_edge(x, rows)

        val = gauss_legendre(f, PANELS[None, :], spec).sum()
        assert most.pop(1) > 16
        assert set(most) == {0, 2, 3, 4, 5} and max(most.values()) == 16
        exact = 2.0 / 3.0 * 3.0 ** 1.5 + (PANELS[-1] - 3.0)
        assert abs(val - exact) <= spec.rel_tol * exact

    def test_not_converged_past_max_nodes(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0)
        with pytest.raises(QuadratureNotConverged, match=f"{GL_MAX_NODES} Gauss-Legendre") as exc:
            gauss_legendre(sqrt_at_edge, PANELS[None, :], spec)
        assert exc.value.error_bound > spec.rel_tol * abs(exc.value.value)
