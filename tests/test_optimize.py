"""Utility surface, grid search and the latency constraint."""

import math

import numpy as np
import pytest

from linecox import optimize
from linecox.core import EmptyFeasibleSet, NetworkParams
from linecox.optimize import (
    GridSpec,
    OptimizeResult,
    UtilityWeights,
    _refinement_axis,
    optimize_grid,
    utility,
)

V = 30.0 / 3600.0
# deployment knobs nu and mu are swept; the rest stays fixed
BASE = NetworkParams(lambda_l=3.0, mu=0.5, nu=0.5, speed=V)
FIG10_GRID = GridSpec()
FIG10_WEIGHTS = UtilityWeights(w1=0.7, w2=0.3, tau=1.0)


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityWeights(w1=-0.1, w2=0.5)
        with pytest.raises(ValueError):
            UtilityWeights(w1=0.0, w2=0.0)
        with pytest.raises(ValueError):
            UtilityWeights(w1=0.5, w2=0.5, tau=-1.0)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nu=np.linspace(1.0, 0.5, 8))
        with pytest.raises(ValueError):
            GridSpec(nu=np.linspace(0.1, 1.5, 1))

    # nan compares false both ways, so an increasing-order check alone passes it
    @pytest.mark.parametrize("axis, values", [
        ("nu", (0.1, math.nan)),
        ("nu", (math.nan, 0.5)),
        ("nu", (0.1, math.inf)),
        ("mu", (0.25, math.nan)),
        ("mu", (math.nan, 0.5)),
        ("mu", (0.25, math.inf)),
    ])
    def test_grid_spec_rejects_non_finite(self, axis, values):
        with pytest.raises(ValueError, match=axis):
            GridSpec(**{axis: values})

    def test_grid_values(self):
        g = GridSpec(nu=np.linspace(0.1, 0.5, 5), mu=np.linspace(1.0, 2.0, 3))
        assert np.allclose(g.nu, np.linspace(0.1, 0.5, 5))
        assert np.allclose(g.mu, np.linspace(1.0, 2.0, 3))


class TestUtility:
    def test_pure_coverage(self):
        from linecox.analytic import coverage_probability
        from dataclasses import replace
        w = UtilityWeights(w1=1.0, w2=0.0, tau=1.0)
        val = utility(0.3, 0.6, BASE, w)
        cell = replace(BASE, nu=0.3, mu=0.6)
        assert val == pytest.approx(coverage_probability(cell, 1.0), rel=1e-10)

    def test_pure_area_fraction_closed_form(self):
        w = UtilityWeights(w1=0.0, w2=1.0)
        val = utility(0.3, 0.6, BASE, w)
        assert val == pytest.approx(1.0 - math.exp(-2.0 * BASE.lambda_l * 0.3),
                                    rel=1e-12)

    def test_linearity_through_cache(self):
        pc = utility(0.4, 0.5, BASE, UtilityWeights(w1=1.0, w2=0.0, tau=1.0))
        af = utility(0.4, 0.5, BASE, UtilityWeights(w1=0.0, w2=1.0, tau=1.0))
        combo = utility(0.4, 0.5, BASE, UtilityWeights(w1=0.7, w2=0.3, tau=1.0))
        assert combo == pytest.approx(0.7 * pc + 0.3 * af, abs=1e-12)

    def test_latency_term_subtracts(self):
        with_pen = utility(0.4, 0.5, BASE,
                           UtilityWeights(w1=0.7, w2=0.3, w3=0.001, tau=1.0))
        without = utility(0.4, 0.5, BASE, UtilityWeights(w1=0.7, w2=0.3, tau=1.0))
        assert with_pen < without


class TestGridSearch:
    def test_pure_af_maxes_nu_and_breaks_ties_down(self):
        res = optimize_grid(BASE, UtilityWeights(w1=0.0, w2=1.0), FIG10_GRID)
        assert res.nu_opt == FIG10_GRID.nu[-1]
        # every mu ties; the tie breaks toward the smallest
        assert res.mu_opt == FIG10_GRID.mu[0]

    def test_surface_shape_and_fields(self):
        res = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID)
        assert isinstance(res, OptimizeResult)
        assert len(res.surface) == len(FIG10_GRID.nu) * len(FIG10_GRID.mu)
        for cell in res.surface:
            assert cell.feasible
            assert math.isfinite(cell.utility)
            # no constraint and w3 = 0: latency never evaluated
            assert math.isnan(cell.latency)
        # the coarse optimum is the surface's best cell, ties to the smaller nu, then mu
        best = max(res.surface, key=lambda c: (c.utility, -c.nu, -c.mu))
        assert (res.coarse_nu_opt, res.coarse_mu_opt) == (best.nu, best.mu)

    def test_refinement_stays_within_one_cell(self):
        res = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID)
        nu_step = FIG10_GRID.nu[1] - FIG10_GRID.nu[0]
        mu_step = FIG10_GRID.mu[1] - FIG10_GRID.mu[0]
        assert abs(res.nu_opt - res.coarse_nu_opt) < nu_step
        assert abs(res.mu_opt - res.coarse_mu_opt) < mu_step
        # refinement can only improve on the coarse incumbent
        assert res.value >= max(c.utility for c in res.surface if c.feasible)


class TestRefinementReuse:
    def test_coarse_cells_evaluated_once(self, monkeypatch):
        seen = []
        evaluate = optimize._evaluate_cell

        def counted(nu, mu, *args):
            seen.append((nu, mu))
            return evaluate(nu, mu, *args)

        monkeypatch.setattr(optimize, "_evaluate_cell", counted)
        optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=30.0)
        # 8 x 4 coarse cells, then the 5 x 5 refinement less the 3 x 3 coarse cells in it
        assert len(seen) == 32 + 16
        assert len(set(seen)) == len(seen)

    def test_reuse_changes_no_result(self):
        res = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=30.0)
        nus, mus = np.array(FIG10_GRID.nu), np.array(FIG10_GRID.mu)
        assert nus[3] == res.coarse_nu_opt and mus[1] == res.coarse_mu_opt
        # the same refinement cells, every one evaluated afresh
        fresh = optimize_grid(BASE, FIG10_WEIGHTS,
                              GridSpec(nu=_refinement_axis(nus, 3), mu=_refinement_axis(mus, 1)),
                              constraint=30.0).surface
        cells = {(c.nu, c.mu): c for c in res.surface}
        shared = [c for c in fresh if (c.nu, c.mu) in cells]
        assert len(shared) == 9 and all(c == cells[(c.nu, c.mu)] for c in shared)
        cells.update({(c.nu, c.mu): c for c in fresh})
        # highest utility, ties to the smaller nu, then the smaller mu
        best = max((c for c in cells.values() if c.feasible),
                   key=lambda c: (c.utility, -c.nu, -c.mu))
        assert (res.nu_opt, res.mu_opt, res.value) == (best.nu, best.mu, best.utility)

    def test_refinement_axis(self):
        values = np.array([0.1, 0.3, 0.4, 1.0])
        assert np.array_equal(_refinement_axis(values, 1), [0.1, 0.2, 0.3, 0.35, 0.4])
        assert np.array_equal(_refinement_axis(values, 3), [0.4, 0.55, 0.7, 0.85, 1.0])


class TestConstraint:
    def test_constrained_never_beats_unconstrained(self):
        free = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID)
        tight = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=30.0)
        assert tight.value <= free.value
        for cell in tight.surface:
            if cell.feasible:
                assert cell.latency < 30.0

    def test_loose_constraint_matches_unconstrained(self):
        free = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID)
        loose = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=1e9)
        assert (loose.nu_opt, loose.mu_opt) == (free.nu_opt, free.mu_opt)

    @pytest.mark.parametrize("constraint", [math.nan, math.inf, -1.0])
    def test_bad_constraint_rejected(self, constraint):
        # nan used to pass the check and end in EmptyFeasibleSet "... < nan"
        with pytest.raises(ValueError, match="constraint"):
            optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=constraint)

    def test_zero_constraint_empty(self):
        with pytest.raises(EmptyFeasibleSet):
            optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=0.0)

    def test_feasible_domain_monotone(self):
        res = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=30.0)
        mask = np.array([c.feasible for c in res.surface]).reshape(len(FIG10_GRID.nu), -1)
        assert mask.shape == (len(FIG10_GRID.nu), len(FIG10_GRID.mu))
        assert mask.any()
        # latency falls as either knob grows, so feasibility is upward-closed
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                if mask[i, j]:
                    assert mask[i:, j:].all()

    def test_feasible_domain_extremes(self):
        loose = optimize_grid(BASE, FIG10_WEIGHTS, FIG10_GRID, constraint=1e9)
        assert all(c.feasible for c in loose.surface)
        small = GridSpec(nu=np.linspace(0.1, 0.2, 2), mu=np.linspace(0.25, 0.5, 2))
        with pytest.raises(EmptyFeasibleSet):
            optimize_grid(BASE, FIG10_WEIGHTS, small, constraint=1e-6)
