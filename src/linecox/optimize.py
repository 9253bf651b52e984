"""Utility surface evaluation and grid maximisation over (nu, mu).

The objective combines coverage, the long-run covered area fraction and an
optional mean-latency penalty.  The coverage of every cell of the search grid
comes from one ``CoverageSurface``, which shares one inner exponent across
the cells; no cell's value depends on the rest of the grid.  Cells are
reduced in (nu, mu) order so the argmax is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    EmptyFeasibleSet,
    NetworkParams,
    QuadratureSpec,
    validate,
)
from .analytic import CoverageSurface, af_limit, coverage_probability, mean_latency

__all__ = [
    "UtilityWeights",
    "GridSpec",
    "SurfaceCell",
    "OptimizeResult",
    "utility",
    "optimize_grid",
]


@dataclass(frozen=True)
class UtilityWeights:
    """Weights of the aggregate objective w1*p_c + w2*AF - w3*E[W]."""

    w1: float
    w2: float
    w3: float = 0.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        for name in ("w1", "w2", "w3", "tau"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.w1 + self.w2 <= 0:
            raise ValueError("at least one of w1, w2 must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (nu, mu) search grid: the values of each axis, evaluated as given."""

    nu: tuple[float, ...] = tuple(np.linspace(0.1, 1.5, 8))
    mu: tuple[float, ...] = tuple(np.linspace(0.25, 0.75, 4))

    def __post_init__(self) -> None:
        for name in ("nu", "mu"):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) < 2 or values[0] <= 0 or any(
                    b <= a for a, b in zip(values, values[1:])):
                raise ValueError(
                    f"{name} needs at least 2 positive, strictly increasing values, got {values}")
            object.__setattr__(self, name, values)

    def nu_values(self) -> np.ndarray:
        return np.array(self.nu)

    def mu_values(self) -> np.ndarray:
        return np.array(self.mu)


@dataclass(frozen=True)
class SurfaceCell:
    """One evaluated grid cell of the utility surface."""

    nu: float
    mu: float
    p_c: float
    af: float
    latency: float
    utility: float
    feasible: bool


@dataclass(frozen=True)
class OptimizeResult:
    nu_opt: float
    mu_opt: float
    value: float
    surface: tuple[SurfaceCell, ...]
    coarse_nu_opt: float
    coarse_mu_opt: float


def utility(
    nu: float,
    mu: float,
    base: NetworkParams,
    weights: UtilityWeights,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Aggregate objective at one (nu, mu), other parameters from ``base``."""
    if nu <= 0 or mu <= 0:
        raise ValueError(f"nu and mu must be positive, got ({nu}, {mu})")
    params = validate(replace(base, nu=nu, mu=mu))
    p_c = coverage_probability(params, weights.tau, quad) if weights.w1 > 0 else math.nan
    return _evaluate_cell(nu, mu, p_c, base, weights, quad, None).utility


def _evaluate_cell(
    nu: float,
    mu: float,
    p_c: float,
    base: NetworkParams,
    weights: UtilityWeights,
    quad: QuadratureSpec,
    constraint: Optional[float],
) -> SurfaceCell:
    """The cell (nu, mu) with its coverage p_c (NaN when w1 = 0) given."""
    params = replace(base, nu=nu, mu=mu)
    af = af_limit(params)
    need_latency = weights.w3 > 0 or constraint is not None
    latency = mean_latency(params, quad) if need_latency else math.nan
    value = weights.w1 * (p_c if weights.w1 > 0 else 0.0) + weights.w2 * af
    if weights.w3 > 0:
        value -= weights.w3 * latency
    feasible = constraint is None or latency < constraint
    return SurfaceCell(
        nu=nu, mu=mu, p_c=p_c, af=af, latency=latency, utility=value, feasible=feasible
    )


def _argmax(cells: list[SurfaceCell]) -> Optional[SurfaceCell]:
    # strict > over cells ordered by (nu, mu) ascending breaks ties toward
    # the smaller radius, then the smaller density
    best: Optional[SurfaceCell] = None
    for cell in cells:
        if not cell.feasible:
            continue
        if best is None or cell.utility > best.utility:
            best = cell
    return best


def _refinement_axis(values: np.ndarray, i: int) -> np.ndarray:
    """Five points around values[i]: its coarse neighbours with the midpoints
    between, so the even positions are coarse values; at an edge of the axis
    the one neighbouring step is halved twice."""
    axis = values[max(i - 1, 0):i + 2]
    while axis.size < 5:
        axis = np.insert(axis, np.arange(1, axis.size), 0.5 * (axis[:-1] + axis[1:]))
    return axis


def optimize_grid(
    base: NetworkParams,
    weights: UtilityWeights,
    grid: GridSpec = GridSpec(),
    constraint: Optional[float] = None,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: bool = True,
) -> OptimizeResult:
    """Exhaustively maximise the utility over the grid.

    ``constraint`` excludes cells whose mean latency is not strictly below it.
    With ``refine`` the incumbent's neighbourhood is re-searched at half the
    grid step (a quarter at an edge of the grid), reusing the cells of the
    coarse grid; the reported optimum comes from the union of both passes
    while ``surface`` always holds the full rectangular coarse grid.
    """
    validate(base)
    if constraint is not None and constraint < 0:
        raise ValueError(f"constraint must be >= 0, got {constraint}")
    nus = grid.nu_values()
    mus = grid.mu_values()
    surface = CoverageSurface(base, weights.tau, quad) if weights.w1 > 0 else None

    def evaluate(pairs: list[tuple[float, float]]) -> list[SurfaceCell]:
        """The cells at ``pairs``, their coverage taken in one surface call."""
        nu, mu = np.array(pairs).T
        p_c = surface(nu, mu)[0] if surface is not None else np.full(nu.size, math.nan)
        return [_evaluate_cell(float(a), float(b), float(c), base, weights, quad, constraint)
                for a, b, c in zip(nu, mu, p_c)]

    cells = evaluate([(float(nu), float(mu)) for nu in nus for mu in mus])
    best = _argmax(cells)
    if best is None:
        raise EmptyFeasibleSet(
            f"no grid cell satisfies mean latency < {constraint}"
        )
    coarse_nu, coarse_mu = best.nu, best.mu

    if refine:
        nu_axis = _refinement_axis(nus, int(np.argmin(np.abs(nus - best.nu))))
        mu_axis = _refinement_axis(mus, int(np.argmin(np.abs(mus - best.mu))))
        # a refinement cell on the coarse grid is taken from the first pass
        known = {(c.nu, c.mu): c for c in cells}
        fresh = [(float(nu), float(mu)) for nu in nu_axis for mu in mu_axis
                 if (float(nu), float(mu)) not in known]
        known.update({(c.nu, c.mu): c for c in evaluate(fresh)})
        refined_best = _argmax(sorted(known.values(), key=lambda c: (c.nu, c.mu)))
        if refined_best is not None:
            best = refined_best

    return OptimizeResult(
        nu_opt=best.nu,
        mu_opt=best.mu,
        value=best.utility,
        surface=tuple(cells),
        coarse_nu_opt=coarse_nu,
        coarse_mu_opt=coarse_mu,
    )
