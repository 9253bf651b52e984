"""Vectorised integration by one rule: Gauss-Legendre panels, each taken with
n and 2n nodes, over a whole batch of integrals per array pass.

The analytic formulas in this package are nests of one-dimensional integrals
whose integrands are cheap only when evaluated on whole arrays at once, which
scipy's scalar quad interface (one python call per abscissa) cannot do.
Integrands must accept and return float ndarrays of the same shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import QuadratureNotConverged, QuadratureSpec

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# nodes per panel of the first pass, and their cap
GL_NODES, GL_MAX_NODES = 8, 256
# doubling blocks integrate_halfline takes before it raises
_HALFLINE_BLOCKS = 80


def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def gauss_legendre(f: Callable, edges: np.ndarray,
                   spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(panel integrals, their error estimates) of a batch of m integrands,
    each of shape (m, panels).

    Row i of ``edges`` holds the panel edges of integral i; ``f(x, rows,
    cols)`` gives the integrands ``rows`` at the nodes x, shape
    (len(rows), 1, n): panel cols[k] of integrand rows[k] per x[k].  Every
    panel is taken with n = GL_NODES, then 2n nodes, a call each; a panel's
    estimate is the difference of its last two values, and a row is accepted
    once its value is finite and the sum of its panels' estimates is within
    max(abs_tol, rel_tol * |value|).  Each further pass doubles n and, in the
    rows not yet accepted, takes again only the panels whose estimate exceeds
    that tolerance over the panel count; past GL_MAX_NODES that raises
    QuadratureNotConverged.  A row's result does not depend on the rest of
    the batch.
    """
    edges = np.asarray(edges, dtype=float)
    lo, half = edges[:, :-1], 0.5 * np.diff(edges, axis=1)
    panels = lo.shape[1]

    def rule(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
        x, w = leggauss(n)
        nodes = lo[rows, cols, None, None] + half[rows, cols, None, None] * (x + 1.0)
        return (f(nodes, rows, cols) @ w)[:, 0] * half[rows, cols]

    rows, cols = np.divmod(np.arange(lo.size), panels)
    n = 2 * GL_NODES
    coarse = rule(rows, cols, GL_NODES).reshape(lo.shape)
    value = rule(rows, cols, n).reshape(lo.shape)
    diff = np.abs(value - coarse)
    active = np.arange(len(edges))
    while True:
        total, err = value[active].sum(axis=1), diff[active].sum(axis=1)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        # err > tol is False for a NaN: accept only an err shown to be within tol
        left = ~((err <= tol) & np.isfinite(total))
        if not left.any():
            return value, diff
        if n >= GL_MAX_NODES:
            i = int(np.argmax(np.where(left, err, -1.0)))
            raise QuadratureNotConverged(float(total[i]), float(err[i]),
                                         f"{n} Gauss-Legendre nodes per panel")
        active, n = active[left], 2 * n
        k, cols = np.nonzero(diff[active] > tol[left, None] / panels)
        rows = active[k]
        fine = rule(rows, cols, n)
        diff[rows, cols] = np.abs(fine - value[rows, cols])
        value[rows, cols] = fine


def integrate(f: Callable, a: float, b: float, spec: QuadratureSpec) -> tuple[float, float]:
    """(integral of ``f`` over [a, b], its error estimate): ``gauss_legendre``
    on the single panel [a, b], with f taking only the nodes.

    Nothing is subdivided, so a feature narrower than the node spacing goes
    unseen: a Gaussian of width 1e-3 centred in [0, 1] is 0.0 at 8 and at 16
    nodes, which agree, and 0.0 is returned with a bound of 0.0.
    """
    value, diff = gauss_legendre(lambda x, rows, cols: f(x), np.array([[a, b]]), spec)
    return float(value[0, 0]), float(diff[0, 0])


def integrate_halfline(f: Callable, a: float, spec: QuadratureSpec,
                       scale: float = 1.0) -> tuple[float, float]:
    """Integral of ``f`` over [a, inf) for positive, eventually-decaying f.

    ``integrate`` takes the blocks [a, a+scale], [a+scale, a+3*scale], ...,
    each twice as wide as the last, until a block contributes at most
    max(abs_tol, rel_tol * |total|); a block that does not converge raises.
    The bound adds twice that last block for the tail beyond it, which covers
    tails decaying at least like x^(-log2 3).
    """
    total = bound = 0.0
    left, width = a, scale
    for _ in range(_HALFLINE_BLOCKS):
        val, err = integrate(f, left, left + width, spec)
        total, bound = total + val, bound + err
        if abs(val) <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, bound + 2.0 * abs(val)
        left, width = left + width, 2.0 * width
    raise QuadratureNotConverged(total, bound, f"tail from {a:g} still contributing")
