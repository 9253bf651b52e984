"""Vectorised integration: adaptive Gauss-Kronrod and batched Gauss-Legendre.

The analytic formulas in this package are nests of one-dimensional integrals
whose integrands are cheap only when evaluated on whole arrays at once.
scipy's scalar quad interface forces one python call per abscissa, so this
module keeps a small global-adaptive G7/K15 scheme that hands the integrand
every active node in a single array and integrates half-line tails in
doubling blocks, and a Gauss-Legendre rule that takes a whole batch of
integrals in each array pass.

Integrands must accept and return float ndarrays of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .core import QuadratureNotConverged, QuadratureSpec

# 15-point Kronrod extension of 7-point Gauss, nodes ascending on [-1, 1].
GK15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
GK15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# embedded Gauss rule lives on the odd-indexed Kronrod nodes
G7_INDEX = np.arange(1, 15, 2)
G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# nodes per panel of the first batched Gauss-Legendre rule, and their cap
GL_NODES, GL_MAX_NODES = 8, 256


def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def _rule(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply G7/K15 to each segment [lo_i, hi_i]; returns (integral, error)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * GK15_NODES[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k15 = half * (fx @ GK15_WEIGHTS)
    g7 = half * (fx[:, G7_INDEX] @ G7_WEIGHTS)
    delta = np.abs(k15 - g7)
    # QUADPACK-style sharpened estimate, floored near machine precision
    err = np.where(delta > 0, (200.0 * delta) ** 1.5, 0.0)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * np.abs(k15))
    return k15, err


def integrate(f: Callable, a: float, b: float, spec: QuadratureSpec) -> tuple[float, float]:
    """Global-adaptive integral of ``f`` over [a, b].

    The worst segments are split in batches until the summed error estimate
    drops below max(abs_tol, rel_tol * |integral|) or the segment budget
    (spec.max_subdivisions) runs out, which raises QuadratureNotConverged
    carrying the best value and achieved bound.
    """
    if a == b:
        return 0.0, 0.0
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    vals, errs = _rule(f, lo, hi)

    while True:
        total = float(np.sum(vals))
        bound = float(np.sum(errs))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if bound <= tol:
            return total, bound
        if lo.size >= spec.max_subdivisions:
            raise QuadratureNotConverged(total, bound, f"interval [{a:g}, {b:g}]")
        # split the worst quartile (at least one, staying under the cap)
        n_split = max(1, lo.size // 4)
        n_split = min(n_split, spec.max_subdivisions - lo.size)
        worst = np.argsort(errs)[-n_split:]
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        mids = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[keep], lo[worst], mids])
        new_hi = np.concatenate([hi[keep], mids, hi[worst]])
        new_vals, new_errs = _rule(f, np.concatenate([lo[worst], mids]),
                                   np.concatenate([mids, hi[worst]]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        lo, hi = new_lo, new_hi


def integrate_halfline(f: Callable, a: float, spec: QuadratureSpec,
                       scale: float = 1.0, max_blocks: int = 80) -> tuple[float, float]:
    """Integral of ``f`` over [a, inf) for positive, eventually-decaying f.

    The range grows in doubling blocks [a, a+scale], [a+scale, a+3*scale],
    ... until one whole block contributes less than the tolerance; the
    reported error bound includes twice the last block as a tail allowance
    (exact for tails decaying at least like 1/x^2).
    """
    total = 0.0
    bound = 0.0
    width = scale
    left = a
    for _ in range(max_blocks):
        right = left + width
        # a block only needs to be accurate relative to the whole integral;
        # probe its magnitude so its absolute tolerance can scale with the
        # running total instead of demanding spec.abs_tol outright
        probe, _ = _rule(f, np.array([left]), np.array([right]))
        mag = abs(total) + abs(float(probe[0]))
        block_spec = replace(
            spec, abs_tol=max(spec.abs_tol, 0.25 * spec.rel_tol * mag))
        try:
            val, err = integrate(f, left, right, block_spec)
        except QuadratureNotConverged as exc:
            val, err = exc.value, exc.error_bound
        total += val
        bound += err
        if abs(val) <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            bound += 2.0 * abs(val)
            if bound > 10.0 * max(spec.abs_tol, spec.rel_tol * abs(total)):
                raise QuadratureNotConverged(total, bound,
                                             f"half-line from {a:g}")
            return total, bound
        left = right
        width *= 2.0
    raise QuadratureNotConverged(total, bound, f"tail from {a:g} still contributing")


def gauss_legendre(f: Callable, edges: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """Panel integrals (shape (m, panels)) of a batch of m integrands.

    Row i of ``edges`` holds the panel edges of integral i; ``f(x, rows,
    cols)`` gives the integrands ``rows`` at the nodes x, shape
    (len(rows), 1, n): panel cols[k] of integrand rows[k] per x[k].  Every
    panel is taken with n = GL_NODES, then 2n nodes, a call each, and a row
    is accepted once the sum of its panels' differences is within
    max(abs_tol, rel_tol * |value|).  Each further pass doubles n
    and, in the rows not yet accepted, takes again only the panels whose
    difference exceeds that tolerance over the panel count; past
    GL_MAX_NODES that raises QuadratureNotConverged.  A row's result does
    not depend on the rest of the batch.
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
        left = err > tol
        if not left.any():
            return value
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
