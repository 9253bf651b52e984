"""Closed-form evaluators: interference Laplace transform, coverage
probability, spectral efficiency, swept-coverage area fractions and latency
tails.

The interference functional reduces to nested one-dimensional integrals.
The along-line integral of sp / (d^alpha + sp) at perpendicular distance a is
b Phi_alpha(a / b), with b = (s p)^(1/alpha) and

    Phi_alpha(y) = 2 * int_0^inf dx / (1 + (y^2+x^2)^(alpha/2)),

tabulated once per exponent to the requested relative tolerance (see
``_phi_profile``).  Averaging over the device scatter, a line at distance
r = xi nu has the exponent m k(xi; beta), with m = mu nu, beta = b / nu and

    k(xi; beta) = beta * E_v[ Phi_alpha(|xi + v| / beta) ],   v ~ semicircle(1),

and the transform, with other-line and own-line factors, is

    L(s) = exp(-2 lambda_l nu * int_0^inf (1 - e^(-m k(xi; beta))) dxi) * exp(-m k(0; beta)).

So every result here depends on lengths only through lambda_l nu, mu nu and
beta.  One kernel, ``_line_exponent``, gives k to the transform and to
``_CellEngine`` (the coverage surface and the ASE), on the same xi-panels
(``_r_edges``) and with the same far tail (``_tail``).  Both refine by
``gauss_legendre`` (the transform in xi, the engine in its outer variable),
and both take the semicircle average on as many nodes per side as that rule
takes on the panel.

The swept-coverage laws, one entry point each, are views of one waiting time W:
``af_cumulative`` (at t = 0 the snapshot fraction), ``af_limit``, ``latency_ccdf`` and
``mean_latency``; their variants, ``AFVariant`` and ``LatencyVariant``, live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Optional

import numpy as np

from .core import (
    NetworkParams,
    NumericalError,
    QuadratureNotConverged,
    QuadratureSpec,
    ZeroSpeed,
    batch,
)
from .quadrature import GL_MAX_NODES, GL_NODES, gauss_legendre, integrate, leggauss

__all__ = [
    "AFVariant", "LatencyVariant", "LaplaceEvaluator",
    "laplace", "coverage_probability", "area_spectral_efficiency", "CoverageSurface",
    "af_cumulative", "af_limit", "latency_ccdf", "mean_latency",
]

_LOG2 = math.log(2.0)


class AFVariant(Enum):
    """How the swept coverage region treats vehicle headings."""

    DIRECTION_BLIND = "direction-blind"
    DIRECTION_AWARE = "direction-aware"


class LatencyVariant(Enum):
    """Which reading of the latency tail to evaluate.

    DIRECTION_BLIND counts every vehicle within the swept distance whether or
    not it is heading toward the gap; DIRECTION_AWARE keeps only approaching
    vehicles; the CONDITIONED flavour additionally conditions on the event
    that at least one line ever covers the origin, the law of the waiting time
    of a point that does get covered, and the only one with a finite mean.
    """

    DIRECTION_BLIND = "direction-blind"
    DIRECTION_AWARE = "direction-aware"
    DIRECTION_AWARE_CONDITIONED = "direction-aware-conditioned"


# ---------------------------------------------------------------------------
# the universal per-exponent profile Phi_alpha
# ---------------------------------------------------------------------------

_PHI_CACHE: dict[tuple[float, float], "_PhiProfile"] = {}

_PHI_YMAX = 200.0


def _half_line_moment(alpha: float) -> float:
    """int_0^inf (1 + w^2)^(-alpha/2) dw."""
    return 0.5 * math.sqrt(math.pi) * math.gamma((alpha - 1.0) / 2.0) / math.gamma(alpha / 2.0)


# (y, node) pairs per _phi_direct pass (about 1 MiB per array), so that a table build's
# memory does not grow with its knot count; freeing arrays this large also raises glibc's
# mmap threshold, which keeps the transform's pass buffers on the heap (with 2^14-pair
# pieces an optimize fig10 run took 82k page faults instead of 1.9k, and 20% longer)
_PHI_PIECE = 2 ** 17


def _phi_direct(y: np.ndarray, alpha: float, slope: bool = False):
    """Phi_alpha by brute panel quadrature, vectorised over y; with slope=True,
    (Phi, Phi') with Phi'(y) = -2 alpha y int_0^inf rho^(alpha-2) / (1 + rho^alpha)^2 dx,
    rho^2 = y^2 + x^2, taken on the same nodes.

    Substituting x = S sinh(u) with S = max(y, 1) puts the knee of the
    integrand at u = O(1) for every y, so one fixed layout of 15-node
    Gauss-Legendre panels (fine up to u = 4, geometric after) integrates the
    whole batch, _PHI_PIECE (y, node) pairs at a time; the tail beyond the
    last edge decays like exp((1-alpha) u) and the edge is placed so the
    remainder stays below 1e-12 relative.
    """
    y = np.asarray(y, dtype=float).ravel()
    u_last = max(8.0, 30.0 / (alpha - 1.0))
    edges = np.concatenate([np.linspace(0.0, 4.0, 11),
                            np.geomspace(4.0, u_last, 8)[1:]])
    half = 0.5 * np.diff(edges)
    x, w = leggauss(15)
    u = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()  # (panels*15,)
    wt = (half[:, None] * w).ravel()
    sh, ch = np.sinh(u), np.cosh(u)
    phi, dphi = np.empty(y.size), np.empty(y.size)
    step = max(1, _PHI_PIECE // u.size)
    for i in range(0, y.size, step):
        yc = y[i:i + step]
        s_scale = np.maximum(yc, 1.0)[:, None]
        # integrand (batch, nodes)
        d2 = yc[:, None] ** 2 + (s_scale * sh) ** 2
        rho_a = d2 ** (alpha / 2.0)
        integrand = (s_scale * ch) / (1.0 + rho_a)
        phi[i:i + step] = 2.0 * integrand @ wt
        if slope:
            dphi[i:i + step] = -2.0 * alpha * yc * ((integrand * rho_a / (d2 * (1.0 + rho_a))) @ wt)
    return (phi, dphi) if slope else phi


# ---------------------------------------------------------------------------
# the two incomplete special functions the closed forms need
# ---------------------------------------------------------------------------

# a few ulp: a relative step of 1e-16 is never reached, and the loop would run to its cap
_STEP_TOL = 4.0 * np.finfo(float).eps
# the slowest case, the gamma fraction near t = a + 1 as a -> 0, stops at round 83
_MAX_STEPS = 100


def _summed(what: str, total: np.ndarray, step: np.ndarray,
            factors: Callable[[int], Iterator[np.ndarray]]) -> np.ndarray:
    """A series or continued fraction, elementwise: round n = 1, 2, ... multiplies
    ``step`` by each factor ``factors(n)`` yields and adds it to ``total``.  Each
    element stops at the first round whose last step is within ``_STEP_TOL`` of its total."""
    out, left = np.empty(total.size), np.ones(total.size, dtype=bool)
    for n in range(1, _MAX_STEPS):
        for factor in factors(n):
            step *= factor
            total += step
        done = left & (np.abs(step) <= _STEP_TOL * total)
        np.copyto(out, total, where=done)
        left ^= done
        if not np.count_nonzero(left):
            return out
    raise NumericalError(f"{what}: {_MAX_STEPS} steps")


def _lower_gamma(a: float, t: np.ndarray) -> np.ndarray:
    """gamma(a, t) = int_0^t x^(a-1) e^-x dx for 0 < a < 1, elementwise over t >= 0.

    Below t = a + 1, t^a e^-t sum_n t^n / (a (a+1) ... (a+n)) (DLMF 8.7.1); from
    there, Gamma(a) less t^a e^-t times the continued fraction for Gamma(a, t)
    (DLMF 8.9.2; Numerical Recipes 3rd ed. 6.2), summed like ``_beta_ratio``'s; each
    takes one factor a round.  The fraction's denominators b_n + a_n D are ratios of
    Laguerre polynomials at -t <= 0, which have no zeros there, so none needs a guard.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    frac = flat >= a + 1.0
    b = flat + (1.0 - a)  # the fraction's b_0; b_n = b_0 + 2n
    d = 1.0 / b
    step = np.where(frac, d, 1.0 / a)

    def factors(n: int) -> Iterator[np.ndarray]:
        nonlocal b, d
        b += 2.0
        d = 1.0 / (b - n * (n - a) * d)
        yield np.where(frac, b * d - 1.0, flat / (a + n))

    out = _summed(f"incomplete gamma at a={a:g}", step.copy(), step, factors)
    out *= flat ** a * np.exp(-flat)
    return np.where(frac, math.gamma(a) - out, out).reshape(t.shape)


def _beta_ratio(a: float, x: np.ndarray, b: Optional[float] = None) -> np.ndarray:
    """I_x(a, b) = B_x(a, b) / B(a, b), the regularised incomplete beta function,
    for a, b > 0 (b = 1 - a, the ASE kernel's, unless given), elementwise over x in [0, 1].

    Below x = (a+1)/(a+b+2) it is x^a (1-x)^b / (a B(a, b)) times the continued
    fraction of DLMF 8.17.22 (Numerical Recipes 3rd ed. 6.4); past it,
    1 - I_(1-x)(b, a).  Each element carries its own (a', b', x'), so one
    ``_summed`` call, the even and the odd term a round, serves both sides.
    Steed's method adds the convergents' differences rather than multiplying them,
    which rounds closer (with the product, one fig5 ASE value moved by an ulp).
    The denominators 1 + d_k D stay above 2/3 for b = 1 - a, and above 2/(a+b+2)
    for b = 1/2 with a in [1/2, 12], at every x' below the swap (checked on a
    grid), so none needs a guard.
    """
    b = 1.0 - a if b is None else b
    ab = a + b  # exactly 1.0 for b = 1 - a, so that case keeps its bits
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    swap = flat > (a + 1.0) / (ab + 2.0)
    ap, bp, xp = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, 1.0 - flat, flat)
    d = 1.0 / (1.0 - ab * xp / (ap + 1.0))

    def factors(m: int) -> Iterator[np.ndarray]:
        # the terms d_2m = m (b' - m) x' / ((a' + 2m - 1)(a' + 2m)) and
        # d_2m+1 = -(a' + m)(a' + b' + m) x' / ((a' + 2m)(a' + 2m + 1))
        nonlocal d
        c = ap + 2 * m
        d = 1.0 / (1.0 + m * (bp - m) / ((c - 1) * c) * xp * d)
        yield d - 1.0
        d = 1.0 / (1.0 - (ap + m) * (ab + m) / (c * (c + 1)) * xp * d)
        yield d - 1.0

    out = _summed(f"incomplete beta at a={a:g}", d.copy(), d - 1.0, factors)
    # B(a, 1 - a) = pi / sin(pi a), the sine taken at the smaller of a and b
    whole = (math.pi / math.sin(math.pi * min(a, b)) if ab == 1.0
             else math.gamma(a) * math.gamma(b) / math.gamma(ab))
    part = xp ** ap * (1.0 - xp) ** bp / ap * out / whole
    return np.where(swap, 1.0 - part, part).reshape(x.shape)


# the table interpolates log Phi against x = log(y + _PHI_SHIFT): the profile is
# close to linear there (flat head, power-law tail), so a cubic Hermite on the
# exact slopes reaches tight tolerances with a few hundred knots
_PHI_SHIFT = 0.5


@dataclass(frozen=True)
class _PhiProfile:
    """Phi_alpha from a table: for y <= _PHI_YMAX, log Phi as the cubic Hermite
    interpolant of its values and exact slopes in log(y + _PHI_SHIFT) on
    uniform knots; beyond, two terms of the large-y expansion.

    ``coef`` holds each knot interval's cubic in the fraction t in [0, 1) of
    the way across it, highest power first; a lookup finds the interval by
    direct index, since the knots are uniform, and evaluates by Horner.
    """

    alpha: float
    knots: np.ndarray  # uniform in log(y + shift)
    coef: np.ndarray  # shape (4, knots - 1)
    tail_a1: float  # leading coefficient of the large-y expansion
    tail_a2: float

    @classmethod
    def from_knots(cls, alpha: float, knots: np.ndarray, logv: np.ndarray,
                   slope: np.ndarray) -> "_PhiProfile":
        """The cubic Hermite interpolant of logv with slopes d logv / d knot."""
        d = (knots[1] - knots[0]) * slope
        rise = np.diff(logv)
        coef = np.stack([d[:-1] + d[1:] - 2.0 * rise, 3.0 * rise - 2.0 * d[:-1] - d[1:],
                         d[:-1], logv[:-1]])
        return cls(alpha=alpha, knots=knots, coef=coef,
                   tail_a1=2.0 * _half_line_moment(alpha),
                   tail_a2=-2.0 * _half_line_moment(2.0 * alpha))

    def log_near(self, x: np.ndarray, out=None, index=None, part=None) -> np.ndarray:
        """log Phi at x = log(y + shift), x inside the knots; given out, index (intp) and
        part of x's shape, in them and in x, which ends as the fraction across an interval."""
        if out is None:
            x = np.array(x, dtype=float)
            out, index, part = np.empty_like(x), np.empty(x.shape, np.intp), np.empty_like(x)
        x -= self.knots[0]
        x *= (self.knots.size - 1) / (self.knots[-1] - self.knots[0])
        np.minimum(x, self.knots.size - 2, out=index, casting="unsafe")  # truncates, as astype
        x -= index
        self.coef[0].take(index, out=out, mode="clip")
        for row in self.coef[1:]:  # Horner
            out *= x
            out += row.take(index, out=part, mode="clip")
        return out

    def __call__(self, y: np.ndarray, out: np.ndarray, x: np.ndarray, index: np.ndarray):
        """Phi at y, taken in out, x and index (intp), arrays of y's shape, and in y."""
        far = y > _PHI_YMAX
        yf = y[far]
        # past _PHI_YMAX the lookup reads the last knot and is overwritten
        np.log(np.add(np.minimum(y, _PHI_YMAX, out=x), _PHI_SHIFT, out=x), out=x)
        np.exp(self.log_near(x, out, index, y), out=out)
        if yf.size:
            lead = yf ** (1.0 - self.alpha)
            out[far] = lead * (self.tail_a1 + self.tail_a2 * lead / yf)
        return out


def _phi_profile(alpha: float, rel_tol: float) -> _PhiProfile:
    """Build (or fetch) the tabulated profile for one path-loss exponent.

    Knots are refined until the interpolant reproduces direct evaluation at
    1/4, 1/2 and 3/4 of every interval to rel_tol / 4, which keeps interpolation
    invisible at the tolerances callers see; a table still short of that at
    10241 knots raises QuadratureNotConverged.
    """
    key = (float(alpha), float(rel_tol))
    prof = _PHI_CACHE.get(key)
    if prof is not None:
        return prof
    knots = np.linspace(math.log(_PHI_SHIFT),
                        math.log(_PHI_YMAX + _PHI_SHIFT), 161)
    # probes off-centre too (the cubic's leading error is antisymmetric in an
    # interval); resolution doubles globally, which keeps the knots uniform
    probes = np.array([0.25, 0.5, 0.75])
    for _ in range(7):
        # d log Phi / dx = (y + shift) Phi'(y) / Phi(y) at x = log(y + shift)
        phi, dphi = _phi_direct(np.exp(knots) - _PHI_SHIFT, alpha, slope=True)
        prof = _PhiProfile.from_knots(alpha, knots, np.log(phi), np.exp(knots) * dphi / phi)
        pts = (knots[:-1, None] + (knots[1] - knots[0]) * probes[None, :]).ravel()
        direct = np.log(_phi_direct(np.exp(pts) - _PHI_SHIFT, alpha))
        err = float(np.max(np.abs(prof.log_near(pts) - direct)))
        if err <= rel_tol / 4.0:
            _PHI_CACHE[key] = prof
            return prof
        knots = np.linspace(knots[0], knots[-1], 2 * knots.size - 1)
    raise QuadratureNotConverged(math.nan, err, f"Phi table for alpha={alpha:g} at "
                                                f"{prof.knots.size} knots")


# ---------------------------------------------------------------------------
# the line exponent in units of nu, and the Laplace transform of the interference
# ---------------------------------------------------------------------------

# the outer integral takes 2 to _R_MAX_PANELS panels [0, c], [c, 4c], ... in xi = r / nu,
# c = max(1, beta), then the closed form _tail from the last, where |xi + v| >= 3c.  Rows
# are padded to _XI_SHARES panels, so that the xi-rule splits its tolerance six ways: with
# three, its estimates missed the edge layer at xi = 1 (alpha 12, beta 0.01: 17 rel_tol)
_R_RATIO, _R_MAX_PANELS, _XI_SHARES = 4.0, 64, 6
# (s, r, u) elements per batched pass, which works in five buffers of up to 128 KB
# (at 2^16, 40k page faults per fig5 coverage curve)
_MAX_ELEMENTS = 2 ** 14
_HALF_PI = 0.5 * math.pi


def _xi_tol(quad: QuadratureSpec, span):
    """The xi-integral's tolerance, max(abs_tol, rel_tol / (4 span)) capped at 1/2: span times
    it is rel_tol / 4, and the cap binds only where even 1/2 moves the exponent less."""
    return np.minimum(np.maximum(quad.abs_tol, 0.25 * quad.rel_tol / span), 0.5)


def _underflows(alpha: float, m, span, beta: np.ndarray) -> np.ndarray:
    """Where the other-line factor e^-(span int_0^inf (1 - e^(-m k)) dxi) is 0.0 without
    integrating (m, span broadcast against beta): for beta >= 1, k >= beta Phi(2) >= 2 beta
    / (1 + 5^(alpha/2)) on xi <= beta, and e^-(span beta (1 - e^(-m beta Phi(2)))) is
    0.0.  Such a factor is not integrated: its far tail would overflow."""
    low = span * beta * -np.expm1(-2.0 * m * beta / (1.0 + 5.0 ** (0.5 * alpha)))
    return (beta >= 1.0) & (np.exp(-low) == 0.0)


def _tail_panels(profile: _PhiProfile, m, span, beta: np.ndarray, quad: QuadratureSpec):
    """Per beta, the fewest xi-panels past which ``_tail``'s bound R meets laplace_factors'
    tolerance (m, span broadcast against beta), or R <= L / 2 and e^(-span L / 2) <= abs_tol
    for L = X (1 - e^(-T(2X))) <= the tail: both factors are then within abs_tol of 0."""
    a, m, span = profile.alpha, *(np.asarray(v, dtype=float)[..., None] for v in (m, span))
    panels = np.zeros(np.broadcast(m, span, beta[..., None]).shape[:-1], dtype=int)
    tol = _xi_tol(quad, span)
    for p in range(2, _R_MAX_PANELS, 8):  # the tail's starts X after p, ..., p + 7 panels
        x = np.maximum(1.0, beta)[..., None] * _R_RATIO ** np.arange(p - 1.0, p + 7.0)
        x2, r = x ** -2.0, (beta[..., None] / x) ** a
        t = m * profile.tail_a1 * r * x
        terms = [x2 * x2 * (a - 1) * a * (a + 1) / 192, -t * x2 * a * (a - 1) / (16 * a - 8),
                 profile.tail_a2 / profile.tail_a1 * r * (x2 * (2 * a - 1) / 8 - t / (3 * a - 3)),
                 _half_line_moment(3 * a) / _half_line_moment(a) * r * r / (3 * a - 2)]
        rem = 2.0 * x * t * (abs(sum(terms)) + sum(map(abs, terms)) * (t + a * a * x2 + r))
        half = -0.5 * x * np.expm1(-t * 2.0 ** (1.0 - a))
        ok = (rem <= tol) | (rem <= half) & (np.exp(-span * half) <= quad.abs_tol)
        panels = np.where(panels | ~ok.any(axis=-1), panels, p + np.argmax(ok, axis=-1))
        if panels.all():
            return panels
    raise QuadratureNotConverged(math.nan, float(np.max(span * rem)), "far tail")


def _r_edges(beta: np.ndarray, panels: np.ndarray) -> np.ndarray:
    """The xi-panel edges c [0, 1, 4, ..., 4^(panels - 1)] of each beta, padded at the end."""
    j = np.arange(max(panels.max(initial=2), _XI_SHARES) + 1)
    return np.maximum(1.0, beta)[..., None] * np.where(
        j > 0, _R_RATIO ** (np.minimum(j, panels[..., None]) - 1.0), 0.0)


def _line_exponent(profile: _PhiProfile, xi: np.ndarray, beta: np.ndarray,
                   n: int) -> np.ndarray:
    """k(xi; beta) = beta E_v[Phi(|xi + v| / beta)], v ~ semicircle(1), at the offsets
    xi (shape (k, m)) of k arguments, on n nodes per side.

    After v = sin(phi), which removes the semicircle's endpoint singularities,
    the average takes its nodes on each of two sides.  Phi(|xi + v| / beta)
    peaks at v = -xi with width beta, so for xi < 1 both sides end there (else
    they are [-pi/2, 0] and [0, pi/2]), and each side's nodes are graded
    exponentially toward its end nearest the peak.
    """
    v, w = 0.5 * (leggauss(n)[0] + 1.0), 0.5 * leggauss(n)[1]
    x_flat, b_flat = (a.ravel() for a in np.broadcast_arrays(xi, beta[:, None]))
    k, step = np.empty(x_flat.size), max(1, min(_MAX_ELEMENTS // (2 * n), x_flat.size))
    buffers = [np.empty(2 * n * step) for _ in range(4)] + [np.empty(2 * n * step, np.intp)]
    for i in range(0, x_flat.size, step):
        xc, bc = x_flat[i:i + step], b_flat[i:i + step]
        # a pass works in the buffers, as (side, node, element): loops run along the elements
        rise, sin, phi, x, index = (a[:2 * n * xc.size].reshape(2, n, xc.size) for a in buffers)
        inside = xc < 1.0
        anchor = np.where(inside, -np.arcsin(np.minimum(xc, 1.0)),
                          np.array([[-_HALF_PI], [0.0]]))
        width = np.where(inside, np.array([[-_HALF_PI], [_HALF_PI]]),
                         np.array([[0.0], [_HALF_PI]])) - anchor
        c = np.log1p(np.abs(width) / (bc + np.abs(xc + np.sin(anchor))))
        grow = np.expm1(c)
        # nodes anchor + width (e^(c v) - 1) / grow, with dphi/dv =
        # |width| c e^(c v) / grow; v = sin(phi) brings cos^2(phi)
        np.exp(np.multiply(c[:, None], v[:, None], out=rise), out=rise)
        scale = (width / grow)[:, None]
        np.sin(np.add(np.multiply(scale, rise, out=sin), anchor[:, None] - scale, out=sin), out=sin)
        rise *= np.subtract(1.0, np.multiply(sin, sin, out=x), out=x)  # cos^2(phi)
        np.divide(np.abs(np.add(sin, xc, out=sin), out=sin), bc, out=sin)
        phi = np.multiply(profile(sin, phi, x, index), rise, out=phi)
        k[i:i + step] = ((w @ phi) * (np.abs(width) * c / grow)).sum(axis=0)
    return beta[:, None] * k.reshape(xi.shape) / _HALF_PI


def _tail(profile: _PhiProfile, m, beta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """int_xi^inf (1 - exp(-m k(x; beta))) dx for the large-x form of k, m = mu nu
    (a float, or an array broadcast against beta and xi).

    Phi's large-y terms and E[v^2] = 1/4 give m k = A x^(1-alpha) (1 + alpha
    (alpha-1) / (8 x^2)) + B x^(1-2 alpha), A = m a1 beta^alpha, B = m a2
    beta^(2 alpha).  The A term integrates exactly: with k = 1 / (alpha-1) and
    T = A x^(1-alpha) to A^k [gamma(1-k, T) - (1 - e^-T) T^-k], gamma the lower
    incomplete gamma function; the others enter to first order.  What is left out, of
    relative order xi^-4, T xi^-2 and r = (beta / xi)^alpha, is at most R = 2 xi T (|S| +
    (T + (alpha / xi)^2 + r) S'), S and S' the sum and the sum of sizes of its leading
    terms (alpha-1) alpha (alpha+1) xi^-4 / 192, -alpha (alpha-1) T xi^-2 / (16 alpha - 8),
    a2 / a1 r ((2 alpha - 1) xi^-2 / 8 - T / (3 alpha - 3)) and a3 / a1 r^2 / (3 alpha - 2).
    """
    alpha, sp = profile.alpha, beta ** profile.alpha
    a = m * profile.tail_a1 * sp
    k, t = 1.0 / (alpha - 1.0), a * xi ** (1.0 - alpha)
    return (a ** k * (_lower_gamma(1.0 - k, t) + np.expm1(-t) * t ** -k)
            + a * (alpha - 1.0) * xi ** -alpha / 8.0
            + m * profile.tail_a2 * sp ** 2 * xi ** (2.0 - 2.0 * alpha) / (2.0 * alpha - 2.0))


class LaplaceEvaluator:
    """Laplace transform of interference seen by the typical vehicle, plus the
    coverage built on it.

    One instance is tied to one parameter set.  The transform and coverage
    take a scalar (giving a float) or an array, evaluated in batched array
    passes; no element's value depends on the rest of the batch.
    """

    def __init__(self, params: NetworkParams, quad: QuadratureSpec = QuadratureSpec()):
        self.params, self.quad = params, quad
        self._profile = _phi_profile(params.alpha, quad.rel_tol)

    def laplace_factors(self, s):
        """(other-line factor, own-line factor) of L(s), elementwise over s;
        their product is laplace(s).

        Power enters only through beta = (s p)^(1/alpha) / nu.  Each exponent is held to
        rel_tol / 4 (the xi-integral to ``_xi_tol``).  At each xi-node the semicircle average
        takes as many nodes per side as the xi-rule takes on that panel, so the rule's n-to-2n
        differences, and its refinement, cover both.  A factor ``_underflows`` flags is 0.0.
        """
        flat, shaped = batch(s, "transform argument")
        other, own = np.zeros(flat.size), np.zeros(flat.size)
        pos = np.flatnonzero(flat)
        if pos.size:
            p, q = self.params, self.quad
            m, span = p.mu * p.nu, 2.0 * p.lambda_l * p.nu
            beta = (flat[pos] * p.power) ** (1.0 / p.alpha) / p.nu
            own[pos] = self._own_exponent(beta)
            far = _underflows(p.alpha, m, span, beta)
            other[pos[far]] = np.inf
            pos, beta = pos[~far], beta[~far]
            edges = _r_edges(beta, _tail_panels(self._profile, m, span, beta, q))
            xi_tol = _xi_tol(q, span)

            def outer(xi: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
                out, live = np.zeros(xi.shape), edges[rows, cols + 1] > edges[rows, cols]
                k = _line_exponent(self._profile, xi[live, 0], beta[rows[live]], xi.shape[-1])
                out[live, 0] = -np.expm1(-m * k)
                return out

            near = gauss_legendre(outer, edges, replace(q, abs_tol=xi_tol))[0].sum(axis=1)
            other[pos] = span * (near + _tail(self._profile, m, beta, edges[:, -1]))
        return shaped(np.exp(-other)), shaped(np.exp(-own))

    def _own_exponent(self, beta: np.ndarray) -> np.ndarray:
        """mu nu k(0; beta), the count per side doubling from GL_NODES until mu nu |k_2n -
        k_n| <= max(abs_tol, rel_tol / 4) or the own factor is within abs_tol; the last
        k_2n is kept (a count changing with s would step L(s)); past GL_MAX_NODES it raises."""
        q, m, zero = self.quad, self.params.mu * self.params.nu, np.zeros((beta.size, 1))
        out, left, n = np.empty(beta.size), np.arange(beta.size), GL_NODES
        coarse = m * _line_exponent(self._profile, zero, beta, n)[:, 0]
        while left.size:
            if 2 * n > GL_MAX_NODES:
                raise QuadratureNotConverged(float(coarse[0]), float(err.max()), "semicircle")
            fine = m * _line_exponent(self._profile, zero[left], beta[left], 2 * n)[:, 0]
            err = np.abs(fine - coarse)
            # the factor's error, err e^(-fine), against abs_tol: abs_tol e^fine would overflow
            done = (err <= max(q.abs_tol, 0.25 * q.rel_tol)) | (err * np.exp(-fine) <= q.abs_tol)
            out[left[done]] = fine[done]
            left, coarse, err, n = left[~done], fine[~done], err[~done], 2 * n
        return out

    def laplace(self, s):
        """L(s) = E[exp(-s I)] for the total interference power I, elementwise over s."""
        other, own = self.laplace_factors(s)
        return other * own

    # -- functionals --------------------------------------------------------

    def coverage(self, tau):
        """P(SIR > tau) for the typical vehicle and its own disk device,
        elementwise over tau.

        The serving distance has density 2 rho / nu^2 on [0, nu] and the
        fading average turns the tail into the transform at tau rho^alpha / p
        (transmit power cancels).
        """
        taus, shaped = batch(tau, "tau")
        p = self.params

        def f(rho: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            s = taus[rows, None, None] * rho ** p.alpha / p.power
            return 2.0 * rho / p.nu ** 2 * self.laplace(s)

        val = gauss_legendre(f, np.tile([0.0, p.nu], (taus.size, 1)), self.quad)[0][:, 0]
        # P(SIR > 0) = 1, where the rule's sum of 2 rho / nu^2 may round below 1
        return shaped(np.where(taus > 0.0, np.minimum(1.0, val), 1.0))


def laplace(params: NetworkParams, s, quad: QuadratureSpec = QuadratureSpec()):
    return LaplaceEvaluator(params, quad).laplace(s)


def coverage_probability(params: NetworkParams, tau, quad: QuadratureSpec = QuadratureSpec()):
    return LaplaceEvaluator(params, quad).coverage(tau)


class _CellEngine:
    """int g(x) exp(-2 lambda_l nu int_0^inf (1 - e^(-mu nu k(xi; beta))) dxi - mu nu
    k(0; beta)) dx over the panels ``edges`` at many (nu, mu) cells that share alpha and
    the map ``outer``: x -> (beta, g), and so k of ``_line_exponent``, the costly part.
    Each cell is one row of one ``gauss_legendre`` integral, so it refines, is accepted
    and raises like every other integral.  A pass of n nodes on panel j reads level
    (j, n): k(0), and k on n nodes per r-panel (``_r_edges``) and n semicircle nodes per
    side, each r-panel taken by a call of its own when a cell first needs it.  A cell adds
    a pass over mu nu k on the most ``_tail_panels`` of its rows, so no cell's value
    depends on the rest of the grid or on the levels already kept.
    """

    def __init__(self, profile: _PhiProfile, edges, outer):
        self._profile, self._edges, self._outer = profile, np.asarray(edges, dtype=float), outer
        self._levels: dict[tuple[int, int], tuple] = {}

    def __call__(self, span: np.ndarray, m: np.ndarray, quad: QuadratureSpec):
        """(integral, difference estimate) per cell, span = 2 lambda_l nu and m = mu nu."""

        def f(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            out, n, (t, w) = np.empty(x.shape), x.shape[-1], leggauss(x.shape[-1])
            for panel in set(cols.tolist()):  # not np.unique, whose first call imports 12 ms
                at = np.flatnonzero(cols == panel)
                if (panel, n) not in self._levels:
                    beta, weight = self._outer(x[at[0], 0])
                    pos = np.flatnonzero(beta)  # at beta = 0 (tau = 0) there is no interference
                    k0 = _line_exponent(self._profile, np.zeros((pos.size, 1)), beta[pos], n)
                    self._levels[panel, n] = (weight, pos, beta[pos], k0[:, 0], [])
                (weight, pos, beta, k0, ks), i = self._levels[panel, n], rows[at, None]
                # a (cell, node) pair whose factor underflows gives 0.0 and takes no tail
                live = ~_underflows(self._profile.alpha, m[i], span[i], beta)
                ml, spl, bl = (a[live] for a in np.broadcast_arrays(m[i], span[i], beta))
                panels = np.full(live.shape, 2)
                panels[live] = _tail_panels(self._profile, ml, spl, bl, quad)
                panels = panels.max(1, initial=2)
                edges = _r_edges(beta, np.full(beta.size, panels.max()))
                for j in range(len(ks), panels.max()):
                    lo, h = edges[:, j, None], 0.5 * np.diff(edges[:, j:j + 2])  # h: half-width
                    ks.append((h * w, _line_exponent(self._profile, lo + h * (t + 1), beta, n)))
                r_weight, k = (np.hstack(a) for a in zip(*ks))
                # the r-sums go a cell at a time, so their roundings are the same in any
                # grid; the rest is elementwise and takes all the pass's cells at once
                near = np.array([-(r_weight[:, :p] * np.expm1(-m[c] * k[:, :p])).sum(axis=1)
                                 for c, p in zip(i[:, 0], n * panels)])
                tail = np.zeros(live.shape)
                tail[live] = _tail(self._profile, ml, bl, edges[:, panels].T[live])
                out[at, 0] = weight
                out[at[:, None], 0, pos] *= np.where(
                    live, np.exp(-(span[i] * (near + tail) + m[i] * k0)), 0.0)
            return out

        value, diff = gauss_legendre(f, np.tile(self._edges, (m.size, 1)), quad)
        return value.sum(axis=1), diff.sum(axis=1)


class CoverageSurface:
    """P(SIR > tau) at many (nu, mu) cells that share every other parameter of
    ``base``: with x = rho / nu the transform's beta is tau^(1/alpha) x (power
    cancels), so p_c is the ``_CellEngine`` integral of x -> (tau^(1/alpha) x, 2x)
    on [0, 1], whose levels are kept with the surface."""

    def __init__(self, base: NetworkParams, tau: float, quad: QuadratureSpec = QuadratureSpec()):
        taus, shaped = batch(tau, "tau")
        self.base, self.tau, self.quad = base, shaped(taus), quad
        scale = self.tau ** (1.0 / base.alpha)
        self._engine = _CellEngine(_phi_profile(base.alpha, quad.rel_tol), [0.0, 1.0],
                                   lambda x: (scale * x, 2.0 * x))

    def __call__(self, nu, mu) -> tuple[np.ndarray, np.ndarray]:
        """(p_c, difference estimate) per cell, over nu and mu broadcast together."""
        nu, mu = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(mu, dtype=float))
        for cell_nu, cell_mu in zip(nu.flat, mu.flat):
            replace(self.base, nu=float(cell_nu), mu=float(cell_mu))  # checks the cell
        value, diff = self._engine(2.0 * self.base.lambda_l * nu.ravel(), (mu * nu).ravel(),
                                   self.quad)
        return np.minimum(1.0, value).reshape(nu.shape), diff.reshape(nu.shape)


# the ASE's t-panels, on which log2(1 + u), u = t / (1 - t), doubles: at lambda_l = mu =
# 1e-5, where L cuts off far out, the last takes 128 nodes (8 doubling blocks in u: 256)
_ASE_EDGES = np.array([0.0, 1 / 2, 3 / 4, 15 / 16, 255 / 256, 1.0])
_ASE_CACHE: dict[tuple[float, float], _CellEngine] = {}


def area_spectral_efficiency(params: NetworkParams,
                             quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Mean spatial throughput density lambda_l mu E[log2(1 + SIR)], bit/s/Hz per km^2.

    The expectation is the transform against the serving-signal kernel K(z) =
    E[1 / (rho^alpha / p + z)], over ln 2.  At z = c y^alpha, c = nu^alpha / p, beta
    is y, and K(z) dz = 2 y pi / sin(pi a) I_{1/(1+y^alpha)}(a, 1 - a) dy, a = 2 / alpha,
    I the regularised incomplete beta function; it falls like alpha / y until L cuts
    it off.  It is the ``_CellEngine`` integral of t -> (y, K dy/dt), y = (t / (1 -
    t))^(3/2), on ``_ASE_EDGES``; the engine is kept per (alpha, rel_tol) for a sweep.
    """
    p = params
    key, alpha, a = (float(p.alpha), float(quad.rel_tol)), p.alpha, 2.0 / p.alpha
    if key not in _ASE_CACHE:
        def outer(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            u = t / (1.0 - t)
            y = u ** 1.5
            kernel = 2.0 * math.pi / math.sin(math.pi * a) * y * _beta_ratio(
                a, 1.0 / (1.0 + y ** alpha))
            return y, kernel * 1.5 * np.sqrt(u) / (1.0 - t) ** 2

        _ASE_CACHE[key] = _CellEngine(_phi_profile(alpha, quad.rel_tol), _ASE_EDGES, outer)
    value, _ = _ASE_CACHE[key](np.array([2.0 * p.lambda_l * p.nu]), np.array([p.mu * p.nu]), quad)
    return p.lambda_l * p.mu * float(value[0]) / _LOG2


# ---------------------------------------------------------------------------
# swept coverage: area fractions and latency
# ---------------------------------------------------------------------------

def _sweep_exponent_integral(params: NetworkParams, extra: np.ndarray, half_extra: bool,
                             quad: QuadratureSpec) -> np.ndarray:
    """int_0^nu (1 - exp(-E(u))) du for the per-line covering probability,
    elementwise over the swept reach ``extra``.

    E(u) = 2 mu (c(u) + extra) when half_extra is False (every vehicle within
    the swept reach counts) and mu (2 c(u) + extra) when True (only vehicles
    approaching the origin sweep new ground), with c(u) = sqrt(nu^2 - u^2).
    The reach factors out: with x = exp(-mu extra), or exp(-2 mu extra), the
    integral is nu (h x + 1 - x), h = int_0^nu (1 - exp(-2 mu c(u))) du / nu
    taken after u = nu sin(theta), which removes the endpoint kink.
    """
    mu, nu = params.mu, params.nu
    h, _ = integrate(lambda th: -np.expm1(-2.0 * mu * nu * np.cos(th)) * np.cos(th),
                     0.0, _HALF_PI, quad)
    decay = (1.0 if half_extra else 2.0) * mu * np.asarray(extra)
    return nu * (h * np.exp(-decay) - np.expm1(-decay))


def _checked(variant: Enum, kind: type[Enum]) -> Enum:
    """``variant``, refused unless a member of ``kind``: the other variant enum's
    member of the same name would quietly select a different law."""
    if not isinstance(variant, kind):
        raise ValueError(f"variant must be a {kind.__name__}, got {variant!r}")
    return variant


def af_cumulative(params: NetworkParams, t, quad: QuadratureSpec = QuadratureSpec(),
                  variant: AFVariant = AFVariant.DIRECTION_AWARE):
    """Fraction of the plane swept by some vehicle disk within t seconds,
    elementwise over t.

    The direction-blind variant credits every vehicle within c(u) + v t of a
    point; the direction-aware one thins each line's traffic by heading, so
    the per-line exponent is mu (2 c(u) + v t) instead of 2 mu (c(u) + v t).
    At t = 0 both give the snapshot fraction, the share of the plane within nu
    of some vehicle at one instant.
    """
    ts, shaped = batch(t, "t")
    half = _checked(variant, AFVariant) is AFVariant.DIRECTION_AWARE
    k = _sweep_exponent_integral(params, params.speed * ts, half, quad)
    return shaped(-np.expm1(-2.0 * params.lambda_l * k))


def af_limit(params: NetworkParams) -> float:
    """Long-run swept fraction: every line closer than nu eventually covers."""
    return -math.expm1(-2.0 * params.lambda_l * params.nu)


def latency_ccdf(params: NetworkParams, w, quad: QuadratureSpec = QuadratureSpec(),
                 variant: LatencyVariant = LatencyVariant.DIRECTION_AWARE_CONDITIONED):
    """P(no vehicle disk has reached the origin by w seconds), elementwise over w.

    The conditioned variant divides out the event that some line passes
    within nu at all (probability 1 - exp(-2 lambda_l nu)), which is what the
    waiting time of a point that does eventually get covered obeys.
    """
    ws, shaped = batch(w, "w")
    half = _checked(variant, LatencyVariant) is not LatencyVariant.DIRECTION_BLIND
    k = _sweep_exponent_integral(params, params.speed * ws, half, quad)
    raw = np.exp(-2.0 * params.lambda_l * k)
    if variant is LatencyVariant.DIRECTION_AWARE_CONDITIONED:
        miss = math.exp(-2.0 * params.lambda_l * params.nu)
        raw = np.maximum(0.0, (raw - miss) / -math.expm1(-2.0 * params.lambda_l * params.nu))
    return shaped(raw)


# the largest x whose e^x is finite
_LOG_MAX = math.log(np.finfo(float).max)


def mean_latency(params: NetworkParams, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Mean waiting time until first coverage, seconds, of a point that does get
    covered: the mean of the DIRECTION_AWARE_CONDITIONED law of :func:`latency_ccdf`.

    It is the one finite mean: the unconditioned CCDFs level off at miss = e^(-2 lambda_l
    nu), the chance that no line ever comes within nu.  The conditioned CCDF is miss (e^(a
    x) - 1) / (1 - miss), x = e^(-mu v w), a = 2 lambda_l nu int_0^(pi/2) e^(-2 mu nu cos
    t) cos t dt; the mean is miss / (1 - miss) S(a) / (mu v), S(a) = sum_k a^k / (k k!) =
    Ei(a) - ln a - gamma (A&S 5.1.10; DLMF's Ein is the alternating series).  Once
    e^(2 lambda_l nu) overflows, S(a) is summed in log space and scaled by e^(-2 lambda_l nu).
    """
    if params.speed <= 0.0:
        raise ZeroSpeed([("speed", "mean latency needs speed > 0")])

    z, span = 2.0 * params.mu * params.nu, 2.0 * params.lambda_l * params.nu
    q, _ = integrate(lambda th: np.exp(-z * np.cos(th)) * np.cos(th), 0.0, _HALF_PI, quad)
    a = span * q
    if span <= _LOG_MAX:  # a <= span, so no term overflows either
        k = np.arange(1.0, 40.0 + 3.0 * a)  # later terms are below 1e-35 of the sum
        # miss / (1 - miss) = 1 / expm1
        scaled = float(np.sum(np.cumprod(a / k) / k)) / math.expm1(span)
    else:  # 1 - miss is 1 to double precision
        # ln(term) falls like (k - a)^2 / (2a) from its peak near k = a: past 10 sqrt(a)
        # the terms are below e^-50 of the peak
        width = 10.0 * math.sqrt(a)
        first, last = max(1, math.floor(a - width)), math.ceil(40.0 + a + width)
        k = np.arange(float(first), float(last))
        log_terms = k * math.log(a)
        log_terms -= np.log(k)
        log_terms -= np.fromiter(map(math.lgamma, range(first + 1, last + 1)), float, k.size)
        top = float(log_terms.max())
        log_terms -= top
        total = float(np.sum(np.exp(log_terms, out=log_terms)))
        scaled = math.exp(top + math.log(total) - span)
    return scaled / (params.mu * params.speed)
