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
``CoverageSurface``, on the same xi-panels (``_r_edges``) and with the same
far tail (``_tail``).  Both refine by ``gauss_legendre`` (the transform in xi,
the surface in x = rho / nu), and both take the semicircle average on as
many nodes per side as that rule takes on the panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

from .core import (
    LatencyVariant,
    NetworkParams,
    NumericalError,
    QuadratureNotConverged,
    QuadratureSpec,
    ZeroSpeed,
    validate,
)
from .quadrature import (GL_MAX_NODES, GL_NODES, gauss_legendre, integrate, integrate_halfline,
                         leggauss)

__all__ = [
    "AFVariant", "DivergenceReport", "LaplaceEvaluator",
    "laplace", "coverage_probability", "area_spectral_efficiency", "CoverageSurface",
    "af_snapshot", "af_cumulative", "af_limit",
    "latency_ccdf", "mean_latency",
]

_LOG2 = math.log(2.0)


class AFVariant(Enum):
    """How the swept coverage region treats vehicle headings."""

    DIRECTION_BLIND = "direction-blind"
    DIRECTION_AWARE = "direction-aware"


@dataclass(frozen=True)
class DivergenceReport:
    """Returned instead of a mean when the latency tail does not vanish.

    ``tail_limit`` is the positive limit of the CCDF (the chance that no line
    ever sweeps the origin), which makes the unconditioned mean infinite.
    """

    variant: LatencyVariant
    tail_limit: float


# ---------------------------------------------------------------------------
# the universal per-exponent profile Phi_alpha
# ---------------------------------------------------------------------------

_PHI_CACHE: dict[tuple[float, float], "_PhiProfile"] = {}

_PHI_YMAX = 200.0


def _half_line_moment(alpha: float) -> float:
    """int_0^inf (1 + w^2)^(-alpha/2) dw."""
    return 0.5 * math.sqrt(math.pi) * math.gamma((alpha - 1.0) / 2.0) / math.gamma(alpha / 2.0)


# (y, node) pairs per _phi_direct pass, about 1 MiB per working array, so that a
# table build's memory does not grow with its knot count.  Freeing arrays this
# large also makes glibc malloc raise its mmap and trim thresholds, which keeps
# the transform's 128 KiB pass arrays on the heap: with 2^14-pair pieces an
# optimize fig10 run took 82k page faults instead of 1.9k, and 20% longer.
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

# a series or continued fraction stops once an element's relative step is this
# small: a few ulp, since 1e-16 is never reached and the loop would run to its cap
_STEP_TOL = 4.0 * np.finfo(float).eps
# the slowest case, the gamma fraction at t = a + 1 as a -> 0, takes 82 steps
_MAX_STEPS = 100


def _lower_gamma(a: float, t: np.ndarray) -> np.ndarray:
    """gamma(a, t) = int_0^t x^(a-1) e^-x dx for 0 < a < 1, elementwise over t >= 0.

    Below t = a + 1, t^a e^-t sum_n t^n / (a (a+1) ... (a+n)) (DLMF 8.7.1); from
    there, Gamma(a) less t^a e^-t times the continued fraction for Gamma(a, t)
    (DLMF 8.9.2; Numerical Recipes 3rd ed. 6.2), summed like the one in
    ``_beta_ratio``.  Both are sums whose next step is the last one times a
    factor, so one loop takes every element, each stopping at its own step.
    The fraction's denominators b_n + a_n D are ratios of Laguerre polynomials
    at -t <= 0, which have no zeros there, so none needs a guard.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    frac = flat >= a + 1.0
    b = flat + (1.0 - a)  # the fraction's b_0; b_n = b_0 + 2n
    d = 1.0 / b
    step = np.where(frac, d, 1.0 / a)
    total, out, left = step.copy(), np.empty(flat.size), np.ones(flat.size, dtype=bool)
    for n in range(1, _MAX_STEPS):
        b += 2.0
        d = 1.0 / (b - n * (n - a) * d)
        step *= np.where(frac, b * d - 1.0, flat / (a + n))
        total += step
        done = left & (np.abs(step) <= _STEP_TOL * total)
        np.copyto(out, total, where=done)
        left ^= done
        if not np.count_nonzero(left):
            break
    else:
        raise NumericalError(f"incomplete gamma at a={a:g}: {_MAX_STEPS} steps")
    out *= flat ** a * np.exp(-flat)
    return np.where(frac, math.gamma(a) - out, out).reshape(t.shape)


def _beta_ratio(a: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, 1 - a) = B_x(a, 1 - a) / B(a, 1 - a), the regularised incomplete beta
    function, for 0 < a < 1, elementwise over x in [0, 1].

    Below x = (a+1)/(a+b+2) = (a+1)/3, b = 1 - a, it is x^a (1-x)^b / (a B(a, b))
    times the continued fraction of DLMF 8.17.22 (Numerical Recipes 3rd ed.
    6.4); past it, 1 - I_(1-x)(b, a).  Each element carries its own (a', b',
    x'), so one loop serves both sides and each element stops at its own step.
    The fraction is summed by Steed's method: modified Lentz's recurrence for
    D, with the convergents' differences added up rather than multiplied, which
    rounds closer (with the product, one fig5 ASE value moved by an ulp).  The
    denominators 1 + d_k D stay above 2/3 for every a and x' below the swap
    (checked on a grid), so none needs a guard.
    """
    b = 1.0 - a
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    swap = flat > (a + 1.0) / 3.0
    ap, bp, xp = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, 1.0 - flat, flat)
    d = 1.0 / (1.0 - xp / (ap + 1.0))  # a' + b' = 1
    total, step, out, left = d.copy(), d - 1.0, np.empty(flat.size), np.ones(flat.size, dtype=bool)
    for m in range(1, _MAX_STEPS):
        # the terms d_2m = m (b' - m) x' / ((a' + 2m - 1)(a' + 2m)) and
        # d_2m+1 = -odd, odd = (a' + m)(a' + b' + m) x' / ((a' + 2m)(a' + 2m + 1))
        even = np.where(swap, m * (a - m) / ((b + 2 * m - 1) * (b + 2 * m)),
                        m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))) * xp
        d = 1.0 / (1.0 + even * d)
        step *= d - 1.0
        total += step
        odd = np.where(swap, (b + m) * (1 + m) / ((b + 2 * m) * (b + 2 * m + 1)),
                       (a + m) * (1 + m) / ((a + 2 * m) * (a + 2 * m + 1))) * xp
        d = 1.0 / (1.0 - odd * d)
        step *= d - 1.0
        total += step
        done = left & (np.abs(step) <= _STEP_TOL * total)
        np.copyto(out, total, where=done)
        left ^= done
        if not np.count_nonzero(left):
            break
    else:
        raise NumericalError(f"incomplete beta at a={a:g}: {_MAX_STEPS} steps")
    # B(a, 1 - a) = pi / sin(pi a), the sine taken at the smaller of a and b
    part = xp ** ap * (1.0 - xp) ** bp / ap * out / (math.pi / math.sin(math.pi * min(a, b)))
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

    def log_near(self, x: np.ndarray) -> np.ndarray:
        """log Phi at x = log(y + shift), x inside the knots."""
        pos = (x - self.knots[0]) * ((self.knots.size - 1) / (self.knots[-1] - self.knots[0]))
        i = np.minimum(pos.astype(np.intp), self.knots.size - 2)
        t = pos - i
        # a row at a time: one (4, n) gather is 512 KiB at a full transform pass,
        # above glibc's mmap threshold unless something freed a larger block first,
        # and then every pass maps and faults in fresh pages
        c0, c1, c2, c3 = (row.take(i) for row in self.coef)
        return ((c0 * t + c1) * t + c2) * t + c3

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        # past _PHI_YMAX the lookup reads the last knot and is overwritten
        out = np.exp(self.log_near(np.log(np.minimum(y, _PHI_YMAX) + _PHI_SHIFT)))
        far = y > _PHI_YMAX
        if far.any():
            yf = y[far]
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

# the outer integral runs over the panels [0, c], [c, 4c], ..., [4^4 c, 4^5 c] in
# xi = r / nu, with c = max(1, beta); past 4^5 c its integrand is expanded in closed form
_R_PANELS = 6
_R_RATIO = 4.0
# (s, r, u) elements per batched pass: the working arrays stay near 128 KB each,
# so the dozen or so a pass holds fit in the heap malloc keeps between passes
# (at 2^16, 40k page faults per fig5 coverage curve)
_MAX_ELEMENTS = 2 ** 14
_HALF_PI = 0.5 * math.pi


def _r_edges(beta: np.ndarray) -> np.ndarray:
    """The r-panel edges in xi of each beta, shape (beta.size, _R_PANELS + 1)."""
    return np.maximum(1.0, beta)[:, None] * np.append(0.0, _R_RATIO ** np.arange(_R_PANELS))


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
    k = np.empty(x_flat.size)
    step = max(1, _MAX_ELEMENTS // (2 * n))
    for i in range(0, x_flat.size, step):
        # arrays are (side, node, element), so that loops run along the elements
        xc, bc = x_flat[i:i + step], b_flat[i:i + step]
        inside = xc < 1.0
        anchor = np.where(inside, -np.arcsin(np.minimum(xc, 1.0)),
                          np.array([[-_HALF_PI], [0.0]]))
        width = np.where(inside, np.array([[-_HALF_PI], [_HALF_PI]]),
                         np.array([[0.0], [_HALF_PI]])) - anchor
        c = np.log1p(np.abs(width) / (bc + np.abs(xc + np.sin(anchor))))
        grow = np.expm1(c)
        # nodes anchor + width (e^(c v) - 1) / grow, with dphi/dv =
        # |width| c e^(c v) / grow; v = sin(phi) brings cos^2(phi)
        rise = np.exp(c[:, None] * v[:, None])
        scale = (width / grow)[:, None]
        sin = np.sin((anchor[:, None] - scale) + scale * rise)
        cos2 = rise * (1.0 - sin * sin)
        phi = profile(np.abs(xc + sin) / bc)
        k[i:i + step] = ((w @ (phi * cos2)) * (np.abs(width) * c / grow)).sum(axis=0)
    return beta[:, None] * k.reshape(xi.shape) / _HALF_PI


def _tail(profile: _PhiProfile, m, beta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """int_xi^inf (1 - exp(-m k(x; beta))) dx for the large-x form of k, m = mu nu
    (a float, or an array broadcast against beta and xi).

    Phi's large-y terms and E[v^2] = 1/4 give m k = A x^(1-alpha) (1 + alpha
    (alpha-1) / (8 x^2)) + B x^(1-2 alpha), A = m a1 beta^alpha, B = m a2
    beta^(2 alpha).  The A term integrates exactly: with k = 1 / (alpha-1) and
    T = A x^(1-alpha) to A^k [gamma(1-k, T) - (1 - e^-T) T^-k], gamma the lower
    incomplete gamma function; the others enter to first
    order.  What is left out is of relative order xi^-4, T xi^-2 and
    (beta / xi)^alpha.
    """
    alpha, sp = profile.alpha, beta ** profile.alpha
    a = m * profile.tail_a1 * sp
    k, t = 1.0 / (alpha - 1.0), a * xi ** (1.0 - alpha)
    return (a ** k * (_lower_gamma(1.0 - k, t) + np.expm1(-t) * t ** -k)
            + a * (alpha - 1.0) * xi ** -alpha / 8.0
            + m * profile.tail_a2 * sp ** 2 * xi ** (2.0 - 2.0 * alpha) / (2.0 * alpha - 2.0))


def _batch(x, name: str):
    """``x`` flat, checked finite and >= 0, and the map giving a result x's shape (a
    float for a scalar)."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):
        raise ValueError(f"{name} must be finite and >= 0, got {x}")
    return arr.ravel(), lambda v: float(v[0]) if arr.ndim == 0 else v.reshape(arr.shape)


class LaplaceEvaluator:
    """Laplace transform of interference seen by the typical vehicle, plus the
    coverage and throughput functionals built on it.

    One instance is tied to one parameter set.  The transform and coverage
    take a scalar (giving a float) or an array, evaluated in batched array
    passes; no element's value depends on the rest of the batch.
    """

    def __init__(self, params: NetworkParams, quad: QuadratureSpec = QuadratureSpec()):
        self.params, self.quad = validate(params), quad
        self._profile = _phi_profile(params.alpha, quad.rel_tol)

    def laplace_factors(self, s):
        """(other-line factor, own-line factor) of L(s), elementwise over s;
        their product is laplace(s).

        Power enters only through beta = (s p)^(1/alpha) / nu.  Each exponent
        is held to rel_tol / 4, so the xi-integral to max(abs_tol, rel_tol /
        (8 lambda_l nu)).  At each xi-node the semicircle average takes as
        many nodes per side as the xi-rule takes on that panel, so the rule's
        n-to-2n differences, and its refinement, cover both.
        """
        flat, shaped = _batch(s, "transform argument")
        other, own = np.zeros(flat.size), np.zeros(flat.size)
        pos = np.flatnonzero(flat)
        if pos.size:
            p, q = self.params, self.quad
            m, span = p.mu * p.nu, 2.0 * p.lambda_l * p.nu
            beta = (flat[pos] * p.power) ** (1.0 / p.alpha) / p.nu
            edges = _r_edges(beta)
            xi_tol = max(q.abs_tol, 0.25 * q.rel_tol / span)

            def outer(xi: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
                k = _line_exponent(self._profile, xi[:, 0], beta[rows], xi.shape[-1])
                return -np.expm1(-m * k)[:, None, :]

            near = gauss_legendre(outer, edges, replace(q, abs_tol=xi_tol))[0].sum(axis=1)
            other[pos] = span * (near + _tail(self._profile, m, beta, edges[:, -1]))
            own[pos] = self._own_exponent(beta, max(q.abs_tol, 0.25 * q.rel_tol))
        return shaped(np.exp(-other)), shaped(np.exp(-own))

    def _own_exponent(self, beta: np.ndarray, tol: float) -> np.ndarray:
        """mu nu k(0; beta): the count per side doubles from GL_NODES until
        mu nu |k_2n - k_n| <= tol, and the last k_2n is kept (a count changing
        with s would step L(s)); past GL_MAX_NODES it raises."""
        m, zero = self.params.mu * self.params.nu, np.zeros((beta.size, 1))
        out, left, n = np.empty(beta.size), np.arange(beta.size), GL_NODES
        coarse = m * _line_exponent(self._profile, zero, beta, n)[:, 0]
        while left.size:
            if 2 * n > GL_MAX_NODES:
                raise QuadratureNotConverged(float(coarse[0]), float(err.max()), "semicircle")
            fine = m * _line_exponent(self._profile, zero[left], beta[left], 2 * n)[:, 0]
            err = np.abs(fine - coarse)
            done = err <= tol
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
        taus, shaped = _batch(tau, "tau")
        p = self.params

        def f(rho: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            s = taus[rows, None, None] * rho ** p.alpha / p.power
            return 2.0 * rho / p.nu ** 2 * self.laplace(s)

        val = gauss_legendre(f, np.tile([0.0, p.nu], (taus.size, 1)), self.quad)[0][:, 0]
        # P(SIR > 0) = 1, where the rule's sum of 2 rho / nu^2 may round below 1
        return shaped(np.where(taus > 0.0, np.minimum(1.0, val), 1.0))

    def ase(self) -> float:
        """Mean spatial throughput density, bit/s/Hz per km^2.

        lambda_l * mu * E[log2(1 + SIR)], with the expectation written as an
        integral of the interference transform against the serving-signal
        kernel K(z) = E[1 / (rho^alpha / p + z)]; the natural-log identity
        brings a 1/ln 2.  At z = c y^alpha, c = nu^alpha / p (so y = b / nu),
        K(z) dz = 2 y pi / sin(pi a) I_{1/(1+y^alpha)}(a, 1 - a) dy, a = 2 / alpha,
        I the regularised incomplete beta function.  That is smooth at y = 0 up
        to a y^(alpha-1) term, so [0, 1] is taken in t = y^(2/3), where the term
        is t^(3 alpha / 2 - 1) dt; past y = 1 it falls like alpha / y until L
        cuts it off, and the doubling blocks [1, 3], [3, 7], ... follow it.
        """
        p = self.params
        a, c = 2.0 / p.alpha, p.nu ** p.alpha / p.power

        def f(y: np.ndarray) -> np.ndarray:
            kernel = 2.0 * math.pi / math.sin(math.pi * a) * y * _beta_ratio(
                a, 1.0 / (1.0 + y ** p.alpha))
            return kernel * self.laplace(c * y ** p.alpha)

        head, _ = integrate(lambda t: 1.5 * np.sqrt(t) * f(t ** 1.5), 0.0, 1.0, self.quad)
        tail, _ = integrate_halfline(f, 1.0, self.quad, scale=2.0)
        return p.lambda_l * p.mu * (head + tail) / _LOG2


def laplace(params: NetworkParams, s, quad: QuadratureSpec = QuadratureSpec()):
    return LaplaceEvaluator(params, quad).laplace(s)


def coverage_probability(params: NetworkParams, tau, quad: QuadratureSpec = QuadratureSpec()):
    return LaplaceEvaluator(params, quad).coverage(tau)


def area_spectral_efficiency(params: NetworkParams,
                             quad: QuadratureSpec = QuadratureSpec()) -> float:
    return LaplaceEvaluator(params, quad).ase()


class CoverageSurface:
    """P(SIR > tau) at many (nu, mu) cells that share every other parameter of
    ``base``, all from one inner exponent.

    With x = rho / nu the transform's beta is tau^(1/alpha) x (power cancels),
    so k(xi; beta) of ``_line_exponent``, the costly part, depends on (alpha,
    tau) alone:

        p_c = int_0^1 2x exp(-2 lambda_l nu [int_0^inf (1 - e^(-mu nu k(xi; beta))) dxi]
                             - mu nu k(0; beta)) dx.

    Each cell is one row of a single ``gauss_legendre`` integral over x in
    [0, 1], so it refines, is accepted and raises like every other integral.
    A pass of n x-nodes reads its level n: k once for every cell, on n nodes
    per r-panel (``_r_edges``) and n semicircle nodes per side, with ``_tail``
    past the last panel; a cell adds only a pass over mu nu k.  A level
    depends only on (alpha, tau, quad, n) and is kept for later calls, and
    each cell's sums are its own, so no cell's value depends on the rest of
    the grid.
    """

    def __init__(self, base: NetworkParams, tau: float, quad: QuadratureSpec = QuadratureSpec()):
        if not 0 <= tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
        self.base, self.tau, self.quad = validate(base), float(tau), quad
        self._profile = _phi_profile(base.alpha, quad.rel_tol)
        self._levels: dict[int, tuple] = {}

    def _level(self, n: int) -> tuple:
        """(x-nodes with beta > 0, their r-weights, k at the r-nodes, k(0), (beta,
        last r-edge) for ``_tail``) of level n."""
        if n not in self._levels:
            t, w = leggauss(n)
            x = 0.5 * (t + 1.0)
            beta = self.tau ** (1.0 / self.base.alpha) * x
            pos = np.flatnonzero(beta)  # at beta = 0 (tau = 0) there is no interference
            beta = beta[pos]
            edges = _r_edges(beta)
            half = 0.5 * np.diff(edges, axis=1)[:, :, None]
            xi = (edges[:, :-1, None] + half * (t + 1.0)).reshape(pos.size, _R_PANELS * n)
            k = _line_exponent(self._profile, xi, beta, n)
            k0 = _line_exponent(self._profile, np.zeros((pos.size, 1)), beta, n)[:, 0]
            self._levels[n] = (pos, (half * w).reshape(xi.shape), k, k0, beta, edges[:, -1])
        return self._levels[n]

    def __call__(self, nu, mu) -> tuple[np.ndarray, np.ndarray]:
        """(p_c, difference estimate) per cell, over nu and mu broadcast together."""
        nu, mu = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(mu, dtype=float))
        for cell_nu, cell_mu in zip(nu.flat, mu.flat):
            validate(replace(self.base, nu=float(cell_nu), mu=float(cell_mu)))
        span, m = 2.0 * self.base.lambda_l * nu.ravel(), (mu * nu).ravel()

        def f(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            pos, r_weight, k, k0, beta, far = self._level(x.shape[-1])
            tail = _tail(self._profile, m[rows, None], beta, far)
            # the r-sums go a cell at a time, so their roundings are the same in any
            # grid; the rest is elementwise and takes all the pass's cells at once
            near = np.empty(tail.shape)
            for j, i in enumerate(rows):
                near[j] = -(r_weight * np.expm1(-m[i] * k)).sum(axis=1)
            out = 2.0 * x
            out[:, 0, pos] *= np.exp(-(span[rows, None] * (near + tail) + m[rows, None] * k0))
            return out

        value, diff = gauss_legendre(f, np.tile([0.0, 1.0], (m.size, 1)), self.quad)
        return np.minimum(1.0, value[:, 0]).reshape(nu.shape), diff[:, 0].reshape(nu.shape)


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


def af_snapshot(params: NetworkParams, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Fraction of the plane within nu of some vehicle at a fixed instant."""
    return af_cumulative(params, 0.0, quad)


def af_cumulative(params: NetworkParams, t, quad: QuadratureSpec = QuadratureSpec(),
                  variant: AFVariant = AFVariant.DIRECTION_AWARE):
    """Fraction of the plane swept by some vehicle disk within t seconds,
    elementwise over t.

    The direction-blind variant credits every vehicle within c(u) + v t of a
    point; the direction-aware one thins each line's traffic by heading, so
    the per-line exponent is mu (2 c(u) + v t) instead of 2 mu (c(u) + v t).
    At t = 0 both coincide with :func:`af_snapshot`.
    """
    validate(params)
    ts, shaped = _batch(t, "t")
    half = variant is AFVariant.DIRECTION_AWARE
    k = _sweep_exponent_integral(params, params.speed * ts, half, quad)
    return shaped(-np.expm1(-2.0 * params.lambda_l * k))


def af_limit(params: NetworkParams) -> float:
    """Long-run swept fraction: every line closer than nu eventually covers."""
    validate(params)
    return -math.expm1(-2.0 * params.lambda_l * params.nu)


def latency_ccdf(params: NetworkParams, w, quad: QuadratureSpec = QuadratureSpec(),
                 variant: LatencyVariant = LatencyVariant.DIRECTION_AWARE_CONDITIONED):
    """P(no vehicle disk has reached the origin by w seconds), elementwise over w.

    The conditioned variant divides out the event that some line passes
    within nu at all (probability 1 - exp(-2 lambda_l nu)), which is what the
    waiting time of a point that does eventually get covered obeys.
    """
    validate(params)
    ws, shaped = _batch(w, "w")
    half = variant is not LatencyVariant.DIRECTION_BLIND
    k = _sweep_exponent_integral(params, params.speed * ws, half, quad)
    raw = np.exp(-2.0 * params.lambda_l * k)
    if variant is LatencyVariant.DIRECTION_AWARE_CONDITIONED:
        miss = math.exp(-2.0 * params.lambda_l * params.nu)
        raw = np.maximum(0.0, (raw - miss) / -math.expm1(-2.0 * params.lambda_l * params.nu))
    return shaped(raw)


def mean_latency(params: NetworkParams,
                 quad: QuadratureSpec = QuadratureSpec(),
                 variant: LatencyVariant = LatencyVariant.DIRECTION_AWARE_CONDITIONED,
                 ) -> Union[float, DivergenceReport]:
    """Mean waiting time until first coverage, seconds.

    Only the conditioned variant has a finite mean: unconditioned CCDFs level
    off at the probability that no line ever comes within nu, so those
    variants return a :class:`DivergenceReport` with that tail limit instead.
    The conditioned CCDF is miss (e^(a x) - 1) / (1 - miss), x = e^(-mu v w), miss =
    e^(-2 lambda_l nu), a = 2 lambda_l nu int_0^(pi/2) e^(-2 mu nu cos t) cos t dt; the
    mean is miss / (1 - miss) Ein(a) / (mu v), Ein(a) = sum_k a^k / (k k!) (A&S 5.1.10).
    """
    validate(params)
    if variant is not LatencyVariant.DIRECTION_AWARE_CONDITIONED:
        return DivergenceReport(
            variant=variant,
            tail_limit=math.exp(-2.0 * params.lambda_l * params.nu),
        )
    if params.speed <= 0.0:
        raise ZeroSpeed([("speed", "mean latency needs speed > 0")])

    z, span = 2.0 * params.mu * params.nu, 2.0 * params.lambda_l * params.nu
    q, _ = integrate(lambda th: np.exp(-z * np.cos(th)) * np.cos(th), 0.0, _HALF_PI, quad)
    k = np.arange(1.0, 40.0 + 3.0 * span * q)  # later terms are below 1e-35 of the sum
    ein = float(np.sum(np.cumprod(span * q / k) / k))
    return ein / math.expm1(span) / (params.mu * params.speed)  # miss / (1 - miss) = 1 / expm1
