"""Closed-form evaluators: interference Laplace transform, coverage
probability, spectral efficiency, swept-coverage area fractions and latency
tails.

The interference functional reduces to nested one-dimensional integrals.
For a line at perpendicular distance ``r`` from the receiver, averaging one
interferer's fading and device scatter and integrating its position along
the line gives a per-line exponent

    J(r) = mu * E_u[ Q(|r + u|) ],      u ~ semicircle(nu),

where Q(a) is the along-line integral of sp / (d^alpha + sp) at perpendicular
distance a.  Q scales: with b = (s p)^(1/alpha),

    Q(a) = b * Phi_alpha(a / b),   Phi_alpha(y) = 2 * int_0^inf dx / (1 + (y^2+x^2)^(alpha/2)),

so a single profile Phi_alpha, tabulated once per exponent and interpolated
with a monotone cubic (transparency: table and direct evaluation agree to the
requested relative tolerance), serves every (s, p, mu, nu) combination.  The
full transform is then

    L(s) = exp(-2 lambda_l * int_0^inf (1 - e^(-J(r))) dr) * exp(-J(0)),

the two factors being other-line and own-line interference.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np
from scipy.special import betainc, gammainc

from .core import (
    LatencyVariant,
    NetworkParams,
    QuadratureSpec,
    ZeroSpeed,
    validate,
)
from .quadrature import (GK15_NODES, GK15_WEIGHTS, gauss_legendre, integrate,
                         integrate_halfline, leggauss)

__all__ = [
    "AFVariant", "DivergenceReport", "LaplaceEvaluator",
    "laplace", "coverage_probability", "area_spectral_efficiency",
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

_PHI_LOCK = threading.Lock()
_PHI_CACHE: dict[tuple[float, float], "_PhiProfile"] = {}

_PHI_YMAX = 200.0


def _half_line_moment(alpha: float) -> float:
    """int_0^inf (1 + w^2)^(-alpha/2) dw."""
    return 0.5 * math.sqrt(math.pi) * math.gamma((alpha - 1.0) / 2.0) / math.gamma(alpha / 2.0)


def _phi_direct(y: np.ndarray, alpha: float) -> np.ndarray:
    """Phi_alpha by brute panel quadrature, vectorised over y.

    Substituting x = S sinh(u) with S = max(y, 1) puts the knee of the
    integrand at u = O(1) for every y, so one fixed panel layout (fine up to
    u = 4, geometric after) integrates the whole batch; the tail beyond the
    last edge decays like exp((1-alpha) u) and the edge is placed so the
    remainder stays below 1e-12 relative.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s_scale = np.maximum(y, 1.0)
    u_last = max(8.0, 30.0 / (alpha - 1.0))
    edges = np.concatenate([np.linspace(0.0, 4.0, 11),
                            np.geomspace(4.0, u_last, 8)[1:]])
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = (mid[:, None] + half[:, None] * GK15_NODES[None, :]).ravel()  # (panels*15,)
    wt = (half[:, None] * np.broadcast_to(GK15_WEIGHTS, (lo.size, 15))).ravel()
    sh, ch = np.sinh(u), np.cosh(u)
    # integrand (batch, nodes)
    x = s_scale[:, None] * sh[None, :]
    d2 = y[:, None] ** 2 + x ** 2
    integrand = (s_scale[:, None] * ch[None, :]) / (1.0 + d2 ** (alpha / 2.0))
    return 2.0 * integrand @ wt


# the table interpolates log Phi against log(y + _PHI_SHIFT): the profile is
# close to linear there (flat head, power-law tail), so a monotone cubic
# reaches tight tolerances with a few hundred knots
_PHI_SHIFT = 0.5


def _pchip_slopes(h: float, v: np.ndarray) -> np.ndarray:
    """PCHIP (Fritsch-Carlson) slopes at knots a uniform step h apart.

    Interior slopes are the weighted harmonic mean of the neighbouring secant
    slopes, zero where those differ in sign or vanish; the end slopes are the
    one-sided three-point estimate, clamped to preserve shape (Moler,
    Numerical Computing with MATLAB, 3.6).  This is scipy's
    PchipInterpolator rule.
    """
    m = np.diff(v) / h
    d = np.zeros_like(v)
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 2.0 / (1.0 / m[:-1] + 1.0 / m[1:]))
    for i, m0, m1 in ((0, m[0], m[1]), (-1, m[-1], m[-2])):
        end = (3.0 * m0 - m1) / 2.0
        if np.sign(end) != np.sign(m0):
            end = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(end) > 3.0 * abs(m0):
            end = 3.0 * m0
        d[i] = end
    return d


@dataclass(frozen=True)
class _PhiProfile:
    """Phi_alpha from a table: for y <= _PHI_YMAX, log Phi as a monotone cubic
    in log(y + _PHI_SHIFT) on uniform knots; beyond, two terms of the
    large-y expansion.

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
    def from_knots(cls, alpha: float, knots: np.ndarray, logv: np.ndarray) -> "_PhiProfile":
        """The cubic Hermite interpolant of logv with PCHIP slopes."""
        h = knots[1] - knots[0]
        d = h * _pchip_slopes(h, logv)
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
        c = self.coef.take(i, axis=1)
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

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
    every midpoint to rel_tol / 4, which keeps interpolation invisible at the
    tolerances callers see.  Fills are idempotent, so the lock only prevents
    duplicated work.
    """
    key = (float(alpha), float(rel_tol))
    prof = _PHI_CACHE.get(key)
    if prof is not None:
        return prof
    with _PHI_LOCK:
        prof = _PHI_CACHE.get(key)
        if prof is not None:
            return prof
        knots = np.linspace(math.log(_PHI_SHIFT),
                            math.log(_PHI_YMAX + _PHI_SHIFT), 161)
        logv = np.log(_phi_direct(np.exp(knots) - _PHI_SHIFT, alpha))
        target = rel_tol / 4.0
        # verify off-centre as well: the cubic's leading error term is
        # antisymmetric inside an interval and invisible at midpoints alone.
        # Resolution doubles globally until every probe passes; local
        # insertion is avoided because uneven spacing feeds error back into
        # neighbouring intervals through the shared derivative estimates.
        probes = np.array([0.25, 0.5, 0.75])
        for _ in range(7):
            prof = _PhiProfile.from_knots(alpha, knots, logv)
            h = np.diff(knots)
            pts = (knots[:-1, None] + h[:, None] * probes[None, :]).ravel()
            direct = np.log(_phi_direct(np.exp(pts) - _PHI_SHIFT, alpha))
            if np.max(np.abs(prof.log_near(pts) - direct)) <= target:
                break
            knots = np.linspace(knots[0], knots[-1], 2 * knots.size - 1)
            logv = np.log(_phi_direct(np.exp(knots) - _PHI_SHIFT, alpha))
        else:
            prof = _PhiProfile.from_knots(alpha, knots, logv)
        _PHI_CACHE[key] = prof
        return prof


# ---------------------------------------------------------------------------
# Laplace transform of the interference
# ---------------------------------------------------------------------------

# the outer r-integral runs over the panels [0, c], [c, 4c], ..., [4^4 c, 4^5 c]
# with c = max(nu, b); past R = 4^5 c its integrand is expanded in closed form
_R_PANELS = 6
_R_RATIO = 4.0
# (s, r, u) elements per batched pass: the working arrays stay near 0.5 MB each
_MAX_ELEMENTS = 2 ** 16
_HALF_PI = 0.5 * math.pi


def _batch(x, name: str):
    """``x`` flat, checked >= 0, and the map giving a result x's shape (a float for a scalar)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{name} must be >= 0, got {x}")
    return arr.ravel(), lambda v: float(v[0]) if arr.ndim == 0 else v.reshape(arr.shape)


class LaplaceEvaluator:
    """Laplace transform of interference seen by the typical vehicle, plus the
    coverage and throughput functionals built on it.

    One instance is tied to one parameter set.  The transform and coverage
    take a scalar (giving a float) or an array, evaluated in batched array
    passes; no element's value depends on the rest of the batch.
    """

    def __init__(self, params: NetworkParams, quad: QuadratureSpec = QuadratureSpec()):
        self.params = validate(params)
        self.quad = quad
        self._profile = _phi_profile(params.alpha, quad.rel_tol)

    # -- exponent profile ---------------------------------------------------

    def _line_exponent(self, r: np.ndarray, b: np.ndarray, nodes: int,
                       use_table: bool = True) -> np.ndarray:
        """J at the offsets r (shape (k, m)) of k arguments with b = (s p)^(1/alpha).

        After u = nu sin(phi), which removes the semicircle's endpoint
        singularities, the average takes ``nodes`` nodes on each of two sides.
        Phi(|r + u| / b) peaks at u = -r with width b, so for r < nu both
        sides end there (else they are [-pi/2, 0] and [0, pi/2]), and each
        side's nodes are graded exponentially toward its end nearest the peak.
        """
        p = self.params
        x, w = leggauss(nodes)
        v, w = 0.5 * (x + 1.0), 0.5 * w
        r_flat, b_flat = (a.ravel() for a in np.broadcast_arrays(r, b[:, None]))
        out = np.empty(r_flat.size)
        # _phi_direct expands each of its arguments over 255 nodes
        step = max(1, _MAX_ELEMENTS // (2 * nodes * (1 if use_table else 255)))
        for i in range(0, r_flat.size, step):
            rc, bc = r_flat[i:i + step, None, None], b_flat[i:i + step, None, None]
            inside = rc < p.nu
            anchor = np.where(inside, -np.arcsin(np.minimum(rc / p.nu, 1.0)),
                              np.array([[-_HALF_PI], [0.0]]))
            width = np.where(inside, np.array([[-_HALF_PI], [_HALF_PI]]),
                             np.array([[0.0], [_HALF_PI]])) - anchor
            c = np.log1p(np.abs(width) * p.nu / (bc + np.abs(rc + p.nu * np.sin(anchor))))
            grow = np.expm1(c)
            g = np.expm1(c * v) / grow
            sin = np.sin(anchor + width * g)
            weight = np.abs(width) * c * (g + 1.0 / grow) * w * (1.0 - sin * sin)
            arg = np.abs(rc + p.nu * sin) / bc
            phi = (self._profile(arg) if use_table
                   else _phi_direct(arg.ravel(), p.alpha).reshape(arg.shape))
            out[i:i + step] = (phi * weight).sum(axis=(1, 2))
        return p.mu * b[:, None] * out.reshape(r.shape) / _HALF_PI

    def _tail(self, s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """int_r^inf (1 - exp(-J)) dr for the large-r form of J.

        Phi's large-y terms and E[u^2] = nu^2 / 4 give J = A r^(1-alpha)
        (1 + alpha (alpha-1) nu^2 / (8 r^2)) + B r^(1-2 alpha), A = mu a1 s p,
        B = mu a2 (s p)^2.  The A term integrates exactly: with k = 1 / (alpha-1)
        and T = A r^(1-alpha) to A^k [Gamma(1-k) P(1-k, T) - (1 - e^-T) T^-k],
        P the regularised lower incomplete gamma function; the others enter
        to first order.  What is left out is of relative order (nu / r)^4,
        T (nu / r)^2 and (b / r)^alpha.
        """
        p, alpha = self.params, self.params.alpha
        a = p.mu * self._profile.tail_a1 * s * p.power
        k, t = 1.0 / (alpha - 1.0), a * r ** (1.0 - alpha)
        return (a ** k * (math.gamma(1.0 - k) * gammainc(1.0 - k, t) + np.expm1(-t) * t ** -k)
                + a * (alpha - 1.0) * p.nu ** 2 * r ** -alpha / 8.0
                + p.mu * self._profile.tail_a2 * (s * p.power) ** 2 * r ** (2.0 - 2.0 * alpha)
                / (2.0 * alpha - 2.0))

    def laplace_factors(self, s, use_table: bool = True):
        """(other-line factor, own-line factor) of L(s), elementwise over s;
        their product is laplace(s)."""
        flat, shaped = _batch(s, "transform argument")
        other, own = np.zeros(flat.size), np.zeros(flat.size)
        pos = np.flatnonzero(flat)
        if pos.size:
            p, q = self.params, self.quad
            b = (flat[pos] * p.power) ** (1.0 / p.alpha)
            edges = np.maximum(p.nu, b)[:, None] * np.append(0.0, _R_RATIO ** np.arange(_R_PANELS))

            def outer(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
                # the semicircle rule refines along with the r-rule
                j = self._line_exponent(r.reshape(len(rows), -1), b[rows], 2 * r.shape[-1],
                                        use_table)
                return -np.expm1(-j).reshape(r.shape)

            def own_line(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
                # J(0), constant over one panel: the rule refines its semicircle average
                j = self._line_exponent(np.zeros((len(rows), 1)), b[rows], 2 * x.shape[-1],
                                        use_table)
                return np.broadcast_to(j[:, :, None], x.shape)

            # an exponent error d moves L relatively by d: rel_tol / 4 for each part
            near = gauss_legendre(outer, edges, replace(q, abs_tol=max(
                q.abs_tol, 0.25 * q.rel_tol / (2.0 * p.lambda_l)))).sum(axis=1)
            other[pos] = 2.0 * p.lambda_l * (near + self._tail(flat[pos], edges[:, -1]))
            own[pos] = gauss_legendre(own_line, np.tile([0.0, 1.0], (pos.size, 1)), replace(
                q, abs_tol=max(q.abs_tol, 0.25 * q.rel_tol)))[:, 0]
        return shaped(np.exp(-other)), shaped(np.exp(-own))

    def laplace(self, s, use_table: bool = True):
        """L(s) = E[exp(-s I)] for the total interference power I, elementwise over s."""
        other, own = self.laplace_factors(s, use_table)
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

        def f(rho: np.ndarray, rows: np.ndarray) -> np.ndarray:
            s = taus[rows, None, None] * rho ** p.alpha / p.power
            return 2.0 * rho / p.nu ** 2 * self.laplace(s)

        val = gauss_legendre(f, np.tile([0.0, p.nu], (taus.size, 1)), self.quad)[:, 0]
        return shaped(np.minimum(1.0, val))

    def ase(self) -> float:
        """Mean spatial throughput density, bit/s/Hz per km^2.

        lambda_l * mu * E[log2(1 + SIR)], with the expectation written as an
        integral of the interference transform against the serving-signal
        kernel K(z) = E[1 / (rho^alpha / p + z)]; the natural-log identity
        brings a 1/ln 2.  K(z) = (2 / (alpha z)) (z / c)^a B(a, 1 - a)
        I_{c/(c+z)}(a, 1 - a), a = 2 / alpha, c = nu^alpha / p, I the
        regularised incomplete beta function.  The substitution z = y^3
        flattens the z -> 0 end, and the tail stops once the transform is
        below abs_tol.
        """
        p = self.params
        a, c = 2.0 / p.alpha, p.nu ** p.alpha / p.power

        def f(y: np.ndarray) -> np.ndarray:
            z = y ** 3
            lap = self.laplace(z)
            kernel = (2.0 / (p.alpha * z) * (z / c) ** a * math.pi / math.sin(math.pi * a)
                      * betainc(a, 1.0 - a, c / (c + z)))
            return np.where(lap < self.quad.abs_tol, 0.0, 3.0 * y ** 2 * kernel * lap)

        val, _ = integrate_halfline(f, 0.0, self.quad, scale=0.5)
        return p.lambda_l * p.mu * val / _LOG2


def laplace(params: NetworkParams, s, quad: QuadratureSpec = QuadratureSpec()):
    return LaplaceEvaluator(params, quad).laplace(s)


def coverage_probability(params: NetworkParams, tau,
                         quad: QuadratureSpec = QuadratureSpec()):
    return LaplaceEvaluator(params, quad).coverage(tau)


def area_spectral_efficiency(params: NetworkParams,
                             quad: QuadratureSpec = QuadratureSpec()) -> float:
    return LaplaceEvaluator(params, quad).ase()


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

    def f(theta: np.ndarray) -> np.ndarray:
        return -np.expm1(-2.0 * mu * nu * np.cos(theta)) * np.cos(theta)

    h, _ = integrate(f, 0.0, _HALF_PI, quad, min_intervals=2)
    decay = (1.0 if half_extra else 2.0) * mu * np.asarray(extra)
    return nu * (h * np.exp(-decay) - np.expm1(-decay))


def af_snapshot(params: NetworkParams,
                quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Fraction of the plane within nu of some vehicle at a fixed instant."""
    return af_cumulative(params, 0.0, quad)


def af_cumulative(params: NetworkParams, t,
                  quad: QuadratureSpec = QuadratureSpec(),
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


def latency_ccdf(params: NetworkParams, w,
                 quad: QuadratureSpec = QuadratureSpec(),
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
    variants return a :class:`DivergenceReport` with that tail limit instead
    of attempting the integral.  The conditioned tail decays like
    exp(-mu v w) and is integrated with doubling blocks.
    """
    validate(params)
    if variant is not LatencyVariant.DIRECTION_AWARE_CONDITIONED:
        return DivergenceReport(
            variant=variant,
            tail_limit=math.exp(-2.0 * params.lambda_l * params.nu),
        )
    if params.speed <= 0.0:
        raise ZeroSpeed([("speed", "mean latency needs speed > 0")])

    val, _ = integrate_halfline(lambda w: latency_ccdf(params, w, quad, variant), 0.0, quad,
                                scale=1.0 / (params.mu * params.speed))
    return val
