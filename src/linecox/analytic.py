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

so a single profile Phi_alpha, tabulated once per exponent as a cubic Hermite
on its own slope Phi' (table and direct evaluation agree to the requested
relative tolerance, or the build raises), serves every (s, p, mu, nu)
combination.  The full transform is then

    L(s) = exp(-2 lambda_l * int_0^inf (1 - e^(-J(r))) dr) * exp(-J(0)),

the two factors being other-line and own-line interference.  The semicircle
average picks its own node count per (s, r-panel) pair (see ``laplace_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np
from scipy.special import betainc, gammainc

from .core import (
    LatencyVariant,
    NetworkParams,
    QuadratureNotConverged,
    QuadratureSpec,
    ZeroSpeed,
    validate,
)
from .quadrature import (GK15_NODES, GK15_WEIGHTS, GL_MAX_NODES, GL_NODES, gauss_legendre,
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

_PHI_CACHE: dict[tuple[float, float], "_PhiProfile"] = {}

_PHI_YMAX = 200.0


def _half_line_moment(alpha: float) -> float:
    """int_0^inf (1 + w^2)^(-alpha/2) dw."""
    return 0.5 * math.sqrt(math.pi) * math.gamma((alpha - 1.0) / 2.0) / math.gamma(alpha / 2.0)


def _phi_direct(y: np.ndarray, alpha: float, slope: bool = False):
    """Phi_alpha by brute panel quadrature, vectorised over y; with slope=True,
    (Phi, Phi') with Phi'(y) = -2 alpha y int_0^inf rho^(alpha-2) / (1 + rho^alpha)^2 dx,
    rho^2 = y^2 + x^2, taken on the same nodes.

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
    d2 = y[:, None] ** 2 + (s_scale[:, None] * sh[None, :]) ** 2
    rho_a = d2 ** (alpha / 2.0)
    integrand = (s_scale[:, None] * ch[None, :]) / (1.0 + rho_a)
    phi = 2.0 * integrand @ wt
    if not slope:
        return phi
    return phi, -2.0 * alpha * y * ((integrand * rho_a / (d2 * (1.0 + rho_a))) @ wt)


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
# Laplace transform of the interference
# ---------------------------------------------------------------------------

# the outer r-integral runs over the panels [0, c], [c, 4c], ..., [4^4 c, 4^5 c]
# with c = max(nu, b); past R = 4^5 c its integrand is expanded in closed form
_R_PANELS = 6
_R_RATIO = 4.0
# (s, r, u) elements per batched pass: the working arrays stay near 128 KB each,
# so the dozen or so a pass holds fit in the heap malloc keeps between passes
# (at 2^16, 40k page faults per fig5 coverage curve)
_MAX_ELEMENTS = 2 ** 14
_U_NODES = 8  # semicircle nodes per side at the u-rule's first level
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

    def _line_exponent(self, r: np.ndarray, b: np.ndarray, nodes: np.ndarray,
                       use_table: bool = True) -> np.ndarray:
        """J at the offsets r (shape (k, m)) of k arguments with b = (s p)^(1/alpha),
        row i's semicircle average taken on nodes[i] nodes per side.

        After u = nu sin(phi), which removes the semicircle's endpoint
        singularities, the average takes its nodes on each of two sides.
        Phi(|r + u| / b) peaks at u = -r with width b, so for r < nu both
        sides end there (else they are [-pi/2, 0] and [0, pi/2]), and each
        side's nodes are graded exponentially toward its end nearest the peak.
        """
        p = self.params
        out = np.empty(r.shape)
        for n in np.unique(nodes):
            sel = np.flatnonzero(nodes == n)
            v, w = 0.5 * (leggauss(int(n))[0] + 1.0), 0.5 * leggauss(int(n))[1]
            r_flat, b_flat = (a.ravel() for a in np.broadcast_arrays(r[sel], b[sel, None]))
            j = np.empty(r_flat.size)
            # _phi_direct expands each of its arguments over 255 nodes
            step = max(1, _MAX_ELEMENTS // (2 * int(n) * (1 if use_table else 255)))
            for i in range(0, r_flat.size, step):
                # arrays are (side, node, element), so that loops run along the elements
                rc, bc = r_flat[i:i + step], b_flat[i:i + step]
                inside = rc < p.nu
                anchor = np.where(inside, -np.arcsin(np.minimum(rc / p.nu, 1.0)),
                                  np.array([[-_HALF_PI], [0.0]]))
                width = np.where(inside, np.array([[-_HALF_PI], [_HALF_PI]]),
                                 np.array([[0.0], [_HALF_PI]])) - anchor
                c = np.log1p(np.abs(width) * p.nu / (bc + np.abs(rc + p.nu * np.sin(anchor))))
                grow = np.expm1(c)
                # nodes anchor + width (e^(c v) - 1) / grow, with dphi/dv =
                # |width| c e^(c v) / grow; u = nu sin(phi) brings cos^2(phi)
                rise = np.exp(c[:, None] * v[:, None])
                scale = (width / grow)[:, None]
                sin = np.sin((anchor[:, None] - scale) + scale * rise)
                cos2 = rise * (1.0 - sin * sin)
                arg = np.abs(rc + p.nu * sin) / bc
                phi = (self._profile(arg) if use_table
                       else _phi_direct(arg.ravel(), p.alpha).reshape(arg.shape))
                j[i:i + step] = ((w @ (phi * cos2)) * (np.abs(width) * c / grow)).sum(axis=0)
            out[sel] = j.reshape(sel.size, -1)
        return p.mu * b[:, None] * out / _HALF_PI

    def _u_rule(self, r: np.ndarray, b: np.ndarray, nodes: np.ndarray, g, weight: np.ndarray,
                tol: float, check: np.ndarray, use_table: bool = True, value=None):
        """(g(J_n), n, g(J_2n) at the columns ``check``) at the offsets r (shape (k, m)),
        value = g(J_n) if known: from nodes[i] per side, row i's n doubles until the
        sum over ``check`` of weight * |g(J_n) - g(J_2n)| is within tol."""
        if value is None:
            value = g(self._line_exponent(r, b, nodes, use_table))
        fine = (g(self._line_exponent(r[:, check], b, 2 * nodes, use_table)) if check.size
                else value[:, check])
        err = (weight[:, check] * np.abs(fine - value[:, check])).sum(axis=1)
        redo, nodes = err > tol, nodes.copy()
        if redo.any() and 4 * nodes[redo].max() > GL_MAX_NODES:
            raise QuadratureNotConverged(float(fine.sum()), float(err.max()), "semicircle")
        if redo.any():
            value[redo], nodes[redo], fine[redo] = self._u_rule(
                r[redo], b[redo], 2 * nodes[redo], g, weight[redo], tol, check, use_table,
                fine[redo] if check.size == r.shape[1] else None)
        return value, nodes, fine

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
        their product is laplace(s).

        Each exponent is held to rel_tol / 4.  An (s, r-panel) pair's u-count
        passes ``_u_rule`` on 1 - e^(-J), weighted by the r-rule, within the r
        tolerance over the panel count: at all nodes of the first r-pass, and
        past the second (where panels resolved at the first pass's nodes end)
        at the nodes nearer the panel edges, where an edge layer (r near nu,
        b << nu) shows.  J(0) is the rule's last J_2n: a count changing with s
        would step L(s).
        """
        flat, shaped = _batch(s, "transform argument")
        other, own = np.zeros(flat.size), np.zeros(flat.size)
        pos = np.flatnonzero(flat)
        if pos.size:
            p, q = self.params, self.quad
            b = (flat[pos] * p.power) ** (1.0 / p.alpha)
            edges = np.maximum(p.nu, b)[:, None] * np.append(0.0, _R_RATIO ** np.arange(_R_PANELS))
            half = 0.5 * np.diff(edges, axis=1)
            r_tol = max(q.abs_tol, 0.25 * q.rel_tol / (2.0 * p.lambda_l))
            u_nodes = np.full(half.shape, _U_NODES)  # per (s, r-panel)

            def outer(r: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
                x, w = leggauss(r.shape[-1])
                # u-differences checked: all, none, then beyond the first pass's reach
                reach = {GL_NODES: 0.0, 2 * GL_NODES: 1.0}.get(
                    len(x), np.abs(leggauss(GL_NODES)[0]).max())
                val, u_nodes[rows, cols], _ = self._u_rule(
                    r.reshape(len(rows), -1), b[rows], u_nodes[rows, cols],
                    lambda j: -np.expm1(-j), half[rows, cols, None] * w, r_tol / _R_PANELS,
                    np.flatnonzero(np.abs(x) > reach), use_table)
                return val[:, None, :]

            near = gauss_legendre(outer, edges, replace(q, abs_tol=r_tol)).sum(axis=1)
            other[pos] = 2.0 * p.lambda_l * (near + self._tail(flat[pos], edges[:, -1]))
            zero = np.zeros((pos.size, 1))
            _, _, j0 = self._u_rule(zero, b, np.full(pos.size, _U_NODES), lambda j: j, zero + 1.0,
                                    max(q.abs_tol, 0.25 * q.rel_tol), np.array([0]), use_table)
            own[pos] = j0[:, 0]
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

        def f(rho: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
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


def coverage_probability(params: NetworkParams, tau, quad: QuadratureSpec = QuadratureSpec()):
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
    h = gauss_legendre(lambda th, rows, cols: -np.expm1(-2.0 * mu * nu * np.cos(th)) * np.cos(th),
                       np.array([[0.0, _HALF_PI]]), quad)[0, 0]
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
    q = float(gauss_legendre(lambda th, rows, cols: np.exp(-z * np.cos(th)) * np.cos(th),
                             np.array([[0.0, _HALF_PI]]), quad)[0, 0])
    k = np.arange(1.0, 40.0 + 3.0 * span * q)  # later terms are below 1e-35 of the sum
    ein = float(np.sum(np.cumprod(span * q / k) / k))
    return ein / math.expm1(span) / (params.mu * params.speed)  # miss / (1 - miss) = 1 / expm1
