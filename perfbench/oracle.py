"""Independent reference values for the benchmark's correctness checks.

This script does not import linecox.  It evaluates the model written in the
docstrings of ``linecox/analytic.py`` by nested ``scipy.integrate.quad``:

* interference transform
      L(s) = exp(-2 lambda_l int_0^inf (1 - exp(-J(r))) dr) * exp(-J(0)),
      J(r) = mu E_u[Q(|r + u|)],   u the line-normal offset of a point uniform
                                   on the radius-nu disk (density
                                   2 sqrt(nu^2 - u^2) / (pi nu^2)),
      Q(a) = int_R s p / ((a^2 + x^2)^(alpha/2) + s p) dx;
* coverage  P(SIR > tau) = int_0^nu 2 rho / nu^2 L(tau rho^alpha / p) d rho;
* swept fractions with K(e) = int_0^nu (1 - exp(-mu (2 c(u) + e))) du,
  c(u) = sqrt(nu^2 - u^2) (direction-aware):
      af(t)   = 1 - exp(-2 lambda_l K(v t)),
      ccdf(w) = (exp(-2 lambda_l K(v w)) - m) / (1 - m),  m = exp(-2 lambda_l nu),
      E[W]    = int_0^inf ccdf(w) dw.

Each transform is computed with two different splittings of the outer
half-line; the larger of their difference and the quad error estimates is
stored as ``oracle_error``.  Run from the repository root:

    python3 perfbench/oracle.py [--out perfbench/reference.json]

It takes a few minutes and writes the whole file anew every time.
"""
from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

EPS = 1e-12
LIMIT = 400

# the presets of linecox.cli, restated (km, s, km/s)
SPEED_30KMH = 30.0 / 3600.0
FIG3 = dict(lambda_l=5.0, mu=5.0, nu=0.1, power=0.01, alpha=3.0, speed=SPEED_30KMH)
FIG5 = dict(lambda_l=3.0, mu=3.0, nu=0.1, power=1.0, alpha=3.0, speed=SPEED_30KMH)
FIG7 = dict(lambda_l=9.0, mu=3.0, nu=0.1, power=1.0, alpha=3.0, speed=SPEED_30KMH)
FIG8 = dict(lambda_l=3.0, mu=3.0, nu=0.1, power=1.0, alpha=3.0, speed=SPEED_30KMH)
FIG10_BASE = dict(lambda_l=3.0, mu=0.5, nu=0.5, power=1.0, alpha=3.0, speed=SPEED_30KMH)
FIG3_S = np.geomspace(1e-4, 0.1, 10)
FIG5_TAU_ENDS = [10.0 ** (0.0 / 10.0), 10.0 ** (20.0 / 10.0)]
FIG7_T = np.linspace(0.0, 400.0, 9)
FIG8_W = np.linspace(0.0, 100.0, 11)
# one cell of the fig10 coarse grid: nu index 1, mu index 1
FIG10_NU = float(np.linspace(0.1, 1.5, 8)[1])
FIG10_MU = float(np.linspace(0.25, 0.75, 4)[1])
FIG10_TAU = 1.0


def _quad(f, a, b, points=None):
    return quad(f, a, b, epsabs=0.0, epsrel=EPS, limit=LIMIT, points=points)


class Transform:
    """L(s) for one parameter set, by three nested quad calls."""

    def __init__(self, p: dict):
        self.p = p

    def along_line(self, a: float, sp: float) -> float:
        """Q(a): one interferer's mean Laplace deficit integrated along its line.

        x = c tan(theta) with c = max(|a|, (s p)^(1/alpha)) maps the half-line
        onto [0, pi/2), where the integrand vanishes like cos^(alpha-2).
        """
        alpha = self.p["alpha"]
        a2 = a * a
        c = max(abs(a), sp ** (1.0 / alpha))

        def f(theta):
            cos = math.cos(theta)
            if cos <= 0.0:
                return 0.0
            x = c * math.tan(theta)
            return sp * c / (cos * cos) / ((a2 + x * x) ** (0.5 * alpha) + sp)

        val, _ = _quad(f, 0.0, 0.5 * math.pi)
        return 2.0 * val

    def line_exponent(self, r: float, sp: float) -> float:
        """J(r) with the offset written u = nu sin(phi), which carries the
        density weight (2 / pi) cos^2(phi); the break sits where u = -r."""
        nu = self.p["nu"]

        def f(phi):
            cos = math.cos(phi)
            return self.along_line(r + nu * math.sin(phi), sp) * cos * cos

        pts = [-math.asin(r / nu)] if r < nu else None
        val, _ = _quad(f, -0.5 * math.pi, 0.5 * math.pi, points=pts)
        return self.p["mu"] * 2.0 / math.pi * val

    def value(self, s: float, split: float) -> tuple[float, float]:
        """(L(s), quad error of the exponent) with the half-line cut at split."""
        if s == 0.0:
            return 1.0, 0.0
        sp = s * self.p["power"]

        def outer(r):
            return -math.expm1(-self.line_exponent(r, sp))

        nu = self.p["nu"]
        near, e1 = _quad(outer, 0.0, split, points=[nu] if nu < split else None)
        far, e2 = quad(outer, split, math.inf, epsabs=0.0, epsrel=EPS, limit=LIMIT)
        expo = 2.0 * self.p["lambda_l"] * (near + far) + self.line_exponent(0.0, sp)
        return math.exp(-expo), 2.0 * self.p["lambda_l"] * (e1 + e2)

    def checked(self, s: float) -> tuple[float, float]:
        """L(s) and an error estimate from two splittings of the half-line."""
        b = (s * self.p["power"]) ** (1.0 / self.p["alpha"])
        scale = max(self.p["nu"], b)
        v1, e1 = self.value(s, 4.0 * scale)
        v2, e2 = self.value(s, 25.0 * scale)
        return v1, max(abs(v1 - v2), v1 * max(e1, e2))


def coverage(p: dict, tau: float) -> tuple[float, float]:
    tr = Transform(p)
    nu, alpha, power = p["nu"], p["alpha"], p["power"]

    def f(rho):
        if rho == 0.0:
            return 0.0
        val, _ = tr.value(tau * rho ** alpha / power, 4.0 * nu)
        return 2.0 * rho / (nu * nu) * val

    return _quad(f, 0.0, nu)


def uncovered_exponent(p: dict, extra: float) -> float:
    """nu - K(extra), integrated directly so the latency tail has no cancellation."""
    nu, mu = p["nu"], p["mu"]

    def f(u):
        c = math.sqrt(max(nu * nu - u * u, 0.0))
        return math.exp(-mu * (2.0 * c + extra))

    val, _ = _quad(f, 0.0, nu)
    return val


def af_cumulative(p: dict, t: float) -> float:
    two_lam = 2.0 * p["lambda_l"]
    return -math.expm1(two_lam * (uncovered_exponent(p, p["speed"] * t) - p["nu"]))


def af_limit(p: dict) -> float:
    return -math.expm1(-2.0 * p["lambda_l"] * p["nu"])


def latency_ccdf(p: dict, w: float) -> float:
    """(exp(-2 lambda K) - m) / (1 - m) written as m expm1(2 lambda (nu - K)) / (1 - m)."""
    two_lam = 2.0 * p["lambda_l"]
    miss = math.exp(-two_lam * p["nu"])
    gap = uncovered_exponent(p, p["speed"] * w)
    return miss * math.expm1(two_lam * gap) / -math.expm1(-two_lam * p["nu"])


def mean_latency(p: dict) -> tuple[float, float]:
    scale = 1.0 / (p["mu"] * p["speed"])
    head, e1 = _quad(lambda w: latency_ccdf(p, w), 0.0, 10.0 * scale)
    tail, e2 = quad(lambda w: latency_ccdf(p, w), 10.0 * scale, math.inf,
                    epsabs=0.0, epsrel=EPS, limit=LIMIT)
    return head + tail, e1 + e2


def build() -> dict:
    fig10 = dict(FIG10_BASE, nu=FIG10_NU, mu=FIG10_MU)
    out: dict = {"method": "nested scipy.integrate.quad, epsrel 1e-12"}

    tr = Transform(FIG3)
    rows = []
    for s in FIG3_S:
        value, err = tr.checked(float(s))
        rows.append({"s": float(s), "value": value, "oracle_error": err})
        print(f"transform s={s:.6g} L={value!r} err={err:.2e}", flush=True)
    out["transform_fig3"] = {"params": FIG3, "points": rows}

    cov = []
    for case, p, tau in (("fig5", FIG5, FIG5_TAU_ENDS[0]),
                         ("fig5", FIG5, FIG5_TAU_ENDS[1]),
                         ("fig10", fig10, FIG10_TAU)):
        value, err = coverage(p, tau)
        cov.append({"case": case, "params": p, "tau": tau, "value": value,
                    "oracle_error": err})
        print(f"coverage {case} tau={tau:g} p_c={value!r} err={err:.2e}", flush=True)
    out["coverage"] = cov

    out["af_cumulative_fig7"] = {
        "params": FIG7,
        "points": [{"t": float(t), "value": af_cumulative(FIG7, float(t))} for t in FIG7_T],
        "limit": af_limit(FIG7),
    }
    out["latency_ccdf_fig8"] = {
        "params": FIG8,
        "points": [{"w": float(w), "value": latency_ccdf(FIG8, float(w))} for w in FIG8_W],
    }
    lat = []
    for case, p in (("fig10", fig10), ("fig8", FIG8)):
        value, err = mean_latency(p)
        lat.append({"case": case, "params": p, "value": value, "oracle_error": err})
        print(f"mean latency {case} = {value!r} err={err:.2e}", flush=True)
    out["mean_latency"] = lat
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("reference.json")))
    args = parser.parse_args()
    started = time.perf_counter()
    ref = build()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
