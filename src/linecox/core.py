"""Shared types for the line-network model: parameters, units, estimates, tolerances.

Canonical units throughout the package are kilometres and seconds.  Config
files may declare lengths in m or km and speeds in km/h; :func:`convert_units`
maps them onto the canonical system once, at the boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "LinecoxError", "ParameterError", "AlphaOutOfRange", "NonPositiveDensity",
    "NegativeSpeed", "ZeroSpeed", "UnitParseError",
    "NumericalError", "QuadratureNotConverged", "WindowNotConverged", "EmptyFeasibleSet",
    "convert_units", "NetworkParams", "Estimate", "QuadratureSpec",
    "substream", "params_digest",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class LinecoxError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(LinecoxError):
    """A parameter set violates its contract.

    ``violations`` lists (field, message) pairs so that a single raise can
    report every offending field at once.
    """

    def __init__(self, violations: Sequence[tuple[str, str]]):
        self.violations = list(violations)
        msg = "; ".join(f"{f}: {m}" for f, m in self.violations)
        super().__init__(msg)


class AlphaOutOfRange(ParameterError):
    """Path-loss exponent outside (2, inf); interference diverges otherwise."""


class NonPositiveDensity(ParameterError):
    """A line, vehicle or device density that is not strictly positive."""


class NegativeSpeed(ParameterError):
    """Speed below zero (zero is legal except for latency quantities)."""


class ZeroSpeed(ParameterError):
    """Latency requested with speed = 0; waits would be infinite."""


class UnitParseError(ParameterError):
    """A quantity string whose unit suffix is not recognised."""

    def __init__(self, field_name: str, raw: str):
        super().__init__([(field_name, f"cannot parse quantity {raw!r}")])
        self.raw = raw


class NumericalError(LinecoxError):
    """Base class for numerical-convergence failures (CLI exit code 1)."""


class QuadratureNotConverged(NumericalError):
    """An integral hit its node cap before the tolerance.

    Carries the best value and the achieved error bound so callers can decide
    whether the partial answer is still useful.
    """

    def __init__(self, value: float, error_bound: float, detail: str = ""):
        self.value = value
        self.error_bound = error_bound
        msg = f"quadrature stalled at error bound {error_bound:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class WindowNotConverged(NumericalError):
    """Monte Carlo window doubling hit its cap while the remainder bracket was still wide."""

    def __init__(self, radius: float, half_width_over_se: float):
        self.radius = radius
        self.half_width_over_se = half_width_over_se
        super().__init__(
            f"window remainder still uncertain at radius {radius:g} km "
            f"(bracket half-width {half_width_over_se:.2f} standard errors)"
        )


class EmptyFeasibleSet(NumericalError):
    """No grid cell satisfies the latency constraint."""


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*(.*?)\s*$")

# factor maps raw unit -> canonical (km, s based)
_UNIT_TABLES: dict[str, dict[str, float]] = {
    "length": {"km": 1.0, "m": 1e-3, "": 1.0},
    "speed": {"km/h": 1.0 / 3600.0, "km/s": 1.0, "m/s": 1e-3, "": 1.0 / 3600.0},
    "line_density": {"/km": 1.0, "1/km": 1.0, "per km": 1.0, "": 1.0},
    "plain": {"": 1.0},
}

_FIELD_DIMENSION = {
    "lambda_l": "line_density",
    "mu": "line_density",
    "nu": "length",
    "speed": "speed",
    "power": "plain",
    "alpha": "plain",
}


def convert_units(value: float | str, field_name: str) -> float:
    """Parse a config-level quantity into canonical units (km, s).

    Accepts bare numbers or strings with a unit suffix ("100 m", "108 km/h").
    A bare speed is read as km/h, the unit used by config files; every other
    bare value is already canonical.  Unknown suffixes raise
    :class:`UnitParseError`, a negative speed raises :class:`NegativeSpeed`.
    """
    dimension = _FIELD_DIMENSION.get(field_name, "plain")
    table = _UNIT_TABLES[dimension]
    if isinstance(value, str):
        m = _QUANTITY_RE.match(value)
        if m is None:
            raise UnitParseError(field_name, value)
        number_part, unit = m.group(1), m.group(2)
        try:
            number = float(number_part)
        except ValueError:
            raise UnitParseError(field_name, value) from None
        if unit not in table:
            raise UnitParseError(field_name, value)
        factor = table[unit]
    else:
        number = float(value)
        factor = table[""]
    if field_name == "speed" and number < 0:
        raise NegativeSpeed([("speed", f"speed must be >= 0, got {value!r}")])
    return number * factor


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkParams:
    """Physical parameters of the line network, in canonical units, checked on
    construction (``replace`` and :meth:`scaled` included).  Every violation is
    collected before the raise, so one failure names every bad field; a single
    broken rule raises its specific error class, mixed failures a plain
    :class:`ParameterError`.

    lambda_l        line density (per km); the cylinder intensity is lambda_l/pi
    mu              vehicle density on each line (per km)
    nu              device-disk radius around each vehicle (km)
    speed           vehicle speed (km/s)
    power           transmit power (arbitrary linear unit; cancels in SIR)
    alpha           path-loss exponent, must exceed 2
    """

    lambda_l: float
    mu: float
    nu: float
    speed: float
    power: float = 1.0
    alpha: float = 3.0

    def __post_init__(self):
        violations: list[tuple[str, str, type]] = []

        def bad(field_name: str, message: str, cls: type = ParameterError) -> None:
            violations.append((field_name, message, cls))

        for name in ("lambda_l", "mu", "nu", "speed", "power", "alpha"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                bad(name, f"must be a finite number, got {v!r}")

        if not violations:
            if self.lambda_l <= 0:
                bad("lambda_l", f"line density must be > 0, got {self.lambda_l}",
                    NonPositiveDensity)
            if self.mu <= 0:
                bad("mu", f"vehicle density must be > 0, got {self.mu}", NonPositiveDensity)
            if self.nu <= 0:
                bad("nu", f"disk radius must be > 0, got {self.nu}")
            if self.speed < 0:
                bad("speed", f"speed must be >= 0, got {self.speed}", NegativeSpeed)
            if self.power <= 0:
                bad("power", f"transmit power must be > 0, got {self.power}")
            if self.alpha <= 2:
                bad("alpha", f"path-loss exponent must exceed 2, got {self.alpha}",
                    AlphaOutOfRange)

        if violations:
            classes = {cls for _, _, cls in violations}
            err_cls = classes.pop() if len(classes) == 1 else ParameterError
            raise err_cls([(f, m) for f, m, _ in violations])

    def scaled(self, kappa: float) -> "NetworkParams":
        """Unit-rescaled copy: densities / kappa, lengths and speed * kappa.

        Coverage in SIR terms, area fractions and latency are invariant under
        this map, which the test-suite exploits.
        """
        return replace(
            self,
            lambda_l=self.lambda_l / kappa,
            mu=self.mu / kappa,
            nu=self.nu * kappa,
            speed=self.speed * kappa,
        )

    def at_mean_speed(self, sigma: float) -> "NetworkParams":
        """Copy at the mean E[V] = v + sigma phi(x)/Phi(x), x = v/sigma, of speeds drawn
        iid per vehicle from normal(speed, sigma) truncated at zero; ``self`` at sigma = 0.
        Such carriers reach a point at the times of a Poisson process of rate (mu/2) E[V]
        per side (the mapping theorem, Kingman 1993, section 2.3), so the swept area
        fraction and the latency take random speeds as this one speed."""
        if not 0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if sigma == 0.0:
            return self
        x = self.speed / sigma
        mills = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) / math.erfc(-x / math.sqrt(2.0))
        return replace(self, speed=self.speed + sigma * mills)


def batch(x, name: str):
    """``x`` flat, checked finite and >= 0, and the map giving a result x's shape (a
    float for a scalar): the one check of every grid of s, tau, t or w."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):
        raise ValueError(f"{name} must be finite and >= 0, got {x}")
    return arr.ravel(), lambda v: float(v[0]) if arr.ndim == 0 else v.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not math.isfinite(self.value):
            raise ValueError(f"estimate value must be finite, got {self.value}")
        if not (self.std_error >= 0 and math.isfinite(self.std_error)):
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error}")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Estimate":
        """Mean with std error = sample standard deviation (ddof=1) / sqrt(n).

        A bool array of indicators is read through a uint8 view: the mean and
        std come out bit for bit as from its float copy, without the copy.
        """
        samples = np.asarray(samples)
        samples = (samples.view(np.uint8) if samples.dtype == bool
                   else samples.astype(float, copy=False))
        n = samples.size
        if n < 2:
            raise ValueError("need at least 2 samples for a standard error")
        return cls(
            value=float(np.mean(samples)),
            std_error=float(np.std(samples, ddof=1) / math.sqrt(n)),
            n_samples=n,
        )

    def z_score(self, reference: float) -> float:
        """Signed distance to ``reference`` in standard errors."""
        if self.std_error == 0.0:
            if self.value == reference:
                return 0.0
            return math.copysign(math.inf, self.value - reference)
        return (self.value - reference) / self.std_error


# ---------------------------------------------------------------------------
# numerical tolerances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances shared by the analytic evaluators.

    Each integral's error estimate must come below max(abs_tol, rel_tol *
    |value|).  Every integral is taken by Gauss-Legendre panels (a batch of
    integrals at a time for the transform over an array of s, coverage over
    an array of tau and the cells of a coverage surface),
    each panel with an n-node and a 2n-node rule; the sum of the panels'
    differences is the estimate, and only the panels whose difference exceeds
    the tolerance's share are taken again with n doubled.  The transform's
    exponents are dimensionless and each held to rel_tol / 4 (abs_tol a
    floor): mu nu k(0; beta) directly, or until its factor e^(-mu nu k(0; beta))
    is within abs_tol, and 2 lambda_l nu times an integral over xi = r / nu by
    holding that integral to rel_tol / (8 lambda_l nu).  The semicircle
    average inside takes as many nodes per side as the xi-rule takes on its
    panel, so the panel's difference estimates both.  The coverage surface
    and the ASE take both on as many nodes as their outer rule takes on its
    panel, so the outer difference estimates all three.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not (0 <= self.abs_tol < 1):
            raise ValueError(f"abs_tol must lie in [0, 1), got {self.abs_tol}")


# ---------------------------------------------------------------------------
# deterministic random streams
# ---------------------------------------------------------------------------

def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for (seed, key).

    Streams are derived with a counter-based bit generator keyed on the
    integer path, so a key always sees the same draws no matter how work is
    chunked.  The samplers read each stream across all realisations, items
    sorted by realisation.  ``seed`` is an integer >= 0, of any size.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def skip_ahead(rng: np.random.Generator, k: int) -> np.random.Generator:
    """A copy of Philox-backed ``rng`` that is k 64-bit draws further along.

    The copy draws what ``rng`` would draw after
    ``rng.bit_generator.random_raw(k)``, pending 32-bit half included, and
    ``rng`` itself is left untouched.  The cost does not depend on k.
    """
    state = rng.bit_generator.state
    bits = np.random.Philox(key=0)
    bits.state = state
    head = min(k, 4 - state["buffer_pos"])  # outputs left in the 4-word buffer
    bits.random_raw(head)
    if k > head:
        bits.advance((k - head) // 4)  # whole blocks; this empties the buffer
        bits.random_raw((k - head) % 4)
    moved = bits.state
    moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = moved
    return np.random.Generator(bits)


def params_digest(params: NetworkParams) -> str:
    """Short stable hash of a parameter set, for CSV provenance columns."""
    import hashlib

    # the seventh slot held a since-removed field; None keeps every hash as it was
    fields = (params.lambda_l, params.mu, params.nu, params.speed,
              params.power, params.alpha, None)
    blob = repr(fields).encode()
    return hashlib.blake2b(blob, digest_size=6).hexdigest()
