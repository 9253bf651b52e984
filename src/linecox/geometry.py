"""Sampling the road network: Poisson lines, vehicles on them, device disks.

A line is stored as (offset, angle): ``offset`` is the signed distance from
the origin to the line and ``angle`` the direction of that perpendicular
foot, so the line itself runs along (-sin angle, cos angle).  Angles live in
[0, pi); the isotropic sampler stays strictly inside while the Manhattan
variant uses exactly 0 and pi/2 for its two orientations.

The samplers return numpy arrays, (offsets, angles) for lines and
(abscissas, directions) for the vehicles of one line, and the snapshot
builders concatenate them into one :class:`Snapshot`.  Sampling windows are
explicit everywhere: a snapshot is complete for lines with |offset| <=
window_radius and vehicles with |abscissa| <= half_length.  These snapshots
serve plotting (``linecox geometry-dump``) and the motion checks; the
interference estimators in :mod:`montecarlo` sample their own windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import NetworkParams, SCHEMA_VERSION

__all__ = [
    "Snapshot",
    "sample_lines", "sample_manhattan_lines", "sample_vehicles_on_line",
    "snapshot_from_lines", "ordinary_snapshot", "palm_snapshot",
    "place_devices", "advance", "nearest_vehicle_distance", "snapshot_to_csv",
]

# array fields of a snapshot and the dtype each is stored in
_ARRAY_FIELDS = {
    "line_offset": float,
    "line_angle": float,
    "veh_line": np.intp,
    "veh_abscissa": float,
    "veh_direction": np.int8,  # +1 toward increasing abscissa, -1 the other way
}


@dataclass(frozen=True)
class Snapshot:
    """One realisation of the network, array-backed for bulk math.

    Line angles must lie in [0, pi).  Under Palm conditioning (``palm=True``)
    line 0 is the extra line through the origin (offset exactly 0, angle
    ``line_angle[0]``) and vehicle 0 is the conditioned-on vehicle sitting at
    abscissa 0 on it.  Every vehicle moves at the one ``speed`` (km/s); random
    speeds act as their mean (:meth:`NetworkParams.at_mean_speed`).  ``speed``,
    ``window_radius`` and ``half_length`` are finite and >= 0.
    """

    line_offset: np.ndarray
    line_angle: np.ndarray
    veh_line: np.ndarray
    veh_abscissa: np.ndarray
    veh_direction: np.ndarray
    speed: float
    window_radius: float
    half_length: float
    palm: bool = False
    device_xy: Optional[np.ndarray] = None  # (n_vehicles, 2) planar points

    def __post_init__(self):
        for name, dtype in _ARRAY_FIELDS.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("speed", "window_radius", "half_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.line_offset.shape != self.line_angle.shape:
            raise ValueError("line arrays disagree in length")
        # written so that a nan angle fails too
        if not np.all((self.line_angle >= 0.0) & (self.line_angle < math.pi)):
            raise ValueError(f"line angles must lie in [0, pi), got {self.line_angle}")
        n = self.veh_abscissa.size
        if not self.veh_line.size == self.veh_direction.size == n:
            raise ValueError("vehicle arrays disagree in length")
        if self.device_xy is not None:
            dev = np.asarray(self.device_xy, dtype=float)
            if dev.shape != (n, 2):
                raise ValueError(f"device_xy must have shape ({n}, 2)")
            dev.setflags(write=False)
            object.__setattr__(self, "device_xy", dev)
        if self.palm:
            if self.line_offset.size == 0 or self.line_offset[0] != 0.0:
                raise ValueError("palm snapshot must start with the through-origin line")
            if n == 0 or self.veh_line[0] != 0 or self.veh_abscissa[0] != 0.0:
                raise ValueError("palm snapshot must start with the vehicle at the origin")

    @property
    def n_lines(self) -> int:
        return self.line_offset.size

    @property
    def n_vehicles(self) -> int:
        return self.veh_abscissa.size

    def vehicle_xy(self) -> np.ndarray:
        """Planar positions of all vehicles, shape (n_vehicles, 2)."""
        r = self.line_offset[self.veh_line]
        ang = self.line_angle[self.veh_line]
        c, s = np.cos(ang), np.sin(ang)
        t = self.veh_abscissa
        return np.column_stack([r * c - t * s, r * s + t * c])


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
# Draw order is part of each sampler's contract (reproducibility): count
# first, then per-entity attributes in the listed order.

def sample_lines(lambda_l: float, radius: float,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, angles) of a motion-invariant Poisson line process, |offset| <= radius.

    The count is Poisson with mean 2 * lambda_l * radius; offsets are uniform
    on [-radius, radius] and angles uniform on (0, pi), matching a process of
    intensity lambda_l / pi on the offset-angle cylinder.
    """
    n = int(rng.poisson(2.0 * lambda_l * radius))
    offsets = rng.uniform(-radius, radius, size=n)
    angles = rng.uniform(0.0, math.pi, size=n)
    return offsets, angles


def sample_manhattan_lines(lambda_l: float, radius: float,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Same offsets as :func:`sample_lines` but only axis-aligned orientations.

    Angles are a fair coin over {0, pi/2}.  Meant for illustration and eyeball
    checks; the analytic results assume the isotropic sampler.
    """
    n = int(rng.poisson(2.0 * lambda_l * radius))
    offsets = rng.uniform(-radius, radius, size=n)
    angles = np.where(rng.integers(0, 2, size=n) == 1, math.pi / 2.0, 0.0)
    return offsets, angles


def sample_vehicles_on_line(mu: float, half_length: float,
                            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(abscissas, directions) of Poisson(mu) vehicles on |abscissa| <= half_length.

    Directions are a fair coin over {-1, +1}; the host line's geometry does
    not enter.
    """
    n = int(rng.poisson(2.0 * mu * half_length))
    abscissas = rng.uniform(-half_length, half_length, size=n)
    directions = rng.choice(np.array([-1, 1]), size=n)
    return abscissas, directions


def _vehicle_fields(per_line: list[tuple[np.ndarray, np.ndarray]]) -> dict[str, np.ndarray]:
    """Snapshot vehicle arrays from each line's (abscissas, directions), in line order."""
    # the empty leading arrays let a snapshot without lines concatenate
    return {
        "veh_line": np.repeat(np.arange(len(per_line)), [t.size for t, _ in per_line]),
        "veh_abscissa": np.concatenate([np.empty(0), *(t for t, _ in per_line)]),
        "veh_direction": np.concatenate([np.empty(0, np.int8), *(d for _, d in per_line)]),
    }


def snapshot_from_lines(lines: tuple[np.ndarray, np.ndarray], params: NetworkParams,
                        radius: float, half_length: float,
                        rng: np.random.Generator) -> Snapshot:
    """Populate explicit (offsets, angles) lines with Poisson(mu) vehicles each."""
    offsets, angles = lines
    per_line = [sample_vehicles_on_line(params.mu, half_length, rng) for _ in offsets]
    return Snapshot(line_offset=offsets, line_angle=angles,
                    **_vehicle_fields(per_line), speed=params.speed,
                    window_radius=radius, half_length=half_length)


def ordinary_snapshot(params: NetworkParams, radius: float, half_length: float,
                      rng: np.random.Generator) -> Snapshot:
    """Stationary realisation: lines first, then vehicles line by line."""
    lines = sample_lines(params.lambda_l, radius, rng)
    return snapshot_from_lines(lines, params, radius, half_length, rng)


def palm_snapshot(params: NetworkParams, radius: float, half_length: float,
                  rng: np.random.Generator) -> Snapshot:
    """Realisation seen from a typical vehicle placed at the origin.

    Palm conditioning for this doubly-Poisson model adds an independent line
    through the origin with a uniform angle, an independent Poisson(mu)
    vehicle population on it, and the conditioned-on vehicle itself at
    abscissa 0 with a fair-coin direction; the rest of the network is an
    ordinary realisation.  Draw order: typical angle, typical direction,
    typical-line vehicles, then the ordinary part.
    """
    typical_angle = float(rng.uniform(0.0, math.pi))
    typical_dir = rng.choice(np.array([-1, 1]))
    own_t, own_d = sample_vehicles_on_line(params.mu, half_length, rng)
    offsets, angles = sample_lines(params.lambda_l, radius, rng)
    # the typical vehicle leads line 0's vehicles, so it is vehicle 0
    per_line = [(np.concatenate(([0.0], own_t)), np.concatenate(([typical_dir], own_d)))]
    per_line += [sample_vehicles_on_line(params.mu, half_length, rng) for _ in offsets]
    return Snapshot(line_offset=np.concatenate(([0.0], offsets)),
                    line_angle=np.concatenate(([typical_angle], angles)),
                    **_vehicle_fields(per_line), speed=params.speed,
                    window_radius=radius, half_length=half_length, palm=True)


def place_devices(snapshot: Snapshot, nu: float,
                  rng: np.random.Generator) -> Snapshot:
    """Attach one device per vehicle, uniform on its radius-nu disk.

    Radii use the sqrt transform (area-uniform), angles are uniform; draws are
    all radii first, then all angles.
    """
    n = snapshot.n_vehicles
    rho = nu * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    xy = snapshot.vehicle_xy() + np.column_stack([rho * np.cos(phi),
                                                  rho * np.sin(phi)])
    return replace(snapshot, device_xy=xy)


def advance(snapshot: Snapshot, dt: float) -> Snapshot:
    """Move every vehicle along its line by direction * speed * dt.

    Devices are dropped (they must be re-placed after motion) and the
    vehicle-complete region shrinks by speed * dt, since vehicles that
    should have entered from beyond the window are missing.
    """
    if not (math.isfinite(dt) and dt >= 0.0):
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    step = snapshot.speed * dt
    return replace(snapshot, veh_abscissa=snapshot.veh_abscissa + snapshot.veh_direction * step,
                   half_length=max(0.0, snapshot.half_length - step),
                   palm=False, device_xy=None)


def nearest_vehicle_distance(snapshot: Snapshot,
                             point: tuple[float, float] = (0.0, 0.0)) -> float:
    """Distance from ``point`` to the closest vehicle; inf if there are none."""
    if snapshot.n_vehicles == 0:
        return math.inf
    d = snapshot.vehicle_xy() - np.asarray(point, dtype=float)
    return float(np.sqrt(np.min(np.einsum("ij,ij->i", d, d))))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ["schema_version", "section", "offset", "angle",
                "line_index", "abscissa", "direction", "x", "y"]


def snapshot_to_csv(snapshot: Snapshot, path: str) -> None:
    """Write a snapshot to ``path`` as one CSV with a section column.

    Rows carry section 'line' (offset, angle), 'vehicle' (line_index,
    abscissa, direction) or 'device' (x, y); unused columns stay empty so a
    single header serves all three.
    """
    v = SCHEMA_VERSION
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # one formatted line per entity; repr of a float round-trips exactly
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        fh.writelines(f"{v},line,{r!r},{a!r},,,,,\n" for r, a in zip(
            snapshot.line_offset.tolist(), snapshot.line_angle.tolist()))
        fh.writelines(f"{v},vehicle,,,{i},{t!r},{d},,\n" for i, t, d in zip(
            snapshot.veh_line.tolist(), snapshot.veh_abscissa.tolist(),
            snapshot.veh_direction.tolist()))
        if snapshot.device_xy is not None:
            fh.writelines(f"{v},device,,,,,,{x!r},{y!r}\n"
                          for x, y in snapshot.device_xy.tolist())
