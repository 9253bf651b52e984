"""Sampling laws and conventions of the planar snapshot layer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from linecox.core import NetworkParams, substream
from linecox.geometry import (
    Snapshot,
    advance,
    nearest_vehicle_distance,
    ordinary_snapshot,
    palm_snapshot,
    place_devices,
    sample_lines,
    sample_manhattan_lines,
    sample_vehicles_on_line,
    snapshot_from_lines,
    snapshot_to_csv,
)

V = 30.0 / 3600.0
PARAMS = NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)


def _pooled_lines(lambda_l, radius, reps, seed):
    rng = substream(seed, 900)
    counts, offs, angs = [], [], []
    for _ in range(reps):
        offsets, angles = sample_lines(lambda_l, radius, rng)
        counts.append(offsets.size)
        offs.append(offsets)
        angs.append(angles)
    return np.array(counts), np.concatenate(offs), np.concatenate(angs)


class TestLineLaw:
    def test_count_matches_intensity(self):
        # lines hitting a disk of radius R arrive at rate 2 lambda_l R
        counts, _, _ = _pooled_lines(3.0, 2.0, 400, seed=1)
        mean = 2 * 3.0 * 2.0
        z = (counts.mean() - mean) / (counts.std(ddof=1) / math.sqrt(counts.size))
        assert abs(z) < 3

    def test_offsets_uniform(self):
        _, offs, _ = _pooled_lines(3.0, 2.0, 400, seed=2)
        assert np.all(np.abs(offs) <= 2.0)
        p = stats.kstest(offs, stats.uniform(loc=-2.0, scale=4.0).cdf).pvalue
        assert p > 1e-3

    def test_angles_uniform_on_pi(self):
        _, _, angs = _pooled_lines(3.0, 2.0, 400, seed=3)
        assert np.all((angs >= 0) & (angs < math.pi))
        p = stats.kstest(angs, stats.uniform(loc=0.0, scale=math.pi).cdf).pvalue
        assert p > 1e-3

    def test_manhattan_axis_aligned(self):
        rng = substream(4, 901)
        angs = np.concatenate([sample_manhattan_lines(3.0, 2.0, rng)[1]
                               for _ in range(200)])
        half_pi = math.pi / 2
        assert set(np.unique(angs)) <= {0.0, half_pi}
        # fair coin between the two orientations
        frac = np.mean(angs == 0.0)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / angs.size)


class TestVehicleLaw:
    def test_count_and_fields(self):
        rng = substream(5, 902)
        counts, dirs = [], []
        for _ in range(400):
            abscissas, directions = sample_vehicles_on_line(3.0, 2.0, rng)
            assert abscissas.size == directions.size
            assert np.all(np.abs(abscissas) <= 2.0)
            counts.append(abscissas.size)
            dirs.append(directions)
        counts = np.array(counts)
        mean = 2 * 3.0 * 2.0  # Poisson(2 mu half_length)
        z = (counts.mean() - mean) / (counts.std(ddof=1) / math.sqrt(counts.size))
        assert abs(z) < 3
        dirs = np.concatenate(dirs)
        assert set(np.unique(dirs)) <= {-1, 1}
        assert abs(np.mean(dirs == 1) - 0.5) < 3 * math.sqrt(0.25 / dirs.size)


class TestSnapshots:
    def test_ordinary_no_palm_artifacts(self):
        snap = ordinary_snapshot(PARAMS, 2.0, 2.0, substream(6, 903))
        assert not snap.palm
        assert not np.any(snap.line_offset == 0.0)  # no line through the origin
        assert snap.device_xy is None

    def test_palm_conventions(self):
        snap = palm_snapshot(PARAMS, 2.0, 2.0, substream(7, 904))
        # line 0 is the typical line through the origin
        assert snap.line_offset[0] == 0.0
        # vehicle 0 is the typical vehicle at the origin with a coin direction
        assert snap.veh_line[0] == 0
        assert snap.veh_abscissa[0] == 0.0
        assert snap.veh_direction[0] in (-1, 1)
        assert snap.palm
        xy = snap.vehicle_xy()
        assert np.hypot(*xy[0]) == 0.0

    def test_palm_typical_angle_uniform(self):
        angs = [
            palm_snapshot(PARAMS, 0.5, 0.5, substream(8, i)).line_angle[0]
            for i in range(500)
        ]
        p = stats.kstest(np.array(angs), stats.uniform(0.0, math.pi).cdf).pvalue
        assert p > 1e-3

    def test_snapshot_from_lines_keeps_given_lines(self):
        lines = (np.array([0.3, -0.7]), np.array([1.0, 2.2]))
        snap = snapshot_from_lines(lines, PARAMS, 1.0, 1.5, substream(9, 905))
        assert snap.n_lines == 2
        assert list(snap.line_offset) == [0.3, -0.7]
        assert list(snap.line_angle) == [1.0, 2.2]
        assert np.all(snap.veh_line < 2)
        assert snap.half_length == 1.5
        assert snap.speed == PARAMS.speed

    @pytest.mark.parametrize("angle", [math.pi, -0.1, math.nan])
    def test_line_angle_outside_half_turn_rejected(self, angle):
        lines = (np.array([0.3, -0.7]), np.array([1.0, angle]))
        with pytest.raises(ValueError, match="angles"):
            snapshot_from_lines(lines, PARAMS, 1.0, 1.5, substream(9, 905))
        with pytest.raises(ValueError, match="angles"):
            Snapshot(line_offset=lines[0], line_angle=lines[1], veh_line=[], veh_abscissa=[],
                     veh_direction=[], speed=V, window_radius=1.0, half_length=1.0)

    def test_speed_negative_or_not_finite_rejected(self):
        # advance trusts the speed: at -0.01 km/s the complete region would grow, at
        # nan every abscissa would be nan
        for speed in (-0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="speed"):
                Snapshot(line_offset=[0.3], line_angle=[1.0], veh_line=[0], veh_abscissa=[0.0],
                         veh_direction=[1], speed=speed, window_radius=1.0, half_length=1.0)

    @pytest.mark.parametrize("name, value", [
        ("window_radius", -2.0), ("window_radius", math.nan), ("window_radius", math.inf),
        ("half_length", -1.0), ("half_length", math.nan), ("half_length", math.inf),
        ("dt", math.nan), ("dt", math.inf),
    ])
    def test_lengths_and_step_negative_or_not_finite_rejected(self, name, value):
        # advance trusts both lengths and its step: at dt = nan every abscissa would
        # be nan and half_length 0.0
        snap = Snapshot(line_offset=[0.3], line_angle=[1.0], veh_line=[0], veh_abscissa=[0.0],
                        veh_direction=[1], speed=V, window_radius=1.0, half_length=1.0)
        with pytest.raises(ValueError, match=name):
            if name == "dt":
                advance(snap, value)
            else:
                replace(snap, **{name: value})

    def test_validation_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            Snapshot(
                line_offset=np.array([0.0]),
                line_angle=np.array([0.0, 1.0]),
                veh_line=np.array([], dtype=int),
                veh_abscissa=np.array([]),
                veh_direction=np.array([], dtype=int),
                speed=V,
                window_radius=1.0,
                half_length=1.0,
            )


class TestDevices:
    def test_one_device_per_vehicle(self):
        snap = palm_snapshot(PARAMS, 2.0, 2.0, substream(10, 906))
        snap = place_devices(snap, PARAMS.nu, substream(10, 907))
        assert snap.device_xy is not None
        assert snap.device_xy.shape == (snap.n_vehicles, 2)

    def test_device_law_uniform_on_disk(self):
        # distance from the device to its vehicle: area-uniform radius
        rng = substream(11, 908)
        rel = []
        for i in range(200):
            snap = palm_snapshot(PARAMS, 2.0, 2.0, substream(11, i))
            snap = place_devices(snap, 0.1, rng)
            rel.append(snap.device_xy - snap.vehicle_xy())
        rel = np.concatenate(rel)
        rho = np.hypot(rel[:, 0], rel[:, 1])
        assert np.all(rho <= 0.1 + 1e-15)
        # rho^2 / nu^2 is U(0, 1); angles are U(0, 2 pi)
        p = stats.kstest((rho / 0.1) ** 2, stats.uniform(0, 1).cdf).pvalue
        assert p > 1e-3
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        p = stats.kstest(ang, stats.uniform(-math.pi, 2 * math.pi).cdf).pvalue
        assert p > 1e-3


class TestAdvance:
    def test_positions_move_exactly(self):
        snap = palm_snapshot(PARAMS, 2.0, 2.0, substream(12, 909))
        dt = 60.0
        moved = advance(snap, dt)
        expect = snap.veh_abscissa + snap.veh_direction * snap.speed * dt
        assert np.array_equal(moved.veh_abscissa, expect)
        assert np.array_equal(moved.line_offset, snap.line_offset)

    def test_complete_region_shrinks(self):
        snap = palm_snapshot(PARAMS, 2.0, 2.0, substream(13, 910))
        moved = advance(snap, 60.0)
        assert moved.half_length == pytest.approx(2.0 - V * 60.0)
        # devices are stale after motion and the palm marking is broken
        assert moved.device_xy is None
        assert not moved.palm

    def test_zero_dt_is_identity_on_positions(self):
        snap = ordinary_snapshot(PARAMS, 1.0, 1.0, substream(14, 911))
        assert np.array_equal(advance(snap, 0.0).veh_abscissa, snap.veh_abscissa)

    def test_negative_dt_rejected(self):
        snap = ordinary_snapshot(PARAMS, 1.0, 1.0, substream(15, 912))
        with pytest.raises(ValueError):
            advance(snap, -1.0)


class TestDistance:
    def test_hand_built_snapshot(self):
        # angle is the direction of the line's normal, so angle 0 means a
        # vertical line through (0.3, 0); abscissa -0.4 puts the vehicle at
        # (0.3, -0.4), distance 0.5 from the origin
        snap = Snapshot(
            line_offset=np.array([0.3]),
            line_angle=np.array([0.0]),
            veh_line=np.array([0]),
            veh_abscissa=np.array([-0.4]),
            veh_direction=np.array([1]),
            speed=V,
            window_radius=1.0,
            half_length=1.0,
        )
        assert nearest_vehicle_distance(snap) == pytest.approx(0.5)
        assert nearest_vehicle_distance(snap, (0.3, 0.0)) == pytest.approx(0.4)

    def test_empty_snapshot_infinite(self):
        snap = Snapshot(
            line_offset=np.array([]),
            line_angle=np.array([]),
            veh_line=np.array([], dtype=int),
            veh_abscissa=np.array([]),
            veh_direction=np.array([], dtype=int),
            speed=V,
            window_radius=1.0,
            half_length=1.0,
        )
        assert nearest_vehicle_distance(snap) == math.inf


class TestCsv:
    def test_sections_and_counts(self, tmp_path):
        snap = palm_snapshot(PARAMS, 1.0, 1.0, substream(16, 913))
        snap = place_devices(snap, PARAMS.nu, substream(16, 914))
        snapshot_to_csv(snap, str(tmp_path / "geometry.csv"))
        rows = (tmp_path / "geometry.csv").read_text().splitlines()
        header, body = rows[0], rows[1:]
        assert header.split(",")[:2] == ["schema_version", "section"]
        sections = [r.split(",")[1] for r in body]
        assert sections.count("line") == snap.n_lines
        assert sections.count("vehicle") == snap.n_vehicles
        assert sections.count("device") == snap.n_vehicles

    def test_round_trip_values(self, tmp_path):
        snap = ordinary_snapshot(PARAMS, 1.0, 1.0, substream(17, 915))
        snapshot_to_csv(snap, str(tmp_path / "geometry.csv"))
        body = (tmp_path / "geometry.csv").read_text().splitlines()[1:]
        offs = [float(r.split(",")[2]) for r in body if r.split(",")[1] == "line"]
        # repr round-trips floats exactly
        assert offs == list(snap.line_offset)
