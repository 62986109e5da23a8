import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from conftest import camera_to_world, random_pose
from panoloc.geometry import (Pose, bearing_to_pixel, image_bearings, pixel_to_bearing,
                              quaternion_to_rotation, relative_pose_errors,
                              rotation_to_quaternion)

W, H = 512, 256


class TestPixelBearing:
    def test_image_center_is_forward(self):
        b = pixel_to_bearing(W / 2 - 0.5, H / 2 - 0.5, W, H)
        assert np.allclose(b, [0.0, 0.0, 1.0], atol=1e-12)

    def test_top_row_is_near_up(self):
        b = pixel_to_bearing(W / 2 - 0.5, 0.0, W, H)
        # half a pixel below the pole; up is -y
        assert b[1] == pytest.approx(-math.cos(math.pi * 0.5 / H), abs=1e-12)
        assert abs(b[0]) < 1e-12
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)

    def test_forward_maps_to_center(self):
        u, v = bearing_to_pixel(np.array([0.0, 0.0, 1.0]), W, H)
        assert (u, v) == (pytest.approx(255.5, abs=1e-9), pytest.approx(127.5, abs=1e-9))

    def test_quarter_turn(self):
        u, v = bearing_to_pixel(np.array([1.0, 0.0, 0.0]), W, H)
        assert (u, v) == (pytest.approx(383.5, abs=1e-9), pytest.approx(127.5, abs=1e-9))

    def test_round_trip_exhaustive_grid(self):
        uu, vv = np.meshgrid(np.arange(W, dtype=float), np.arange(H, dtype=float))
        b = pixel_to_bearing(uu, vv, W, H)
        assert np.abs(np.linalg.norm(b, axis=-1) - 1.0).max() < 1e-12
        u2, v2 = bearing_to_pixel(b, W, H)
        assert np.abs(u2 - uu).max() < 1e-9
        assert np.abs(v2 - vv).max() < 1e-9

    def test_random_bearing_round_trip(self, rng):
        b = rng.normal(size=(500, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        u, v = bearing_to_pixel(b, W, H)
        b2 = pixel_to_bearing(np.clip(u, 0, W - 1e-9), np.clip(v, 0, H - 1e-9), W, H)
        assert np.abs(b2 - b).max() < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(height=st.integers(1, 2048), fu=st.floats(0.0, 1.0, exclude_max=True),
           fv=st.floats(0.0, 1.0))
    def test_pixel_round_trip_property(self, height, fu, fv):
        # any point of the image away from the bottom pole's half-pixel band,
        # where v is ill-conditioned
        width = 2 * height
        u, v = fu * width, fv * (height - 1)
        assume(u < width)
        b = pixel_to_bearing(u, v, width, height)
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12
        u2, v2 = bearing_to_pixel(b, width, height)
        assert min(abs(u2 - u), width - abs(u2 - u)) < 1e-9  # longitude wraps
        assert abs(v2 - v) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(height=st.integers(1, 2048),
           bearing=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_bearing_round_trip_property(self, height, bearing):
        b = np.array(bearing)
        assume(np.linalg.norm(b) > 1e-6)
        unit = b / np.linalg.norm(b)
        u, v = bearing_to_pixel(b, 2 * height, height)
        assert 0.0 <= u < 2 * height and -0.5 <= v <= height - 0.5
        assume(0.0 <= v < height)  # the top pole's half-pixel band lies outside the image
        back = pixel_to_bearing(u, v, 2 * height, height)
        assert np.abs(back - unit).max() < 1e-12

    @pytest.mark.parametrize("y, v", [(1.0, 12.5), (-1.0, -0.5)])
    def test_poles_land_on_the_ends_of_the_band(self, y, v):
        # at 26x13, arcsin(-y / |b|) put the bottom pole at 12.5 + 1 ulp
        assert bearing_to_pixel(np.array([0.0, y, 0.0]), 26, 13)[1] == v

    def test_latitude_kept_next_to_a_pole(self):
        # 5.3e-10 rad from the bottom pole; arcsin(-y / |b|) rounded it to the pole
        b = np.array([0.0, 1.0, 5.3e-10])
        u, v = bearing_to_pixel(b, 2, 1)
        assert np.abs(pixel_to_bearing(u, v, 2, 1) - b).max() < 1e-15

    def test_out_of_range_pixel_rejected(self):
        with pytest.raises(ValueError):
            pixel_to_bearing(-1.0, 0.0, W, H)
        with pytest.raises(ValueError):
            pixel_to_bearing(0.0, H + 0.5, W, H)

    def test_zero_bearing_rejected(self):
        with pytest.raises(ValueError):
            bearing_to_pixel(np.zeros(3), W, H)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            pixel_to_bearing(0.0, 0.0, 512, 300)

    def test_image_bearings_matches_per_pixel(self):
        grid = image_bearings(64, 32)
        assert grid.shape == (32, 64, 3)
        assert np.allclose(grid[5, 7], pixel_to_bearing(7.0, 5.0, 64, 32))

    def test_image_bearings_cached_read_only(self):
        grid = image_bearings(64, 32)
        assert image_bearings(64, 32) is grid
        assert image_bearings(32, 16) is not grid
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0, 0] = 1.0
        assert np.allclose(np.linalg.norm(grid, axis=2), 1.0)


class TestPose:
    def test_identity_world_to_camera(self):
        pose = Pose(np.eye(3), np.zeros(3))
        assert np.allclose(pose.world_to_camera(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_camera_at_point(self):
        pose = Pose(np.eye(3), np.array([0.0, 0.0, -5.0]))
        assert np.allclose(pose.world_to_camera(np.array([0.0, 0.0, 5.0])), 0.0, atol=1e-15)

    def test_matches_homogeneous_matrix_oracle(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            point = rng.uniform(-40, 40, 3)
            # independent 4x4 composition: X_cam = [R^T | T] @ [X; 1]
            hom = np.eye(4)
            hom[:3, :3] = pose.rotation.T
            hom[:3, 3] = pose.translation
            expected = (hom @ np.append(point, 1.0))[:3]
            assert np.abs(pose.world_to_camera(point) - expected).max() < 1e-12

    def test_camera_center_maps_to_origin(self, rng):
        for _ in range(20):
            pose = random_pose(rng)
            assert np.linalg.norm(pose.world_to_camera(pose.camera_center)) < 1e-9

    def test_round_trip_world_camera_world(self, rng):
        pose = random_pose(rng)
        pts = rng.uniform(-30, 30, (100, 3))
        back = camera_to_world(pose, pose.world_to_camera(pts))
        assert np.abs(back - pts).max() < 1e-9

    def test_rotation_invariants(self, rng):
        rot = random_pose(rng).rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9
        assert abs(np.linalg.det(rot) - 1.0) <= 1e-9

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestRelativePoseErrors:
    def test_identical_poses(self, rng):
        pose = random_pose(rng)
        dist, angle = relative_pose_errors(pose, pose)
        assert dist == 0.0
        assert angle < 1e-5

    def test_constructed_ten_degrees(self, rng):
        pose = random_pose(rng)
        spin = Rotation.from_euler("y", 10.0, degrees=True).as_matrix()
        rot_b = pose.rotation @ spin
        pose_b = Pose(rot_b, -rot_b.T @ pose.camera_center)
        dist, angle = relative_pose_errors(pose, pose_b)
        assert dist < 1e-9
        assert angle == pytest.approx(10.0, abs=1e-9)

    def test_matches_quaternion_oracle(self, rng):
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            dist, angle = relative_pose_errors(a, b)
            qa = Rotation.from_matrix(a.rotation).as_quat()
            qb = Rotation.from_matrix(b.rotation).as_quat()
            dot = min(1.0, abs(float(np.dot(qa, qb))))
            expected = math.degrees(2.0 * math.acos(dot))
            assert angle == pytest.approx(expected, abs=1e-9)
            assert dist == pytest.approx(
                float(np.linalg.norm(a.camera_center - b.camera_center)), abs=1e-12)

    def test_symmetry(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert relative_pose_errors(a, b) == pytest.approx(relative_pose_errors(b, a))

    def test_angle_clamped(self, rng):
        pose = random_pose(rng)
        flip = Rotation.from_euler("x", 180.0, degrees=True).as_matrix()
        pose_b = Pose(pose.rotation @ flip, pose.translation)
        _, angle = relative_pose_errors(pose, pose_b)
        assert 0.0 <= angle <= 180.0


class TestQuaternions:
    def test_round_trip(self, rng):
        for _ in range(100):
            rot = quaternion_to_rotation(rng.normal(size=4))
            q = rotation_to_quaternion(rot)
            assert q[0] >= 0.0
            assert np.abs(quaternion_to_rotation(q) - rot).max() < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_round_trip_property(self, q):
        q = np.array(q)
        assume(np.linalg.norm(q) > 1e-3)
        rot = quaternion_to_rotation(q)
        back = rotation_to_quaternion(rot)
        unit = q / np.linalg.norm(q)
        assert back[0] >= 0.0
        assert min(np.abs(back - unit).max(), np.abs(back + unit).max()) < 1e-12
        assert np.abs(quaternion_to_rotation(back) - rot).max() < 1e-12

    def test_matches_scipy(self, rng):
        for _ in range(50):
            rot = quaternion_to_rotation(rng.normal(size=4))
            q = rotation_to_quaternion(rot)
            x, y, z, w = Rotation.from_matrix(rot).as_quat()
            expected = np.array([w, x, y, z])
            if expected[0] < 0:
                expected = -expected
            assert np.abs(q - expected).max() < 1e-9
