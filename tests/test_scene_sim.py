import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest
from scipy.stats import maxwell

from panoloc import scene_sim
from panoloc.geometry import (Pose, heading_pose, image_bearings, pixel_to_bearing,
                              quaternion_to_rotation)
from panoloc.images import ROAD_LABEL, SKY_LABEL, VOID_LABEL, LabelImage, SceneCoordinateImage
from panoloc.instance_map import (InstanceMap, build_instance_map, fit_whitening, unwhiten,
                                  whiten)
from panoloc.pnp import Correspondences, angular_residuals
from panoloc.scene_sim import (LARGE_CITY, SMALL_CITY, CityScene, Cuboid, NoiseModel,
                               PlacementError, _intersect_boxes, _pixel_windows,
                               approximate_city, cuboid_approximation, generate_city,
                               raycast_render, remove_buildings, sample_trajectory,
                               simulate_predictions)

DIMS = (128, 64)


def overhead_pose(height=10.0, x=0.0, z=0.0):
    return Pose(np.eye(3), -np.array([x, height, z]))


def to_box_frame(box, points):
    """Points (..., 3) in the frame of ``box``: Ry(yaw)^T @ (point - center)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return (np.asarray(points) - box.center) @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0],
                                                          [-s, 0.0, c]])


def box_contains(box, point) -> bool:
    return bool(np.all(np.abs(to_box_frame(box, point)) <= box.half_extents))


def surface_distance(box, point) -> float:
    """Unsigned distance from a point to the surface of ``box``."""
    d = np.abs(to_box_frame(box, point)) - box.half_extents
    outside = np.linalg.norm(np.maximum(d, 0.0))
    return float(outside) if outside > 0.0 else -float(np.max(d))


def cuboids_overlap(a, b) -> bool:
    """Separating-axis overlap test for two yawed, ground-aligned boxes.

    The candidate axes are y and each box's own x and z, so each box's
    corners are tested against the other box in that box's frame. Boxes
    that only touch do not overlap.
    """
    for box, other in ((a, b), (b, a)):
        local = to_box_frame(box, other.corners())
        if np.any((local.min(axis=0) >= box.half_extents)
                  | (local.max(axis=0) <= -box.half_extents)):
            return False
    return True


def single_box_scene(center=(0.0, 1.0, 5.0), half=(0.5, 1.0, 0.5), yaw=0.0):
    box = Cuboid(np.array(center), np.array(half), yaw, 1000)
    return CityScene.from_cuboids((box,), 1, 0)


class TestGenerateCity:
    def test_small_preset_counts_and_no_overlaps(self):
        scene = generate_city(102, (13, 12), seed=7)
        assert len(scene.buildings) == 102
        assert scene.road_segments == 156
        boxes = scene.buildings
        overlaps = sum(cuboids_overlap(boxes[i], boxes[j])
                       for i in range(len(boxes)) for j in range(i + 1, len(boxes)))
        assert overlaps == 0

    def test_buildings_rest_on_ground(self):
        scene = generate_city(30, (6, 6), seed=3)
        for b in scene.buildings:
            assert b.corners()[:, 1].min() == 0.0

    def test_zero_buildings(self):
        scene = generate_city(0, (4, 4), seed=0)
        assert scene.buildings == ()
        coords, labels = raycast_render(scene, overhead_pose(), DIMS)
        assert set(np.unique(labels.labels)) <= {SKY_LABEL, ROAD_LABEL}

    def test_seed_determinism(self, tmp_path):
        from panoloc.fileio import save_scene
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(a, generate_city(40, (8, 8), seed=11))
        save_scene(b, generate_city(40, (8, 8), seed=11))
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_density(self):
        with pytest.raises(PlacementError):
            generate_city(100, (3, 3), seed=0)

    def test_labels_globally_unique(self):
        scene = generate_city(50, (8, 8), seed=5)
        labels = scene.box_labels.tolist()
        assert len(set(labels)) == 50
        assert min(labels) >= 1000


class TestSampleTrajectory:
    def test_cameras_clear_of_buildings(self):
        scene = generate_city(60, (8, 8), seed=2)
        for _, pose in sample_trajectory(scene, 30, seed=2):
            center = pose.camera_center
            assert center[1] > 0.0
            assert not any(box_contains(b, center) for b in scene.buildings)

    def test_deterministic(self):
        scene = generate_city(10, (4, 4), seed=1)
        a = sample_trajectory(scene, 10, seed=9)
        b = sample_trajectory(scene, 10, seed=9)
        for (fa, pa), (fb, pb) in zip(a, b):
            assert fa == fb
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)


class TestRaycast:
    def test_ground_hits_have_zero_height(self):
        scene = generate_city(0, (4, 4), seed=0)
        coords, labels = raycast_render(scene, overhead_pose(10.0), DIMS)
        road = labels.labels == ROAD_LABEL
        assert road.sum() > 0
        assert np.abs(coords.coords[road][:, 1]).max() < 1e-9
        # exactly the rays whose world direction points down hit the ground
        world_dirs = image_bearings(*DIMS) @ overhead_pose(10.0).rotation.T
        assert np.array_equal(road, world_dirs[..., 1] < 0)

    def test_single_cuboid_dead_ahead(self):
        # camera at the origin side, box front face at z = 4.5
        scene = single_box_scene(center=(0.0, 1.0, 5.0), half=(0.5, 1.0, 0.5))
        pose = Pose(np.eye(3), -np.array([0.0, 1.0, 0.0]))
        coords, labels = raycast_render(scene, pose, (512, 256))
        center_px = coords.coords[127, 255]  # bearing (~0, ~0, 1)
        assert labels.labels[127, 255] == 1000
        assert abs(center_px[2] - 4.5) < 1e-9
        assert abs(center_px[0]) < 0.05  # half-pixel offset from exact axis
        analytic = 4.5 / pixel_to_bearing(255.0, 127.0, 512, 256)[2]
        hit = pose.camera_center + analytic * pixel_to_bearing(255.0, 127.0, 512, 256)
        assert np.abs(coords.coords[127, 255] - hit).max() < 1e-9

    def test_sky_pixels_invalid(self):
        scene = generate_city(0, (4, 4), seed=0)
        coords, labels = raycast_render(scene, overhead_pose(), DIMS)
        sky = labels.labels == SKY_LABEL
        assert sky.sum() > 0
        assert np.isnan(coords.coords[sky]).all()
        assert coords.mask[~sky].all()

    def test_every_hit_on_scene_surface(self):
        scene = generate_city(25, (6, 6), seed=4)
        _, pose = sample_trajectory(scene, 1, seed=4)[0]
        coords, labels = raycast_render(scene, pose, DIMS)
        boxes = {b.label: b for b in scene.buildings}
        mask = coords.mask
        for row, col in zip(*np.nonzero(mask)):
            point = coords.coords[row, col]
            label = int(labels.labels[row, col])
            if label == ROAD_LABEL:
                dist = abs(point[1])
            else:
                dist = surface_distance(boxes[label], point)
            assert dist < 1e-7

    def test_pose_consistency(self):
        scene = generate_city(25, (6, 6), seed=4)
        _, pose = sample_trajectory(scene, 1, seed=8)[0]
        coords, _ = raycast_render(scene, pose, DIMS)
        mask = coords.mask
        rows, cols = np.nonzero(mask)
        bearings = pixel_to_bearing(cols.astype(float), rows.astype(float), *DIMS)
        res = angular_residuals(pose, Correspondences(bearings, coords.coords[mask]))
        assert res.max() < 1e-9

    def test_render_deterministic(self):
        scene = generate_city(25, (6, 6), seed=4)
        _, pose = sample_trajectory(scene, 1, seed=1)[0]
        a_coords, a_labels = raycast_render(scene, pose, DIMS)
        b_coords, b_labels = raycast_render(scene, pose, DIMS)
        assert np.array_equal(a_coords.coords, b_coords.coords, equal_nan=True)
        assert np.array_equal(a_labels.labels, b_labels.labels)

    def test_camera_inside_building_rejected(self):
        scene = single_box_scene(center=(0.0, 2.0, 0.0), half=(3.0, 2.0, 3.0))
        pose = Pose(np.eye(3), -np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="inside"):
            raycast_render(scene, pose, DIMS)

    def test_axis_parallel_rays_handled(self):
        # rays parallel to box faces (d == 0 on an axis) must not produce NaN hits
        scene = single_box_scene(center=(0.0, 1.0, 5.0), half=(1.0, 1.0, 1.0))
        pose = Pose(np.eye(3), -np.array([0.0, 1.0, 0.0]))  # camera at face height
        coords, labels = raycast_render(scene, pose, DIMS)
        assert (labels.labels == 1000).sum() > 0
        assert not np.isnan(coords.coords[coords.mask]).any()


def brute_force_hits(origin, dirs, scene):
    """Slab test of every (ray, box) pair: nearest hit per ray, ties to the
    lower box index. The reference the culled ray caster must equal bitwise."""
    n = dirs.shape[0]
    t_out = np.full(n, np.inf)
    idx_out = np.full(n, -1, dtype=np.int64)
    for b, box in enumerate(scene.buildings):
        (cx, cy, cz), (hx, hy, hz) = box.center, box.half_extents
        cos_yaw, sin_yaw = math.cos(box.yaw), math.sin(box.yaw)
        wx, wy, wz = origin[0] - cx, origin[1] - cy, origin[2] - cz
        o = np.array([cos_yaw * wx - sin_yaw * wz, wy, sin_yaw * wx + cos_yaw * wz])
        d = np.empty_like(dirs)
        d[:, 0] = cos_yaw * dirs[:, 0] - sin_yaw * dirs[:, 2]
        d[:, 1] = dirs[:, 1]
        d[:, 2] = sin_yaw * dirs[:, 0] + cos_yaw * dirs[:, 2]
        half = np.array([hx, hy, hz])
        tmin = np.full(n, -np.inf)
        tmax = np.full(n, np.inf)
        for axis in range(3):
            da = d[:, axis]
            zero = da == 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-half[axis] - o[axis]) / da
                t2 = (half[axis] - o[axis]) / da
            inside = (o[axis] >= -half[axis]) & (o[axis] <= half[axis])
            tn = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
            tf = np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
            tmin = np.maximum(tmin, tn)
            tmax = np.minimum(tmax, tf)
        hit = (tmax >= tmin) & (tmin > 1e-9) & (tmin < t_out)
        t_out[hit] = tmin[hit]
        idx_out[hit] = b
    return t_out, idx_out


def assert_culled_matches_brute_force(scene, pose, dims):
    dirs = np.ascontiguousarray(image_bearings(*dims).reshape(-1, 3) @ pose.rotation.T)
    origin = pose.camera_center
    t_ref, idx_ref = brute_force_hits(origin, dirs, scene)
    t_cull, idx_cull = _intersect_boxes(origin, pose.rotation, dirs, scene, dims)
    assert np.array_equal(t_cull, t_ref)
    assert np.array_equal(idx_cull, idx_ref)
    return _pixel_windows(origin, pose.rotation, scene, dims)


class TestCulledRaycast:
    @pytest.mark.parametrize("preset, dims", [(SMALL_CITY, (512, 256)),
                                              (LARGE_CITY, (256, 128))])
    def test_presets_match_brute_force(self, preset, dims):
        scene = generate_city(preset["n_buildings"], preset["grid_dims"], seed=7)
        for _, pose in sample_trajectory(scene, 2, seed=7):
            assert_culled_matches_brute_force(scene, pose, dims)

    def test_camera_next_to_tall_facade_tests_every_pixel(self):
        tall = Cuboid(np.array([0.0, 20.0, 5.0]), np.array([6.0, 20.0, 3.0]), 0.0, 1000)
        far = Cuboid(np.array([30.0, 4.0, -20.0]), np.array([3.0, 4.0, 3.0]), 0.2, 1001)
        scene = CityScene.from_cuboids((tall, far), 1, 0)
        pose = heading_pose(np.array([0.5, 1.7, 1.95]), 0.3)  # 5 cm from the face
        row0, nrows, col0, ncols = assert_culled_matches_brute_force(scene, pose, DIMS)
        assert (row0[0], nrows[0], col0[0], ncols[0]) == (0, DIMS[1], 0, DIMS[0])
        assert nrows[1] * ncols[1] < DIMS[0] * DIMS[1] // 10

    def test_box_straddling_longitude_seam(self):
        # the box sits straight behind the camera, where longitude wraps
        scene = single_box_scene(center=(0.3, 2.0, -12.0), half=(3.0, 2.0, 1.0), yaw=0.1)
        pose = Pose(np.eye(3), -np.array([0.0, 1.5, 0.0]))
        row0, nrows, col0, ncols = assert_culled_matches_brute_force(scene, pose, DIMS)
        assert col0[0] + ncols[0] > DIMS[0] and ncols[0] < DIMS[0] // 2
        _, labels = raycast_render(scene, pose, DIMS)
        hit_cols = np.flatnonzero((labels.labels == 1000).any(axis=0))
        assert hit_cols[0] == 0 and hit_cols[-1] == DIMS[0] - 1

    def test_window_covering_pole(self):
        scene = generate_city(SMALL_CITY["n_buildings"], SMALL_CITY["grid_dims"], seed=7)
        roof = scene.buildings[40]
        pose = overhead_pose(2.0 * roof.half_extents[1] + 3.0, roof.center[0], roof.center[2])
        row0, nrows, col0, ncols = assert_culled_matches_brute_force(scene, pose, (256, 128))
        assert ncols[40] == 256 and nrows[40] < 128

    @pytest.mark.parametrize("batch", [None, 50])
    def test_coincident_boxes_keep_lower_index(self, monkeypatch, batch):
        # equal t on every ray: the lower box index wins, also across batches
        if batch is not None:
            monkeypatch.setattr(scene_sim, "_PAIR_BATCH", batch)
        boxes = [Cuboid(np.array([2.0, 1.5, 6.0]), np.array([1.0, 1.5, 2.0]), 0.4, 1000 + k)
                 for k in range(3)]
        scene = CityScene.from_cuboids(boxes, 1, 0)
        pose = heading_pose(np.array([0.0, 1.0, 0.0]), 0.2)
        assert_culled_matches_brute_force(scene, pose, (64, 32))
        _, labels = raycast_render(scene, pose, (64, 32))
        assert set(np.unique(labels.labels)) >= {1000} and 1001 not in labels.labels

    @pytest.mark.parametrize("batch", [None, 1])
    def test_shared_face_keeps_lower_index_when_nearer_box_runs_first(self, monkeypatch,
                                                                       batch):
        # both front faces lie on z = 5; box 1 reaches nearer the camera, so it
        # runs first (in its own batch when the batch holds fewer pairs than a
        # window), and the equal t on the shared pixels must still go to box 0
        if batch is not None:
            monkeypatch.setattr(scene_sim, "_PAIR_BATCH", batch)
        boxes = (Cuboid(np.array([0.0, 2.0, 6.0]), np.array([1.0, 2.0, 1.0]), 0.0, 1000),
                 Cuboid(np.array([0.5, 2.0, 5.5]), np.array([2.0, 2.0, 0.5]), 0.0, 1001))
        scene = CityScene.from_cuboids(boxes, 1, 0)
        pose = heading_pose(np.array([2.0, 1.0, 0.0]), 0.0)
        assert surface_distance(boxes[1], pose.camera_center) < surface_distance(
            boxes[0], pose.camera_center)
        assert_culled_matches_brute_force(scene, pose, (64, 32))
        coords, labels = raycast_render(scene, pose, (64, 32))
        shared = (labels.labels >= 1000) & (np.abs(coords.coords[..., 0]) <= 1.0)
        assert shared.sum() > 10 and (labels.labels[shared] == 1000).all()
        assert (labels.labels == 1001).any()

    def test_candidate_pairs_follow_visible_buildings(self):
        scene = generate_city(LARGE_CITY["n_buildings"], LARGE_CITY["grid_dims"], seed=7)
        width, height = 512, 256
        for _, pose in sample_trajectory(scene, 3, seed=7):
            _, nrows, _, ncols = _pixel_windows(pose.camera_center, pose.rotation,
                                                scene, (width, height))
            assert (nrows * ncols).sum() < 0.01 * width * height * len(scene.boxes)

    @settings(max_examples=60, deadline=None)
    @given(quat=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           position=st.tuples(st.floats(-40.0, 40.0), st.floats(-3.0, 35.0),
                              st.floats(-40.0, 40.0)),
           height=st.integers(2, 40), seed=st.integers(0, 50))
    @pytest.mark.parametrize("batch", [None, 64])
    def test_random_cameras_match_brute_force(self, batch, quat, position, height, seed):
        # a batch of 64 pairs runs many distance-ordered batches per frame
        assume(np.linalg.norm(quat) > 0.1)
        scene = generate_city(12, (4, 4), seed=seed)
        center = np.array(position)
        assume(not any(box_contains(b, center) for b in scene.buildings))
        rot = quaternion_to_rotation(np.array(quat))
        with pytest.MonkeyPatch.context() as patch:
            if batch is not None:
                patch.setattr(scene_sim, "_PAIR_BATCH", batch)
            assert_culled_matches_brute_force(scene, Pose(rot, -rot.T @ center),
                                              (2 * height, height))


    @settings(max_examples=100, deadline=None)
    @given(quat=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           position=st.tuples(st.floats(-30.0, 30.0), st.floats(-5.0, 40.0),
                              st.floats(-30.0, 30.0)),
           half=st.tuples(st.floats(0.2, 10.0), st.floats(0.2, 10.0), st.floats(0.2, 10.0)),
           yaw=st.floats(-math.pi, math.pi), height=st.integers(2, 60))
    def test_window_holds_every_pixel_of_its_cone(self, quat, position, half, yaw, height):
        assume(np.linalg.norm(quat) > 0.1)
        box = Cuboid(np.array([0.0, half[1], 0.0]), np.array(half), yaw, 1000)
        camera = np.array(position)
        assume(not box_contains(box, camera))
        rot = quaternion_to_rotation(np.array(quat))
        width = 2 * height
        scene = CityScene.from_cuboids((box,), 1, 0)
        row0, nrows, col0, ncols = (w[0] for w in _pixel_windows(camera, rot, scene,
                                                                 (width, height)))
        # the cone from the camera around the box centre through its farthest corner
        axis = (box.center - camera) / np.linalg.norm(box.center - camera)
        to_corners = box.corners() - camera
        to_corners /= np.linalg.norm(to_corners, axis=1, keepdims=True)
        cos_half_angle = (to_corners @ axis).min()
        in_cone = image_bearings(width, height) @ rot.T @ axis >= cos_half_angle
        rows, cols = np.nonzero(in_cone)
        assert np.all((rows >= row0) & (rows < row0 + nrows))
        assert np.all((cols - col0) % width < ncols)


class TestSimulatePredictions:
    @staticmethod
    def _gt_and_map(seed=0, dims=(128, 64), n_buildings=25):
        scene = generate_city(n_buildings, (6, 6), seed=seed)
        _, pose = sample_trajectory(scene, 1, seed=seed)[0]
        coords, labels = raycast_render(scene, pose, dims)
        sel = coords.mask & labels.instance_mask
        imap = build_instance_map(coords.coords[sel], labels.labels[sel])
        return coords, labels, imap

    def test_zero_noise_identity(self):
        coords, labels, imap = self._gt_and_map()
        out_coords, out_labels = simulate_predictions(
            coords, labels, NoiseModel(seed=1), imap)
        assert np.array_equal(out_coords.coords, coords.coords, equal_nan=True)
        assert np.array_equal(out_labels.labels, labels.labels)

    def test_gaussian_radius_matches_chi_cdf(self):
        # 1416x708 ~= 1e6 pixels of pure ground give a clean Gaussian field
        scene = generate_city(0, (4, 4), seed=0)
        coords, labels = raycast_render(scene, overhead_pose(50.0), (1416, 708))
        imap = build_instance_map(np.empty((0, 3)), np.empty(0, dtype=np.uint32))
        sigma = 0.25
        out, _ = simulate_predictions(coords, labels, NoiseModel(coord_sigma=sigma, seed=2), imap)
        mask = coords.mask
        dist = np.linalg.norm(out.coords[mask] - coords.coords[mask], axis=1)
        expected = maxwell.cdf(0.5, scale=sigma)
        observed = float((dist <= 0.5).mean())
        assert abs(observed - expected) < 0.02

    def test_label_flip_rate(self):
        coords, labels, imap = self._gt_and_map(seed=3, dims=(256, 128))
        out_coords, out_labels = simulate_predictions(
            coords, labels, NoiseModel(label_flip_rate=0.1, seed=4), imap)
        flippable = coords.mask & np.isin(labels.labels, np.array(imap.instance_labels()))
        flipped = flippable & (out_labels.labels != labels.labels)
        rate = flipped.sum() / flippable.sum()
        assert abs(rate - 0.1) < 0.01
        # flipped pixels keep their local coordinates under the wrong transform
        rows, cols = np.nonzero(flipped)
        r, c = rows[0], cols[0]
        old_tf = imap.get(int(labels.labels[r, c]))
        new_tf = imap.get(int(out_labels.labels[r, c]))
        from panoloc.instance_map import unwhiten, whiten
        local = whiten(old_tf, coords.coords[r, c])
        assert np.abs(unwhiten(new_tf, local) - out_coords.coords[r, c]).max() < 1e-9

    def test_outlier_rate_lands_in_bounds(self):
        coords, labels, imap = self._gt_and_map(seed=5)
        bounds = np.array([[-500.0, -10.0, -500.0], [500.0, 200.0, 500.0]])
        out, _ = simulate_predictions(
            coords, labels, NoiseModel(outlier_rate=0.25, seed=6), imap, bounds=bounds)
        mask = coords.mask
        moved = np.linalg.norm(out.coords[mask] - coords.coords[mask], axis=1) > 0
        assert abs(moved.mean() - 0.25) < 0.02
        assert np.all(out.coords[mask] >= bounds[0] - 1e-9)
        assert np.all(out.coords[mask] <= bounds[1] + 1e-9)

    def test_seed_determinism(self):
        coords, labels, imap = self._gt_and_map(seed=7)
        nm = NoiseModel(coord_sigma=0.3, outlier_rate=0.05, label_flip_rate=0.05, seed=8)
        a_coords, a_labels = simulate_predictions(coords, labels, nm, imap)
        b_coords, b_labels = simulate_predictions(coords, labels, nm, imap)
        assert np.array_equal(a_coords.coords, b_coords.coords, equal_nan=True)
        assert np.array_equal(a_labels.labels, b_labels.labels)

    @staticmethod
    def _reference(coords, labels, noise, imap, bounds):
        """The documented noise stream, drawn in order and applied pixel by
        pixel in raster order."""
        out, out_labels = coords.copy(), labels.copy()
        height, width, _ = coords.shape
        valid = [(r, c) for r in range(height) for c in range(width)
                 if all(math.isfinite(x) for x in coords[r, c])]
        n = len(valid)
        if n == 0:
            return out, out_labels
        rng = np.random.Generator(np.random.Philox(key=np.array([noise.seed, 3], dtype=np.uint64)))
        if noise.coord_sigma > 0.0:
            jitter = rng.normal(0.0, noise.coord_sigma, size=(n, 3))
            for i, (r, c) in enumerate(valid):
                for j in range(3):
                    out[r, c, j] = coords[r, c, j] + jitter[i, j]
        if noise.outlier_rate > 0.0:
            if bounds is None:
                lo = [min(coords[r, c, j] for r, c in valid) for j in range(3)]
                hi = [max(coords[r, c, j] for r, c in valid) for j in range(3)]
                span = [max(h - l, 1.0) for l, h in zip(lo, hi)]
                bounds = np.array([[l - 0.1 * s for l, s in zip(lo, span)],
                                   [h + 0.1 * s for h, s in zip(hi, span)]])
            pick = rng.uniform(size=n)
            box = rng.uniform(bounds[0], bounds[1], size=(n, 3))
            for i, (r, c) in enumerate(valid):
                if pick[i] < noise.outlier_rate:
                    out[r, c] = box[i]
        map_labels = imap.instance_labels()
        if noise.label_flip_rate > 0.0 and len(map_labels) >= 2:
            pool = [(r, c) for r, c in valid if int(labels[r, c]) in map_labels]
            if pool:
                pick = rng.uniform(size=len(pool))
                flips = [p for p, u in zip(pool, pick) if u < noise.label_flip_rate]
                if flips:
                    draws = rng.integers(0, len(map_labels) - 1, size=len(flips))
                    olds = [int(labels[p]) for p in flips]
                    news = [map_labels[d + (d >= map_labels.index(old))]
                            for d, old in zip(draws, olds)]
                    # The transforms run as (k, 3) matrix products, whose last
                    # bits depend on the rows multiplied together: flipped
                    # pixels are whitened per old label and unwhitened per
                    # new label, each group in raster order.
                    local = {}
                    for lab in sorted(set(olds)):
                        group = [p for p, old in zip(flips, olds) if old == lab]
                        rows = whiten(imap.get(lab), np.array([out[p] for p in group]))
                        local.update(zip(group, rows))
                    for lab in sorted(set(news)):
                        group = [p for p, new in zip(flips, news) if new == lab]
                        rows = unwhiten(imap.get(lab), np.array([local[p] for p in group]))
                        for p, row in zip(group, rows):
                            out[p] = row
                            out_labels[p] = lab
        return out, out_labels

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data_seed=st.integers(0, 2**16),
           sigma=st.sampled_from([0.0, 0.33, 2.5]),
           outlier_rate=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
           flip_rate=st.sampled_from([0.0, 0.1, 1.0]),
           nan_share=st.sampled_from([0.0, 0.3, 1.0]),
           box=st.sampled_from(["frame", "given", "flat"]))
    def test_matches_scalar_reference_bitwise(self, seed, data_seed, sigma, outlier_rate,
                                              flip_rate, nan_share, box):
        rng = np.random.default_rng(data_seed)
        coords = rng.uniform(-80.0, 80.0, (8, 16, 3))
        # one coordinate per invalid pixel goes NaN, so a valid pixel needs all three finite
        holes = np.argwhere(rng.uniform(size=(8, 16)) < nan_share)
        coords[holes[:, 0], holes[:, 1], rng.integers(0, 3, len(holes))] = np.nan
        if box == "flat":
            coords[..., 1] = 4.0  # a flat frame: its own box gets the 1 m span floor
        labels = rng.choice(np.array([VOID_LABEL, SKY_LABEL, 1000, 1001, 1002, 1003], np.uint32),
                            size=(8, 16))
        imap = InstanceMap({lab: fit_whitening(rng.normal(size=(6, 3)) * 5.0 + 20.0 * k, lab)
                            for k, lab in enumerate((1000, 1001, 1002))}, 6)
        bounds = (np.array([[-100.0, -5.0, -90.0], [120.0, 60.0, 95.0]])
                  if box == "given" else None)
        noise = NoiseModel(coord_sigma=sigma, outlier_rate=outlier_rate,
                           label_flip_rate=flip_rate, seed=seed)
        out, out_labels = simulate_predictions(SceneCoordinateImage(coords), LabelImage(labels),
                                               noise, imap, bounds)
        ref, ref_labels = self._reference(coords, labels, noise, imap, bounds)
        assert out.coords.tobytes() == ref.tobytes()
        assert out_labels.labels.tobytes() == ref_labels.tobytes()

    @pytest.mark.parametrize("bounds, error", [
        ([[0.0, 0.0, 0.0], [np.inf, 1.0, 1.0]], OverflowError),  # hi - lo not finite
        ([[0.0, np.nan, 0.0], [1.0, 1.0, 1.0]], OverflowError),
        ([[0.0, 5.0, 0.0], [1.0, 1.0, 1.0]], ValueError),  # hi < lo
        ([[0.0] * 4, [1.0] * 4], ValueError),  # does not broadcast to (n, 3)
    ])
    def test_bad_outlier_bounds_raise(self, bounds, error):
        coords, labels, imap = self._gt_and_map(seed=5, dims=(32, 16))
        with pytest.raises(error):
            simulate_predictions(coords, labels, NoiseModel(outlier_rate=0.1, seed=6), imap,
                                 bounds=np.array(bounds))


class TestRemoveBuildings:
    def test_twenty_percent_of_102(self):
        scene = generate_city(102, (13, 12), seed=7)
        kept = remove_buildings(scene, 0.2, seed=1)
        assert len(kept.buildings) == 82
        survivors = set(kept.box_labels.tolist())
        assert survivors <= set(scene.box_labels.tolist())

    def test_zero_fraction_identity(self):
        scene = generate_city(20, (5, 5), seed=2)
        kept = remove_buildings(scene, 0.0, seed=1)
        assert kept.buildings == scene.buildings

    def test_same_seed_same_removal(self):
        scene = generate_city(50, (8, 8), seed=3)
        a = remove_buildings(scene, 0.2, seed=9)
        b = remove_buildings(scene, 0.2, seed=9)
        assert a.box_labels.tolist() == b.box_labels.tolist()

    def test_renders_never_show_removed_labels(self):
        scene = generate_city(40, (8, 8), seed=4)
        kept = remove_buildings(scene, 0.2, seed=5)
        removed = set(scene.box_labels.tolist()) - set(kept.box_labels.tolist())
        _, pose = sample_trajectory(scene, 1, seed=6)[0]
        _, labels = raycast_render(kept, pose, DIMS)
        assert not (set(np.unique(labels.labels)) & removed)


class TestCuboidApproximation:
    def test_recovers_yawed_box(self):
        box = Cuboid(np.array([4.0, 3.0, -2.0]), np.array([2.0, 3.0, 1.0]),
                     math.radians(30.0), 1000)
        fit = cuboid_approximation(box.corners(), 1000)
        yaw_delta = (fit.yaw - box.yaw) % (math.pi / 2)
        yaw_delta = min(yaw_delta, math.pi / 2 - yaw_delta)
        assert yaw_delta < 1e-6
        assert np.abs(np.sort(fit.half_extents) - np.sort(box.half_extents)).max() < 1e-9
        assert np.abs(fit.center - box.center).max() < 1e-9

    def test_axis_aligned_box_zero_yaw(self):
        box = Cuboid(np.array([0.0, 1.0, 0.0]), np.array([2.0, 1.0, 1.0]), 0.0, 1000)
        fit = cuboid_approximation(box.corners(), 1000)
        assert fit.yaw % (math.pi / 2) == pytest.approx(0.0, abs=1e-9)

    def test_noisy_scan_extents_within_three_sigma(self, rng):
        box = Cuboid(np.array([0.0, 2.0, 0.0]), np.array([3.0, 2.0, 1.5]),
                     math.radians(20.0), 1000)
        sigma = 0.05
        corners = box.corners()
        samples = np.concatenate([corners + rng.normal(scale=sigma, size=(8, 3))
                                  for _ in range(50)])
        fit = cuboid_approximation(samples, 1000)
        assert np.abs(np.sort(fit.half_extents) - np.sort(box.half_extents)).max() < 3 * sigma + 0.1

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cuboid_approximation(np.zeros((3, 3)), 1000)

    def test_degenerate_footprint_falls_back_to_zero_yaw(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        fit = cuboid_approximation(pts, 1000)
        assert fit.yaw == 0.0
        assert np.all(fit.half_extents > 0.0)

    def test_approximate_city_is_fixed_point_on_cuboids(self):
        scene = generate_city(30, (6, 6), seed=9)
        approx = approximate_city(scene)
        assert approx.buildings == scene.buildings

    def test_render_approximate_gt_bit_identical_on_cuboid_scene(self):
        scene = generate_city(20, (5, 5), seed=10)
        _, pose = sample_trajectory(scene, 1, seed=10)[0]
        approx = approximate_city(scene)
        a_coords, a_labels = raycast_render(scene, pose, DIMS)
        b_coords, b_labels = raycast_render(approx, pose, DIMS)
        assert np.array_equal(a_coords.coords, b_coords.coords, equal_nan=True)
        assert np.array_equal(a_labels.labels, b_labels.labels)


class TestNoiseModelValidation:
    def test_bad_rates(self):
        with pytest.raises(ValueError):
            NoiseModel(outlier_rate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(coord_sigma=-1.0)
