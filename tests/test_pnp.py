import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import chisquare

from conftest import camera_to_world, random_pose, synthetic_corrs
from panoloc import pnp
from panoloc.geometry import Pose, quaternion_to_rotation, relative_pose_errors
from panoloc.pnp import (Correspondences, DegenerateConfigError, NoConsensusError,
                         PoseEstimate, RansacConfig, _residuals, angular_residuals,
                         epnp_bearing, ransac_pnp)


def pose_error(est, pose):
    """(metres, radians) between two poses; the angle from the chord
    |R1 - R2|_F = 2 sqrt(2) sin(angle / 2), which keeps its precision near 0."""
    chord = np.linalg.norm(est.rotation - pose.rotation) / (2.0 * math.sqrt(2.0))
    return (float(np.linalg.norm(est.camera_center - pose.camera_center)),
            2.0 * math.asin(min(1.0, chord)))


class TestEpnpBearing:
    def test_identity_pose_from_camera_frame_points(self, rng):
        pts = rng.uniform(-10, 10, (6, 3)) + np.array([0.0, 0.0, 20.0])
        bearings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        est = epnp_bearing(Correspondences(bearings, pts))
        dist, angle = relative_pose_errors(est, Pose(np.eye(3), np.zeros(3)))
        assert math.radians(angle) < 1e-6
        assert np.linalg.norm(est.translation) < 1e-6

    def test_random_pose_recovery(self, rng):
        for _ in range(100):
            pose = random_pose(rng)
            est = epnp_bearing(synthetic_corrs(pose, 50, rng))
            dist, angle = relative_pose_errors(est, pose)
            assert math.radians(angle) < 1e-4
            assert dist < 1e-4

    def test_planar_recovery(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            est = epnp_bearing(synthetic_corrs(pose, 8, rng, planar=True))
            dist, angle = relative_pose_errors(est, pose)
            assert math.radians(angle) < 1e-3
            assert dist < 1e-3

    def test_four_coplanar_facade_points(self, rng):
        for _ in range(20):
            pose = random_pose(rng)
            est = epnp_bearing(synthetic_corrs(pose, 4, rng, planar=True))
            # minimal planar samples admit ambiguous poses; the true one must
            # at least reproject its own constraints
            res = angular_residuals(est, synthetic_corrs(pose, 4, rng, planar=True))
            assert np.all(np.isfinite(res))

    def test_arity_error(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 4, rng)
        with pytest.raises(ValueError, match="at least 4"):
            epnp_bearing(corrs.subset(np.arange(3)))

    def test_collinear_points_degenerate(self):
        t = np.linspace(1.0, 9.0, 6)
        pts = np.column_stack([t, 2 * t, 3 * t]) + np.array([0.0, 0.0, 5.0])
        bearings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        with pytest.raises(DegenerateConfigError):
            epnp_bearing(Correspondences(bearings, pts))

    @settings(max_examples=100, deadline=None)
    @example(seed=630, n=4, offset=4097.0, spread=0.001)  # a rounding-sized normal
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 60),
           offset=st.floats(-1e4, 1e4), spread=st.floats(1e-3, 100.0))
    def test_collinear_points_always_degenerate(self, seed, n, offset, spread):
        # any number of points on any line, seen from off the line
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        pts = offset + rng.uniform(-spread, spread, (n, 1)) * direction
        bearings = pts - (pts[0] + np.cross(direction, rng.normal(size=3)))
        with pytest.raises(DegenerateConfigError):
            epnp_bearing(Correspondences(bearings, pts))

    @pytest.mark.parametrize("n, planar, trials", [(4, False, 1000), (5, False, 200),
                                                   (20, False, 200),
                                                   (20_000, False, 5), (8, True, 200)])
    def test_noiseless_points_give_the_exact_pose(self, rng, n, planar, trials):
        for _ in range(trials):
            pose = random_pose(rng)
            dist, angle = pose_error(epnp_bearing(synthetic_corrs(pose, n, rng, planar=planar)),
                                     pose)
            assert dist < 1e-9 and angle < 1e-9

    def test_four_points_with_a_collinear_triple(self, rng):
        # the first three points are collinear, the set is not: another
        # triple solves
        for _ in range(50):
            pose = random_pose(rng)
            corrs = synthetic_corrs(pose, 4, rng)
            pts = corrs.world_points.copy()
            pts[2] = pts[0] + rng.uniform(-2.0, 2.0) * (pts[1] - pts[0])
            cam = pose.world_to_camera(pts)
            dist, angle = pose_error(epnp_bearing(Correspondences(cam, pts)), pose)
            assert dist < 1e-6 and angle < 1e-6

    def test_rigid_equivariance(self, rng):
        from panoloc.geometry import quaternion_to_rotation
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 40, rng)
        g_rot = quaternion_to_rotation(rng.normal(size=4))
        g_t = rng.uniform(-5, 5, 3)
        moved = Correspondences(corrs.bearings, corrs.world_points @ g_rot.T + g_t)
        est_a = epnp_bearing(corrs)
        est_b = epnp_bearing(moved)
        moved_center = g_rot @ est_a.camera_center + g_t
        assert np.abs(est_b.camera_center - moved_center).max() < 1e-6


class TestAngularResidual:
    def test_zero_for_generating_pose(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 100, rng)
        assert angular_residuals(pose, corrs).max() < 1e-9

    def test_negated_bearing_is_180(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 20, rng)
        flipped = Correspondences(-corrs.bearings, corrs.world_points)
        assert np.abs(angular_residuals(pose, flipped) - 180.0).max() < 1e-9

    def test_point_at_camera_center_is_outlier(self, rng):
        pose = random_pose(rng)
        corrs = Correspondences(rng.normal(size=(5, 3)), np.repeat(pose.camera_center[None], 5, 0))
        assert (angular_residuals(pose, corrs) == 180.0).all()

    def test_perpendicular_offset_small_angle_oracle(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            corrs = synthetic_corrs(pose, 1, rng, depth=(5.0, 30.0))
            point = corrs.world_points[0]
            cam = pose.world_to_camera(point)
            depth = np.linalg.norm(cam)
            # perpendicular offset in world coordinates
            ray_w = (point - pose.camera_center) / depth
            delta = rng.normal(size=3)
            delta -= ray_w * (delta @ ray_w)
            delta *= rng.uniform(0.01, 0.5) / np.linalg.norm(delta)
            moved = Correspondences(corrs.bearings[:1], (point + delta)[None])
            expected = math.degrees(math.atan(np.linalg.norm(delta) / depth))
            assert angular_residuals(pose, moved)[0] == pytest.approx(expected, rel=0.01)

    def test_matches_per_point_formula(self, rng):
        # atan2(|g x b|, g . b) one point at a time in Python floats, with
        # 180 degrees for the points at the camera centre
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 200, rng)
        pts = corrs.world_points + rng.normal(scale=0.3, size=(200, 3))
        pts[::50] = pose.camera_center
        noisy = Correspondences(corrs.bearings, pts)
        got = angular_residuals(pose, noisy)
        rot, t = pose.rotation.tolist(), pose.translation.tolist()
        for i, (p, b) in enumerate(zip(noisy.world_points.tolist(), noisy.bearings.tolist())):
            g = [sum(rot[k][j] * p[k] for k in range(3)) + t[j] for j in range(3)]
            if i % 50 == 0:
                assert math.hypot(*g) < 1e-12 and got[i] == 180.0
                continue
            cross = (g[1] * b[2] - g[2] * b[1], g[2] * b[0] - g[0] * b[2],
                     g[0] * b[1] - g[1] * b[0])
            want = math.degrees(math.atan2(math.hypot(*cross), sum(x * y for x, y in zip(g, b))))
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


    def test_stacked_poses_match_one_pose_at_a_time(self, rng):
        # a stack of poses, with shared or per-pose bearings, gives each
        # pose's residuals bitwise as a call with that pose alone
        corrs = synthetic_corrs(random_pose(rng), 50, rng)
        poses = [random_pose(rng) for _ in range(6)]
        rots = np.array([p.rotation for p in poses])
        ts = np.array([p.translation for p in poses])
        pts = corrs.world_points
        brs = corrs.bearings + rng.normal(0.0, 0.05, (6, 50, 3))
        shared = _residuals(rots, ts, pts, corrs.bearings)
        own = _residuals(rots, ts, pts, brs)
        for i in range(6):
            assert np.array_equal(shared[i], _residuals(rots[i], ts[i], pts, corrs.bearings))
            assert np.array_equal(own[i], _residuals(rots[i], ts[i], pts, brs[i]))


class TestRansac:
    def test_zero_noise_recovers_and_all_inliers(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 120, rng)
        est = ransac_pnp(corrs, RansacConfig(iterations=200, seed=1))
        dist, angle = relative_pose_errors(est.pose, pose)
        assert math.radians(angle) < 1e-4
        assert dist < 1e-4
        assert est.inlier_indices.size == 120

    def test_forty_percent_outliers(self, rng):
        for seed in range(3):
            trial_rng = np.random.default_rng(900 + seed)
            pose = random_pose(trial_rng)
            corrs = synthetic_corrs(pose, 300, trial_rng)
            pts = corrs.world_points.copy()
            bad = trial_rng.permutation(300)[:120]
            pts[bad] = trial_rng.uniform(-60, 60, (120, 3))
            est = ransac_pnp(Correspondences(corrs.bearings, pts),
                             RansacConfig(seed=seed))
            dist, angle = relative_pose_errors(est.pose, pose)
            assert dist < 0.05
            assert angle < 0.1
            assert est.inlier_indices.size >= 170

    def test_default_config_when_none_given(self, rng, monkeypatch):
        # no config means RansacConfig(): 1000 draws of 4 points at seed 0
        assert RansacConfig() == RansacConfig(iterations=1000, inlier_threshold_deg=0.22,
                                              seed=0)
        draws, draw = [], pnp._draw_samples
        monkeypatch.setattr(pnp, "_draw_samples", lambda *args: draws.append(args) or draw(*args))
        est = ransac_pnp(synthetic_corrs(random_pose(rng), 50, rng))
        assert draws == [(0, 1000, 50, 4)]
        assert est.inlier_indices.size == 50

    def test_mean_inlier_residual_below_threshold(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 200, rng)
        noisy = Correspondences(corrs.bearings,
                                corrs.world_points + rng.normal(scale=0.01, size=(200, 3)))
        cfg = RansacConfig(iterations=100, seed=2)
        est = ransac_pnp(noisy, cfg)
        assert est.mean_inlier_angle_deg <= cfg.inlier_threshold_deg

    def test_bit_identical_reruns(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 150, rng)
        pts = corrs.world_points.copy()
        pts[:40] = rng.uniform(-50, 50, (40, 3))
        noisy = Correspondences(corrs.bearings, pts)
        cfg = RansacConfig(iterations=300, seed=11)
        a = ransac_pnp(noisy, cfg)
        b = ransac_pnp(noisy, cfg)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert np.array_equal(a.inlier_indices, b.inlier_indices)

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunk_size_never_changes_result(self, rng, monkeypatch, chunk):
        # every hypothesis's arithmetic is independent of the others in its
        # chunk, down to chunks of one; 2001 iterations leave a short last one
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 200, rng)
        pts = corrs.world_points.copy()
        pts[:60] = rng.uniform(-50, 50, (60, 3))
        noisy = Correspondences(corrs.bearings, pts)
        cfg = RansacConfig(iterations=2001, seed=13)
        want = ransac_pnp(noisy, cfg)
        monkeypatch.setattr(pnp, "_HYPOTHESIS_CHUNK", chunk)
        got = ransac_pnp(noisy, cfg)
        assert np.array_equal(want.pose.rotation, got.pose.rotation)
        assert np.array_equal(want.pose.translation, got.pose.translation)
        assert np.array_equal(want.inlier_indices, got.inlier_indices)
        assert want.mean_inlier_angle_deg == got.mean_inlier_angle_deg

    def test_planar_inliers_with_outliers(self, rng):
        # every inlier lies on one facade, so all-inlier samples are planar
        for seed in range(3):
            trial_rng = np.random.default_rng(700 + seed)
            pose = random_pose(trial_rng)
            corrs = synthetic_corrs(pose, 300, trial_rng, planar=True)
            pts = corrs.world_points.copy()
            bad = trial_rng.permutation(300)[:120]
            pts[bad] = pose.camera_center + trial_rng.uniform(-60, 60, (120, 3))
            est = ransac_pnp(Correspondences(corrs.bearings, pts), RansacConfig(seed=seed))
            dist, angle = relative_pose_errors(est.pose, pose)
            assert dist < 0.05
            assert angle < 0.1
            assert est.inlier_indices.size == 180

    def test_planar_samples_use_batched_three_point_solver(self, rng, monkeypatch):
        sizes = []
        real = pnp._solve_p3p_batch

        def solve(pts, brs):
            sizes.append(pts.shape[0])
            return real(pts, brs)

        def scalar(*args):
            raise AssertionError("minimal samples must not use the scalar solver")

        monkeypatch.setattr(pnp, "_solve_p3p_batch", solve)
        monkeypatch.setattr(pnp, "_solve_epnp", scalar)
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 100, rng, planar=True)
        monkeypatch.setattr(pnp, "_REFIT_WIDENING", ())  # the minimal model itself
        est = ransac_pnp(corrs, RansacConfig(iterations=200, seed=6))
        assert sum(sizes) == 200
        dist, angle = relative_pose_errors(est.pose, pose)
        assert dist < 1e-4 and angle < 0.01

    def test_all_collinear_points_never_reach_consensus(self, rng):
        pose = random_pose(rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pts = pose.camera_center + 4.0 * np.cross(direction, [0.3, -0.5, 0.8]) \
            + rng.uniform(-20, 20, (60, 1)) * direction
        cam = pose.world_to_camera(pts)
        corrs = Correspondences(cam / np.linalg.norm(cam, axis=1, keepdims=True), pts)
        with pytest.raises(NoConsensusError) as err:
            ransac_pnp(corrs, RansacConfig(iterations=300, seed=8))
        assert err.value.estimate is None

    def test_no_consensus_carries_best_effort(self, rng):
        pts = rng.uniform(-50, 50, (30, 3))
        bearings = rng.normal(size=(30, 3))
        corrs = Correspondences(bearings, pts)
        with pytest.raises(NoConsensusError) as err:
            ransac_pnp(corrs, RansacConfig(iterations=50, seed=3))
        assert err.value.estimate is None or isinstance(err.value.estimate, PoseEstimate)

    def test_too_few_correspondences(self, rng):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 3, rng)
        with pytest.raises(ValueError):
            ransac_pnp(corrs)

    def test_without_refits_keeps_minimal_model(self, rng, monkeypatch):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 80, rng)
        monkeypatch.setattr(pnp, "_REFIT_WIDENING", ())
        est = ransac_pnp(corrs, RansacConfig(iterations=50, seed=5))
        dist, angle = relative_pose_errors(est.pose, pose)
        assert dist < 1e-4 and angle < 0.01

    def test_refit_that_loses_inliers_is_dropped(self, rng, monkeypatch):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 80, rng)
        cfg = RansacConfig(iterations=50, seed=5)
        with monkeypatch.context() as patch:
            patch.setattr(pnp, "_REFIT_WIDENING", ())
            hypothesis = ransac_pnp(corrs, cfg)
        # 5 cm off: far points stay inliers, near ones do not
        worse = Pose(pose.rotation, pose.translation + 0.05)
        assert 0 < (angular_residuals(worse, corrs) < cfg.inlier_threshold_deg).sum() < 80
        monkeypatch.setattr(pnp, "epnp_bearing", lambda subset: worse)
        est = ransac_pnp(corrs, cfg)
        assert np.array_equal(est.pose.rotation, hypothesis.pose.rotation)
        assert np.array_equal(est.pose.translation, hypothesis.pose.translation)
        assert np.array_equal(est.inlier_indices, hypothesis.inlier_indices)

    def test_refits_solve_within_a_shrinking_threshold(self, rng, monkeypatch):
        # the first refit sees the points within twice the threshold of the
        # winning hypothesis; no kept refit loses inliers
        pose = random_pose(rng)
        base = synthetic_corrs(pose, 300, rng, depth=(10.0, 50.0))
        noisy = Correspondences(base.bearings,
                                base.world_points + rng.normal(scale=0.1, size=(300, 3)))
        cfg = RansacConfig(iterations=200, seed=7, inlier_threshold_deg=0.3)
        with monkeypatch.context() as patch:
            patch.setattr(pnp, "_REFIT_WIDENING", ())
            hypothesis = ransac_pnp(noisy, cfg)
        sizes = []
        solve = pnp.epnp_bearing
        monkeypatch.setattr(pnp, "epnp_bearing",
                            lambda subset: sizes.append(len(subset)) or solve(subset))
        est = ransac_pnp(noisy, cfg)
        near = angular_residuals(hypothesis.pose, noisy) < 2 * cfg.inlier_threshold_deg
        assert len(sizes) == 3
        assert sizes[0] == near.sum() > hypothesis.inlier_indices.size
        assert est.inlier_indices.size >= hypothesis.inlier_indices.size
        dist = relative_pose_errors(est.pose, pose)[0]
        assert dist < relative_pose_errors(hypothesis.pose, pose)[0]

    @settings(max_examples=60, deadline=None)
    @example(seed=3, n=5, iterations=600, outlier_share=0.0, noise=0.0, threshold=0.22)
    @example(seed=4, n=7, iterations=900, outlier_share=0.3, noise=1e-3, threshold=1.0)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 40),
           iterations=st.integers(1, 700), outlier_share=st.floats(0.0, 0.6),
           noise=st.sampled_from([0.0, 1e-3, 0.05]),
           threshold=st.sampled_from([0.05, 0.22, 1.0, 10.0]))
    @mock.patch.object(pnp, "_REFIT_WIDENING", ())
    def test_matches_exhaustive_oracle(self, seed, n, iterations, outlier_share, noise,
                                       threshold):
        # every hypothesis scored through angular_residuals and picked by
        # (count, mean, index); few points and many iterations repeat
        # samples, so counts, means and whole poses tie; no refits, so the
        # estimate is the winning hypothesis
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        clean = synthetic_corrs(pose, n, rng)
        pts = clean.world_points + rng.normal(scale=noise, size=(n, 3))
        bad = rng.random(n) < outlier_share
        pts[bad] = rng.uniform(-60.0, 60.0, (int(bad.sum()), 3))
        corrs = Correspondences(clean.bearings, pts)
        cfg = RansacConfig(iterations=iterations, inlier_threshold_deg=threshold,
                           seed=seed % 1000)

        samples = pnp._draw_samples(cfg.seed, iterations, n, pnp._SAMPLE_SIZE)
        ok, rots, ts = pnp._solve_p3p_batch(corrs.world_points[samples],
                                            corrs.bearings[samples])
        rows = [angular_residuals(SimpleNamespace(rotation=rot, translation=t), corrs)
                if good else np.full(n, np.inf) for good, rot, t in zip(ok, rots, ts)]
        best = oracle_best(rows, threshold)
        inliers = np.flatnonzero(rows[best] < threshold) if best >= 0 else np.empty(0)
        if inliers.size <= pnp._SAMPLE_SIZE:
            with pytest.raises(NoConsensusError) as err:
                ransac_pnp(corrs, cfg)
            est = err.value.estimate
            if best < 0:
                assert est is None
                return
        else:
            est = ransac_pnp(corrs, cfg)
        assert np.array_equal(est.pose.rotation, rots[best])
        assert np.array_equal(est.pose.translation, ts[best])
        assert np.array_equal(est.inlier_indices, inliers)
        assert est.mean_inlier_angle_deg == float(rows[best][inliers].mean())

    def test_noise_degrades_continuously(self, rng):
        pose = random_pose(rng)
        base = synthetic_corrs(pose, 200, rng, depth=(10.0, 50.0))
        errors = []
        for sigma in (0.0, 0.05, 0.1):
            noisy = Correspondences(
                base.bearings,
                base.world_points + rng.normal(scale=sigma or 1e-12, size=(200, 3)))
            est = ransac_pnp(noisy, RansacConfig(iterations=200, seed=7,
                                                 inlier_threshold_deg=1.0))
            errors.append(relative_pose_errors(est.pose, pose)[0])
        assert errors[0] < 0.01
        assert errors[2] < 1.0  # no catastrophic flip


def well_conditioned(pts, brs):
    """First three points span a triangle that is no sliver, seen at least
    a degree apart."""
    sides = pts[[0, 0, 1]] - pts[[1, 2, 2]]
    area2 = np.linalg.norm(np.cross(sides[0], sides[1]))
    cosines = np.sum(brs[[0, 0, 1]] * brs[[1, 2, 2]], axis=1)
    return (area2 >= 0.05 * np.max(np.sum(sides * sides, axis=1))
            and cosines.max() <= math.cos(math.radians(1.0)))


class TestBatchedMinimalSolver:
    @staticmethod
    def stack(samples):
        return (np.array([c.world_points for c in samples]),
                np.array([c.bearings for c in samples]))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_points=st.sampled_from([3, 4]),
           planar=st.booleans(), depths=st.tuples(st.floats(1.0, 200.0), st.floats(1.0, 200.0)))
    def test_one_candidate_reproduces_the_sample(self, seed, n_points, planar, depths):
        rng = np.random.default_rng(seed)
        rot = quaternion_to_rotation(rng.normal(size=4))
        pose = Pose(rot, -rot.T @ rng.uniform(-100.0, 100.0, 3))
        dirs = rng.normal(size=(n_points, 3))
        cam = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) \
            * rng.uniform(*sorted(depths), (n_points, 1))
        if planar and n_points == 4:
            # the fourth point on the plane of the first three
            a, b = rng.uniform(-0.5, 1.5, 2)
            cam[3] = cam[0] + a * (cam[1] - cam[0]) + b * (cam[2] - cam[0])
            assume(1.0 <= np.linalg.norm(cam[3]) <= 200.0)
        pts = camera_to_world(pose, cam)
        brs = cam / np.linalg.norm(cam, axis=1, keepdims=True)
        assume(well_conditioned(pts, brs))

        slots, rot, t = pnp._p3p_slots(pts[None], brs[None])
        assert slots.size and (slots < 4).all()
        res = _residuals(np.moveaxis(rot, 2, 0), t.T, pts, brs)
        assert res.max(axis=1).min() < 1e-6

    def test_collinear_samples_flagged_degenerate(self, rng):
        # all four points on a line, or only the first three
        samples, collinear = [], []
        for i in range(40):
            pose = random_pose(rng)
            corrs = synthetic_corrs(pose, 4, rng, planar=i % 4 == 1)
            if i % 4 in (0, 3):
                pts = corrs.world_points.copy()
                on_line = 4 if i % 4 == 0 else 3
                pts[:on_line] = pose.camera_center + rng.normal(size=3) * 5.0 \
                    + rng.uniform(1, 9, (on_line, 1)) * rng.normal(size=3)
                corrs = Correspondences(pose.world_to_camera(pts), pts)
            samples.append(corrs)
            collinear.append(i % 4 in (0, 3))
        ok, rots, ts = pnp._solve_p3p_batch(*self.stack(samples))
        assert np.array_equal(ok, ~np.array(collinear))
        assert not rots[~ok].any() and not ts[~ok].any()

    def test_rounding_sized_normals_flagged_degenerate(self):
        # four points on a line 4097 m from the origin, within a millimetre:
        # each triple's normal is coordinate rounding, which one triple's
        # normal exceeds relative to its sides
        rng = np.random.default_rng(630)
        direction = rng.normal(size=3)
        pts = 4097.0 + rng.uniform(-1e-3, 1e-3, (4, 1)) * direction
        brs = pts - (pts[0] + np.cross(direction, rng.normal(size=3)))
        brs /= np.linalg.norm(brs, axis=1, keepdims=True)
        triples = np.array([np.roll(np.arange(4), -i) for i in range(4)])
        ok, rots, ts = pnp._solve_p3p_batch(pts[triples], brs[triples])
        assert not ok.any()
        assert not rots.any() and not ts.any()

    def test_solutions_reproject_their_samples(self, rng):
        # on noiseless samples at least 99.9% give the exact pose, also when
        # more than one point picks the candidate; every solution is a
        # proper rotation
        for planar, k in ((False, 4), (True, 4), (False, 6)):
            samples = [synthetic_corrs(random_pose(rng), k, rng, planar=planar)
                       for _ in range(1000)]
            pts, brs = self.stack(samples)
            ok, rots, ts = pnp._solve_p3p_batch(pts, brs)
            assert ok.all()
            exact = _residuals(rots, ts, pts, brs).max(axis=1) < 1e-6
            assert exact.mean() >= 0.999
            # proper rotations, orthonormal to rounding, which keeps the
            # scoring prefilter tight
            assert np.abs(rots @ np.swapaxes(rots, 1, 2) - np.eye(3)).max() < 1e-12
            assert np.allclose(np.linalg.det(rots), 1.0)

    def test_batch_members_independent_of_neighbours(self, rng):
        # each sample's candidates and solution are bitwise the same whatever
        # batch it is in, down to a batch of one
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 100, rng)
        pts = corrs.world_points.copy()
        pts[:30] = rng.uniform(-40, 40, (30, 3))
        idx = pnp._draw_samples(3, 64, 100, 4)
        pts, brs = pts[idx], corrs.bearings[idx]
        pts[5, 2] = 0.5 * (pts[5, 0] + pts[5, 1])  # one collinear sample
        slots, rot, t = pnp._p3p_slots(pts, brs)
        whole = pnp._solve_p3p_batch(pts, brs)
        for size in (1, 7, 64):
            starts = range(0, 64, size)
            parts = [pnp._p3p_slots(pts[lo:lo + size], brs[lo:lo + size]) for lo in starts]
            # a part's slots count from its own first sample
            assert np.array_equal(slots, np.concatenate([s + 4 * lo for (s, _, _), lo
                                                         in zip(parts, starts)]))
            assert np.array_equal(rot, np.concatenate([r for _, r, _ in parts], axis=2))
            assert np.array_equal(t, np.concatenate([tt for _, _, tt in parts], axis=1))
            parts = [pnp._solve_p3p_batch(pts[lo:lo + size], brs[lo:lo + size])
                     for lo in starts]
            for a, pieces in zip(whole, zip(*parts)):
                assert np.array_equal(a, np.concatenate(pieces))
        assert not whole[0][5] and whole[0].sum() > 10
        assert not (slots >> 2 == 5).any()


class TestSampleDraws:
    def test_indices_distinct_and_in_range(self):
        for n, k in ((4, 4), (5, 4), (500, 4), (9, 6)):
            samples = pnp._draw_samples(7, 3000, n, k)
            assert samples.shape == (3000, k)
            assert samples.min() == 0 and samples.max() == n - 1
            assert (np.diff(np.sort(samples, axis=1), axis=1) > 0).all()

    def test_longer_runs_extend_shorter_ones(self):
        short = pnp._draw_samples(5, 10, 500, 4)
        assert np.array_equal(short, pnp._draw_samples(5, 1000, 500, 4)[:10])
        assert not np.array_equal(short, pnp._draw_samples(6, 10, 500, 4))

    def test_rows_uniform_over_ordered_subsets(self):
        n, k = 6, 3
        samples = pnp._draw_samples(11, 120_000, n, k)
        counts = np.bincount((samples[:, 0] * n + samples[:, 1]) * n + samples[:, 2],
                             minlength=n ** k)
        cells = np.array([len({a, b, c}) == 3 for a in range(n) for b in range(n)
                          for c in range(n)])
        assert counts[~cells].sum() == 0
        assert chisquare(counts[cells]).pvalue > 1e-4


def points_at_angles(pose, angles_deg, depths, rng):
    """World points and unit bearings that ``pose`` sees ``angles_deg`` apart."""
    n = len(angles_deg)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    perp = np.cross(dirs, rng.normal(size=(n, 3)))
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    alpha = np.radians(np.asarray(angles_deg))[:, None]
    pts = camera_to_world(pose, dirs * np.asarray(depths)[:, None])
    return pts, np.cos(alpha) * dirs + np.sin(alpha) * perp


def exact_scores(rots, ts, corrs, threshold):
    """Per-pose (count, sum) of residuals below the threshold, one pose at a time."""
    counts, sums = [], []
    for rot, t in zip(rots, ts):
        res = angular_residuals(Pose(rot, t), corrs)
        inl = res < threshold
        counts.append(int(inl.sum()))
        sums.append(float(res[inl].sum()))
    return np.array(counts), np.array(sums)


def inlier_sum(row, threshold):
    """(count, sum) of the residuals below the threshold, added one by one
    in point order."""
    total, count = 0.0, 0
    for r in row:
        if r < threshold:
            total += float(r)
            count += 1
    return count, total


def oracle_best(residual_rows, threshold):
    """Index of the row with the most residuals below the threshold, then the
    lowest mean of them (summed in point order), then the lowest index; -1
    if no row has one."""
    best, best_key = -1, None
    for i, row in enumerate(residual_rows):
        count, total = inlier_sum(row, threshold)
        key = (-count, total / count if count else 0.0, i)
        if count and (best_key is None or key < best_key):
            best, best_key = i, key
    return best


def scores(rots, ts, corrs, threshold, pruned):
    """Prefilter bounds of a stack of poses, a chunk at a time as in
    ransac_pnp, and the exact pass ranked by them (``pruned``) or by a bound
    of n for every pose, which makes it score them all."""
    pts, brs = corrs.world_points, corrs.bearings
    lift = pnp._lift_points(pts, brs)
    chunk = pnp._HYPOTHESIS_CHUNK
    bounds = np.concatenate([
        pnp._prefilter_bounds(rots[lo:lo + chunk], ts[lo:lo + chunk], lift, threshold)
        for lo in range(0, len(rots), chunk)])
    ranked = bounds if pruned else np.full(len(rots), len(corrs))
    return bounds, pnp._exact_pass(ranked, rots, ts, pts, brs, threshold)


def check_scores(rots, ts, corrs, threshold, pruned):
    """The bounds hold every exact count, the exact pass scores every pose it
    visits as ``exact_scores`` does, the poses it skips cannot win, and it
    picks the oracle's winner with its exact residuals. Returns (bounds,
    counts, sums) with -1 counts for poses not visited."""
    bounds, (counts, sums, best, res) = scores(rots, ts, corrs, threshold, pruned)
    want_counts, want_sums = exact_scores(rots, ts, corrs, threshold)
    assert (bounds >= want_counts).all()
    seen = counts >= 0
    assert pruned or seen.all()
    assert np.array_equal(counts[seen], want_counts[seen])
    assert np.allclose(sums[seen], want_sums[seen], rtol=1e-12, atol=0.0)
    assert (bounds[~seen] < want_counts.max()).all()
    rows = [angular_residuals(Pose(rot, t), corrs) for rot, t in zip(rots, ts)]
    for i in np.flatnonzero(seen):
        assert (counts[i], sums[i]) == inlier_sum(rows[i], threshold)
    assert best == oracle_best(rows, threshold)
    if best >= 0:
        assert np.array_equal(res, rows[best])
    return bounds, counts, sums


# "dense": the exact pass scores every pose; "sparse": only those whose
# prefilter bound can still beat the best exact count
both_paths = pytest.mark.parametrize("pruned", [False, True], ids=["dense", "sparse"])


class TestHypothesisScoring:
    """The GEMM prefilter bounds every exact inlier count, and the exact pass
    scores and picks as the exact residuals do."""

    @both_paths
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_threshold=st.floats(-3.0, math.log10(89.0)),
           offset=st.floats(0.0, 1e4), spread=st.floats(0.05, 60.0))
    def test_counts_and_sums_match_exact_residuals(self, seed, log_threshold, offset, spread,
                                                    pruned):
        rng = np.random.default_rng(seed)
        threshold = 10.0 ** log_threshold
        direction = rng.normal(size=3)
        base = offset * direction / np.linalg.norm(direction)
        poses = []
        for _ in range(4):
            rot = quaternion_to_rotation(rng.normal(size=4))
            poses.append(Pose(rot, -rot.T @ (base + rng.uniform(-spread, spread, 3))))
        # a pose close to the first, so it too has pairs near the threshold
        tweak = quaternion_to_rotation(np.r_[1.0, rng.normal(scale=1e-3, size=3)])
        poses.append(Pose(poses[0].rotation @ tweak, poses[0].translation + 1e-3))

        n_near = 120
        pts, brs = points_at_angles(poses[0], rng.uniform(0.0, 2.0 * threshold, n_near),
                                    rng.uniform(0.05, 2.0 * spread, n_near), rng)
        centres = np.array([pose.camera_center for pose in poses])
        close = rng.normal(size=(len(poses) * 6, 3))
        close *= rng.uniform(0.0, 0.01, (len(close), 1)) / np.linalg.norm(close, axis=1,
                                                                           keepdims=True)
        extra = np.concatenate([
            base + rng.uniform(-spread, spread, (60, 3)),  # anywhere in the frame
            np.repeat(centres, 6, axis=0) + close,         # within 1 cm of a camera centre
            centres,                                       # at a camera centre
        ])
        corrs = Correspondences(np.concatenate([brs, rng.normal(size=extra.shape)]),
                                np.concatenate([pts, extra]))
        rots = np.array([pose.rotation for pose in poses])
        ts = np.array([pose.translation for pose in poses])
        check_scores(rots, ts, corrs, threshold, pruned)

    @both_paths
    @pytest.mark.parametrize("threshold", [1e-3, 0.22, 5.0, 45.0, 89.0])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_pairs_a_nanodegree_from_the_threshold(self, threshold, offset, pruned):
        rng = np.random.default_rng(int(threshold * 1000) + int(offset))
        rot = quaternion_to_rotation(rng.normal(size=4))
        pose = Pose(rot, -rot.T @ (offset * np.array([0.6, 0.0, 0.8]) + rng.normal(size=3)))
        n = 300
        angles = np.r_[np.full(n, threshold - 1e-9), np.full(n, threshold + 1e-9)]
        pts, brs = points_at_angles(pose, angles, rng.uniform(2.0, 20.0, 2 * n), rng)
        corrs = Correspondences(brs, pts)
        res = angular_residuals(pose, corrs)
        assert (res[:n] < threshold).all() and (res[n:] >= threshold).all()

        bounds, counts, sums = check_scores(pose.rotation[None], pose.translation[None],
                                            corrs, threshold, pruned)
        assert bounds[0] >= counts[0] == n
        assert sums[0] == pytest.approx(res[:n].sum(), rel=1e-12)

    @both_paths
    def test_residual_equal_to_threshold_is_an_outlier(self, rng, pruned):
        pose = random_pose(rng)
        pts, brs = points_at_angles(pose, rng.uniform(1.0, 10.0, 50),
                                    rng.uniform(2.0, 20.0, 50), rng)
        corrs = Correspondences(brs, pts)
        res = angular_residuals(pose, corrs)
        threshold = float(np.sort(res)[24])
        _, counts, sums = check_scores(pose.rotation[None], pose.translation[None], corrs,
                                       threshold, pruned)
        assert (res == threshold).sum() == 1
        assert counts[0] == (res < threshold).sum() == 24
        assert sums[0] == pytest.approx(res[res < threshold].sum(), rel=1e-12)

    @both_paths
    def test_points_at_camera_centres_far_from_the_origin(self, rng, pruned):
        # 10 km out, a point at a camera centre is a few 1e-12 m from it after
        # rounding: its exact residual is noise, often far below 89 degrees
        poses = []
        for _ in range(64):
            rot = quaternion_to_rotation(rng.normal(size=4))
            centre = np.array([6e3, 1.5, 8e3]) + rng.uniform(-50.0, 50.0, 3)
            poses.append(Pose(rot, -rot.T @ centre))
        centres = np.array([pose.camera_center for pose in poses])
        corrs = Correspondences(rng.normal(size=centres.shape), centres)
        rots = np.array([pose.rotation for pose in poses])
        ts = np.array([pose.translation for pose in poses])
        own = np.arange(len(poses))
        res = np.array([angular_residuals(pose, corrs) for pose in poses])
        assert (res[own, own] < 180.0).sum() > 40
        for threshold in (0.22, 30.0, 89.0):
            check_scores(rots, ts, corrs, threshold, pruned)

    def test_dense_and_sparse_chunks_give_the_same_estimate(self, rng):
        # with every bound at n the exact pass scores every hypothesis
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 300, rng)
        pts = corrs.world_points.copy()
        pts[:100] += rng.normal(scale=0.2, size=(100, 3))
        noisy = Correspondences(corrs.bearings, pts)
        cfg = RansacConfig(iterations=300, seed=5)
        pruned = ransac_pnp(noisy, cfg)
        solved, visited = [], []
        real_pass = pnp._exact_pass

        def every_pair(rot, t, lift, threshold):
            solved.append(len(rot))
            return np.full(len(rot), len(pts))

        def exact_pass(*args):
            out = real_pass(*args)
            visited.append(int((out[0] >= 0).sum()))
            return out

        with mock.patch.object(pnp, "_prefilter_bounds", every_pair), \
                mock.patch.object(pnp, "_exact_pass", exact_pass):
            dense = ransac_pnp(noisy, cfg)
        assert visited == [sum(solved)] and sum(solved) > 250
        assert np.array_equal(pruned.pose.rotation, dense.pose.rotation)
        assert np.array_equal(pruned.pose.translation, dense.pose.translation)
        assert np.array_equal(pruned.inlier_indices, dense.inlier_indices)
        assert pruned.mean_inlier_angle_deg == dense.mean_inlier_angle_deg

    @both_paths
    def test_blocks_of_poses_score_like_one_block(self, rng, pruned):
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 400, rng)
        tweak = quaternion_to_rotation(np.r_[1.0, rng.normal(scale=2e-3, size=3)])
        poses = [pose, Pose(pose.rotation @ tweak, pose.translation)]
        poses += [random_pose(rng) for _ in range(5)]
        rots = np.array([p.rotation for p in poses])
        ts = np.array([p.translation for p in poses])
        whole_bounds, (counts, sums, best, res) = scores(rots, ts, corrs, 0.5, pruned)
        assert best == 0 and counts[0] == 400 and 0 < sums[0] < 400
        for pairs in (1, 800, 1200):  # 1, 2 and 3 poses a block
            with mock.patch.object(pnp, "_SCORE_PAIRS", pairs):
                bounds, out = scores(rots, ts, corrs, 0.5, pruned)
            assert np.array_equal(bounds, whole_bounds)
            assert np.array_equal(out[0], counts) and np.array_equal(out[1], sums)
            assert out[2] == best and np.array_equal(out[3], res)

    @pytest.mark.parametrize("inlier_share", [1.0, 0.2, 0.0])
    def test_scoring_memory_does_not_grow_with_survivors(self, rng, inlier_share):
        # a full chunk against 5000 points, every pose alike, so the exact
        # pass visits all of them; scored as one block, the old one-pass
        # scoring took 15 MB with no survivors and 64 MB with all
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 5000, rng)
        pts = corrs.world_points.copy()
        moved = int(5000 * (1.0 - inlier_share))
        pts[:moved] += rng.normal(scale=1.0, size=(moved, 3))
        noisy = Correspondences(corrs.bearings, pts)
        rots = np.repeat(pose.rotation[None], pnp._HYPOTHESIS_CHUNK, axis=0)
        ts = np.repeat(pose.translation[None], pnp._HYPOTHESIS_CHUNK, axis=0)
        lift = pnp._lift_points(pts, noisy.bearings)
        tracemalloc.start()
        try:
            bounds = pnp._prefilter_bounds(rots, ts, lift, 0.22)
            counts, _, best, _ = pnp._exact_pass(bounds, rots, ts, pts, noisy.bearings, 0.22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds[0] >= counts[0] >= 5000 - moved
        assert peak < 10 * 2 ** 20

    @both_paths
    def test_threshold_next_to_ninety_degrees_scores_every_pair(self, rng, pruned):
        # the widened angle would pass 90 degrees; every pair goes to the exact test
        threshold = 90.0 - 1e-13
        pose = random_pose(rng)
        angles = rng.uniform(0.0, 180.0, 200)
        pts, brs = points_at_angles(pose, angles, rng.uniform(1.0, 30.0, 200), rng)
        corrs = Correspondences(brs, pts)
        rots, ts = pose.rotation[None], pose.translation[None]
        bounds, counts, sums = check_scores(rots, ts, corrs, threshold, pruned)
        want_counts, want_sums = exact_scores(rots, ts, corrs, threshold)
        assert bounds[0] == 200
        assert counts[0] == want_counts[0] == (angles < 90.0).sum()
        assert sums[0] == pytest.approx(want_sums[0], rel=1e-12)


class TestRansacConfigValidation:
    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            RansacConfig(iterations=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold_deg=0.0)
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold_deg=90.0)
