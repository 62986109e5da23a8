"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight fixtures
(city dataset renders) are shared across criteria; kernel warm-up happens
before any timed section so budgets measure algorithmic cost, not JIT
compilation.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import maxwell

from conftest import camera_to_world, random_pose, synthetic_corrs, whiten_image
from panoloc import fileio, pnp
from panoloc.cli import main as cli_main
from panoloc.evaluation import (coord_distances, coord_metrics, error_curves, pose_metrics,
                                roc_percentages)
from panoloc.fileio import load_poses_jsonl
from panoloc.geometry import Pose, image_bearings, pixel_to_bearing, relative_pose_errors
from panoloc.images import SceneCoordinateImage
from panoloc.instance_map import build_instance_map, fit_whitening, unwhiten, whiten
from panoloc.losses import loss_l1_repr
from panoloc.pnp import Correspondences, RansacConfig, epnp_bearing, ransac_pnp
from panoloc.scene_sim import (CityScene, Cuboid, NoiseModel, approximate_city,
                               generate_city, raycast_render, remove_buildings,
                               sample_trajectory, simulate_predictions)

DATASET_POSES = 100
DATASET_DIMS = "512x256"


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d}: {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Compile every jitted kernel before any timed section."""
    rng = np.random.default_rng(0)
    pose = random_pose(rng)
    epnp_bearing(synthetic_corrs(pose, 8, rng))
    ransac_pnp(synthetic_corrs(pose, 30, rng), RansacConfig(iterations=2, seed=0))
    scene = generate_city(2, (2, 2), seed=0)
    raycast_render(scene, sample_trajectory(scene, 1, seed=0)[0][1], (64, 32))


@pytest.fixture(scope="module")
def city_dataset(tmp_path_factory):
    """Small-preset city rendered over 100 poses, with a fitted instance map."""
    root = tmp_path_factory.mktemp("city")
    gen, frames = root / "gen", root / "frames"
    t0 = time.perf_counter()
    assert cli_main(["generate", "--preset", "small", "--poses", str(DATASET_POSES),
                     "--seed", "7", "--out", str(gen)]) == 0
    assert cli_main(["render", "--scene", str(gen / "scene.json"),
                     "--poses", str(gen / "poses.jsonl"), "--dims", DATASET_DIMS,
                     "--out", str(frames)]) == 0
    assert cli_main(["fit-map", "--frames", str(frames),
                     "--out", str(root / "map.json")]) == 0
    elapsed = time.perf_counter() - t0
    return {"root": root, "gen": gen, "frames": frames,
            "map": root / "map.json", "prep_seconds": elapsed}


def test_criterion_01_whitening_round_trip(rng):
    t0 = time.perf_counter()
    planar_facade = np.column_stack([rng.uniform(-8, 8, 4000),
                                     rng.uniform(0, 20, 4000),
                                     np.full(4000, 3.0)])
    full_rank_clouds = [
        np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                 dtype=float) * [4.0, 9.0, 2.5] + [120.0, 9.0, -40.0],
        rng.normal(size=(5000, 3)) * [6.0, 2.0, 0.4] + [0.0, 5.0, 200.0],
        rng.uniform(-1, 1, (2000, 3)) * [15.0, 1.0, 15.0],
    ]
    max_round_trip = 0.0
    max_mean = 0.0
    max_cov_dev = 0.0
    for i, pts in enumerate(full_rank_clouds + [planar_facade]):
        tf = fit_whitening(pts, 1000 + i)
        world = rng.uniform(-300.0, 300.0, (100_000, 3))
        back = unwhiten(tf, whiten(tf, world))
        max_round_trip = max(max_round_trip, float(np.abs(back - world).max()))
        local = whiten(tf, pts)
        max_mean = max(max_mean, float(np.linalg.norm(local.mean(axis=0))))
        if pts is not planar_facade:  # identity holds where the floor is negligible
            centered = local - local.mean(axis=0)
            cov = centered.T @ centered / pts.shape[0]
            max_cov_dev = max(max_cov_dev, float(np.abs(cov - np.eye(3)).max()))
    elapsed = time.perf_counter() - t0
    ok = max_round_trip < 1e-9 and max_mean < 1e-8 and max_cov_dev < 1e-6 and elapsed < 5.0
    report(1, ok, f"whitening round trip incl. planar facade: max err "
                  f"{max_round_trip:.2e} m, mean {max_mean:.2e}, "
                  f"cov dev {max_cov_dev:.2e}, {elapsed:.1f}s")


def test_criterion_02_epnp_noiseless_recovery():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_rot = worst_dist = 0.0
    failures = 0
    for _ in range(1000):
        pose = random_pose(rng)
        est = epnp_bearing(synthetic_corrs(pose, 50, rng))
        dist, angle = relative_pose_errors(est, pose)
        rot_rad = math.radians(angle)
        worst_rot = max(worst_rot, rot_rad)
        worst_dist = max(worst_dist, dist)
        if rot_rad >= 1e-4 or dist >= 1e-4:
            failures += 1
    planar_worst_rot = planar_worst_dist = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        est = epnp_bearing(synthetic_corrs(pose, 20, rng, planar=True))
        dist, angle = relative_pose_errors(est, pose)
        planar_worst_rot = max(planar_worst_rot, math.radians(angle))
        planar_worst_dist = max(planar_worst_dist, dist)
        if math.radians(angle) >= 1e-3 or dist >= 1e-3:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    report(2, ok, f"noiseless recovery 1000+1000 trials: worst general "
                  f"{worst_rot:.2e} rad / {worst_dist:.2e} m, planar "
                  f"{planar_worst_rot:.2e} rad / {planar_worst_dist:.2e} m, "
                  f"{failures} failures, {elapsed:.1f}s")


def test_criterion_03_ransac_robustness(monkeypatch):
    t0 = time.perf_counter()
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(30_000 + trial)
        pose = random_pose(rng)
        corrs = synthetic_corrs(pose, 500, rng, depth=(5.0, 60.0))
        pts = corrs.world_points.copy()
        outliers = rng.permutation(500)[:200]
        pts[outliers] = rng.uniform(-80.0, 80.0, (200, 3))
        noisy = Correspondences(corrs.bearings, pts)
        est = ransac_pnp(noisy, RansacConfig(seed=trial))
        dist, angle = relative_pose_errors(est.pose, pose)
        if dist < 0.05 and angle < 0.1:
            successes += 1
        if trial < 3:
            # hypotheses solved 7 at a time instead of in one chunk
            with monkeypatch.context() as patch:
                patch.setattr(pnp, "_HYPOTHESIS_CHUNK", 7)
                other = ransac_pnp(noisy, RansacConfig(seed=trial))
            assert np.array_equal(est.pose.rotation, other.pose.rotation)
            assert np.array_equal(est.pose.translation, other.pose.translation)
            assert np.array_equal(est.inlier_indices, other.inlier_indices)
    elapsed = time.perf_counter() - t0
    ok = successes >= 99 and elapsed < 120.0
    report(3, ok, f"ransac 40% outliers: {successes}/100 within 0.1 deg / 0.05 m, "
                  f"bitwise the same in chunks of 7 on 3 trials, {elapsed:.1f}s")


def _random_coord_image(rng, h=8, w=16, invalid=0.2):
    bearings = image_bearings(w, h)
    pose = random_pose(rng)
    depth = rng.uniform(3.0, 30.0, (h, w, 1))
    coords = camera_to_world(pose, (bearings * depth).reshape(-1, 3)).reshape(h, w, 3)
    coords += rng.normal(scale=0.5, size=coords.shape)
    coords[rng.uniform(size=(h, w)) < invalid] = np.nan
    return SceneCoordinateImage(coords), pose, bearings


def test_criterion_04_gradient_correctness(rng):
    from conftest import gradient_close, numeric_gradient
    from panoloc.images import LabelImage
    from panoloc.losses import (LogitImage, cross_entropy, loss_l2_rec, loss_l3,
                                loss_l4, loss_l5)

    t0 = time.perf_counter()
    pred, pose, bearings = _random_coord_image(rng)
    gt, _, _ = _random_coord_image(rng)
    ids = [0, 1, 2, 1000, 1001]
    logits = LogitImage(rng.normal(size=(8, 16, 5)), np.array(ids))
    labels = LabelImage(rng.choice(ids, size=(8, 16)).astype(np.uint32))
    pts = np.vstack([rng.normal(size=(30, 3)) * 2.0,
                     rng.normal(size=(30, 3)) * 2.0 + 40.0])
    imap = build_instance_map(pts, np.array([1000] * 30 + [1001] * 30))
    local_gt = SceneCoordinateImage(whiten_image(imap, gt.coords, labels.labels))
    local_pred = SceneCoordinateImage(
        local_gt.coords + rng.normal(scale=0.3, size=local_gt.coords.shape))

    checks = []
    both = pred.mask & gt.mask
    coord_idx = rng.choice(np.flatnonzero(np.repeat(both.ravel(), 3)), 100, replace=False)
    logit_idx = rng.choice(logits.scores.size, 100, replace=False)
    local_both = local_pred.mask & local_gt.mask
    local_idx = rng.choice(np.flatnonzero(np.repeat(local_both.ravel(), 3)), 100, replace=False)

    checks.append(("L1-direction", gradient_close(
        loss_l1_repr(pred, pose, bearings)[1].reshape(-1)[coord_idx],
        numeric_gradient(lambda c: loss_l1_repr(SceneCoordinateImage(c), pose, bearings)[0],
                         pred.coords, coord_idx))))
    checks.append(("L2-reconstruction", gradient_close(
        loss_l2_rec(pred, gt)[1].reshape(-1)[coord_idx],
        numeric_gradient(lambda c: loss_l2_rec(SceneCoordinateImage(c), gt)[0],
                         pred.coords, coord_idx))))
    checks.append(("L3-blend", gradient_close(
        loss_l3(pred, gt, pose, bearings)[1].reshape(-1)[coord_idx],
        numeric_gradient(lambda c: loss_l3(SceneCoordinateImage(c), gt, pose, bearings)[0],
                         pred.coords, coord_idx))))
    checks.append(("cross-entropy", gradient_close(
        cross_entropy(logits, labels)[1].reshape(-1)[logit_idx],
        numeric_gradient(lambda s: cross_entropy(LogitImage(s, np.array(ids)), labels)[0],
                         logits.scores, logit_idx))))
    g4c, g4l = loss_l4(pred, gt, logits, labels)[1]
    checks.append(("L4-coords", gradient_close(
        g4c.reshape(-1)[coord_idx],
        numeric_gradient(lambda c: loss_l4(SceneCoordinateImage(c), gt, logits, labels)[0],
                         pred.coords, coord_idx))))
    checks.append(("L4-logits", gradient_close(
        g4l.reshape(-1)[logit_idx],
        numeric_gradient(lambda s: loss_l4(pred, gt, LogitImage(s, np.array(ids)), labels)[0],
                         logits.scores, logit_idx))))
    g5c, g5l = loss_l5(local_pred, local_gt, logits, labels)[1]
    checks.append(("L5-coords", gradient_close(
        g5c.reshape(-1)[local_idx],
        numeric_gradient(lambda c: loss_l5(SceneCoordinateImage(c), local_gt, logits, labels)[0],
                         local_pred.coords, local_idx))))
    checks.append(("L5-logits", gradient_close(
        g5l.reshape(-1)[logit_idx],
        numeric_gradient(lambda s: loss_l5(local_pred, local_gt, LogitImage(s, np.array(ids)),
                                           labels)[0],
                         logits.scores, logit_idx))))
    elapsed = time.perf_counter() - t0
    bad = [name for name, ok in checks if not ok]
    ok = not bad and elapsed < 60.0
    report(4, ok, f"finite-difference gradients (rel err < 1e-4 at 100 pts each): "
                  f"{len(checks) - len(bad)}/{len(checks)} blocks pass"
                  + (f", failing {bad}" if bad else "") + f", {elapsed:.1f}s")


def test_criterion_05_l1_radial_invariance(rng):
    pred, pose, bearings = _random_coord_image(rng, invalid=0.1)
    base, _ = loss_l1_repr(pred, pose, bearings)
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        cam = pose.world_to_camera(pred.coords.reshape(-1, 3)) * lam
        scaled = SceneCoordinateImage(camera_to_world(pose, cam).reshape(pred.coords.shape))
        value, _ = loss_l1_repr(scaled, pose, bearings)
        worst = max(worst, abs(value - base))
    ok = worst < 1e-9
    report(5, ok, f"depth rescaling by 0.5/2/10 changes the direction loss by "
                  f"{worst:.2e} (< 1e-9)")


def _localize_frames(frames_dir, map_path, seed, sigma=0.0, outlier=0.0, flips=0.0,
                     pred_dir=None):
    """Library-level localisation over a rendered frame directory."""
    imap = fileio.load_instance_map(map_path)
    map_labels = np.array(imap.instance_labels(), dtype=np.uint32)
    frames = sorted(p.stem for p in frames_dir.glob("*.scrd"))
    first = fileio.load_coords(frames_dir / f"{frames[0]}.scrd")
    bearings = image_bearings(first.width, first.height)
    errors = []
    pct_chunks = []
    for i, frame in enumerate(frames):
        coords = fileio.load_coords(frames_dir / f"{frame}.scrd")
        labels = fileio.load_labels(frames_dir / f"{frame}.lbls")
        if sigma or outlier or flips:
            noise = NoiseModel(coord_sigma=sigma, outlier_rate=outlier,
                               label_flip_rate=flips, seed=seed + i)
            pred_coords, pred_labels = simulate_predictions(coords, labels, noise, imap)
        else:
            pred_coords, pred_labels = coords, labels
        if pred_dir is not None:
            fileio.save_coords(pred_dir / f"{frame}.scrd", pred_coords)
            fileio.save_labels(pred_dir / f"{frame}.lbls", pred_labels)
        gt_building = coords.mask & np.isin(labels.labels, map_labels)
        # distances come in raster order over gt-valid pixels; pick the buildings among them
        pct_chunks.append(coord_distances(pred_coords, coords)[0][gt_building[coords.mask]])
        sel = pred_coords.mask & np.isin(pred_labels.labels, map_labels)
        rows, cols = np.nonzero(sel)
        if rows.size < 4:
            continue
        if rows.size > 5000:
            gen = np.random.Generator(np.random.Philox(
                key=np.array([seed, 20_000 + i], dtype=np.uint64)))
            keep = np.sort(gen.permutation(rows.size)[:5000])
            rows, cols = rows[keep], cols[keep]
        corrs = Correspondences(bearings[rows, cols], pred_coords.coords[rows, cols])
        est = ransac_pnp(corrs, RansacConfig(seed=seed + i))
        errors.append((frame, est.pose))
    dist = np.concatenate(pct_chunks)
    pct_half_m = 100.0 * float((dist <= 0.5).sum()) / dist.size
    return errors, pct_half_m


def test_criterion_06_zero_noise_end_to_end(city_dataset):
    t0 = time.perf_counter()
    gt_poses = dict(load_poses_jsonl(city_dataset["gen"] / "poses.jsonl"))
    estimates, _ = _localize_frames(city_dataset["frames"], city_dataset["map"], seed=600)
    errors = [relative_pose_errors(pose, gt_poses[frame]) for frame, pose in estimates]
    metrics = pose_metrics(errors)
    elapsed = time.perf_counter() - t0 + city_dataset["prep_seconds"]
    ok = (len(errors) == DATASET_POSES and metrics.median_dist_m < 0.01
          and metrics.median_angle_deg < 0.01 and elapsed < 600.0)
    report(6, ok, f"zero-noise pipeline over {len(errors)} frames at 512x256: median "
                  f"{metrics.median_dist_m * 100:.4f} cm / {metrics.median_angle_deg:.6f} deg, "
                  f"{elapsed:.0f}s total")


def test_criterion_07_calibrated_surrogate(city_dataset):
    sigma = 0.33
    expected_clean = maxwell.cdf(0.5, scale=sigma)
    gt_poses = dict(load_poses_jsonl(city_dataset["gen"] / "poses.jsonl"))
    estimates, pct_half_m = _localize_frames(
        city_dataset["frames"], city_dataset["map"], seed=700,
        sigma=sigma, outlier=0.02, flips=0.02)
    errors = [relative_pose_errors(pose, gt_poses[frame]) for frame, pose in estimates]
    metrics = pose_metrics(errors)
    ok = (44.0 <= pct_half_m <= 53.0 and len(errors) >= 95
          and metrics.median_dist_m < 1.0 and metrics.median_angle_deg < 2.0)
    report(7, ok, f"surrogate predictor (sigma={sigma}, clean-pixel target "
                  f"{100 * expected_clean:.1f}%): {pct_half_m:.1f}% within 0.5 m, median pose "
                  f"error {metrics.median_dist_m:.3f} m / {metrics.median_angle_deg:.3f} deg "
                  f"over {len(errors)} frames")


def test_criterion_08_approximate_map_fixed_point(tmp_path):
    scene = generate_city(25, (6, 6), seed=88)
    approx = approximate_city(scene)
    scenes_equal = approx.buildings == scene.buildings

    exact_dir, approx_dir = tmp_path / "exact", tmp_path / "approx"
    fileio.save_scene(tmp_path / "exact.json", scene)
    fileio.save_scene(tmp_path / "approx.json", approx)
    frames = sample_trajectory(scene, 8, seed=88)
    from panoloc.fileio import save_poses_jsonl
    save_poses_jsonl(tmp_path / "poses.jsonl", frames)

    outputs = {}
    for name, scene_file in (("exact", "exact.json"), ("approx", "approx.json")):
        fdir = tmp_path / f"frames_{name}"
        ldir = tmp_path / f"loc_{name}"
        assert cli_main(["render", "--scene", str(tmp_path / scene_file),
                         "--poses", str(tmp_path / "poses.jsonl"), "--dims", "256x128",
                         "--out", str(fdir)]) == 0
        assert cli_main(["fit-map", "--frames", str(fdir),
                         "--out", str(tmp_path / f"map_{name}.json")]) == 0
        assert cli_main(["localize", "--frames", str(fdir),
                         "--map", str(tmp_path / f"map_{name}.json"),
                         "--seed", "8", "--out", str(ldir)]) == 0
        outputs[name] = (ldir / "estimates.jsonl").read_bytes()
    scene_bytes_equal = (tmp_path / "exact.json").read_bytes() == \
        (tmp_path / "approx.json").read_bytes()
    estimates_equal = outputs["exact"] == outputs["approx"]
    ok = scenes_equal and scene_bytes_equal and estimates_equal
    report(8, ok, "cuboid approximation of a cuboid city is its fixed point; "
                  "localisation outputs are byte-identical")


def test_criterion_09_metric_oracles(rng):
    def oracle_coord(pred, gt):
        h, w, _ = gt.coords.shape
        dists = []
        for r in range(h):
            for c in range(w):
                if not np.all(np.isfinite(gt.coords[r, c])):
                    continue
                if np.all(np.isfinite(pred.coords[r, c])):
                    dx = pred.coords[r, c, 0] - gt.coords[r, c, 0]
                    dy = pred.coords[r, c, 1] - gt.coords[r, c, 1]
                    dz = pred.coords[r, c, 2] - gt.coords[r, c, 2]
                    dists.append(math.sqrt(dx * dx + dy * dy + dz * dz))
                else:
                    dists.append(float("inf"))
        return np.array(dists)

    def oracle_percentile(values, q):
        x = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
        pos = (x.size - 1) * q / 100.0
        lo = int(math.floor(pos))
        hi = min(lo + 1, x.size - 1)
        return x[lo] + (pos - lo) * (x[hi] - x[lo])

    all_ok = True
    for fixture in range(20):
        frng = np.random.default_rng(9000 + fixture)
        h, w = 4, 8
        gt = frng.uniform(-20, 20, (h, w, 3))
        gt[frng.uniform(size=(h, w)) < 0.2] = np.nan
        pred = gt + frng.normal(scale=1.5, size=gt.shape)
        pred[frng.uniform(size=(h, w)) < 0.1] = np.nan
        pred_img, gt_img = SceneCoordinateImage(pred), SceneCoordinateImage(gt)

        od = oracle_coord(pred_img, gt_img)
        dist = coord_distances(pred_img, gt_img)[0]
        m = coord_metrics(dist)
        within3 = od[od <= 3.0]
        all_ok &= m.pct_within_0_5m == 100.0 * (od <= 0.5).sum() / od.size
        all_ok &= m.pct_within_1m == 100.0 * (od <= 1.0).sum() / od.size
        all_ok &= m.pct_within_3m == 100.0 * (od <= 3.0).sum() / od.size
        all_ok &= m.mean_dist_within_3m == (float(np.mean(within3)) if within3.size else 0.0)
        all_ok &= m.n_valid == od.size

        grid = [0.25, 0.5, 1.0, 2.0, 3.0]
        pct = roc_percentages(dist, grid)
        for t, p in zip(grid, pct):
            all_ok &= p == 100.0 * (od <= t).sum() / od.size

        errors = [(float(d), float(a)) for d, a in frng.uniform(0, 10, (30, 2))]
        pm = pose_metrics(errors, percentiles=[80])
        darr = [e[0] for e in errors]
        aarr = [e[1] for e in errors]
        all_ok &= pm.median_dist_m == oracle_percentile(darr, 50)
        all_ok &= pm.p95_dist_m == oracle_percentile(darr, 95)
        all_ok &= pm.median_angle_deg == oracle_percentile(aarr, 50)
        all_ok &= pm.p95_angle_deg == oracle_percentile(aarr, 95)
        all_ok &= pm.extra_percentiles[80.0][0] == oracle_percentile(darr, 80)

        curve_d, curve_a = error_curves(errors)
        all_ok &= np.array_equal(curve_d, np.array(sorted(darr)))
        all_ok &= np.array_equal(curve_a, np.array(sorted(aarr)))
    report(9, bool(all_ok), "coord_distances with coord_metrics and roc_percentages, "
                            "pose_metrics and error_curves match brute-force recomputation "
                            "exactly on 20 fixtures")


def _courtyard_scene():
    """Four tall walls enclosing the camera, plus interior boxes and three
    distant short buildings that the walls fully occlude."""
    walls = [
        Cuboid(np.array([0.0, 12.0, 30.0]), np.array([40.0, 12.0, 1.0]), 0.0, 1000),
        Cuboid(np.array([0.0, 12.0, -30.0]), np.array([40.0, 12.0, 1.0]), 0.0, 1001),
        Cuboid(np.array([30.0, 12.0, 0.0]), np.array([1.0, 12.0, 28.0]), 0.0, 1002),
        Cuboid(np.array([-30.0, 12.0, 0.0]), np.array([1.0, 12.0, 28.0]), 0.0, 1003),
    ]
    interior = [
        Cuboid(np.array([10.0, 3.0, 8.0]), np.array([2.0, 3.0, 3.0]), 0.2, 1004),
        Cuboid(np.array([-12.0, 4.0, -6.0]), np.array([3.0, 4.0, 2.0]), -0.3, 1005),
    ]
    far = [
        Cuboid(np.array([400.0, 2.0, 0.0]), np.array([5.0, 2.0, 5.0]), 0.0, 1006),
        Cuboid(np.array([0.0, 2.0, 400.0]), np.array([5.0, 2.0, 5.0]), 0.1, 1007),
        Cuboid(np.array([-400.0, 2.0, 120.0]), np.array([5.0, 2.0, 5.0]), 0.0, 1008),
    ]
    return CityScene.from_cuboids(walls + interior + far, 9, 0)


def test_criterion_10_building_removal(tmp_path):
    # paper-scale count: removing 20% of the 102-building preset keeps 82
    small = generate_city(102, (13, 12), seed=7)
    kept = remove_buildings(small, 0.2, seed=1)
    count_ok = len(kept.buildings) == 82

    # removed instances never appear in renders of the reduced scene
    _, pose = sample_trajectory(small, 1, seed=2)[0]
    removed_labels = set(small.box_labels.tolist()) - set(kept.box_labels.tolist())
    _, labels = raycast_render(kept, pose, (256, 128))
    label_ok = not (set(np.unique(labels.labels)) & removed_labels)

    # frames that never see a removed building localize identically
    scene = _courtyard_scene()
    removal_seed = next(
        s for s in range(1000)
        if {b.label for b in scene.buildings}
        - {b.label for b in remove_buildings(scene, 0.2, seed=s).buildings}
        <= {1006, 1007, 1008})
    reduced = remove_buildings(scene, 0.2, removal_seed)
    pose = Pose(np.diag([-1.0, -1.0, 1.0]), -np.diag([-1.0, -1.0, 1.0]).T @
                np.array([2.0, 2.0, -1.0]))
    byte_results = []
    for name, s in (("full", scene), ("reduced", reduced)):
        coords, labs = raycast_render(s, pose, (256, 128))
        fdir = tmp_path / name
        fdir.mkdir()
        fileio.save_coords(fdir / "000000.scrd", coords)
        fileio.save_labels(fdir / "000000.lbls", labs)
        assert cli_main(["fit-map", "--frames", str(fdir),
                         "--out", str(tmp_path / f"map_{name}.json")]) == 0
        assert cli_main(["localize", "--frames", str(fdir),
                         "--map", str(tmp_path / f"map_{name}.json"),
                         "--seed", "5", "--out", str(tmp_path / f"loc_{name}")]) == 0
        byte_results.append((tmp_path / f"loc_{name}" / "estimates.jsonl").read_bytes())
    full_visible = set(np.unique(raycast_render(scene, pose, (256, 128))[1].labels))
    unaffected = not (full_visible & {1006, 1007, 1008})
    bitwise_ok = unaffected and byte_results[0] == byte_results[1]

    ok = count_ok and label_ok and bitwise_ok
    report(10, ok, f"removal: 82/102 kept, removed labels absent from renders, "
                   f"unaffected-frame localisation byte-identical "
                   f"(courtyard removal seed {removal_seed})")
