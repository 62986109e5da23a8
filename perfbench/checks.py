"""Output checks for each pipeline stage, computed by the benchmark itself.

Nothing here calls panoloc: the file formats, the camera model, the ray
caster, the whitening fit and the metrics are re-derived from the formats
and conventions in the project README, so that a fault in the program
cannot hide behind the same fault in its check. Each check returns a list
of problems; an empty list means the stage's output is correct.
"""

import json
import math
from pathlib import Path

import numpy as np

SKY, ROAD, FIRST_INSTANCE = 1, 2, 1000
EIGENVALUE_FLOOR = 1e-8

# Render: the program stores float32 coordinates; on the large preset
# (~600 m across) the rounding alone puts hits up to 3e-5 m off their
# surface and 9e-4 deg off their ray, and these tolerances sit 16x and 5x
# above that.
SURFACE_TOL_M = 5e-4
RAY_TOL_DEG = 5e-3
ROAD_Y_TOL_M = 1e-4
BRUTE_FORCE_PIXELS = 256
# predict-sim: a clean pixel's error is Gaussian with sigma per axis, so
# beyond 8 sigma it is an outlier (chance of a clean pixel that far: 1e-13).
OUTLIER_SIGMAS = 8.0
# Two-sided binomial bound, in standard deviations (false alarm ~2e-9).
BINOMIAL_Z = 6.0


# ---------------------------------------------------------------------------
# Readers (independent of panoloc.fileio)
# ---------------------------------------------------------------------------


def _read_raster(path, magic, channels, dtype):
    data = Path(path).read_bytes()
    head, dims, payload = data.split(b"\n", 2)
    if head != magic:
        raise ValueError(f"{path}: bad magic {head!r}")
    fields = [int(x) for x in dims.split()]
    width, height = fields[0], fields[1]
    if width != 2 * height or (channels > 1 and fields[2] != channels):
        raise ValueError(f"{path}: bad header {dims!r}")
    arr = np.frombuffer(payload, dtype=dtype)
    if arr.size != width * height * channels:
        raise ValueError(f"{path}: payload holds {arr.size} values, header says "
                         f"{width * height * channels}")
    shape = (height, width, channels) if channels > 1 else (height, width)
    return arr.reshape(shape)


def read_coords(path) -> np.ndarray:
    """(H, W, 3) float64 scene coordinates of an SCRD1 file."""
    return _read_raster(path, b"SCRD1", 3, "<f4").astype(np.float64)


def read_labels(path) -> np.ndarray:
    """(H, W) uint32 labels of an LBLS1 file."""
    return _read_raster(path, b"LBLS1", 1, "<u4").copy()


def quaternion_rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def read_poses(path) -> dict:
    """{frame: (R camera-to-world, T)} from a pose or estimate JSON Lines file;
    failed estimate records map to None."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            out[rec["frame"]] = (None if rec.get("failed") else
                                 (quaternion_rotation(rec["q"]), np.asarray(rec["t"], float)))
    return out


def read_scene(path) -> dict:
    """{label: (center, half_extents, yaw)} of a scene JSON file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {int(b["label"]): (np.asarray(b["center"], float),
                              np.asarray(b["half_extents"], float), float(b["yaw"]))
            for b in doc["buildings"]}


def pose_error(est, gt) -> tuple:
    """(camera-centre distance in m, rotation angle in degrees)."""
    (r_est, t_est), (r_gt, t_gt) = est, gt
    dist = float(np.linalg.norm(r_est @ t_est - r_gt @ t_gt))
    cos_angle = (np.trace(r_est.T @ r_gt) - 1.0) / 2.0
    return dist, math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))


def frame_names(frames_dir) -> list:
    return sorted(p.stem for p in Path(frames_dir).glob("*.scrd"))


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def world_rays(rotation, width, height) -> np.ndarray:
    """(H, W, 3) world directions of the pixel centres (equirectangular)."""
    theta = 2.0 * np.pi * (np.arange(width) + 0.5) / width - np.pi
    phi = np.pi / 2.0 - np.pi * (np.arange(height) + 0.5) / height
    theta, phi = np.meshgrid(theta, phi)
    cam = np.stack([np.cos(phi) * np.sin(theta), -np.sin(phi),
                    np.cos(phi) * np.cos(theta)], axis=-1)
    return cam @ rotation.T


def _box_frames(boxes, labels):
    """Centres, half extents, cos and sin of yaw for the given labels."""
    center = np.array([boxes[lab][0] for lab in labels]).reshape(-1, 3)
    half = np.array([boxes[lab][1] for lab in labels]).reshape(-1, 3)
    yaw = np.array([boxes[lab][2] for lab in labels])
    return center, half, np.cos(yaw), np.sin(yaw)


def _to_local(vec, c, s):
    """Rotate world vectors into box frames (world = Ry(yaw) @ local)."""
    x = c * vec[..., 0] - s * vec[..., 2]
    return np.stack([x, np.broadcast_to(vec[..., 1], x.shape),
                     s * vec[..., 0] + c * vec[..., 2]], axis=-1)


def nearest_hits(origin, dirs, boxes) -> tuple:
    """Brute-force nearest hit over every cuboid and the ground plane.

    Returns (label, ambiguous) per ray; a ray is ambiguous when its two
    nearest surfaces lie within a relative 1e-9 of each other (an edge).
    """
    labels = np.array(sorted(boxes))
    center, half, c, s = _box_frames(boxes, labels)
    o = _to_local(origin - center, c, s)                       # (B, 3)
    d = _to_local(dirs[:, None, :], c[None], s[None])          # (R, B, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - o) / d
        t2 = (half - o) / d
    near = np.where(d == 0.0, np.where(np.abs(o) <= half, -np.inf, np.inf), np.minimum(t1, t2))
    far = np.where(d == 0.0, np.where(np.abs(o) <= half, np.inf, -np.inf), np.maximum(t1, t2))
    t_in, t_out = near.max(axis=2), far.min(axis=2)
    t_box = np.where((t_out >= t_in) & (t_in > 0.0), t_in, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dirs[:, 1] < 0.0, -origin[1] / dirs[:, 1], np.inf)
    t_all = np.concatenate([t_box, t_ground[:, None]], axis=1)
    order = np.argsort(t_all, axis=1)
    first = np.take_along_axis(t_all, order[:, :1], axis=1)[:, 0]
    second = np.take_along_axis(t_all, order[:, 1:2], axis=1)[:, 0]
    label = np.where(order[:, 0] < labels.size, labels[np.minimum(order[:, 0], labels.size - 1)],
                     ROAD)
    label = np.where(np.isfinite(first), label, SKY)
    with np.errstate(invalid="ignore"):
        ambiguous = np.isfinite(first) & (second - first <= 1e-9 * first)
    return label, ambiguous


def check_render(frames_dir, poses_path, scene_path, seed) -> tuple:
    """Problems in a render output directory, plus per-frame facts
    (visible buildings) for the trace."""
    problems, visible = [], []
    poses = read_poses(poses_path)
    boxes = read_scene(scene_path)
    names = frame_names(frames_dir)
    if names != sorted(poses):
        problems.append(f"frames {names} differ from poses {sorted(poses)}")
    for index, name in enumerate(names):
        if name not in poses:
            continue
        coords = read_coords(Path(frames_dir) / f"{name}.scrd")
        labels = read_labels(Path(frames_dir) / f"{name}.lbls")
        if coords.shape[:2] != labels.shape:
            problems.append(f"{name}: coordinate and label dims differ")
            continue
        rotation, translation = poses[name]
        origin = -rotation @ translation
        height, width = labels.shape
        rays = world_rays(rotation, width, height)
        finite = np.isfinite(coords).all(axis=2)
        building = labels >= FIRST_INSTANCE
        unknown = np.setdiff1d(np.unique(labels[building]), list(boxes))
        if unknown.size:
            problems.append(f"{name}: labels {unknown[:5].tolist()} are no building of the scene")
            continue
        if np.any(finite != (labels != SKY)) or np.any((labels < FIRST_INSTANCE) & (labels != SKY)
                                                       & (labels != ROAD)):
            problems.append(f"{name}: pixels without coordinates are not exactly the sky, "
                            f"or a class label other than sky and road appears")
            continue
        visible.append(int(np.unique(labels[building]).size))

        # every hit lies on its pixel's ray
        offset = coords[finite] - origin
        cos = (offset * rays[finite]).sum(axis=1) / np.linalg.norm(offset, axis=1)
        worst_ray = float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).max(initial=0.0))
        if worst_ray > RAY_TOL_DEG:
            problems.append(f"{name}: a hit lies {worst_ray:.2e} deg off its pixel's ray")
        # road pixels on the ground plane
        road_y = np.abs(coords[labels == ROAD][:, 1]).max(initial=0.0)
        if road_y > ROAD_Y_TOL_M:
            problems.append(f"{name}: a road pixel lies {road_y:.2e} m off the ground")
        # building pixels on the surface of their labelled cuboid
        center, half, c, s = _box_frames(boxes, labels[building])
        local = np.abs(_to_local(coords[building] - center, c, s))
        off_surface = np.abs((local - half).max(axis=1)).max(initial=0.0)
        if off_surface > SURFACE_TOL_M:
            problems.append(f"{name}: a building pixel lies {off_surface:.2e} m off its cuboid")
        # a sample of pixels against a brute-force nearest hit
        rng = np.random.default_rng([seed, index])
        pix = rng.choice(width * height, size=min(BRUTE_FORCE_PIXELS, width * height),
                         replace=False)
        want, ambiguous = nearest_hits(origin, rays.reshape(-1, 3)[pix], boxes)
        wrong = (labels.reshape(-1)[pix] != want) & ~ambiguous
        if wrong.any():
            problems.append(f"{name}: {int(wrong.sum())} of {pix.size} sampled pixels carry "
                            f"another label than the nearest surface")
    return problems, visible


# ---------------------------------------------------------------------------
# fit-map
# ---------------------------------------------------------------------------


def building_points(frames_dir) -> tuple:
    """(points, labels) of every building pixel with coordinates."""
    pts, labs = [], []
    for name in frame_names(frames_dir):
        coords = read_coords(Path(frames_dir) / f"{name}.scrd")
        labels = read_labels(Path(frames_dir) / f"{name}.lbls")
        sel = np.isfinite(coords).all(axis=2) & (labels >= FIRST_INSTANCE)
        pts.append(coords[sel])
        labs.append(labels[sel])
    return np.concatenate(pts), np.concatenate(labs)


def check_fit_map(frames_dir, map_path) -> list:
    problems = []
    doc = json.loads(Path(map_path).read_text(encoding="utf-8"))
    records = {int(r["id"]): r for r in doc["labels"]}
    pts, labs = building_points(frames_dir)
    ids, counts = np.unique(labs, return_counts=True)
    expected = set(ids[counts >= 4].tolist())
    if set(records) != expected:
        problems.append(f"map instances {sorted(set(records) ^ expected)[:5]} should "
                        f"{'not ' if set(records) - expected else ''}be there")
    if doc["label_count"] != 3 + len(records):
        problems.append(f"label_count {doc['label_count']} != 3 + {len(records)}")
    for label in sorted(expected & set(records)):
        rec = records[label]
        own = pts[labs == label]
        mean = own.mean(axis=0)
        cov = np.cov(own.T, bias=True) + EIGENVALUE_FLOOR * np.eye(3)
        w = np.asarray(rec["W"], float).reshape(3, 3)
        if rec["count"] != own.shape[0]:
            problems.append(f"instance {label}: count {rec['count']} != {own.shape[0]} pixels")
        if not np.allclose(rec["mean"], mean, rtol=1e-9, atol=1e-9):
            problems.append(f"instance {label}: mean {rec['mean']} != {mean.tolist()}")
        if not np.allclose(w @ w.T, cov, rtol=1e-9, atol=1e-10):
            problems.append(f"instance {label}: W W^T differs from covariance + floor by "
                            f"{np.abs(w @ w.T - cov).max():.2e}")
    return problems


# ---------------------------------------------------------------------------
# predict-sim
# ---------------------------------------------------------------------------


def _binomial_ok(k, n, p) -> bool:
    return abs(k - n * p) <= BINOMIAL_Z * math.sqrt(n * p * (1.0 - p)) + 1.0


def check_predict_sim(frames_dir, pred_dir, map_path, sigma, outlier_rate, flip_rate) -> list:
    from scipy.stats import maxwell

    problems = []
    map_labels = np.array(sorted(int(r["id"]) for r in
                                 json.loads(Path(map_path).read_text(encoding="utf-8"))["labels"]))
    n_pool = n_flip = n_kept = n_out = n_clean = n_near = 0
    names = frame_names(frames_dir)
    if frame_names(pred_dir) != names:
        return [f"predicted frames {frame_names(pred_dir)} differ from {names}"]
    for name in names:
        gt = read_coords(Path(frames_dir) / f"{name}.scrd")
        gt_lab = read_labels(Path(frames_dir) / f"{name}.lbls")
        pred = read_coords(Path(pred_dir) / f"{name}.scrd")
        pred_lab = read_labels(Path(pred_dir) / f"{name}.lbls")
        valid = np.isfinite(gt).all(axis=2)
        if pred.shape != gt.shape or np.any(np.isfinite(pred).all(axis=2) != valid):
            problems.append(f"{name}: predicted pixels with coordinates differ from ground truth")
            continue
        pool = valid & np.isin(gt_lab, map_labels)
        flipped = pool & (pred_lab != gt_lab)
        if np.any((pred_lab != gt_lab) & ~pool) or not np.isin(pred_lab[flipped], map_labels).all():
            problems.append(f"{name}: labels changed outside the map's instances")
        kept = valid & ~flipped
        err = np.linalg.norm(pred[kept] - gt[kept], axis=1)
        outlier = err > OUTLIER_SIGMAS * sigma
        n_pool += int(pool.sum())
        n_flip += int(flipped.sum())
        n_kept += int(kept.sum())
        n_out += int(outlier.sum())
        n_clean += int((~outlier).sum())
        n_near += int((err[~outlier] <= 0.5).sum())
    if problems:
        return problems
    if not _binomial_ok(n_flip, n_pool, flip_rate):
        problems.append(f"{n_flip} of {n_pool} labels flipped, requested rate {flip_rate}")
    if not _binomial_ok(n_out, n_kept, outlier_rate):
        problems.append(f"{n_out} of {n_kept} pixels are outliers, requested rate {outlier_rate}")
    p_near = float(maxwell.cdf(0.5 / sigma))
    if not _binomial_ok(n_near, n_clean, p_near):
        problems.append(f"{n_near} of {n_clean} clean pixels within 0.5 m, Maxwell CDF "
                        f"gives {p_near:.4f}")
    return problems


# ---------------------------------------------------------------------------
# localize and evaluate
# ---------------------------------------------------------------------------


def pose_errors(estimates_path, poses_path) -> tuple:
    """({frame: (m, deg)}, problems) of an estimate file against ground truth."""
    est = read_poses(estimates_path)
    gt = read_poses(poses_path)
    problems = []
    if sorted(est) != sorted(gt):
        problems.append(f"estimates cover frames {sorted(est)}, poses {sorted(gt)}")
    failed = sorted(f for f, p in est.items() if p is None)
    if failed:
        problems.append(f"frames {failed} have no estimate")
    errors = {f: pose_error(p, gt[f]) for f, p in est.items() if p is not None and f in gt}
    return errors, problems


def check_localize(estimates_path, poses_path, max_m, max_deg) -> tuple:
    errors, problems = pose_errors(estimates_path, poses_path)
    for frame, (dist, angle) in sorted(errors.items()):
        if dist > max_m or angle > max_deg:
            problems.append(f"{frame}: pose error {dist:.3f} m / {angle:.3f} deg exceeds "
                            f"{max_m} m / {max_deg} deg")
    return problems, errors


def _coord_shares(dist, n_valid) -> dict:
    within3 = dist <= 3.0
    return {"pct_within_0_5m": 100.0 * float((dist <= 0.5).sum()) / n_valid,
            "pct_within_1m": 100.0 * float((dist <= 1.0).sum()) / n_valid,
            "pct_within_3m": 100.0 * float(within3.sum()) / n_valid,
            "mean_dist_within_3m": float(dist[within3].mean()) if within3.any() else 0.0,
            "n_valid": n_valid}


def check_evaluate(report_path, estimates_path, poses_path, frames_dir, pred_dir,
                   percentile) -> list:
    problems = []
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    errors, _ = pose_errors(estimates_path, poses_path)
    n_failed = len(read_poses(estimates_path)) - len(errors)
    if report["frames"] != {"evaluated": len(errors), "failed": n_failed}:
        problems.append(f"frames {report['frames']} != {len(errors)} evaluated, {n_failed} failed")
    dist, angle = np.array(list(errors.values())).T
    want = {"median_dist_m": np.percentile(dist, 50), "p95_dist_m": np.percentile(dist, 95),
            "median_angle_deg": np.percentile(angle, 50), "p95_angle_deg": np.percentile(angle, 95)}
    pose = report.get("pose", {})
    for key, value in want.items():
        if not math.isclose(pose.get(key, math.nan), value, rel_tol=1e-7, abs_tol=1e-12):
            problems.append(f"pose {key} {pose.get(key)} != {value}")
    extra = pose.get("extra_percentiles", {}).get(f"{percentile:g}", {})
    for key, values in (("dist_m", dist), ("angle_deg", angle)):
        value = np.percentile(values, percentile)
        if not math.isclose(extra.get(key, math.nan), value, rel_tol=1e-7, abs_tol=1e-12):
            problems.append(f"pose p{percentile:g} {key} {extra.get(key)} != {value}")

    all_d, bld_d = [], []
    for name in frame_names(frames_dir):
        gt = read_coords(Path(frames_dir) / f"{name}.scrd")
        pred = read_coords(Path(pred_dir) / f"{name}.scrd")
        building = read_labels(Path(frames_dir) / f"{name}.lbls") >= FIRST_INSTANCE
        valid = np.isfinite(gt).all(axis=2)
        diff = pred - gt
        d = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
                    + diff[..., 2] * diff[..., 2])
        d[~np.isfinite(d)] = np.inf
        all_d.append(d[valid])
        bld_d.append(d[valid & building])
    for key, chunks in (("coord", all_d), ("coord_buildings", bld_d)):
        d = np.concatenate(chunks)
        got = report.get(key, {})
        for name, value in _coord_shares(d, d.size).items():
            if not math.isclose(got.get(name, math.nan), value, rel_tol=1e-9):
                problems.append(f"{key} {name} {got.get(name)} != {value}")
    return problems
