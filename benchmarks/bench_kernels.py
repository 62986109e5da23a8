#!/usr/bin/env python3
"""Benchmark the hot kernels, each timed as the best of a few repeats.

Every kernel has one numpy implementation. Ray casting is timed through
the public ``raycast_render``. The EPnP solve that serves ``epnp_bearing``
and the RANSAC refits is timed on 4 points (many solves) and, as a refit,
on 900, 2700 and 20000 points (the consensus sets of the pipeline
benchmark's city frames span that range) and on ``--points``. RANSAC is
timed through the public ``ransac_pnp`` on 500 points and on 5000 points
(the localize cap), both with 1000 iterations and the default inlier
threshold, and in the shape of the pipeline benchmark's noisy-sparse
workload: 500 points, 30% outliers, 4000 iterations, a 0.6 degree
threshold. The P3P row times the minimal solves of that noisy-sparse run
alone, a chunk of ``_HYPOTHESIS_CHUNK`` samples at a time, and counts the
candidate slots that reach the Gauss-Newton refinement against the four
slots of every sample. Every sample draws ``pnp._SAMPLE_SIZE`` (4) points,
as ``ransac_pnp`` does: three for P3P and one to pick its pose. The
localize layer rows split ``ransac_pnp`` at 5000 points and 1000
iterations into its steps, each timed on the previous step's output: the
sample draw, the P3P solves, the float32 bound pass over every
hypothesis, the float64 re-bounds of the hypotheses the exact pass
re-bounded (named with their number), the exact pass with those
re-bounds (named with the hypotheses it scored in full) and the three
refits. The float64 bound pass over every hypothesis, which the float32
level replaced, is timed alongside for comparison. The scene rows time
``save_scene``, ``load_scene`` and one 512x256 ``raycast_render`` on the
large preset (827 buildings) and on 52,000 buildings of a 230x230 grid,
where render time should follow what the camera sees, not the building
count. The prediction rows time ``simulate_predictions`` on one 512x256
small-preset frame with the noise of the pipeline benchmark's small-city
workload (sigma 0.33 m, 2% outliers, 2% label flips) and of its
noisy-sparse one (30% outliers, 10% flips), and
``SceneCoordinateImage.mask`` on that frame. The fit-map rows split
``build_instance_map`` on the building points of 5 small-preset or 2
large-preset 512x256 frames (the pipeline benchmark's group sizes) into
its sums (the means and covariances of every instance by segment
extraction), its one stacked eigendecomposition, and the whole fit, and
time ``save_instance_map`` writing the resulting map.json.

Usage:
    python benchmarks/bench_kernels.py [--repeats 5] [--rays 131072] ...
"""

import argparse
from pathlib import Path
import tempfile
import time
from unittest import mock

import numpy as np

from panoloc.fileio import load_scene, save_instance_map, save_scene
from panoloc.geometry import quaternion_to_rotation, Pose
from panoloc import instance_map, pnp
from panoloc.instance_map import build_instance_map
from panoloc.pnp import Correspondences, RansacConfig, _residuals, _solve_epnp, ransac_pnp
from panoloc.scene_sim import (LARGE_CITY, SMALL_CITY, NoiseModel, generate_city,
                               raycast_render, sample_trajectory, simulate_predictions)

REFIT_POINTS = (900, 2700, 20_000)
# (buildings, grid) of the scene rows
SCENE_SIZES = ((LARGE_CITY["n_buildings"], LARGE_CITY["grid_dims"]), (52_000, (230, 230)))


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def ray_rows(args):
    """Image height whose 2H x H panorama has about ``args.rays`` pixels."""
    return int(round((args.rays / 2) ** 0.5))


def make_inputs(args):
    rng = np.random.default_rng(0)
    small = args.boxes <= SMALL_CITY["grid_dims"][0] * SMALL_CITY["grid_dims"][1]
    grid = (SMALL_CITY if small else LARGE_CITY)["grid_dims"]
    scene = generate_city(args.boxes, grid, seed=7)
    _, pose = sample_trajectory(scene, 1, seed=7)[0]
    height = ray_rows(args)

    rot = quaternion_to_rotation(rng.normal(size=4))
    cam_pose = Pose(rot, -rot.T @ rng.uniform(-20, 20, 3))
    center = cam_pose.camera_center
    n = max(args.points, *REFIT_POINTS)
    ray_dirs = rng.normal(size=(n, 3))
    ray_dirs /= np.linalg.norm(ray_dirs, axis=1, keepdims=True)
    pts = center + ray_dirs * rng.uniform(2, 50, (n, 1))
    cam = cam_pose.world_to_camera(pts)
    brs = np.ascontiguousarray(cam / np.linalg.norm(cam, axis=1, keepdims=True))
    pts = np.ascontiguousarray(pts)

    ransac_pts = pts[:500].copy()
    ransac_pts[:200] = rng.uniform(-80, 80, (200, 3))
    ransac_corrs = Correspondences(brs[:500], ransac_pts)

    # noisy-sparse: 500 correspondences, 30% outliers
    sparse_pts = pts[:500].copy()
    sparse_pts[:150] = rng.uniform(-80, 80, (150, 3))
    sparse_corrs = Correspondences(brs[:500], sparse_pts)

    # the localize cap: 5000 correspondences, 20% outliers
    cap_pts = pts[:5000].copy()
    cap_pts[:1000] = rng.uniform(-80, 80, (1000, 3))
    cap_corrs = Correspondences(brs[:5000], cap_pts)

    return {
        "scene": scene, "pose": pose, "dims": (2 * height, height),
        "rot": cam_pose.rotation, "t": cam_pose.translation,
        "pts": pts[:args.points], "brs": brs[:args.points], "pool": (pts, brs),
        "ransac_corrs": ransac_corrs, "sparse_corrs": sparse_corrs, "cap_corrs": cap_corrs,
    }


def run_benchmarks(args):
    """(name, seconds) rows in print order."""
    data = make_inputs(args)
    pts, brs = data["pool"]
    height = ray_rows(args)
    rows = [
        (f"raycast {2 * height}x{height}, {args.boxes} boxes", best_of(
            lambda: raycast_render(data["scene"], data["pose"], data["dims"]), args.repeats)),
        (f"angular residuals n={args.points}", best_of(
            lambda: _residuals(data["rot"], data["t"], data["pts"], data["brs"]), args.repeats)),
    ]

    def epnp_minimal():
        for _ in range(args.solves):
            _solve_epnp(pts[:4], brs[:4])

    rows.append((f"epnp minimal x{args.solves}", best_of(epnp_minimal, args.repeats)))
    for n in sorted({*REFIT_POINTS, args.points}):
        rows.append((f"epnp refit n={n}", best_of(
            lambda: _solve_epnp(pts[:n], brs[:n]), args.repeats)))
    repeats = max(1, args.repeats // 2)
    rows += [
        ("ransac 500 pts / 1000 it", best_of(
            lambda: ransac_pnp(data["ransac_corrs"], RansacConfig(seed=1)), repeats)),
        ("ransac 500 pts / 4000 it", best_of(
            lambda: ransac_pnp(data["sparse_corrs"], RansacConfig(
                iterations=4000, inlier_threshold_deg=0.6, seed=1)), repeats)),
        ("ransac 5000 pts / 1000 it", best_of(
            lambda: ransac_pnp(data["cap_corrs"], RansacConfig(seed=1)), repeats)),
    ]
    return (rows + [p3p_row(data["sparse_corrs"], args.repeats)]
            + localize_rows(data["cap_corrs"], args.repeats) + scene_rows(args.repeats)
            + prediction_rows(args.repeats) + fit_map_rows(args.repeats))


def p3p_row(corrs, repeats):
    """The P3P solves of ransac_pnp in the noisy-sparse shape (500 points,
    30% outliers, 4000 iterations), named with the slots refined."""
    cfg = RansacConfig(iterations=4000, inlier_threshold_deg=0.6, seed=1)
    pts, brs = corrs.world_points, corrs.bearings
    samples = pnp._draw_samples(cfg.seed, cfg.iterations, len(corrs), pnp._SAMPLE_SIZE)
    chunk = pnp._HYPOTHESIS_CHUNK

    def solve():
        for lo in range(0, cfg.iterations, chunk):
            pnp._solve_p3p_batch(pts[samples[lo:lo + chunk]], brs[samples[lo:lo + chunk]])

    refined = []
    real = pnp._refine_depths

    def count(depths, *args):
        refined.append(depths.shape[1])
        return real(depths, *args)

    with mock.patch.object(pnp, "_refine_depths", count):
        solve()
    return (f"p3p 4000 it, {sum(refined)}/{4 * cfg.iterations} slots refined",
            best_of(solve, repeats))


def localize_rows(corrs, repeats):
    """The steps of ransac_pnp at 5000 points and 1000 iterations, serially."""
    cfg = RansacConfig(seed=1)
    thr, pts, brs = cfg.inlier_threshold_deg, corrs.world_points, corrs.bearings
    chunks = range(0, cfg.iterations, pnp._HYPOTHESIS_CHUNK)
    samples = pnp._draw_samples(cfg.seed, cfg.iterations, len(corrs), pnp._SAMPLE_SIZE)

    def solve():
        return [pnp._solve_p3p_batch(pts[samples[lo:lo + pnp._HYPOTHESIS_CHUNK]],
                                     brs[samples[lo:lo + pnp._HYPOTHESIS_CHUNK]])
                for lo in chunks]

    solved = solve()
    lift = pnp._lift_points(pts, brs)
    rots = np.concatenate([s[1] for s in solved])
    ts = np.concatenate([s[2] for s in solved])

    def bound(single):
        bounds = np.zeros(cfg.iterations, dtype=np.int64)
        for lo, (good, rot, t) in zip(chunks, solved):
            bounds[lo:lo + len(good)][good] = pnp._prefilter_bounds(rot[good], t[good], lift, thr,
                                                                    single=single)
        return bounds

    first = bound(True)
    calls = []

    def rebound(idx):
        calls.append(idx)
        return pnp._prefilter_bounds(rots[idx], ts[idx], lift, thr)

    counts, _, _, res = pnp._exact_pass(first, rots, ts, pts, brs, thr, rebound)
    rebounded = np.concatenate(calls)

    def refit():
        for widen in pnp._REFIT_WIDENING:
            pnp.angular_residuals(pnp.epnp_bearing(corrs.subset(np.flatnonzero(
                res < widen * thr))), corrs)

    n = len(corrs)
    return [
        (f"localize sample draw, {n} pts", best_of(
            lambda: pnp._draw_samples(cfg.seed, cfg.iterations, n, pnp._SAMPLE_SIZE), repeats)),
        ("localize p3p solves, 1000 it", best_of(solve, repeats)),
        (f"localize float64 bound pass, {n} pts", best_of(lambda: bound(False), repeats)),
        (f"localize float32 bound pass, {n} pts", best_of(lambda: bound(True), repeats)),
        (f"localize float64 re-bounds, {len(rebounded)} hyps", best_of(
            lambda: pnp._prefilter_bounds(rots[rebounded], ts[rebounded], lift, thr), repeats)),
        (f"localize exact pass, {np.count_nonzero(counts >= 0)} visits", best_of(
            lambda: pnp._exact_pass(first, rots, ts, pts, brs, thr, rebound), repeats)),
        (f"localize refits, {n} pts", best_of(refit, repeats)),
    ]


def scene_rows(repeats):
    """save_scene, load_scene and one 512x256 raycast_render per SCENE_SIZES
    entry."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, grid in SCENE_SIZES:
            path = Path(tmp) / f"scene{n}.json"
            scene = generate_city(n, grid, seed=7)
            _, pose = sample_trajectory(scene, 1, seed=7)[0]
            rows += [
                (f"scene save, {n} boxes", best_of(lambda: save_scene(path, scene), repeats)),
                (f"scene load, {n} boxes", best_of(lambda: load_scene(path), repeats)),
                (f"scene raycast 512x256, {n} boxes", best_of(
                    lambda: raycast_render(scene, pose, (512, 256)), repeats)),
            ]
    return rows


def prediction_rows(repeats):
    """simulate_predictions at two noise settings and one mask, on a
    512x256 small-preset frame."""
    scene = generate_city(SMALL_CITY["n_buildings"], SMALL_CITY["grid_dims"], seed=7)
    _, pose = sample_trajectory(scene, 1, seed=7)[0]
    coords, labels = raycast_render(scene, pose, (512, 256))
    sel = coords.mask & labels.instance_mask
    imap = build_instance_map(coords.coords[sel], labels.labels[sel])
    rows = []
    for name, outliers, flips in (("small-city", 0.02, 0.02), ("noisy-sparse", 0.30, 0.10)):
        noise = NoiseModel(coord_sigma=0.33, outlier_rate=outliers, label_flip_rate=flips, seed=7)
        rows.append((f"predictions 512x256, {name}", best_of(
            lambda: simulate_predictions(coords, labels, noise, imap), repeats)))
    rows.append(("coordinate mask 512x256", best_of(lambda: coords.mask, repeats)))
    return rows


def fit_map_rows(repeats):
    """The sums, the eigendecomposition and the whole of build_instance_map,
    and save_instance_map, on the building points of 5 small-preset and 2
    large-preset 512x256 frames (the pipeline benchmark's group sizes)."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, preset, frames in (("small", SMALL_CITY, 5), ("large", LARGE_CITY, 2)):
            scene = generate_city(preset["n_buildings"], preset["grid_dims"], seed=7)
            points, labels = [], []
            for _, pose in sample_trajectory(scene, frames, seed=7):
                coords, labs = raycast_render(scene, pose, (512, 256))
                sel = coords.mask & labs.instance_mask
                points.append(coords.coords[sel])
                labels.append(labs.labels[sel])
            points, labels = np.concatenate(points), np.concatenate(labels)
            imap = build_instance_map(points, labels)
            # the instances' points in label order, as build_instance_map gathers them
            order = np.argsort(labels, kind="stable")
            keep = np.isin(labels[order], imap.instance_labels())
            columns = points[order[keep]].T.copy()
            counts = np.array([imap.get(label).point_count for label in imap.instance_labels()])
            covs = instance_map._moments(columns.copy(), counts)[1]
            path = Path(tmp) / f"map_{name}.json"
            rows += [
                (f"fit-map sums, {name}, {len(points)} pts", best_of(
                    lambda: instance_map._moments(columns.copy(), counts), repeats)),
                (f"fit-map eigh, {name}, {len(imap)} instances", best_of(
                    lambda: instance_map._unwhitening(covs), repeats)),
                (f"fit-map whole fit, {name}", best_of(
                    lambda: build_instance_map(points, labels), repeats)),
                (f"fit-map write map.json, {name}", best_of(
                    lambda: save_instance_map(path, imap), repeats)),
            ]
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rays", type=int, default=131072)
    parser.add_argument("--boxes", type=int, default=102)
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--solves", type=int, default=200)
    args = parser.parse_args()

    print(f"{'kernel':<40} {'time (s)':>10}")
    for name, seconds in run_benchmarks(args):
        print(f"{name:<40} {seconds:>10.5f}")


if __name__ == "__main__":
    main()
