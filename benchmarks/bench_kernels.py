#!/usr/bin/env python3
"""Benchmark the hot kernels on both execution paths.

Batch angular residuals have separate numba and vectorized-numpy
implementations, timed side by side in-process. The single EPnP solve is
single-source (compiled when numba is enabled), so the pure path is
measured by re-running this script in a subprocess with
PANOLOC_DISABLE_NUMBA=1. RANSAC solves its hypotheses in batched numpy in
both modes (Lambda Twist P3P); only its refits go through the
EPnP kernel. Ray casting has one numpy implementation and is timed
through the public ``raycast_render``. RANSAC is timed through the public
``ransac_pnp`` on 500 points and on 5000 points (the localize cap), both
with 1000 iterations and the default inlier threshold, and in the shape of
the pipeline benchmark's noisy-sparse workload: 500 points, 30% outliers,
4000 iterations, a 0.6 degree threshold.

Usage:
    python benchmarks/bench_kernels.py [--repeats 5] [--rays 131072] ...
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from panoloc._accel import ACCEL_MODE, NUMBA_ENABLED
from panoloc.geometry import quaternion_to_rotation, Pose
from panoloc.pnp import (Correspondences, RansacConfig, _residuals_numpy,
                         _residuals_scalar, _solve_epnp, ransac_pnp)
from panoloc.scene_sim import (LARGE_CITY, SMALL_CITY, generate_city, raycast_render,
                               sample_trajectory)


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
    ray_dirs = rng.normal(size=(args.points, 3))
    ray_dirs /= np.linalg.norm(ray_dirs, axis=1, keepdims=True)
    pts = center + ray_dirs * rng.uniform(2, 50, (args.points, 1))
    cam = cam_pose.world_to_camera(pts)
    brs = np.ascontiguousarray(cam / np.linalg.norm(cam, axis=1, keepdims=True))
    pts = np.ascontiguousarray(pts)

    minimal_pts = np.ascontiguousarray(pts[:4])
    minimal_brs = np.ascontiguousarray(brs[:4])

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
        "pts": pts, "brs": brs,
        "minimal_pts": minimal_pts, "minimal_brs": minimal_brs,
        "ransac_corrs": ransac_corrs, "sparse_corrs": sparse_corrs, "cap_corrs": cap_corrs,
    }


def run_benchmarks(args):
    data = make_inputs(args)
    results = {}

    # one implementation in every mode
    results["raycast_numpy"] = best_of(
        lambda: raycast_render(data["scene"], data["pose"], data["dims"]), args.repeats)

    # dual-implementation kernels: both paths measured directly
    if NUMBA_ENABLED:
        results["residuals_numba"] = best_of(
            lambda: _residuals_scalar(data["rot"], data["t"], data["pts"], data["brs"]),
            args.repeats)
    results["residuals_numpy"] = best_of(
        lambda: _residuals_numpy(data["rot"], data["t"], data["pts"], data["brs"]),
        args.repeats)

    # single-source kernels: timing reflects the active mode
    solver = _solve_epnp if NUMBA_ENABLED else _solve_epnp.py_func
    label = "numba" if NUMBA_ENABLED else "pure"

    def epnp_minimal():
        for _ in range(args.solves):
            solver(data["minimal_pts"], data["minimal_brs"])

    results[f"epnp_minimal_x{args.solves}_{label}"] = best_of(epnp_minimal, args.repeats)
    results[f"epnp_refit_n{args.points}_{label}"] = best_of(
        lambda: solver(data["pts"], data["brs"]), args.repeats)
    results[f"ransac_500pts_1000it_{label}"] = best_of(
        lambda: ransac_pnp(data["ransac_corrs"], RansacConfig(seed=1)),
        max(1, args.repeats // 2))
    results[f"ransac_500pts_4000it_{label}"] = best_of(
        lambda: ransac_pnp(data["sparse_corrs"], RansacConfig(
            iterations=4000, inlier_threshold_deg=0.6, seed=1)),
        max(1, args.repeats // 2))
    results[f"ransac_5000pts_1000it_{label}"] = best_of(
        lambda: ransac_pnp(data["cap_corrs"], RansacConfig(seed=1)),
        max(1, args.repeats // 2))
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rays", type=int, default=131072)
    parser.add_argument("--boxes", type=int, default=102)
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--solves", type=int, default=200)
    parser.add_argument("--emit-json", action="store_true",
                        help="print raw timings as JSON (used by the subprocess)")
    args = parser.parse_args()

    results = run_benchmarks(args)
    if args.emit_json:
        print(json.dumps(results))
        return

    print(f"mode: {'numba' if NUMBA_ENABLED else f'pure numpy ({ACCEL_MODE})'}")
    if NUMBA_ENABLED:
        env = dict(os.environ, PANOLOC_DISABLE_NUMBA="1")
        cmd = [sys.executable, os.path.abspath(__file__), "--emit-json",
               "--repeats", str(args.repeats), "--rays", str(args.rays),
               "--boxes", str(args.boxes), "--points", str(args.points),
               "--solves", str(args.solves)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        results.update(json.loads(out.stdout.strip().splitlines()[-1]))

    height = ray_rows(args)
    pairs = [
        (f"raycast {2 * height}x{height}, {args.boxes} boxes", None, "raycast_numpy"),
        ("angular residuals", "residuals_numba", "residuals_numpy"),
        (f"epnp minimal x{args.solves}",
         f"epnp_minimal_x{args.solves}_numba", f"epnp_minimal_x{args.solves}_pure"),
        (f"epnp refit n={args.points}",
         f"epnp_refit_n{args.points}_numba", f"epnp_refit_n{args.points}_pure"),
        ("ransac 500 pts / 1000 it",
         "ransac_500pts_1000it_numba", "ransac_500pts_1000it_pure"),
        ("ransac 500 pts / 4000 it",
         "ransac_500pts_4000it_numba", "ransac_500pts_4000it_pure"),
        ("ransac 5000 pts / 1000 it",
         "ransac_5000pts_1000it_numba", "ransac_5000pts_1000it_pure"),
    ]
    print(f"{'kernel':<28} {'numba (s)':>12} {'numpy (s)':>12} {'speedup':>9}")
    for name, nb_key, np_key in pairs:
        nb = results.get(nb_key)
        pure = results.get(np_key)
        if nb is None and pure is None:
            continue
        nb_s = f"{nb:.5f}" if nb is not None else "-"
        np_s = f"{pure:.5f}" if pure is not None else "-"
        speed = f"{pure / nb:8.1f}x" if nb and pure else "-"
        print(f"{name:<28} {nb_s:>12} {np_s:>12} {speed:>9}")


if __name__ == "__main__":
    main()
