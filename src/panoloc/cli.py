"""Batch command-line pipeline with deterministic, file-based stages.

Subcommands: generate, render, fit-map, predict-sim, localize, evaluate.
Every command is a pure function of (input files, flags, seed); re-running
writes byte-identical outputs. A flag exists only on the subcommands that
read it. The per-frame stages work on each frame whole in one thread and
pool results in frame order, so ``--threads`` (at least 1) never changes
the bytes; generate and ``fit-map --cloud`` accept it unused. Counts and
caps (``--buildings``, ``--poses``, ``--max-points-per-frame``,
``--max-corrs``) are at least 0, and ``--percentiles`` takes values in
[0, 100]; both are checked before a stage reads any input. Flags can also
come from a JSON config file (``--config``; top-level keys and/or
per-subcommand sections). Its values act as ``--flag=value`` arguments placed
before the command line's own flags, so explicit flags win, and a config can
supply a required flag. A key that is no flag, or a value the flag would not
take, is bad input. A top-level key reaches every subcommand with that flag,
``fit-map --cloud`` included. Flags are spelled in full: no abbreviation such
as ``--conf`` is taken. The parser is built once per process, on the first
``main`` call. Exit codes: 0 success, 2 bad input, 3 localisation reached no
consensus on any frame.
"""

import argparse
import ctypes
from dataclasses import asdict, replace
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import evaluation, fileio, scene_sim
from .fileio import load_poses_jsonl
from .geometry import _check_dims, image_bearings, relative_pose_errors
from .instance_map import build_instance_map
from .pnp import Correspondences, NoConsensusError, RansacConfig, ransac_pnp

__all__ = ["main"]

_ROC_THRESHOLDS = [round(0.1 * k, 1) for k in range(1, 51)]


class InputError(ValueError):
    """Bad or missing command input (exit code 2)."""


def _parse_pair(text: str, flag: str):
    """The two integers of an ``AxB`` flag value such as ``--dims 512x256``."""
    try:
        a, b = (int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise InputError(f"bad {flag} {text!r}, expected two integers AxB") from exc
    return a, b


def _require(path, kind: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise InputError(f"{kind} not found: {p}")
    return p


def _write_meta(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    skip = {"func", "config"}
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    meta = {"command": command, "flags": flags}
    fileio.save_json(out_dir / f"{command.replace('-', '_')}_meta.json", meta, default=str)


def _check_flags(args) -> None:
    """Reject a count below its least value and a percentile outside [0, 100]."""
    # render's --poses is a file name, not a count
    for dest, least in (("threads", 1), ("buildings", 0), ("poses", 0),
                        ("max_points_per_frame", 0), ("max_corrs", 0)):
        value = getattr(args, dest, None)
        if isinstance(value, int) and value < least:
            raise InputError(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")
    for q in (float(p) for p in getattr(args, "percentiles", "").split(",") if p):
        if not 0.0 <= q <= 100.0:  # NaN fails too
            raise InputError(f"--percentiles: percentile {q} is outside [0, 100]")


def _map_frames(work, items, threads: int) -> list:
    """[work(item) for item in items], on ``threads`` threads when above 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, items))
    return [work(item) for item in items]


def _subsample(n: int, cap: int, seed: int, stream: int):
    """Index of a seeded subset of ``cap`` of n items, in their order; all of
    them when ``cap`` is 0 or at least n. Philox keyed by (seed, stream)."""
    if not cap or n <= cap:
        return slice(None)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return np.sort(gen.permutation(n)[:cap])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.preset:
        preset = scene_sim.SMALL_CITY if args.preset == "small" else scene_sim.LARGE_CITY
        n_buildings, grid = preset["n_buildings"], preset["grid_dims"]
    else:
        if args.buildings is None:
            raise InputError("either --preset or --buildings is required")
        n_buildings = args.buildings
        grid = _parse_pair(args.grid, "--grid")
        if min(grid) < 1:
            raise InputError(f"bad --grid {args.grid!r}, expected two positive integers AxB")
    scene = scene_sim.generate_city(n_buildings, grid, seed=args.seed)
    frames = scene_sim.sample_trajectory(scene, args.poses, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_scene(out_dir / "scene.json", scene)
    fileio.save_poses_jsonl(out_dir / "poses.jsonl", frames)
    _write_meta(out_dir, "generate", args)
    print(f"generate: {len(scene.box_labels)} buildings, {scene.road_segments} road segments, "
          f"{len(frames)} poses -> {out_dir}")
    return 0


def cmd_render(args) -> int:
    scene = fileio.load_scene(_require(args.scene, "scene file"))
    poses = load_poses_jsonl(_require(args.poses, "pose file"))
    dims = _parse_pair(args.dims, "--dims")
    _check_dims(*dims)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(item):
        frame, pose = item
        fileio.save_frame(out_dir, frame, *scene_sim.raycast_render(scene, pose, dims))

    _map_frames(render, poses, args.threads)
    _write_meta(out_dir, "render", args)
    print(f"render: {len(poses)} frames at {dims[0]}x{dims[1]} -> {out_dir}")
    return 0


def cmd_fit_map(args) -> int:
    if args.cloud:
        for flag, value, unset in (("--frames", args.frames, None), ("--seed", args.seed, 0),
                                   ("--max-points-per-frame", args.max_points_per_frame, 0)):
            if value != unset:
                fix = (f' (if config {args.config} sets {flag[2:]!r} at its top level, add '
                       f'a "fit-map": {{"{flag[2:]}": {json.dumps(unset)}}} section)'
                       if args.config else "")
                raise InputError(f"{flag} acts only on --frames; it cannot be given with --cloud"
                                 + fix)
        points, labels = fileio.load_ply(_require(args.cloud, "point cloud"))
    elif args.frames:
        frames_dir = _require(args.frames, "frames directory")

        def read(item):
            index, frame = item
            coords, labs = fileio.load_frame(frames_dir, frame)
            sel = np.flatnonzero(coords.mask & labs.instance_mask)
            sel = sel[_subsample(sel.size, args.max_points_per_frame, args.seed, 10_000 + index)]
            return np.take(coords.coords.reshape(-1, 3), sel, axis=0), labs.labels.reshape(-1)[sel]

        chunks = _map_frames(read, list(enumerate(fileio.list_frames(frames_dir))), args.threads)
        points, labels = (np.concatenate(parts) for parts in zip(*chunks))
    else:
        raise InputError("either --frames or --cloud is required")

    imap = build_instance_map(points, labels)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fileio.save_instance_map(out_path, imap)
    meta_dir = out_path.parent
    _write_meta(meta_dir, "fit-map", args)
    if imap.skipped:
        fileio.save_json(meta_dir / "fit_map_skipped.json",
                         {str(k): v for k, v in sorted(imap.skipped.items())})
    print(f"fit-map: {len(imap)} instances ({len(imap.skipped)} skipped) -> {out_path}")
    return 0


def cmd_predict_sim(args) -> int:
    noise = scene_sim.NoiseModel(coord_sigma=args.sigma, outlier_rate=args.outlier_rate,
                                 label_flip_rate=args.label_flip_rate)
    frames_dir = _require(args.frames, "frames directory")
    imap = fileio.load_instance_map(_require(args.map, "instance map"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = None
    if args.scene:
        scene = fileio.load_scene(_require(args.scene, "scene file"))
        bounds = scene.aabb(inflate=0.1)

    def predict(item):
        index, frame = item
        fileio.save_frame(out_dir, frame, *scene_sim.simulate_predictions(
            *fileio.load_frame(frames_dir, frame), replace(noise, seed=args.seed + index), imap,
            bounds=bounds))

    frames = fileio.list_frames(frames_dir)
    _map_frames(predict, list(enumerate(frames)), args.threads)
    _write_meta(out_dir, "predict-sim", args)
    print(f"predict-sim: {len(frames)} frames (sigma={args.sigma}, "
          f"outliers={args.outlier_rate}, flips={args.label_flip_rate}) -> {out_dir}")
    return 0


def cmd_localize(args) -> int:
    frames_dir = _require(args.frames, "frames directory")
    imap = fileio.load_instance_map(_require(args.map, "instance map"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    map_labels = np.array(imap.instance_labels(), dtype=np.uint32)

    def localize(item):
        """(frame, pose | None, inliers, mean residual, failure reason | None)"""
        index, frame = item
        coords, labels = fileio.load_frame(frames_dir, frame)
        rows, cols = np.nonzero(coords.mask & np.isin(labels.labels, map_labels))
        if rows.size < 4:
            return frame, None, 0, float("nan"), f"only {rows.size} usable building pixels"
        keep = _subsample(rows.size, args.max_corrs, args.seed, 20_000 + index)
        rows, cols = rows[keep], cols[keep]
        bearings = image_bearings(coords.width, coords.height)
        corrs = Correspondences(bearings[rows, cols], coords.coords[rows, cols])
        cfg = RansacConfig(iterations=args.iterations, inlier_threshold_deg=args.threshold_deg,
                           seed=args.seed + index)
        try:
            est = ransac_pnp(corrs, cfg)
        except NoConsensusError as exc:
            return frame, None, 0, float("nan"), str(exc)
        return (frame, est.pose, int(est.inlier_indices.size),
                float(est.mean_inlier_angle_deg), None)

    results = _map_frames(localize, list(enumerate(fileio.list_frames(frames_dir))),
                          args.threads)
    fileio.save_estimates_jsonl(out_dir / "estimates.jsonl", results)
    _write_meta(out_dir, "localize", args)
    n_failed = sum(1 for r in results if r[1] is None)
    print(f"localize: {len(results) - n_failed}/{len(results)} frames estimated -> {out_dir}")
    if n_failed == len(results):
        print("localize: no frame reached consensus", file=sys.stderr)
        return 3
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.pred_frames) != bool(args.gt_frames):
        given, missing = (("--pred-frames", "--gt-frames") if args.pred_frames
                          else ("--gt-frames", "--pred-frames"))
        raise InputError(f"{given} needs {missing}: the coordinate metrics compare the two")
    estimates = fileio.load_estimates_jsonl(_require(args.estimates, "estimate file"))
    gt_poses = dict(load_poses_jsonl(_require(args.gt_poses, "ground-truth poses")))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    errors = []
    n_failed = 0
    for frame, pose, _, _, _ in estimates:
        if pose is None:
            n_failed += 1
            continue
        if frame not in gt_poses:
            raise InputError(f"estimate frame {frame} has no ground-truth pose")
        errors.append(relative_pose_errors(pose, gt_poses[frame]))

    percentiles = [float(p) for p in args.percentiles.split(",") if p]
    report = {"conventions": dict(evaluation.CONVENTIONS),
              "frames": {"evaluated": len(errors), "failed": n_failed}}
    if errors:
        report["pose"] = evaluation.pose_metrics(errors, percentiles).as_dict()
        dist_curve, angle_curve = evaluation.error_curves(errors)
        fileio.save_curve_csv(out_dir / "dist_curve.csv", dist_curve)
        fileio.save_curve_csv(out_dir / "angle_curve.csv", angle_curve)

    if args.pred_frames and args.gt_frames:
        pred_dir = _require(args.pred_frames, "predicted frames")
        gt_dir = _require(args.gt_frames, "ground-truth frames")

        def distances(frame):
            pred = fileio.load_frame_coords(pred_dir, frame)
            gt, gt_labels = fileio.load_frame(gt_dir, frame)
            # distances come in raster order over gt-valid pixels; pick the buildings among them
            dist = evaluation.coord_distances(pred, gt)[0]
            return dist, dist[gt_labels.instance_mask[gt.mask]]

        chunks = _map_frames(distances, fileio.list_frames(gt_dir), args.threads)
        columns = []
        for key, parts in zip(("coord", "coord_buildings"), zip(*chunks)):
            dist = np.concatenate(parts)
            if dist.size:
                report[key] = asdict(evaluation.coord_metrics(dist))
                columns.append((key, evaluation.roc_percentages(dist, _ROC_THRESHOLDS)))
        if columns:
            fileio.save_roc_csv(out_dir / "roc.csv", _ROC_THRESHOLDS, columns)

    fileio.save_json(out_dir / "report.json", report, sort_keys=True)
    _write_meta(out_dir, "evaluate", args)
    if "pose" in report:
        pm = report["pose"]
        print(f"evaluate: median {pm['median_dist_m']:.4f} m / "
              f"{pm['median_angle_deg']:.4f} deg over {len(errors)} frames -> {out_dir}")
    else:
        print(f"evaluate: no successful frames -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """(parser, {subcommand: subparser}), built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="panoloc", allow_abbrev=False,
        description="Spherical-panorama relocalisation pipeline on synthetic cuboid cities")
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, func, help, seeded=True, **defaults):
        p = subparsers[name] = subs.add_parser(name, help=help, allow_abbrev=False)
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="global random seed")
        p.add_argument("--threads", type=int, default=1,
                       help="threads (at least 1) to split frames over (unused by generate and "
                            "fit-map --cloud); never changes the output")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--out", type=str, required=False, default="out",
                       help="output directory (or file for fit-map)")
        p.set_defaults(func=func, **defaults)
        return p

    p = add("generate", cmd_generate, "generate a city and camera trajectory")
    p.add_argument("--preset", choices=["small", "large"], default=None)
    p.add_argument("--buildings", type=int, default=None)
    p.add_argument("--grid", type=str, default="13x12", help="block grid GXxGZ")
    p.add_argument("--poses", type=int, default=100)

    p = add("render", cmd_render, "ray-cast ground-truth frames", seeded=False)
    p.add_argument("--scene", type=str, required=True)
    p.add_argument("--poses", type=str, required=True)
    p.add_argument("--dims", type=str, default="512x256")

    p = add("fit-map", cmd_fit_map, "fit per-instance whitening transforms", out="map.json")
    p.add_argument("--frames", type=str, default=None)
    p.add_argument("--cloud", type=str, default=None, help="ASCII PLY point cloud")
    p.add_argument("--max-points-per-frame", type=int, default=0)

    p = add("predict-sim", cmd_predict_sim, "simulate predictor output from ground truth")
    p.add_argument("--frames", type=str, required=True)
    p.add_argument("--map", type=str, required=True)
    p.add_argument("--scene", type=str, default=None,
                   help="scene file for the outlier resampling volume")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--label-flip-rate", type=float, default=0.0)

    p = add("localize", cmd_localize, "estimate poses from predicted frames")
    p.add_argument("--frames", type=str, required=True)
    p.add_argument("--map", type=str, required=True)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--threshold-deg", type=float, default=0.22)
    p.add_argument("--max-corrs", type=int, default=5000,
                   help="seeded per-frame correspondence cap (0 = no cap)")

    p = add("evaluate", cmd_evaluate, "score estimates and predictions", seeded=False)
    p.add_argument("--estimates", type=str, required=True)
    p.add_argument("--gt-poses", type=str, required=True)
    p.add_argument("--pred-frames", type=str, default=None)
    p.add_argument("--gt-frames", type=str, default=None)
    p.add_argument("--percentiles", type=str, default="",
                   help="extra pose percentiles in [0, 100], e.g. '80'")
    return parser, subparsers


def _config_value(action, key, value, config_path):
    """A config value as its flag takes it: a string through the flag's type,
    as on the command line, and a number only for an int flag (an integer,
    not a bool) or a float flag. null stays null where that is the default."""
    kind = action.type or str
    taken = isinstance(value, str) or type(value) in ((int, float) if kind is float else (kind,))
    try:
        value = kind(value) if taken else value
    except (ValueError, OverflowError):  # float() of an integer beyond the float range
        taken = False
    if taken and value in (action.choices or [value]) or value is None is action.default:
        return value
    want = (f"one of {', '.join(action.choices)}" if action.choices
            else {int: "an integer", float: "a number", str: "a string"}[kind])
    raise InputError(f"key {key!r} in config {config_path} takes {want}, got {json.dumps(value)}")


def _config_args(argv, subparsers) -> list:
    """The ``--config`` JSON file's values for subcommand ``argv[0]`` as
    ``--flag=value`` arguments; none without a config.

    A top-level key must be a flag of some subcommand and applies to the
    subcommands that have it; a key that names a subcommand holds a section
    of that subcommand's flags, which wins over top-level keys. Any other
    key raises InputError, so a typo is not silently ignored, and so does
    a value its flag would not take (``_config_value``). A null leaves its
    flag unset, the default. ``main`` parses these arguments ahead of the
    command line's own, so an explicit flag wins.
    """
    config_path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
    if config_path is None:
        return []
    with open(config_path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise InputError(f"config {config_path} must hold a JSON object")
    flags = {name: {action.dest: action for action in sub._actions
                    if action.dest not in ("help", "config")}
             for name, sub in subparsers.items()}
    shared, sections = {}, {}
    for key, value in config.items():
        if key in subparsers:
            if not isinstance(value, dict):
                raise InputError(f"section {key!r} of config {config_path} must be a JSON object")
            for sub_key in value:
                if sub_key.replace("-", "_") not in flags[key]:
                    raise InputError(f"unknown key {sub_key!r} in section {key!r} "
                                     f"of config {config_path}")
            sections[key] = {k.replace("-", "_"): (k, v) for k, v in value.items()}
        elif any(key.replace("-", "_") in names for names in flags.values()):
            shared[key.replace("-", "_")] = (key, value)
        else:
            raise InputError(f"unknown key {key!r} in config {config_path}")
    command = argv[0]  # argv holds --config, so it is not empty
    if command not in subparsers:
        return []
    chosen = {k: v for k, v in shared.items() if k in flags[command]}
    chosen.update(sections.get(command, {}))
    values = {flags[command][dest]: _config_value(flags[command][dest], key, value, config_path)
              for dest, (key, value) in chosen.items()}
    return [f"{action.option_strings[0]}={value}"
            for action, value in values.items() if value is not None]


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Serve arrays up to 32 MiB from the heap and keep up to 256 MiB of
    freed heap memory in the process (glibc ``mallopt``; a no-op without it).

    By default glibc maps arrays above a threshold that it moves as
    memory is freed, and unmaps the heap top once twice that lies free
    there, so whether a stage's arrays landed on fresh pages depended on
    what the process ran before: in the pipeline benchmark's loop of
    stages, one round took 4,500 to 45,000 minor page faults, and stage
    times moved by up to 30% with the length of a directory name. With
    fixed thresholds a round takes at most a few hundred.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        config_args = _config_args(argv, subparsers)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or integer literal
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv[:1] + config_args + argv[1:])
    try:
        _check_flags(args)
        return args.func(args)
    except (InputError, FileNotFoundError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
